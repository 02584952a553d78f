"""Workload inputs and reference outcomes for the periodetect benchmark.

Every input file is generated here from the workload seed with numpy alone,
and every expected outcome is recomputed here from the model definitions, so a
change to periodetect's own sampling, scoring or scans cannot change what the
benchmark feeds in or what it accepts as correct.

The Monte Carlo references rely on one documented contract of
``periodetect evaluate``: trial ``i`` of a run with master seed ``s`` draws
from a Philox generator keyed by ``(s, i)``, first the change point (when the
metric draws one) and then one standard normal per Gaussian observation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REL_TOL = 1e-9    # evaluate estimates (C1's mixture gate)
CUSUM_TOL = 1e-10  # detect statistic column, absolute (C1's CUSUM gate)


@dataclass
class Workload:
    """One prepared workload: two CLI invocations plus their output checks.

    ``full_argv`` is the measured operation and ``small_argv`` the same
    command at minimal size.  Each check reads the operation's output files
    and returns an error message, or None when the output is correct.
    ``trials`` and ``samples`` are the Monte Carlo trials and the observations
    scanned by one full operation.
    """

    name: str
    full_argv: list[str]
    small_argv: list[str]
    check_full: Callable[[Path], str | None]
    check_small: Callable[[Path], str | None]
    trials: int
    samples: int


# ---------------------------------------------------------------- helpers

def _gaussian_law(means, variance=1.0) -> dict:
    return {"period": len(means),
            "slots": [{"type": "gaussian", "mean": float(m), "variance": variance} for m in means]}


def _poisson_law(rates) -> dict:
    return {"period": len(rates), "slots": [{"type": "poisson", "rate": float(r)} for r in rates]}


def _trial_stream(master_seed: int, trial: int) -> np.random.Generator:
    key = np.array([master_seed % 2**64, trial % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _gaussian_llr(x, mean_num, mean_den, variance=1.0):
    """log N(x; mean_num, variance) - log N(x; mean_den, variance)."""
    return ((x - mean_den) ** 2 - (x - mean_num) ** 2) / (2.0 * variance)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload))


def _evaluate_argv(scenario: str, trials: int, out: str) -> list[str]:
    return ["evaluate", "--scenario", scenario, "--trials", str(trials),
            "--workers", "1", "--out", out]


def _lookup(report: dict, key: str):
    node = report
    for part in key.split("."):
        node = node[part]
    return node


def _report_checker(out: str, expected_ints: dict, expected_floats: dict):
    """Compare an evaluate report: integer counts exactly, floats within REL_TOL."""

    def check(work: Path) -> str | None:
        try:
            report = json.loads((work / out).read_text())
        except (OSError, ValueError) as exc:
            return f"{out}: unreadable report ({exc})"
        for key, want in expected_ints.items():
            got = _lookup(report, key)
            if got != want:
                return f"{out}: {key} is {got}, reference {want}"
        for key, want in expected_floats.items():
            got = _lookup(report, key)
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
                return f"{out}: {key} is {got!r}, reference {want!r}"
        return None

    return check


# ------------------------------------------------------- mc_pfa_shiryaev

PFA_PRE = np.array([0.0, 0.5, 1.0, 0.5])
PFA_POST = PFA_PRE + 0.5
PFA_RHO, PFA_ALPHA, PFA_HORIZON, PFA_TRIALS = 0.05, 0.05, 400, 10_000


def pfa_reference(master_seed: int, trials: int) -> dict:
    """Per-trial Shiryaev outcomes on pre-change data, vectorized across trials."""
    period = PFA_PRE.size
    nus = np.empty(trials, dtype=np.int64)
    n_pre = np.empty(trials, dtype=np.int64)
    z = np.full((trials, PFA_HORIZON), np.nan)
    slots = np.arange(PFA_HORIZON) % period
    for i in range(trials):
        rng = _trial_stream(master_seed, i)
        nus[i] = int(rng.geometric(PFA_RHO))
        n = min(int(nus[i]) - 1, PFA_HORIZON)
        n_pre[i] = n
        if n > 0:
            s = slots[:n]
            x = PFA_PRE[s] + 1.0 * rng.standard_normal(n)
            z[i, :n] = _gaussian_llr(x, PFA_POST[s], PFA_PRE[s])
    thr = _logit(1.0 - PFA_ALPHA)
    ln_rho, ln_1m_rho = math.log(PFA_RHO), math.log1p(-PFA_RHO)
    log_odds = np.full(trials, -np.inf)
    tau = np.zeros(trials, dtype=np.int64)  # 0: no alarm
    for t in range(int(n_pre.max(initial=0))):
        active = (tau == 0) & (t < n_pre)
        if not active.any():
            break
        log_odds = np.where(active, np.logaddexp(log_odds, ln_rho) - ln_1m_rho + np.nan_to_num(z[:, t]),
                            log_odds)
        tau[active & (log_odds >= thr)] = t + 1
    alarm = tau > 0
    censored = ~alarm & (nus - 1 > PFA_HORIZON)
    return {
        "ints": {"trials": trials, "censored_trials": int(censored.sum()),
                 "details.alarm_trials": int(alarm.sum())},
        "floats": {"estimate": float(alarm.mean())},
        "samples": int(np.where(alarm, tau, np.maximum(n_pre, 0)).sum()),
    }


def _prepare_pfa(seed: int, work: Path) -> Workload:
    _write_json(work / "scenario.json", {
        "metric": "pfa",
        "detector": {"kind": "shiryaev", "alpha": PFA_ALPHA, "rho": PFA_RHO},
        "pre": _gaussian_law(PFA_PRE), "post": _gaussian_law(PFA_POST),
        "prior": {"type": "geometric", "rho": PFA_RHO},
        "trials": PFA_TRIALS, "horizon": PFA_HORIZON, "seed": seed,
    })
    full, small = pfa_reference(seed, PFA_TRIALS), pfa_reference(seed, 1)
    return Workload(
        "mc_pfa_shiryaev",
        _evaluate_argv("scenario.json", PFA_TRIALS, "report.json"),
        _evaluate_argv("scenario.json", 1, "report_small.json"),
        _report_checker("report.json", full["ints"], full["floats"]),
        _report_checker("report_small.json", small["ints"], small["floats"]),
        PFA_TRIALS, full["samples"],
    )


# -------------------------------------------------------- mc_add_mixture

ADD_PERIOD, ADD_WINDOW, ADD_SHIFT = 24, 4, 0.5
ADD_PRE = np.sin(math.pi * (np.arange(ADD_PERIOD) + 0.5) / ADD_PERIOD)
ADD_CANDIDATES = [list(range(k, k + ADD_WINDOW)) for k in range(0, ADD_PERIOD, ADD_WINDOW)]
ADD_RHO, ADD_ALPHA, ADD_NU, ADD_HORIZON, ADD_TRIALS = 0.001, 1e-4, 2000, 5000, 60


def _candidate_means(slots) -> np.ndarray:
    means = ADD_PRE.copy()
    means[slots] += ADD_SHIFT
    return means


def add_reference(master_seed: int, trials: int, true_slots) -> dict:
    """Per-trial mixture-Shiryaev outcomes with the change fixed at ADD_NU."""
    slots = np.arange(ADD_HORIZON) % ADD_PERIOD
    before = np.arange(1, ADD_HORIZON + 1) < ADD_NU
    means = np.where(before, ADD_PRE[slots], _candidate_means(true_slots)[slots])
    x = np.empty((trials, ADD_HORIZON))
    for i in range(trials):
        x[i] = means + 1.0 * _trial_stream(master_seed, i).standard_normal(ADD_HORIZON)
    cand = np.stack([_candidate_means(c) for c in ADD_CANDIDATES])  # (K, period)
    weights = np.full(len(ADD_CANDIDATES), 1.0 / len(ADD_CANDIDATES))
    thr = (1.0 - ADD_ALPHA) / ADD_ALPHA
    ln_rho, ln_1m_rho = math.log(ADD_RHO), math.log1p(-ADD_RHO)
    log_odds = np.full((trials, len(ADD_CANDIDATES)), -np.inf)
    tau = np.zeros(trials, dtype=np.int64)
    for t in range(ADD_HORIZON):
        active = tau == 0
        if not active.any():
            break
        s = slots[t]
        z = _gaussian_llr(x[:, t, None], cand[None, :, s], ADD_PRE[s])
        log_odds = np.logaddexp(log_odds, ln_rho) - ln_1m_rho + z
        stat = np.exp(log_odds) @ weights
        tau[active & (stat > thr)] = t + 1
    alarm = tau > 0
    false_alarm = alarm & (tau < ADD_NU)
    qualified = (alarm & ~false_alarm) | (~alarm & (ADD_NU <= ADD_HORIZON))
    delay = np.where(alarm, tau - ADD_NU, ADD_HORIZON - ADD_NU)
    floats = {"details.unconditional_mean_positive_delay": float(np.where(qualified, delay, 0).mean())}
    if qualified.any():
        floats["estimate"] = float(delay[qualified].mean())
    return {
        "ints": {"trials": trials, "censored_trials": int((~alarm).sum()),
                 "details.qualifying_trials": int(qualified.sum()),
                 "details.false_alarm_trials": int(false_alarm.sum())},
        "floats": floats,
        "samples": int(np.where(alarm, tau, ADD_HORIZON).sum()),
    }


def _prepare_add(seed: int, work: Path) -> Workload:
    true_slots = ADD_CANDIDATES[int(np.random.default_rng(seed).integers(len(ADD_CANDIDATES)))]
    _write_json(work / "scenario.json", {
        "metric": "add",
        "detector": {"kind": "mixture", "alpha": ADD_ALPHA, "rho": ADD_RHO},
        "family": {
            "period": ADD_PERIOD, "pre": _gaussian_law(ADD_PRE),
            "post": _gaussian_law(ADD_PRE + ADD_SHIFT),
            "candidates": ADD_CANDIDATES,
            "weights": [1.0 / len(ADD_CANDIDATES)] * len(ADD_CANDIDATES),
        },
        "true_slots": true_slots,
        "prior": {"type": "geometric", "rho": ADD_RHO},
        "change": {"type": "fixed", "nu": ADD_NU},
        "trials": ADD_TRIALS, "horizon": ADD_HORIZON, "seed": seed,
    })
    full, small = add_reference(seed, ADD_TRIALS, true_slots), add_reference(seed, 1, true_slots)
    if small["ints"]["details.qualifying_trials"] == 0:
        raise RuntimeError(f"seed {seed}: trial 0 does not qualify, so the one-trial run cannot succeed")
    return Workload(
        "mc_add_mixture",
        _evaluate_argv("scenario.json", ADD_TRIALS, "report.json"),
        _evaluate_argv("scenario.json", 1, "report_small.json"),
        _report_checker("report.json", full["ints"], full["floats"]),
        _report_checker("report_small.json", small["ints"], small["floats"]),
        ADD_TRIALS, full["samples"],
    )


# ------------------------------------------------ mc_misclass_classifier

BANK_BASE = np.array([0.0, 0.5, 1.0, 0.5])
BANK_SHIFT = 0.7
BANK_LAWS = np.stack([
    BANK_BASE,
    BANK_BASE + BANK_SHIFT,
    BANK_BASE - BANK_SHIFT,
    BANK_BASE + BANK_SHIFT * np.array([1.0, 1.0, -1.0, -1.0]),
])
BANK_TRUE, BANK_BETA, BANK_WINDOW, BANK_HORIZON, BANK_TRIALS = 2, 1000.0, 50, 400, 800


def misclass_reference(master_seed: int, trials: int) -> dict:
    """Window-limited classifier-bank outcomes, vectorized across trials."""
    m = BANK_LAWS.shape[0] - 1
    period = BANK_BASE.size
    slots = np.arange(BANK_HORIZON) % period
    truth = BANK_LAWS[BANK_TRUE][slots]
    x = np.empty((trials, BANK_HORIZON))
    for i in range(trials):
        x[i] = truth + 1.0 * _trial_stream(master_seed, i).standard_normal(BANK_HORIZON)
    pairs = [(ell, mm) for ell in range(1, m + 1) for mm in range(m + 1) if mm != ell]
    z = np.stack([_gaussian_llr(x, BANK_LAWS[ell][slots], BANK_LAWS[mm][slots]) for ell, mm in pairs],
                 axis=2)
    sums = np.concatenate([np.zeros((trials, 1, len(pairs))), np.cumsum(z, axis=1)], axis=1)
    thr = math.log(4.0 * m * BANK_BETA)
    tau = np.zeros(trials, dtype=np.int64)
    decided = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials)
    for n in range(1, BANK_HORIZON + 1):
        if live.size == 0:
            break
        lo = max(0, n - 1 - BANK_WINDOW)
        diff = sums[live, n, None, :] - sums[live, lo:n, :]  # (live, checkpoints, pairs)
        stats = diff.reshape(live.size, n - lo, m, m).min(axis=3).max(axis=1)  # (live, classes)
        crossed = stats >= thr
        hit = crossed.any(axis=1)
        best = np.where(crossed, stats, -np.inf)
        tau[live[hit]] = n
        decided[live[hit]] = 1 + np.argmax(best[hit], axis=1)
        live = live[~hit]
    alarm = tau > 0
    wrong = alarm & (decided != BANK_TRUE)
    n_alarm = int(alarm.sum())
    floats = {}
    if n_alarm:
        floats = {"estimate": float(wrong.sum() / n_alarm),
                  "details.mean_stop_time": float(tau[alarm].mean())}
    return {
        "ints": {"trials": trials, "censored_trials": trials - n_alarm,
                 "details.alarmed_trials": n_alarm, "details.wrong_trials": int(wrong.sum())},
        "floats": floats,
        "samples": int(np.where(alarm, tau, BANK_HORIZON).sum()),
    }


def _prepare_misclass(seed: int, work: Path) -> Workload:
    _write_json(work / "scenario.json", {
        "metric": "misclass",
        "detector": {"kind": "classifier", "beta": BANK_BETA, "window": BANK_WINDOW},
        "bank": {"period": BANK_BASE.size, "laws": [_gaussian_law(law) for law in BANK_LAWS]},
        "true_class": BANK_TRUE,
        "trials": BANK_TRIALS, "horizon": BANK_HORIZON, "seed": seed,
    })
    full, small = misclass_reference(seed, BANK_TRIALS), misclass_reference(seed, 1)
    if small["ints"]["details.alarmed_trials"] == 0:
        raise RuntimeError(f"seed {seed}: trial 0 never alarms, so the one-trial run cannot succeed")
    return Workload(
        "mc_misclass_classifier",
        _evaluate_argv("scenario.json", BANK_TRIALS, "report.json"),
        _evaluate_argv("scenario.json", 1, "report_small.json"),
        _report_checker("report.json", full["ints"], full["floats"]),
        _report_checker("report_small.json", small["ints"], small["floats"]),
        BANK_TRIALS, full["samples"],
    )


# ---------------------------------------------------- detect_poisson_csv

DAY = 288  # 5-minute bins
DETECT_ROWS, DETECT_BETA = 100_000, 10_000.0


def day_profile(weekend: bool) -> np.ndarray:
    """Daily Poisson rates of the traffic example: busy 40, quiet 4, weekends at 45%."""
    phase = np.sin(math.pi * np.arange(DAY) / DAY) ** 2
    level = 4.0 + (40.0 - 4.0) * phase
    return np.maximum(0.5, level * (0.45 if weekend else 1.0))


def cusum_reference(x: np.ndarray, weekday: np.ndarray, weekend: np.ndarray):
    """CUSUM of log Poisson(weekend)/Poisson(weekday) with a reset after each alarm."""
    slots = np.arange(x.size) % DAY
    z = (x * (np.log(weekend) - np.log(weekday))[slots] + (weekday - weekend)[slots]).tolist()
    thr = math.log(DETECT_BETA)
    stat = np.empty(x.size)
    alarm = np.zeros(x.size, dtype=bool)
    w = 0.0
    for n, zn in enumerate(z):
        w = max(w, 0.0) + zn
        stat[n] = w
        if w >= thr:
            alarm[n] = True
            w = 0.0
    return stat, alarm


def _write_counts_csv(path: Path, x: np.ndarray) -> None:
    lines = [f"{i},{int(v)}" for i, v in enumerate(x, start=1)]
    path.write_text("time,value\n" + "\n".join(lines) + "\n")


def _detect_argv(inp: str, out: str, traj: str) -> list[str]:
    return ["detect", "--detector", "cusum", "--model", "weekday.json", "--model2", "weekend.json",
            "--beta", repr(DETECT_BETA), "--reset-on-alarm",
            "--input", inp, "--out", out, "--trajectory", traj]


def _detect_checker(out: str, traj: str, x: np.ndarray, stat: np.ndarray, alarm: np.ndarray):
    """Summary counts, trajectory row count, exact alarm times and the statistic gate."""
    alarm_times = np.nonzero(alarm)[0] + 1

    def check(work: Path) -> str | None:
        try:
            summary = json.loads((work / out).read_text())
            table = np.loadtxt(work / traj, delimiter=",", skiprows=1, usecols=(0, 2, 3, 4), ndmin=2)
        except (OSError, ValueError) as exc:
            return f"unreadable detect output ({exc})"
        if table.shape[0] != x.size:
            return f"{traj}: {table.shape[0]} trajectory rows for {x.size} input rows"
        times, obs, got_stat, got_alarm = table.T
        got_alarm = got_alarm == 1.0
        if not np.array_equal(times, np.arange(1, x.size + 1)):
            return f"{traj}: time_index column is not 1..{x.size}"
        if not np.array_equal(obs, x):
            return f"{traj}: observation column differs from the input"
        if not np.array_equal(got_alarm, alarm):
            first = int(np.nonzero(got_alarm != alarm)[0][0]) + 1
            return f"{traj}: alarm column differs from the reference first at time {first}"
        err = float(np.max(np.abs(got_stat - stat)))
        if not err <= CUSUM_TOL:
            return f"{traj}: statistic off the reference recursion by {err:.3g} > {CUSUM_TOL}"
        first = summary.get("first_alarm")
        want_first = int(alarm_times[0]) if alarm_times.size else None
        if summary.get("n_observations") != x.size or summary.get("alarm_count") != alarm_times.size \
                or (first or {}).get("time_index") != want_first:
            return f"{out}: summary disagrees with the reference alarms"
        return None

    return check


def _prepare_detect(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    weekday, weekend = day_profile(False), day_profile(True)
    days = DETECT_ROWS // DAY
    change_at = int(rng.integers(3 * days // 10, 7 * days // 10)) * DAY + 1  # a weekend starts
    slots = np.arange(DETECT_ROWS) % DAY
    rates = np.where(np.arange(1, DETECT_ROWS + 1) < change_at, weekday[slots], weekend[slots])
    x = rng.poisson(rates).astype(float)
    _write_json(work / "weekday.json", _poisson_law(weekday))
    _write_json(work / "weekend.json", _poisson_law(weekend))
    _write_counts_csv(work / "counts.csv", x)
    _write_counts_csv(work / "counts_small.csv", x[:1])
    stat, alarm = cusum_reference(x, weekday, weekend)
    return Workload(
        "detect_poisson_csv",
        _detect_argv("counts.csv", "summary.json", "trajectory.csv"),
        _detect_argv("counts_small.csv", "summary_small.json", "trajectory_small.csv"),
        _detect_checker("summary.json", "trajectory.csv", x, stat, alarm),
        _detect_checker("summary_small.json", "trajectory_small.csv", x[:1], stat[:1], alarm[:1]),
        1, DETECT_ROWS,
    )


PREPARE = {
    "mc_pfa_shiryaev": _prepare_pfa,
    "mc_add_mixture": _prepare_add,
    "mc_misclass_classifier": _prepare_misclass,
    "detect_poisson_csv": _prepare_detect,
}


def prepare(name: str, seed: int, work: Path) -> Workload:
    """Write the workload's input files into ``work`` and compute its references."""
    return PREPARE[name](seed, work)
