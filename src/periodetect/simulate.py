"""Scenario generation and Monte Carlo performance estimation.

Trial independence and reproducibility come from counter-based random
streams: trial ``i`` of a run with master seed ``s`` always draws from a
Philox generator keyed by ``(s, i)``, so serial and multi-worker executions
produce bit-identical reports, and per-trial results never depend on how
trials are partitioned across workers.

Censoring is never silent: every report carries the number of trials whose
outcome was cut off by the horizon, and the affected estimates are bounds
(detection delays and run lengths are lower bounds under censoring).
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .densities import Gaussian
from .model import ChangePointPrior, IpidLaw, MultistreamConfig, prior_from_dict
from .detectors import ClassifierBankDetector

_U64 = np.uint64


class InsufficientDataError(RuntimeError):
    """No qualifying trials were available to form the requested estimate."""


def trial_rng(master_seed: int, trial_index: int = 0) -> np.random.Generator:
    """Counter-based per-trial stream keyed by (master seed, trial index)."""
    key = np.array([int(master_seed) % 2**64, int(trial_index) % 2**64], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class FixedChange:
    """Change occurs at a known sample index (1-based)."""

    nu: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", int(self.nu))
        if self.nu < 1:
            raise ValueError("change points are 1-based")


@dataclass(frozen=True)
class DrawnChange:
    """Change point drawn from a prior at the start of each trial."""

    prior: ChangePointPrior


@dataclass(frozen=True)
class NoChange:
    """The process never changes; the change point is at infinity."""


ChangeSpec = Union[FixedChange, DrawnChange, NoChange]


@dataclass(frozen=True)
class ScenarioSpec:
    """One reproducible data-generation setup."""

    pre: IpidLaw
    post: IpidLaw | None
    change: ChangeSpec
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "seed", int(self.seed))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not isinstance(self.change, NoChange):
            if self.post is None:
                raise ValueError("a post-change law is required unless the scenario is NoChange")
            if self.post.period != self.pre.period:
                raise ValueError("pre and post laws must share one period")


def _is_all_gaussian(*laws: IpidLaw) -> bool:
    return all(isinstance(d, Gaussian) for law in laws for d in law.slots)


def sample_law(rng: np.random.Generator, law: IpidLaw, n: int, start_slot: int = 0) -> np.ndarray:
    """Draw ``n`` consecutive observations from one law, starting in ``start_slot``."""
    if n <= 0:
        return np.empty(0)
    slots = (start_slot + np.arange(n)) % law.period
    if _is_all_gaussian(law):
        means = np.array([d.mean for d in law.slots])
        stds = np.array([math.sqrt(d.variance) for d in law.slots])
        return means[slots] + stds[slots] * rng.standard_normal(n)
    out = np.empty(n)
    for s in range(law.period):
        idx = np.nonzero(slots == s)[0]
        if idx.size:
            out[idx] = np.asarray(law.slots[s].sample(rng, idx.size), dtype=float)
    return out


def sample_with_change(rng: np.random.Generator, pre: IpidLaw, post: IpidLaw | None,
                       nu: float, horizon: int) -> np.ndarray:
    """Observations 1..horizon: slot density from ``pre`` before ``nu``, from ``post`` after."""
    if horizon <= 0:
        return np.empty(0)
    times = np.arange(1, horizon + 1)
    slots = (times - 1) % pre.period
    pre_mask = times < nu
    if post is None or pre_mask.all():
        return sample_law(rng, pre, horizon)
    if _is_all_gaussian(pre, post):
        means_pre = np.array([d.mean for d in pre.slots])
        stds_pre = np.array([math.sqrt(d.variance) for d in pre.slots])
        means_post = np.array([d.mean for d in post.slots])
        stds_post = np.array([math.sqrt(d.variance) for d in post.slots])
        means = np.where(pre_mask, means_pre[slots], means_post[slots])
        stds = np.where(pre_mask, stds_pre[slots], stds_post[slots])
        return means + stds * rng.standard_normal(horizon)
    out = np.empty(horizon)
    for law, mask in ((pre, pre_mask), (post, ~pre_mask)):
        for s in range(law.period):
            idx = np.nonzero(mask & (slots == s))[0]
            if idx.size:
                out[idx] = np.asarray(law.slots[s].sample(rng, idx.size), dtype=float)
    return out


def _draw_nu(rng: np.random.Generator, change: ChangeSpec) -> float:
    if isinstance(change, FixedChange):
        return change.nu
    if isinstance(change, DrawnChange):
        return change.prior.sample(rng)
    return math.inf


def generate(spec: ScenarioSpec) -> tuple[np.ndarray, float]:
    """Realize one scenario: observations plus the realized change point (inf if none)."""
    rng = trial_rng(spec.seed)
    nu = _draw_nu(rng, spec.change)
    obs = sample_with_change(rng, spec.pre, spec.post, nu, spec.horizon)
    return obs, nu


def generate_multistream(config: MultistreamConfig, changed_streams, change: ChangeSpec,
                         horizon: int, seed: int) -> tuple[np.ndarray, float]:
    """Realize a multistream scenario as an (horizon, L) matrix plus the change point.

    Streams outside ``changed_streams`` follow their pre-change law throughout.
    """
    if changed_streams is not None:
        b = frozenset(int(i) for i in changed_streams)
        if b not in config.candidates:
            raise ValueError(f"unknown candidate {sorted(b)}")
    else:
        b = frozenset()
    rng = trial_rng(seed)
    nu = _draw_nu(rng, change)
    cols = []
    for i, (pre, post) in enumerate(config.streams):
        cols.append(sample_with_change(rng, pre, post if i in b else None, nu, horizon))
    return np.stack(cols, axis=1), nu


def mexican_hat_wavelet(t: float, width: float = 1.0) -> float:
    """Second-derivative-of-Gaussian bump, normalized like the standard wavelet."""
    if width <= 0.0:
        raise ValueError("width must be > 0")
    u = t / width
    return (2.0 / (math.sqrt(3.0 * width) * math.pi ** 0.25)) * (1.0 - u * u) * math.exp(-u * u / 2.0)


def signal_law(kind: str, period: int, variance: float, *, amplitude: float = 1.0,
               levels: tuple[float, float] = (1.0, -1.0), half_period: int | None = None,
               width: float = 1.0) -> IpidLaw:
    """Gaussian law whose slot means trace a named waveform.

    ``half-sine``: one positive half arch sampled at slot midpoints,
    ``amplitude * sin(pi (i + 1/2) / T)``.  ``square``: the first
    ``half_period`` slots at ``levels[0]``, the rest at ``levels[1]``.
    ``mexican-hat``: the wavelet sampled uniformly on [-5 width, 5 width].
    All slots share the given noise variance.
    """
    if period < 2:
        raise ValueError("waveform laws need period >= 2")
    if variance <= 0.0:
        raise ValueError("variance must be > 0")
    if kind == "half-sine":
        means = [amplitude * math.sin(math.pi * (i + 0.5) / period) for i in range(period)]
    elif kind == "square":
        half = period // 2 if half_period is None else int(half_period)
        if not (1 <= half < period):
            raise ValueError("half_period must lie in 1..period-1")
        means = [levels[0] if i < half else levels[1] for i in range(period)]
    elif kind == "mexican-hat":
        ts = np.linspace(-5.0 * width, 5.0 * width, period)
        means = [amplitude * mexican_hat_wavelet(float(t), width) for t in ts]
    else:
        raise ValueError(f"unknown waveform kind {kind!r}")
    return IpidLaw(period=period, slots=tuple(Gaussian(mean=m, variance=variance) for m in means))


@dataclass(frozen=True)
class MonteCarloReport:
    """One estimated performance figure with its sampling uncertainty."""

    metric: str
    trials: int
    estimate: float
    std_error: float
    censored_trials: int = 0
    predicted: float | None = None
    budget: float | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.metric in ("pfa", "misclass") and not (0.0 <= self.estimate <= 1.0):
            raise ValueError(f"{self.metric} estimate must lie in [0, 1], got {self.estimate}")
        if self.std_error < 0.0:
            raise ValueError("standard error must be >= 0")
        if not (0 <= self.censored_trials <= self.trials):
            raise ValueError("censored trial count out of range")

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "trials": self.trials,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "censored_trials": self.censored_trials,
            "predicted": self.predicted,
            "budget": self.budget,
            "details": dict(self.details),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MonteCarloReport":
        return cls(
            metric=obj["metric"],
            trials=obj["trials"],
            estimate=obj["estimate"],
            std_error=obj["std_error"],
            censored_trials=obj.get("censored_trials", 0),
            predicted=obj.get("predicted"),
            budget=obj.get("budget"),
            details=dict(obj.get("details", {})),
        )


def _chunks(trials: int, workers: int) -> list[np.ndarray]:
    parts = np.array_split(np.arange(trials), max(1, min(workers, trials)))
    return [p for p in parts if p.size]


def _map_chunks(worker, common: tuple, trials: int, workers: int) -> list:
    chunks = _chunks(trials, workers)
    args = [(common, chunk) for chunk in chunks]
    if len(args) == 1 or workers <= 1:
        return [worker(a) for a in args]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=len(args)) as pool:
        return pool.map(worker, args)


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _mean_se(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def _pfa_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    (proto, pre, prior, horizon, master_seed), indices = args
    fa = np.zeros(indices.size, dtype=bool)
    censored = np.zeros(indices.size, dtype=bool)
    for j, i in enumerate(indices):
        rng = trial_rng(master_seed, int(i))
        nu = prior.sample(rng)
        n_pre = min(nu - 1, horizon)
        obs = sample_law(rng, pre, n_pre)
        hit = proto.fresh().run_to_alarm(obs)
        fa[j] = hit is not None
        censored[j] = hit is None and (nu - 1) > horizon
    return fa, censored


def estimate_pfa(detector, pre: IpidLaw, prior: ChangePointPrior, trials: int, horizon: int,
                 master_seed: int, *, workers: int = 1, predicted: float | None = None,
                 budget: float | None = None) -> MonteCarloReport:
    """Probability that the detector fires strictly before the drawn change point.

    Only the event {alarm before nu} matters, and it is decided by pre-change
    data alone, so each trial simulates at most ``min(nu - 1, horizon)``
    baseline samples.  Trials whose change point lies beyond the horizon with
    no alarm by then are undecidable and counted as censored; they count as
    "no false alarm", so with any censoring the estimate is a lower bound.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    parts = _map_chunks(_pfa_chunk, (detector, pre, prior, horizon, master_seed), trials, workers)
    fa = np.concatenate([p[0] for p in parts])
    censored = np.concatenate([p[1] for p in parts])
    est = float(fa.mean())
    return MonteCarloReport(
        metric="pfa", trials=trials, estimate=est, std_error=_binomial_se(est, trials),
        censored_trials=int(censored.sum()), predicted=predicted, budget=budget,
        details={"alarm_trials": int(fa.sum()), "lower_bound_when_censored": bool(censored.any())},
    )


def _add_chunk(args) -> tuple[np.ndarray, ...]:
    (proto, pre, post, change, horizon, master_seed), indices = args
    n = indices.size
    delay = np.full(n, np.nan)
    delay_pos = np.zeros(n)
    qualified = np.zeros(n, dtype=bool)
    censored = np.zeros(n, dtype=bool)
    false_alarm = np.zeros(n, dtype=bool)
    for j, i in enumerate(indices):
        rng = trial_rng(master_seed, int(i))
        nu = _draw_nu(rng, change)
        obs = sample_with_change(rng, pre, post, nu, horizon)
        hit = proto.fresh().run_to_alarm(obs)
        if hit is not None:
            if hit.time_index < nu:
                false_alarm[j] = True
            else:
                qualified[j] = True
                delay[j] = hit.time_index - nu
                delay_pos[j] = delay[j]
        else:
            censored[j] = True
            if nu <= horizon:
                qualified[j] = True
                delay[j] = horizon - nu
                delay_pos[j] = delay[j]
    return delay, delay_pos, qualified, censored, false_alarm


def estimate_add(detector, pre: IpidLaw, post: IpidLaw, change: ChangeSpec, trials: int,
                 horizon: int, master_seed: int, *, workers: int = 1,
                 predicted: float | None = None, budget: float | None = None) -> MonteCarloReport:
    """Average detection delay, conditional on stopping at or after the change.

    The estimate is the mean of ``tau - nu`` over qualifying trials; censored
    trials (no alarm by the horizon but the change did occur) contribute the
    lower bound ``horizon - nu`` and are reported, so the estimate is a lower
    bound whenever censoring is present.  The unconditional mean of
    ``(tau - nu)^+`` over all trials is reported alongside.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    parts = _map_chunks(_add_chunk, (detector, pre, post, change, horizon, master_seed), trials, workers)
    delay = np.concatenate([p[0] for p in parts])
    delay_pos = np.concatenate([p[1] for p in parts])
    qualified = np.concatenate([p[2] for p in parts])
    censored = np.concatenate([p[3] for p in parts])
    false_alarm = np.concatenate([p[4] for p in parts])
    if not qualified.any():
        raise InsufficientDataError("no trial stopped at or after its change point")
    cond = delay[qualified]
    return MonteCarloReport(
        metric="add", trials=trials, estimate=float(cond.mean()), std_error=_mean_se(cond),
        censored_trials=int(censored.sum()), predicted=predicted, budget=budget,
        details={
            "qualifying_trials": int(qualified.sum()),
            "false_alarm_trials": int(false_alarm.sum()),
            "unconditional_mean_positive_delay": float(delay_pos.mean()),
        },
    )


def _arl_chunk(args) -> tuple[np.ndarray, np.ndarray]:
    (proto, pre, horizon_cap, master_seed), indices = args
    values = np.zeros(indices.size)
    censored = np.zeros(indices.size, dtype=bool)
    for j, i in enumerate(indices):
        rng = trial_rng(master_seed, int(i))
        obs = sample_law(rng, pre, horizon_cap)
        hit = proto.fresh().run_to_alarm(obs)
        if hit is None:
            values[j] = horizon_cap
            censored[j] = True
        else:
            values[j] = hit.time_index
    return values, censored


def estimate_arl(detector, pre: IpidLaw, trials: int, horizon_cap: int, master_seed: int,
                 *, workers: int = 1, predicted: float | None = None,
                 budget: float | None = None) -> MonteCarloReport:
    """Mean time to the first alarm when no change ever occurs.

    Run lengths are capped at ``horizon_cap``; with any censoring the estimate
    is a lower bound on the true average run length.
    """
    if trials < 1 or horizon_cap < 1:
        raise ValueError("trials and horizon_cap must be >= 1")
    parts = _map_chunks(_arl_chunk, (detector, pre, horizon_cap, master_seed), trials, workers)
    values = np.concatenate([p[0] for p in parts])
    censored = np.concatenate([p[1] for p in parts])
    return MonteCarloReport(
        metric="arl", trials=trials, estimate=float(values.mean()), std_error=_mean_se(values),
        censored_trials=int(censored.sum()), predicted=predicted, budget=budget,
        details={"horizon_cap": int(horizon_cap), "lower_bound_when_censored": bool(censored.any())},
    )


def _misclass_chunk(args) -> tuple[np.ndarray, ...]:
    (proto, true_class, horizon, master_seed), indices = args
    n = indices.size
    alarmed = np.zeros(n, dtype=bool)
    wrong = np.zeros(n, dtype=bool)
    tau = np.full(n, np.nan)
    law = proto.bank.laws[true_class]
    for j, i in enumerate(indices):
        rng = trial_rng(master_seed, int(i))
        obs = sample_law(rng, law, horizon)
        hit = proto.fresh().run_to_alarm(obs)
        if hit is not None:
            alarmed[j] = True
            tau[j] = hit.time_index
            wrong[j] = hit.decided_class != true_class
    return alarmed, wrong, tau


def estimate_misclass(detector: ClassifierBankDetector, true_class: int, trials: int, horizon: int,
                      master_seed: int, *, workers: int = 1, predicted: float | None = None,
                      budget: float | None = None) -> MonteCarloReport:
    """Fraction of alarmed trials that name the wrong class, with the change at sample one.

    Also reports the mean stopping time (and the mean delay ``tau - 1``) over
    alarmed trials.  When ``budget`` is the mean-time-to-false-alarm target
    ``beta``, the concrete misclassification bound ``mean(tau) / beta`` is
    attached for reference.
    """
    if not (1 <= true_class <= detector.num_classes):
        raise ValueError(f"true_class must lie in 1..{detector.num_classes}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    parts = _map_chunks(_misclass_chunk, (detector, true_class, horizon, master_seed), trials, workers)
    alarmed = np.concatenate([p[0] for p in parts])
    wrong = np.concatenate([p[1] for p in parts])
    tau = np.concatenate([p[2] for p in parts])
    n_alarmed = int(alarmed.sum())
    if n_alarmed == 0:
        raise InsufficientDataError("no trial raised an alarm within the horizon")
    est = float(wrong.sum() / n_alarmed)
    mean_tau = float(tau[alarmed].mean())
    details = {
        "alarmed_trials": n_alarmed,
        "wrong_trials": int(wrong.sum()),
        "mean_stop_time": mean_tau,
        "stop_time_se": _mean_se(tau[alarmed]),
        "mean_delay": mean_tau - 1.0,
    }
    if budget is not None and budget > 0:
        details["misclass_bound_mean_tau_over_beta"] = mean_tau / budget
    return MonteCarloReport(
        metric="misclass", trials=trials, estimate=est,
        std_error=_binomial_se(est, n_alarmed),
        censored_trials=trials - n_alarmed, predicted=predicted, budget=budget, details=details,
    )


def _pinned_chunk(args) -> tuple[np.ndarray, ...]:
    (proto, post, nu, horizon, master_seed), indices = args
    n = indices.size
    delay = np.full(n, np.nan)
    qualified = np.zeros(n, dtype=bool)
    censored = np.zeros(n, dtype=bool)
    start_slot = (nu - 1) % post.period
    for j, i in enumerate(indices):
        rng = trial_rng(master_seed, int(i))
        obs = sample_law(rng, post, horizon - nu + 1, start_slot=start_slot)
        hit = proto.fresh(start_time=nu - 1).run_to_alarm(obs)
        if hit is not None:
            qualified[j] = True
            delay[j] = hit.time_index - nu
        else:
            qualified[j] = True
            censored[j] = True
            delay[j] = horizon - nu
    return delay, qualified, censored


@dataclass(frozen=True)
class WorstCaseDelayReport:
    """Per-change-point delay estimates under both conditioning surrogates.

    ``natural`` lets the detector state evolve on pre-change data up to the
    change point; ``pinned`` restarts the statistic at zero there.  Neither is
    claimed to be the exact worst case over histories; both are reported.
    """

    per_change_point: tuple[tuple[int, MonteCarloReport, MonteCarloReport], ...]
    max_natural: float
    max_pinned: float

    def to_dict(self) -> dict:
        return {
            "per_change_point": [
                {"nu": nu, "natural": nat.to_dict(), "pinned": pin.to_dict()}
                for nu, nat, pin in self.per_change_point
            ],
            "max_natural": self.max_natural,
            "max_pinned": self.max_pinned,
        }


def worst_case_delay(detector, pre: IpidLaw, post: IpidLaw, trials: int, horizon: int,
                     master_seed: int, *, change_points=None, workers: int = 1) -> WorstCaseDelayReport:
    """Scan conditional delay over change points in one period and report the maximum."""
    nus = list(change_points) if change_points is not None else list(range(1, pre.period + 1))
    rows = []
    for nu in nus:
        if not (1 <= nu <= horizon):
            raise ValueError(f"change point {nu} outside 1..horizon")
        natural = estimate_add(detector, pre, post, FixedChange(nu), trials, horizon, master_seed,
                               workers=workers)
        parts = _map_chunks(_pinned_chunk, (detector, post, nu, horizon, master_seed), trials, workers)
        delay = np.concatenate([p[0] for p in parts])
        censored = np.concatenate([p[2] for p in parts])
        pinned = MonteCarloReport(
            metric="add", trials=trials, estimate=float(delay.mean()), std_error=_mean_se(delay),
            censored_trials=int(censored.sum()),
            details={"qualifying_trials": int(trials), "state": "pinned-at-change"},
        )
        rows.append((nu, natural, pinned))
    return WorstCaseDelayReport(
        per_change_point=tuple(rows),
        max_natural=max(r[1].estimate for r in rows),
        max_pinned=max(r[2].estimate for r in rows),
    )


def change_from_dict(obj: dict) -> ChangeSpec:
    kind = obj.get("type")
    if kind == "fixed":
        return FixedChange(nu=obj["nu"])
    if kind == "drawn":
        return DrawnChange(prior=prior_from_dict(obj["prior"]))
    if kind == "nochange":
        return NoChange()
    raise ValueError(f"unknown change spec type {kind!r}")


def change_to_dict(change: ChangeSpec) -> dict:
    if isinstance(change, FixedChange):
        return {"type": "fixed", "nu": change.nu}
    if isinstance(change, DrawnChange):
        return {"type": "drawn", "prior": change.prior.to_dict()}
    if isinstance(change, NoChange):
        return {"type": "nochange"}
    raise TypeError(f"not a change spec: {change!r}")
