"""Scenario generation and Monte Carlo performance estimation.

Trial ``i`` of a run with master seed ``s`` always draws from a Philox
generator keyed by ``(s, i)``, so serial and multi-worker runs give
bit-identical reports.  A scenario is checked once, before any trial runs:
``trial_plans`` builds and checks its plans, and ``run_trials`` its counts.

Censoring is never silent: every report carries the number of trials whose
outcome was cut off by the horizon, and the affected estimates are bounds
(detection delays and run lengths are lower bounds under censoring).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from .densities import Gaussian
from .model import ChangePointPrior, IpidLaw, MultistreamConfig, _candidate, _whole_number, prior_from_dict
from .detectors import _SCAN_CHUNK, ClassifierBankDetector, MultistreamMixture

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
        object.__setattr__(self, "nu", _whole_number(self.nu, "change point"))
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
        object.__setattr__(self, "seed", _whole_number(self.seed, "seed"))
        # the plan checks the description
        object.__setattr__(self, "horizon", TrialPlan(self.pre, self.post, self.change, self.horizon).horizon)


def _gaussian_tables(pre: IpidLaw, post: IpidLaw, start: int, horizon: int) -> tuple[np.ndarray, ...] | None:
    """Observation numbers ``start + 1 .. horizon``, each with its slot's pre- and post-change mean
    and standard deviation, or None unless every slot of both laws is Gaussian."""
    if all(isinstance(d, Gaussian) for law in (pre, post) for d in law.slots):
        t = np.arange(start + 1, horizon + 1)
        return (t, *(np.array(values)[(t - 1) % pre.period] for law in (pre, post) for values in (
            [d.mean for d in law.slots], [math.sqrt(d.variance) for d in law.slots])))


def _gaussian_obs(tables, normals: np.ndarray, nu, lo: int = 0) -> np.ndarray:
    """Observations ``lo, lo + 1, ...`` of ``tables`` as ``mean + std * normal``, with the pre-change
    law's mean and std before the change point ``nu`` (a column: one per row of ``normals``)."""
    t, mp, sp, mq, sq = (table[lo:lo + normals.shape[-1]] for table in tables)
    return np.where(before := t < nu, mp, mq) + np.where(before, sp, sq) * normals


def sample_law(rng: np.random.Generator, law: IpidLaw, n: int, start_slot: int = 0) -> np.ndarray:
    """Draw ``n`` consecutive observations from one law, starting in ``start_slot``."""
    return sample_with_change(rng, law, None, math.inf, start_slot + n, start=start_slot)


def sample_with_change(rng: np.random.Generator, pre: IpidLaw, post: IpidLaw | None,
                       nu: float, horizon: int, start: int = 0) -> np.ndarray:
    """Observations ``start + 1 .. horizon``: slot density from ``pre`` before ``nu``, from ``post`` after.

    Observation ``t`` sits in slot ``(t - 1) mod T``.  Without ``post`` every
    observation follows ``pre``.  All-Gaussian laws draw one standard normal
    per observation and form it as the trial engine does (``_gaussian_obs``);
    otherwise each slot of ``pre``, then of ``post``, draws its observations
    in turn.
    """
    if post is not None and post.period != pre.period:
        raise ValueError("pre and post laws must share one period")
    if horizon <= start:
        return np.empty(0)
    n = horizon - start
    split = n if post is None or nu > horizon else max(0, math.ceil(nu) - 1 - start)
    post = pre if split == n else post
    if (tables := _gaussian_tables(pre, post, start, horizon)) is not None:
        return _gaussian_obs(tables, rng.standard_normal(n), nu)
    out = np.empty(n)
    for law, lo, hi in ((pre, 0, split), (post, split, n)):
        for s in range(law.period):
            cells = out[lo + (s - start - lo) % law.period:hi:law.period]  # slot s within lo..hi
            if cells.size:
                cells[:] = np.asarray(law.slots[s].sample(rng, cells.size), dtype=float)
    return out


def _draw_nu(rng: np.random.Generator, change: ChangeSpec) -> float:
    if isinstance(change, FixedChange):
        return change.nu
    if isinstance(change, DrawnChange):
        return change.prior.sample(rng)
    return math.inf


def generate(spec: ScenarioSpec) -> tuple[np.ndarray, float]:
    """Realize one scenario: observations plus the realized change point (inf if none)."""
    nu, obs = TrialPlan(spec.pre, spec.post, spec.change, spec.horizon).draw(spec.seed, 0)
    return obs, nu


def generate_multistream(config: MultistreamConfig, changed_streams, change: ChangeSpec,
                         horizon: int, seed: int) -> tuple[np.ndarray, float]:
    """Realize a multistream scenario as an (horizon, L) matrix plus the change point.

    Streams outside ``changed_streams`` follow their pre-change law throughout.
    """
    b = frozenset() if changed_streams is None else _candidate(config.candidates, changed_streams, "changed streams")
    spec = ScenarioSpec(*config.streams[0], change, horizon, seed)  # a single stream's checks
    rng = trial_rng(spec.seed)
    nu = _draw_nu(rng, change)
    cols = []
    for i, (pre, post) in enumerate(config.streams):
        cols.append(sample_with_change(rng, pre, post if i in b else None, nu, spec.horizon))
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
        return asdict(self)

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


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _mean_se(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


@dataclass(frozen=True)
class TrialPlan:
    """How trial ``i`` of a run draws its change point and its observations.

    ``stop_before_change`` draws only the observations before the change
    point (at most ``horizon``).  ``start_time`` is the detector's clock at
    the first observation, which is then observation ``start_time + 1``.  A
    post-change law is required unless the plan never draws past the change.
    """

    pre: IpidLaw
    post: IpidLaw | None
    change: ChangeSpec
    horizon: int
    stop_before_change: bool = False
    start_time: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _whole_number(self.horizon, "horizon"))
        object.__setattr__(self, "start_time", _whole_number(self.start_time, "start time"))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if isinstance(self.change, DrawnChange) and self.change.prior is None:
            raise ValueError("a drawn change point needs a prior")
        if self.post is None and not (isinstance(self.change, NoChange) or self.stop_before_change):
            raise ValueError("a post-change law is required unless the scenario is NoChange")
        if self.post is not None and self.post.period != self.pre.period:
            raise ValueError("pre and post laws must share one period")

    def draw(self, master_seed: int, i: int) -> tuple[float, np.ndarray]:
        """Trial ``i``'s change point and observations, from the stream keyed by ``(master_seed, i)``."""
        nu, _, obs = self._draw(trial_rng(master_seed, i))
        return nu, obs

    def _draw(self, rng: np.random.Generator, lazy: bool = False) -> tuple[float, int, np.ndarray | None]:
        """The change point, the number of observations and, unless ``lazy``, the observations."""
        nu = _draw_nu(rng, self.change)
        last = min(nu - 1, self.horizon) if self.stop_before_change else self.horizon
        return nu, max(0, last - self.start_time), None if lazy else sample_with_change(
            rng, self.pre, self.post, nu, last, start=self.start_time)


def _trial_streams(master_seed: int):
    """``rekey(i)`` sets one generator to the stream of ``trial_rng(master_seed, i)``: writing the
    key into the state of a new Philox (counter 0, empty buffer) costs a fraction of building one."""
    bitgen = np.random.Philox(key=np.array([int(master_seed) % 2**64, 0], dtype=_U64))
    rng, state = np.random.Generator(bitgen), bitgen.state

    def rekey(i: int) -> np.random.Generator:
        state["state"]["key"][1] = i % 2**64
        bitgen.state = state
        return rng

    return rekey


def trial_plans(metric: str, detector, pre: IpidLaw | None, post: IpidLaw | None, horizon: int, *,
                change: ChangeSpec | None = None, prior: ChangePointPrior | None = None,
                true_class: int | None = None, change_points=None) -> list[tuple[str, TrialPlan]]:
    """The labelled plans that an estimate of ``metric`` counts, in the order it counts them.

    ``misclass`` draws the law of ``true_class`` in the detector's bank from
    observation 1.  Single-arm metrics have the label ``""``; ``worst_case``
    has ``nu{nu}_natural_`` and ``nu{nu}_pinned_`` for each change point ``nu``
    (by default one period), the pinned detector starting at ``nu - 1``.
    Each trial draws one stream, so the multistream detector is rejected.
    """
    if isinstance(detector, MultistreamMixture):
        raise ValueError("evaluate draws one stream per trial, so the multistream detector is not supported")
    if metric == "pfa":
        return [("", TrialPlan(pre, None, DrawnChange(prior), horizon, stop_before_change=True))]
    if metric == "add":
        return [("", TrialPlan(pre, post, change, horizon))]
    if metric == "arl":
        return [("", TrialPlan(pre, None, NoChange(), horizon))]
    if metric == "misclass":
        if not isinstance(detector, ClassifierBankDetector):
            raise ValueError("misclass needs the classifier detector")
        law = detector.bank.class_law(true_class)
        return [("", TrialPlan(law, law, FixedChange(1), horizon))]
    if metric != "worst_case":
        raise ValueError(f"unknown metric {metric!r}")
    if change_points is not None and len(change_points) == 0:
        raise ValueError("change_points must name at least one change point")
    plans = []
    for nu in range(1, pre.period + 1) if change_points is None else change_points:
        nu = _whole_number(nu, "change_points")
        if not (1 <= nu <= horizon):
            raise ValueError(f"change point {nu} outside 1..horizon")
        plans += [(f"nu{nu}_natural_", TrialPlan(pre, post, FixedChange(nu), horizon)),
                  (f"nu{nu}_pinned_", TrialPlan(post, post, FixedChange(nu), horizon, start_time=nu - 1))]
    return plans


def _run_chunk(args) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials ``indices`` of a plan in rounds: a trial's first ``_first_scan`` draws (all if None),
    then rounds twice as long up to its alarm, each redrawn from the trial's stream (cheaper than
    keeping its generator) and resumed from the state the last left.  A round of ``m`` draws waits
    in a bucket; a bucket holding a scan block of scores per component goes onto the work list,
    which is scanned before the next trial enters, and the rest drain last, in increasing ``lo``."""
    (detector, plan, master_seed), indices = args
    keys = indices.tolist()
    nu, tau, decided = np.empty(len(keys)), np.full(len(keys), np.nan), np.zeros(len(keys), dtype=int)
    pre_only = plan.post is None or plan.stop_before_change or isinstance(plan.change, NoChange)
    tables = _gaussian_tables(plan.pre, plan.pre if pre_only else plan.post, plan.start_time, plan.horizon)
    rekey, lazy = _trial_streams(master_seed), tables is not None  # draw normals, not observations
    det = detector.fresh(start_time=plan.start_time)
    first = det._first_scan or plan.horizon
    buckets = {}  # lo << 6 | b, m in (2^(b-1), 2^b] -> [(trial, its draws lo .., its length, held state)]
    work = []  # (lo, rows) of full buckets, taken out of ``buckets``

    def enter(j: int, lo: int = 0, most: int = first, held=None) -> None:
        """Put trial ``j``'s draws ``lo .. lo + most`` (up to its length) in their bucket."""
        rng = rekey(keys[j])
        nu[j], count, draws = plan._draw(rng, lazy)
        m = count - lo if count - lo < most else most  # once per trial, so no min() call
        if m > 0:
            if lazy and lo:
                rng.standard_normal(lo)  # the normals of the rounds before
            draws = rng.standard_normal(m) if lazy else draws[lo:lo + m].copy()  # no stream held
            key = lo << 6 | (m - 1).bit_length()
            buckets.setdefault(key, []).append((j, draws, count, held))
            if len(buckets[key]) << (key & 63) >= _SCAN_CHUNK:  # one scan block of scores per component
                work.append((lo, buckets.pop(key)))

    def scan(lo: int, rows) -> None:
        js, draws, counts, held = zip(*rows)
        js, lengths = np.array(js), np.array([len(d) for d in draws])
        x = np.zeros((len(rows), lengths.max()))
        for r, d in enumerate(draws):
            x[r, :len(d)] = d
        if lazy:  # past a trial's length, its padding is scored and never scanned
            x = _gaussian_obs(tables, x, nu[js, None], lo)
        z = det._llr.profile(x, (det.time + lo) % det.period)
        hit, stop, found, state, *_ = det._scan_rows(z, lengths, *([np.stack(held, axis=1)] if lo else []))
        tau[js[hit]], decided[js[hit]] = det.time + lo + stop[hit] + 1, found[hit]
        for r in np.flatnonzero(~hit & (np.array(counts) > lo + lengths)).tolist():  # the next round
            end = lo + int(lengths[r])
            enter(int(js[r]), end, 2 * (end - lo), state[:, r, max(0, state.shape[2] - det._span):].copy())

    for j in range(len(keys)):
        enter(j)
        while work:  # in the order the buckets filled
            scan(*work.pop(0))
    while work or buckets:  # then the rest, in increasing lo
        if not work:
            key = min(buckets)
            work.append((key >> 6, buckets.pop(key)))
        scan(*work.pop(0))
    return nu, tau, decided


def run_trials(detector, plan: TrialPlan, trials: int, master_seed: int,
               *, workers: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run trials ``0 .. trials - 1`` of ``plan``, each on a fresh copy of ``detector``.

    Returns per-trial arrays: the change point ``nu`` (inf if none), the first
    alarm time ``tau`` (nan if none within the horizon) and the decided class
    (0 if none), one entry per trial.
    """
    trials, workers = _whole_number(trials, "trials"), _whole_number(workers, "workers")
    if trials < 1 or workers < 1:
        raise ValueError("trials and workers must be >= 1")
    args = [((detector, plan, master_seed), chunk)
            for chunk in np.array_split(np.arange(trials), min(workers, trials))]
    if len(args) == 1:
        parts = [_run_chunk(args[0])]
    else:
        # imported only where a pool starts: it takes 7-10 ms of every import of the CLI otherwise
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(processes=len(args)) as pool:
            parts = pool.map(_run_chunk, args)
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


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
    [(_, plan)] = trial_plans("pfa", detector, pre, None, horizon, prior=prior)
    nu, tau, _ = run_trials(detector, plan, trials, master_seed, workers=workers)
    fa = ~np.isnan(tau)
    censored = ~fa & (nu - 1 > horizon)
    est = float(fa.mean())
    return MonteCarloReport(
        metric="pfa", trials=fa.size, estimate=est, std_error=_binomial_se(est, fa.size),
        censored_trials=int(censored.sum()), predicted=predicted, budget=budget,
        details={"alarm_trials": int(fa.sum()), "lower_bound_when_censored": bool(censored.any())},
    )


def _add_report(detector, plan: TrialPlan, trials: int, master_seed: int, workers: int,
                details: dict | None = None, **report) -> MonteCarloReport:
    """Mean of ``tau - nu`` over the trials that stop at or after the change point.

    A trial without an alarm qualifies when its change point lies within the
    horizon, with the lower bound ``horizon - nu``.  ``details`` are added to
    the report's own.
    """
    nu, tau, _ = run_trials(detector, plan, trials, master_seed, workers=workers)
    alarmed = ~np.isnan(tau)
    qualified = np.where(alarmed, tau >= nu, nu <= plan.horizon)
    if not qualified.any():
        raise InsufficientDataError("no trial stopped at or after its change point")
    delay = np.where(alarmed, tau, plan.horizon) - nu
    cond = delay[qualified]
    censored = int((~alarmed).sum())
    return MonteCarloReport(
        metric="add", trials=tau.size, estimate=float(cond.mean()), std_error=_mean_se(cond),
        censored_trials=censored, **report,
        details={
            "qualifying_trials": int(qualified.sum()),
            "false_alarm_trials": int((alarmed & ~qualified).sum()),
            "unconditional_mean_positive_delay": float(np.where(qualified, delay, 0.0).mean()),
            "lower_bound_when_censored": censored > 0,
            **(details or {}),
        },
    )


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
    [(_, plan)] = trial_plans("add", detector, pre, post, horizon, change=change)
    return _add_report(detector, plan, trials, master_seed, workers, predicted=predicted, budget=budget)


def estimate_arl(detector, pre: IpidLaw, trials: int, horizon_cap: int, master_seed: int,
                 *, workers: int = 1, predicted: float | None = None,
                 budget: float | None = None) -> MonteCarloReport:
    """Mean time to the first alarm when no change ever occurs.

    Run lengths are capped at ``horizon_cap``; with any censoring the estimate
    is a lower bound on the true average run length.
    """
    [(_, plan)] = trial_plans("arl", detector, pre, None, horizon_cap)
    _, tau, _ = run_trials(detector, plan, trials, master_seed, workers=workers)
    censored = np.isnan(tau)
    values = np.where(censored, horizon_cap, tau)
    return MonteCarloReport(
        metric="arl", trials=tau.size, estimate=float(values.mean()), std_error=_mean_se(values),
        censored_trials=int(censored.sum()), predicted=predicted, budget=budget,
        details={"horizon_cap": int(horizon_cap), "lower_bound_when_censored": bool(censored.any())},
    )


def estimate_misclass(detector, true_class: int, trials: int, horizon: int,
                      master_seed: int, *, workers: int = 1, predicted: float | None = None,
                      budget: float | None = None) -> MonteCarloReport:
    """Fraction of alarmed trials that name the wrong class, with the change at sample one.

    Also reports the mean stopping time (and the mean delay ``tau - 1``) over
    alarmed trials.  Trials without an alarm by the horizon are left out of
    it, so under censoring it is a lower bound.  When ``budget`` is the
    mean-time-to-false-alarm target ``beta``, the concrete misclassification
    bound ``mean(tau) / beta`` is attached for reference.
    """
    [(_, plan)] = trial_plans("misclass", detector, None, None, horizon, true_class=true_class)
    _, tau, decided = run_trials(detector, plan, trials, master_seed, workers=workers)
    alarmed = ~np.isnan(tau)
    n_alarmed = int(alarmed.sum())
    if n_alarmed == 0:
        raise InsufficientDataError("no trial raised an alarm within the horizon")
    n_wrong = int((alarmed & (decided != true_class)).sum())
    est = float(n_wrong / n_alarmed)
    mean_tau = float(tau[alarmed].mean())
    details = {
        "alarmed_trials": n_alarmed,
        "wrong_trials": n_wrong,
        "mean_stop_time": mean_tau,
        "stop_time_se": _mean_se(tau[alarmed]),
        "mean_delay": mean_tau - 1.0,
        "stop_time_lower_bound_when_censored": n_alarmed < tau.size,
    }
    if budget is not None and budget > 0:
        details["misclass_bound_mean_tau_over_beta"] = mean_tau / budget
    return MonteCarloReport(
        metric="misclass", trials=tau.size, estimate=est,
        std_error=_binomial_se(est, n_alarmed),
        censored_trials=tau.size - n_alarmed, predicted=predicted, budget=budget, details=details,
    )


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
    plans = trial_plans("worst_case", detector, pre, post, horizon, change_points=change_points)
    rows = []
    for (_, natural), (_, pinned) in zip(plans[::2], plans[1::2]):
        # every pinned trial starts at its change point, so every trial qualifies
        rows.append((natural.change.nu, _add_report(detector, natural, trials, master_seed, workers),
                     _add_report(detector, pinned, trials, master_seed, workers,
                                 details={"state": "pinned-at-change"})))
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

