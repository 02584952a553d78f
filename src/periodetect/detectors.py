"""Streaming change detectors for periodic slot models.

Every detector is a sequential state machine: ``step(x)`` consumes one
observation, advances the internal clock, and reports the updated statistic
together with the alarm decision.  Time indices are 1-based and global; the
slot governing observation ``n`` is ``(n - 1) mod T``, so the per-sample
log-likelihood-ratio function used at time ``n`` equals the one used at
``n + T``.  Every detector alarms when its statistic reaches the threshold
(``statistic >= threshold``, with per-slot thresholds where supported).

Statistics and post-alarm behavior:

* :class:`ShiryaevDetector` tracks the posterior probability ``p_n`` that the
  change has already happened, via ``p_n = q g_n(x) / (q g_n(x) + (1-q) f_n(x))``
  with ``q = p_{n-1} + (1 - p_{n-1}) rho``, and alarms when ``p_n`` reaches
  the (possibly per-slot) threshold.  The belief is stored as log-odds so the
  recursion stays informative arbitrarily close to 1.
* :class:`CusumDetector` runs ``W_n = max(W_{n-1}, 0) + z_n`` on per-sample
  log-likelihood ratios; the positive part is applied before the add, so the
  score itself may go negative.
* :class:`MixtureShiryaev` runs one posterior recursion per candidate changed
  slot subset and alarms when the weighted posterior odds reach a threshold.
  The recursion requires a geometric change-point prior.
* :class:`MultistreamMixture` is the same mixture over candidate changed
  stream subsets; each component's per-sample score sums log-likelihood
  ratios over its member streams.
* :class:`ClassifierBankDetector` maintains cumulative pairwise
  log-likelihood-ratio sums ``C_lm`` and, per class ``l``, the statistic
  ``max_k min_{m != l} (C_lm(n) - C_lm(k-1))`` over window start points; it
  alarms and names a class when any such statistic reaches the threshold.

The first three share one posterior-odds core: per component ``k`` the odds
follow ``R_n = e^{z_n} (R_{n-1} + rho) / (1 - rho)`` (Shiryaev 1963), the
statistic is ``sum_k w_k R_k`` (one component of weight 1 for the Shiryaev
rule), and the alarm compares its logarithm with the log threshold.

With ``reset_on_alarm`` detectors zero their statistic after each alarm and
keep monitoring, which is the continuous-monitoring mode used for repeated
events.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .densities import Gaussian, Poisson, llr
from .model import ClassBank, IpidLaw, MultislotFamily, MultistreamConfig, PeriodicThresholds

_NEG_INF = float("-inf")
_POS_INF = float("inf")

# Rows per block of the batch posterior-odds scan.  Cumulative sums restart at
# each block, so their magnitude, and with it the cancellation error of the
# closed form, stays bounded on arbitrarily long streams.
_SCAN_CHUNK = 4096


@dataclass(frozen=True)
class StepResult:
    """One detector transition: statistic after the update plus the decision."""

    time_index: int
    statistic: float
    alarm: bool
    decided_class: int | None = None


def _logit(p: float) -> float:
    if p <= 0.0:
        return _NEG_INF
    if p >= 1.0:
        return _POS_INF
    return math.log(p / (1.0 - p))


def _expit(log_odds: float) -> float:
    if log_odds == _NEG_INF:
        return 0.0
    if log_odds == _POS_INF:
        return 1.0
    if log_odds >= 0.0:
        return 1.0 / (1.0 + math.exp(-log_odds))
    e = math.exp(log_odds)
    return e / (1.0 + e)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return _POS_INF


def _logaddexp(x: float, y: float) -> float:
    if x == _NEG_INF:
        return y
    if y == _NEG_INF:
        return x
    m = x if x > y else y
    return m + math.log(math.exp(x - m) + math.exp(y - m))


class _SlotLlr:
    """Per-slot log-likelihood-ratio evaluators for a (numerator, denominator) law pair.

    Within-family slot pairs reduce to ``c0 + c1 x + c2 x^2`` (Poisson factorials
    cancel), which both the scalar and the vectorized paths exploit; mixed-family
    slots fall back to direct log-density differences.  Poisson-Poisson slots
    reject observations outside the nonnegative integers, as the densities do.
    """

    def __init__(self, num_slots, den_slots):
        if len(num_slots) != len(den_slots):
            raise ValueError("slot vectors must have equal length")
        self.period = len(num_slots)
        self._num = tuple(num_slots)
        self._den = tuple(den_slots)
        c0 = np.zeros(self.period)
        c1 = np.zeros(self.period)
        c2 = np.zeros(self.period)
        poly = np.ones(self.period, dtype=bool)
        count = np.zeros(self.period, dtype=bool)
        for i, (g, f) in enumerate(zip(num_slots, den_slots)):
            if isinstance(g, Gaussian) and isinstance(f, Gaussian):
                c0[i] = 0.5 * (math.log(f.variance / g.variance)
                               + f.mean * f.mean / f.variance - g.mean * g.mean / g.variance)
                c1[i] = g.mean / g.variance - f.mean / f.variance
                c2[i] = 0.5 * (1.0 / f.variance - 1.0 / g.variance)
            elif isinstance(g, Poisson) and isinstance(f, Poisson):
                c0[i] = f.rate - g.rate
                c1[i] = math.log(g.rate / f.rate)
                count[i] = True
            else:
                poly[i] = False
        self._c0 = c0
        self._c1 = c1
        self._c2 = c2
        self._poly = poly
        self._count = count
        self._all_poly = bool(poly.all())
        self._any_count = bool(count.any())
        self._c0l = c0.tolist()
        self._c1l = c1.tolist()
        self._c2l = c2.tolist()
        self._polyl = poly.tolist()
        self._countl = count.tolist()

    def value(self, slot: int, x: float) -> float:
        if self._polyl[slot]:
            x = float(x)
            if not math.isfinite(x):
                raise ValueError(f"observation must be finite, got {x}")
            if self._countl[slot] and (x < 0.0 or not x.is_integer()):
                raise ValueError(f"Poisson support is the nonnegative integers, got {x}")
            return self._c0l[slot] + x * (self._c1l[slot] + x * self._c2l[slot])
        return llr(self._num[slot], self._den[slot], x)

    def profile(self, xs: np.ndarray, start_slot: int) -> np.ndarray:
        """Scores for a run of observations whose first element sits in ``start_slot``."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and not np.all(np.isfinite(xs)):
            raise ValueError("observations must be finite")
        slots = (start_slot + np.arange(xs.size)) % self.period
        if self._any_count:
            outside = self._count[slots] & ((xs < 0.0) | (xs != np.floor(xs)))
            if outside.any():
                raise ValueError(
                    f"Poisson support is the nonnegative integers, got {xs[outside][0]}")
        z = self._c0[slots] + xs * (self._c1[slots] + xs * self._c2[slots])
        if not self._all_poly:
            bad = ~self._poly[slots]
            for j in np.nonzero(bad)[0]:
                s = int(slots[j])
                z[j] = llr(self._num[s], self._den[s], float(xs[j]))
        return z


def _threshold_logits(threshold, period: int) -> list[float]:
    if isinstance(threshold, (int, float)):
        threshold = PeriodicThresholds.single(float(threshold))
    if len(threshold.values) not in (1, period):
        raise ValueError(f"need 1 or {period} threshold values, got {len(threshold.values)}")
    return [_logit(threshold.for_slot(s)) for s in range(period)]


class _Detector:
    """Clock and cloning shared by every detector.

    A detector's compiled tables are built once in ``__init__`` and never
    mutated; ``reset`` replaces the per-run state.  So ``fresh`` is a shallow
    copy that shares the tables and restarts state and clock.
    """

    def __init__(self, period: int, reset_on_alarm: bool, start_time: int):
        self.period = period
        self.reset_on_alarm = bool(reset_on_alarm)
        self.start_time = int(start_time)
        self._time = self.start_time
        self.reset()

    def __init_subclass__(cls, **kwargs):
        # Every public detector carries its own entries for these methods, so a
        # wrapper installed on one class (as perfbench's tracer does through
        # ``cls.__dict__``) leaves the other classes alone.
        super().__init_subclass__(**kwargs)
        for name in ("fresh", "step", "run_to_alarm"):
            if name not in cls.__dict__:
                setattr(cls, name, getattr(cls, name))

    def fresh(self, start_time: int | None = None):
        """A copy at its start state, optionally with a new start time, sharing the tables."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        if start_time is not None:
            clone.start_time = int(start_time)
        clone._time = clone.start_time
        clone.reset()
        return clone

    @property
    def time(self) -> int:
        return self._time


class _PosteriorOdds(_Detector):
    """Posterior odds of a geometric-prior change, mixed over K components.

    Component ``k`` keeps its log-odds ``L_k``, updated as
    ``L_n = logaddexp(L_{n-1}, ln rho) - ln(1 - rho) + z_n``; the log
    statistic is ``logsumexp_k(ln w_k + L_k)`` and the rule alarms when it
    reaches the log threshold of the observation's slot.  Subclasses supply
    the scores (``_step_scores`` for one observation, ``_score_matrix`` for an
    ``(n, K)`` block) and ``_display``, which maps the log statistic to the
    reported statistic.
    """

    def __init__(self, period: int, rho: float, log_weights, log_thresholds,
                 reset_on_alarm: bool, start_time: int):
        self.rho = float(rho)
        self._ln_rho = math.log(rho) if rho > 0.0 else _NEG_INF
        self._ln_1m_rho = math.log1p(-rho)
        self._log_weights = list(log_weights)
        self._log_thresholds = list(log_thresholds)
        # log thresholds of _SCAN_CHUNK consecutive observations from any start slot
        self._log_threshold_run = np.resize(self._log_thresholds, _SCAN_CHUNK + period)
        super().__init__(period, reset_on_alarm, start_time)

    def reset(self) -> None:
        """Zero the odds of every component; the clock keeps running."""
        self._log_odds = [_NEG_INF] * len(self._log_weights)

    def _log_stat(self, log_odds) -> float:
        total = _NEG_INF
        for lw, lo in zip(self._log_weights, log_odds):
            total = _logaddexp(total, lw + lo)
        return total

    def _decide(self, log_stat: float) -> StepResult:
        """Result for the observation just consumed, which sits in slot ``time - 1``."""
        alarm = log_stat >= self._log_thresholds[(self._time - 1) % self.period]
        result = StepResult(self._time, self._display(log_stat), alarm)
        if alarm and self.reset_on_alarm:
            self.reset()
        return result

    def step(self, x) -> StepResult:
        zs = self._step_scores(self._time % self.period, x)
        ln_rho, ln_1m_rho = self._ln_rho, self._ln_1m_rho
        log_odds = []
        for lo, z in zip(self._log_odds, zs):
            log_odds.append(_logaddexp(lo, ln_rho) - ln_1m_rho + z)
        self._log_odds = log_odds
        self._time += 1
        return self._decide(self._log_stat(log_odds))

    def run_to_alarm(self, xs) -> StepResult | None:
        """Consume observations until the first alarm; return it, or None if none fires.

        Each block of rows is scanned in closed form: with ``S_0 = 0`` and
        ``S_n = sum_{i <= n} (z_i - ln(1 - rho))``, the log-odds are
        ``L_n = S_n + logaddexp(L_0, ln rho - S_0, ..., ln rho - S_{n-1})``.
        """
        z = self._score_matrix(xs, self._time % self.period)
        for start in range(0, z.shape[0], _SCAN_CHUNK):
            s = np.cumsum(z[start:start + _SCAN_CHUNK] - self._ln_1m_rho, axis=0)
            entry = self._ln_rho - s
            entry[1:] = entry[:-1]
            entry[0] = np.logaddexp(self._log_odds, self._ln_rho)
            log_odds = s + np.logaddexp.accumulate(entry, axis=0)
            if log_odds.shape[1] == 1:
                log_stat = log_odds[:, 0] + self._log_weights[0]
            else:
                log_stat = np.logaddexp.reduce(log_odds + self._log_weights, axis=1)
            offset = self._time % self.period
            crossed = log_stat >= self._log_threshold_run[offset:offset + len(log_stat)]
            k = int(crossed.argmax())  # the first alarm, or 0 when there is none
            if not crossed[k]:
                k = len(log_stat) - 1
            self._log_odds = log_odds[k].tolist()
            self._time += k + 1
            if crossed[k]:
                return self._decide(float(log_stat[k]))
        return None


class ShiryaevDetector(_PosteriorOdds):
    """Posterior-probability rule for a known pre/post law pair.

    ``threshold`` is a belief-scale value in [0, 1] or a
    :class:`~periodetect.model.PeriodicThresholds`; observation ``n`` is
    compared against the slot-``(n-1) mod T`` entry.  ``rho`` is the geometric
    prior parameter of the change point (``rho = 0`` freezes the belief at its
    starting value of zero, which is occasionally useful for diagnostics).
    """

    _display = staticmethod(_expit)

    def __init__(self, pre: IpidLaw, post: IpidLaw, rho: float, threshold,
                 *, reset_on_alarm: bool = False, start_time: int = 0):
        if pre.period != post.period:
            raise ValueError("pre and post laws must share one period")
        if not (0.0 <= rho < 1.0):
            raise ValueError(f"rho must lie in [0, 1), got {rho}")
        self.pre = pre
        self.post = post
        self.threshold = threshold
        self._llr = _SlotLlr(post.slots, pre.slots)
        super().__init__(pre.period, rho, [0.0], _threshold_logits(threshold, pre.period),
                         reset_on_alarm, start_time)

    @property
    def belief(self) -> float:
        return _expit(self._log_odds[0])

    def _step_scores(self, slot: int, x) -> list[float]:
        return [self._llr.value(slot, x)]

    def _score_matrix(self, xs, start_slot: int) -> np.ndarray:
        return self._llr.profile(xs, start_slot)[:, None]


def robust_shiryaev(pre: IpidLaw, least_favorable: IpidLaw, rho: float, threshold,
                    **kwargs) -> ShiryaevDetector:
    """Posterior rule designed against the least favorable member of an uncertainty family.

    The detector is an ordinary :class:`ShiryaevDetector` whose post-change law
    is the least favorable law; callers should certify the law with
    :func:`periodetect.robust.validate_lfl` (or construct it with
    :func:`periodetect.robust.select_lfl`) unless they trust it by design.
    """
    return ShiryaevDetector(pre, least_favorable, rho, threshold, **kwargs)


class CusumDetector(_Detector):
    """Cumulative-sum score test between a baseline law and one alternative law."""

    def __init__(self, baseline: IpidLaw, alternative: IpidLaw, threshold: float,
                 *, reset_on_alarm: bool = False, start_time: int = 0):
        if baseline.period != alternative.period:
            raise ValueError("laws must share one period")
        self.baseline = baseline
        self.alternative = alternative
        self.threshold = float(threshold)
        self._llr = _SlotLlr(alternative.slots, baseline.slots)
        super().__init__(baseline.period, reset_on_alarm, start_time)

    def reset(self) -> None:
        self._score = 0.0

    @property
    def score(self) -> float:
        return self._score

    def step(self, x: float) -> StepResult:
        z = self._llr.value(self._time % self.period, x)
        self._time += 1
        score = (self._score if self._score > 0.0 else 0.0) + z
        self._score = score
        alarm = score >= self.threshold
        result = StepResult(time_index=self._time, statistic=score, alarm=alarm)
        if alarm and self.reset_on_alarm:
            self.reset()
        return result

    def run_to_alarm(self, xs) -> StepResult | None:
        """Vectorized scan: the recursion equals ``S_n - min_{j < n} S_j`` with the
        carry-in score folded into the prefix floor."""
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return None
        z = self._llr.profile(xs, self._time % self.period)
        s = np.concatenate(([0.0], np.cumsum(z)))
        floor = np.minimum(np.minimum.accumulate(s[:-1]), -max(self._score, 0.0))
        w = s[1:] - floor
        hits = np.nonzero(w >= self.threshold)[0]
        if hits.size:
            k = int(hits[0])
            self._time += k + 1
            self._score = float(w[k])
            result = StepResult(time_index=self._time, statistic=self._score, alarm=True)
            if self.reset_on_alarm:
                self.reset()
            return result
        self._time += xs.size
        self._score = float(w[-1])
        return None


class _OddsMixture(_PosteriorOdds):
    """Posterior-odds mixture whose statistic is the weighted odds ``sum_k w_k R_k``."""

    _display = staticmethod(_safe_exp)

    def __init__(self, period: int, rho: float, threshold: float, weights,
                 reset_on_alarm: bool, start_time: int):
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        self.threshold = float(threshold)
        log_threshold = math.log(self.threshold) if self.threshold > 0.0 else _NEG_INF
        super().__init__(period, rho, [math.log(w) for w in weights], [log_threshold] * period,
                         reset_on_alarm, start_time)

    @property
    def statistic(self) -> float:
        return _safe_exp(self._log_stat(self._log_odds))


class MixtureShiryaev(_OddsMixture):
    """Weighted mixture of posterior-odds recursions over candidate changed-slot subsets.

    The reported statistic is the mixture of per-candidate posterior odds; it
    equals the prior-weighted double sum over change times and candidates of
    likelihood-ratio products, but is computed with one recursion per
    candidate.  A geometric prior is required for that recursion to be exact;
    tabulated priors are not supported.  The alarm compares log odds with the
    log threshold, so it still fires when the odds overflow; the reported
    statistic is then ``inf``.
    """

    def __init__(self, family: MultislotFamily, rho: float, threshold: float,
                 *, reset_on_alarm: bool = False, start_time: int = 0):
        self.family = family
        pre = family.base_pre
        self._tables = [
            _SlotLlr(tuple(family.base_post.slots[i] if i in s else pre.slots[i]
                           for i in range(family.period)), pre.slots)
            for s in family.candidates
        ]
        super().__init__(family.period, rho, threshold, family.weights, reset_on_alarm, start_time)

    def _step_scores(self, slot: int, x) -> list[float]:
        return [t.value(slot, x) for t in self._tables]

    def _score_matrix(self, xs, start_slot: int) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return np.stack([t.profile(xs, start_slot) for t in self._tables], axis=1)


class MultistreamMixture(_OddsMixture):
    """Mixture rule over candidate changed-stream subsets.

    Each observation is a vector with one entry per stream; a candidate's
    per-sample score is the sum of its member streams' log-likelihood ratios.
    """

    def __init__(self, config: MultistreamConfig, rho: float, threshold: float,
                 *, reset_on_alarm: bool = False, start_time: int = 0):
        self.config = config
        self.num_streams = config.num_streams
        self._stream_tables = [_SlotLlr(post.slots, pre.slots) for pre, post in config.streams]
        self._members = [sorted(b) for b in config.candidates]
        super().__init__(config.period, rho, threshold, config.weights, reset_on_alarm, start_time)

    def _step_scores(self, slot: int, x_vec) -> list[float]:
        x_vec = np.asarray(x_vec, dtype=float).reshape(-1)
        if x_vec.size != self.num_streams:
            raise ValueError(f"expected {self.num_streams} per-stream observations, got {x_vec.size}")
        per_stream = [t.value(slot, x) for t, x in zip(self._stream_tables, x_vec)]
        return [math.fsum(per_stream[i] for i in members) for members in self._members]

    def _score_matrix(self, xs, start_slot: int) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.num_streams:
            raise ValueError(f"expected an (n, {self.num_streams}) observation matrix")
        per_stream = np.stack(
            [t.profile(xs[:, i], start_slot) for i, t in enumerate(self._stream_tables)], axis=1
        )
        return np.stack([per_stream[:, members].sum(axis=1) for members in self._members], axis=1)


class ClassifierBankDetector(_Detector):
    """Joint detection and isolation against a bank of candidate post-change laws.

    For each class ``l`` the statistic is the best window of the running
    pairwise score sums, ``max_k min_{m != l} (C_lm(n) - C_lm(k-1))``; with
    ``window=L`` the start point ``k`` is restricted to the last ``L + 1``
    steps, which bounds memory and per-step work by O(L M^2); ``window=None``
    keeps all history (the full test).  On alarm, among the classes whose
    statistic cleared the threshold, the one with the largest statistic is
    declared, ties going to the smallest class index.
    """

    def __init__(self, bank: ClassBank, threshold: float, *, window: int | None = None,
                 reset_on_alarm: bool = False, start_time: int = 0):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 when given")
        self.bank = bank
        self.threshold = float(threshold)
        self.window = window
        period = bank.period
        m = bank.num_classes
        active = bank.active_slots
        self._pairs: list[tuple[int, int]] = []
        self._tables: list[_SlotLlr] = []
        for ell in range(1, m + 1):
            for mm in range(0, m + 1):
                if mm == ell:
                    continue
                num = tuple(
                    bank.laws[ell].slots[i] if (active is None or i in active) else bank.laws[mm].slots[i]
                    for i in range(period)
                )
                self._pairs.append((ell, mm))
                self._tables.append(_SlotLlr(num, bank.laws[mm].slots))
        self._pairs_of = [
            [p for p, (ell, _) in enumerate(self._pairs) if ell == label] for label in range(m + 1)
        ]
        self.num_classes = m
        super().__init__(period, reset_on_alarm, start_time)

    def reset(self) -> None:
        self._sums = [0.0] * len(self._pairs)
        self._history = [tuple(self._sums)]
        self._last_stats = [_NEG_INF] * (self.num_classes + 1)

    def class_statistics(self) -> list[float]:
        """Per-class windowed statistics as of the last step (index 0 is a placeholder)."""
        return list(self._last_stats)

    def _compute_stats(self) -> list[float]:
        sums = self._sums
        stats = [_NEG_INF] * (self.num_classes + 1)
        for label in range(1, self.num_classes + 1):
            pair_ids = self._pairs_of[label]
            best = _NEG_INF
            for checkpoint in self._history:
                low = _POS_INF
                for p in pair_ids:
                    diff = sums[p] - checkpoint[p]
                    if diff < low:
                        low = diff
                if low > best:
                    best = low
            stats[label] = best
        return stats

    def step(self, x: float) -> StepResult:
        slot = self._time % self.period
        sums = self._sums
        for p, table in enumerate(self._tables):
            sums[p] += table.value(slot, x)
        self._time += 1
        stats = self._compute_stats()
        self._last_stats = stats
        self._history.append(tuple(sums))
        if self.window is not None and len(self._history) > self.window + 1:
            del self._history[0]
        crossed = [label for label in range(1, self.num_classes + 1) if stats[label] >= self.threshold]
        decided = None
        if crossed:
            best = max(stats[label] for label in crossed)
            decided = min(label for label in crossed if stats[label] == best)
        statistic = max(stats[1:])
        result = StepResult(
            time_index=self._time, statistic=statistic, alarm=bool(crossed), decided_class=decided
        )
        if crossed and self.reset_on_alarm:
            self.reset()
        return result

    def run_to_alarm(self, xs) -> StepResult | None:
        for x in np.asarray(xs, dtype=float):
            result = self.step(float(x))
            if result.alarm:
                return result
        return None


def run(detector, observations, stop_on_alarm: bool = False) -> list[StepResult]:
    """Feed observations through any detector, collecting one result per step.

    With ``stop_on_alarm`` the trajectory is truncated at the first alarm.
    """
    trajectory: list[StepResult] = []
    for x in observations:
        result = detector.step(x)
        trajectory.append(result)
        if stop_on_alarm and result.alarm:
            break
    return trajectory


def write_trajectory_csv(path, trajectory: list[StepResult], observations, period: int) -> None:
    """Dump a trajectory as CSV: time_index, slot, observation, statistic, alarm, decided_class.

    ``observations`` must hold exactly one entry per trajectory row; a length
    mismatch raises ``ValueError`` before the file is opened.
    """
    if len(trajectory) != len(observations):
        raise ValueError(f"trajectory has {len(trajectory)} rows but {len(observations)} "
                         "observations were given")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_index", "slot", "observation", "statistic", "alarm", "decided_class"])
        for result, obs in zip(trajectory, observations):
            if isinstance(obs, (list, tuple, np.ndarray)):
                obs_repr = ";".join(repr(float(v)) for v in np.asarray(obs).reshape(-1))
            else:
                obs_repr = repr(float(obs))
            writer.writerow([
                result.time_index,
                (result.time_index - 1) % period,
                obs_repr,
                repr(result.statistic),
                int(result.alarm),
                "" if result.decided_class is None else result.decided_class,
            ])
