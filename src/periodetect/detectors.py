"""Streaming change detectors for periodic slot models.

Every detector is a sequential state machine: ``step(x)`` consumes one
observation, advances the clock and reports the statistic and the alarm
decision.  Each class documents its statistic; these contracts hold for all
five detectors:

* Slots: time indices are 1-based and global, and observation ``n`` sits in
  slot ``(n - 1) mod T``, so the score used at ``n`` equals the one at
  ``n + T``.
* Alarms: a detector alarms when its statistic reaches the threshold,
  ``statistic >= threshold`` (per slot where supported).  With
  ``reset_on_alarm`` it restarts its statistic after each alarm and keeps
  monitoring.
* Batches: :func:`run` and ``periodetect detect`` walk the recursion that
  ``step`` takes a column at a time, ``_walk``, so ``run`` equals stepping
  bit for bit.  ``run_to_alarm`` and the trial engine scan with
  ``_scan_rows``; for posterior odds and CUSUM that is a closed form within
  the C1 gates of the walk (relative error 1e-9 and absolute error 1e-10),
  and the classifier's scan gives the walk's floats.
* Invalid input: every path scores its whole input before it changes any
  state, so an invalid observation raises and leaves the detector as it was.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .densities import Gaussian, Poisson, llr
from .model import (ClassBank, IpidLaw, MultislotFamily, MultistreamConfig, PeriodicThresholds, _real_number,
                    _whole_number)

_NEG_INF = float("-inf")
_POS_INF = float("inf")

# Rows per block where run and the CSV writers turn numpy columns into Python
# objects, which bounds the transient objects held at once.
_ROW_BLOCK = 4096

# Observations per block of each family's batch scan (and the trial engine's cap on scores
# per component in one batch).  Cumulative sums restart at each block, so their magnitude,
# and the closed forms' cancellation error, stays bounded on any stream.
_SCAN_CHUNK = 4096

# Observations scored per piece by _SlotLlr.profile, which tiles its tables to
# this length (plus one period) once, at construction.
_PROFILE_RUN = 1024

# Cap on the entries of each classifier difference tensor (float64, so 1 MiB).
_BLOCK_ELEMENTS = 1 << 17


class StepResult(NamedTuple):
    """One detector transition: statistic after the update plus the decision."""

    time_index: int
    statistic: float
    alarm: bool
    decided_class: int | None = None


_new_tuple = tuple.__new__  # skips the NamedTuple's Python-level __new__, a frame per result


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
    """Per-slot log-likelihood-ratio tables for K (numerator, denominator) law pairs.

    ``pairs`` holds K pairs of slot vectors; row ``k`` scores
    ``log g_k(x) - log f_k(x)``.  Within-family slot pairs reduce to
    ``c0 + c1 x + c2 x^2`` (Poisson factorials cancel), which both the scalar
    and the vectorized paths exploit; mixed-family slots fall back to direct
    log-density differences.  A slot where any row pairs two Poisson laws
    rejects observations outside the nonnegative integers, as the densities do.
    """

    def __init__(self, pairs):
        self._pairs = [(tuple(num), tuple(den)) for num, den in pairs]
        self.period = len(self._pairs[0][0])
        if any(len(num) != self.period or len(den) != self.period for num, den in self._pairs):
            raise ValueError("slot vectors must have equal length")
        shape = (len(self._pairs), self.period)
        c0, c1, c2 = np.zeros(shape), np.zeros(shape), np.zeros(shape)
        count = np.zeros(shape, dtype=bool)
        self._fallback = []  # (row, slot) cells scored by the densities themselves
        for k, (num, den) in enumerate(self._pairs):
            for i, (g, f) in enumerate(zip(num, den)):
                if isinstance(g, Gaussian) and isinstance(f, Gaussian):
                    c0[k, i] = 0.5 * (math.log(f.variance / g.variance)
                                      + f.mean * f.mean / f.variance - g.mean * g.mean / g.variance)
                    c1[k, i] = g.mean / g.variance - f.mean / f.variance
                    c2[k, i] = 0.5 * (1.0 / f.variance - 1.0 / g.variance)
                elif isinstance(g, Poisson) and isinstance(f, Poisson):
                    c0[k, i] = f.rate - g.rate
                    c1[k, i] = math.log(g.rate / f.rate)
                    count[k, i] = True
                else:
                    self._fallback.append((k, i))
        # the tables tiled so that any slot can start a run of _PROFILE_RUN observations
        reps = -(-(_PROFILE_RUN + self.period) // self.period)
        self._runs = [np.tile(c, reps) for c in (c0, c1, c2)]
        count = count.any(axis=0)
        self._any_count = bool(count.any())
        self._count_run = np.tile(count, reps)
        self._countl = count.tolist()
        # per slot, the (c0, c1, c2) of every row (zeros where the row falls back)
        self._coef = [list(zip(c0[:, i].tolist(), c1[:, i].tolist(), c2[:, i].tolist()))
                      for i in range(self.period)]

    def values(self, slot: int, x) -> list[float]:
        """The K scores of one observation that sits in ``slot``."""
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"observation must be finite, got {x}")
        if self._countl[slot] and (x < 0.0 or not x.is_integer()):
            raise ValueError(f"Poisson support is the nonnegative integers, got {x}")
        scores = []  # a loop, not a comprehension, whose own frame costs more for a few rows
        for c0, c1, c2 in self._coef[slot]:
            scores.append(c0 + x * (c1 + x * c2))
        for k, i in self._fallback:
            if i == slot:
                num, den = self._pairs[k]
                scores[k] = llr(num[i], den[i], x)
        return scores

    def profile(self, xs: np.ndarray, start_slot: int) -> np.ndarray:
        """Scores of a run ``(n,)`` as ``(K, n)``, or of runs ``(B, n)`` as ``(K, B, n)``, each
        run starting in ``start_slot`` and scored as it would be alone.

        Each run's scores are contiguous, so a scan reads one component at a
        time.  Pieces of up to ``_PROFILE_RUN`` observations are scored from
        contiguous slices of the tiled tables, with no gather by slot.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim not in (1, 2):
            raise ValueError(f"expected a run or a batch of runs of observations, got shape {xs.shape}")
        if not np.isfinite(xs).all():
            raise ValueError("observations must be finite")
        rows = xs.reshape(1, -1) if xs.ndim == 1 else xs
        z = np.empty((len(self._pairs), *rows.shape))
        c0, c1, c2 = self._runs
        for lo in range(0, rows.shape[1], _PROFILE_RUN):
            x = rows[:, lo:lo + _PROFILE_RUN]
            a = (start_slot + lo) % self.period
            b = a + x.shape[1]
            if self._any_count:
                outside = self._count_run[a:b] & ((x < 0.0) | (x != np.floor(x)))
                if outside.any():
                    raise ValueError(
                        f"Poisson support is the nonnegative integers, got {x[outside][0]}")
            w = z[:, :, lo:lo + x.shape[1]]
            # c0 + x (c1 + x c2), in place: the same operations as the scalar path
            np.multiply(x, c2[:, None, a:b], out=w)
            w += c1[:, None, a:b]
            w *= x
            w += c0[:, None, a:b]
        for k, i in self._fallback:
            num, den = self._pairs[k]
            first = (i - start_slot) % self.period
            cells = rows[:, first::self.period]
            z[k, :, first::self.period] = np.reshape(
                [llr(num[i], den[i], x) for x in cells.ravel().tolist()], cells.shape)
        return z.reshape(len(self._pairs), *xs.shape)


def _threshold_logits(threshold, period: int) -> list[float]:
    if not isinstance(threshold, PeriodicThresholds):
        threshold = PeriodicThresholds.single(_real_number(threshold, "threshold"))
    if len(threshold.values) not in (1, period):
        raise ValueError(f"need 1 or {period} threshold values, got {len(threshold.values)}")
    return [_logit(threshold.for_slot(s)) for s in range(period)]


class _Detector:
    """Clock, cloning, scoring, ``step`` and ``run_to_alarm`` shared by every detector.

    A detector's compiled tables are built once in ``__init__`` and never
    mutated; ``reset`` replaces the per-run state.  So ``fresh`` is a shallow
    copy that shares the tables and restarts state and clock.  Scores come
    from the ``_llr`` tables unless a subclass supplies its own.

    Each subclass supplies ``_walk(z, stop_on_alarm=False)``, its only
    per-observation recursion: it consumes a ``(K, m)`` block of scores (K
    lists of floats), returns the statistic, alarm and decided-class (or
    None) columns of the observations it consumed, resets after each alarm
    under ``reset_on_alarm``, stops after the first with ``stop_on_alarm`` and
    advances the clock.  ``step`` walks one column; ``detect`` writes walked
    blocks and holds no per-row results.  ``_scan`` consumes a non-empty
    ``(K, n)`` score matrix up to the first alarm and returns it, or None.
    """

    # the trial engine's first scan of a trial (all of it if None), then rounds twice as long, each
    # resumed from the last _span columns of the state _scan_rows returns after (hit, stop, class)
    _first_scan = None

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

    def _step_scores(self, slot: int, x) -> list[float]:
        """The K scores of one observation that sits in ``slot``."""
        return self._llr.values(slot, x)

    def _score_matrix(self, xs, start_slot: int) -> np.ndarray:
        """``(K, n)`` scores of a run of observations whose first element sits in ``start_slot``."""
        if np.ndim(xs) != 1:
            raise ValueError(f"expected a one-dimensional run of observations, got shape {np.shape(xs)}")
        return self._llr.profile(xs, start_slot)

    def _alarm(self, statistic: float, decided: int | None = None) -> StepResult:
        """Result of an alarm ``_scan`` just consumed; under ``reset_on_alarm`` it restarts the statistic."""
        if self.reset_on_alarm:
            self.reset()
        return _new_tuple(StepResult, (self._time, statistic, True, decided))

    def step(self, x) -> StepResult:
        scores = self._step_scores(self._time % self.period, x)  # for K = 1, the (1, 1) block's row
        (stat,), (alarm,), (decided,) = self._walk([scores] if len(scores) == 1 else list(zip(scores)))
        return _new_tuple(StepResult, (self._time, stat, alarm, decided))

    def run_to_alarm(self, xs) -> StepResult | None:
        """Consume observations until the first alarm; return it, or None if none fires."""
        z = self._score_matrix(xs, self._time % self.period)
        return self._scan(z) if z.shape[1] else None


class _PosteriorOdds(_Detector):
    """The one-statistic core: per component ``L_n = (L_{n-1} (+) a) - b + z_n``, mixed over K.

    ``(+)`` is the ufunc ``_plus``: ``np.logaddexp`` for posterior odds, ``np.maximum`` for
    CUSUM.  The log statistic is ``logsumexp_k(ln w_k + L_k)`` and the rule alarms when it
    reaches the log threshold of the observation's slot.  Subclasses supply ``_display``,
    which maps the log statistic to the reported statistic.
    """

    _plus = np.logaddexp

    def __init__(self, period: int, a: float, b: float, log_weights, log_thresholds,
                 reset_on_alarm: bool, start_time: int):
        self._a, self._b = a, b
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

    def _walk(self, z, stop_on_alarm: bool = False):
        a, b, log_thresholds = self._a, self._b, self._log_thresholds
        log_odds, time, stats, alarms = self._log_odds, self._time, [], []
        for zs in zip(*z):
            carried, log_odds = log_odds, []  # a loop, not a comprehension, as in _SlotLlr.values
            for lo, x in zip(carried, zs):
                log_odds.append(_logaddexp(lo, a) - b + x)
            log_stat = self._log_stat(log_odds)
            stats.append(self._display(log_stat))
            alarms.append(alarm := log_stat >= log_thresholds[time % self.period])
            time += 1
            if alarm and self.reset_on_alarm:
                self.reset()
                log_odds = self._log_odds
            if alarm and stop_on_alarm:
                break
        self._log_odds, self._time = log_odds, time
        return stats, alarms, [None] * len(stats)

    def _scan_rows(self, z: np.ndarray, lengths):
        """Scan the ``(K, B, n)`` scores of ``B`` runs (int array ``lengths``) from this unchanged state.

        With ``S_0 = 0`` and ``S_n = sum_{i <= n} (z_i - b)``, the statistics are
        ``L_n = S_n + ((L_0 (+) a) (+) (a - S_1) (+) ... (+) (a - S_{n-1}))``, in blocks of
        ``_SCAN_CHUNK`` columns that carry each row's ``L``.  Returns per row whether it
        alarmed, where it stopped (first alarm, else last observation) and class 0, then the
        last block's ``L`` and log statistic, where a batch of one stopped."""
        plus, carry, first = self._plus, np.reshape(self._log_odds, (-1, 1)), np.full(z.shape[1], -1)
        for start in range(0, z.shape[2], _SCAN_CHUNK):
            s = np.cumsum(z[:, :, start:start + _SCAN_CHUNK] - self._b, axis=2)
            entry = self._a - s
            entry[:, :, 1:] = entry[:, :, :-1]
            entry[:, :, 0] = plus(carry, self._a)
            log_odds = s + plus.accumulate(entry, axis=2)
            # components in order, each row contiguous
            log_stat = log_odds[0] + self._log_weights[0] if len(z) == 1 else np.logaddexp.reduce(
                log_odds + np.reshape(self._log_weights, (-1, 1, 1)), axis=0)
            offset, width = (self._time + start) % self.period, log_stat.shape[1]
            crossed = log_stat >= self._log_threshold_run[offset:offset + width]
            crossed &= np.arange(width) < (lengths - start)[:, None]
            first = np.where((first < 0) & crossed.any(axis=1), start + crossed.argmax(axis=1), first)
            if ((first >= 0) | (lengths <= start + width)).all():
                break
            carry = log_odds[:, :, -1]
        return first >= 0, np.where(first >= 0, first, lengths - 1), np.zeros_like(first), log_odds, log_stat

    def _scan(self, z: np.ndarray) -> StepResult | None:
        [hit], [stop], _, log_odds, log_stat = self._scan_rows(z[:, None], np.array([z.shape[1]]))
        k = stop % _SCAN_CHUNK  # its column in the last block
        self._log_odds = log_odds[:, 0, k].tolist()
        self._time += int(stop) + 1
        return self._alarm(self._display(float(log_stat[0, k]))) if hit else None


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
        self.rho = float(rho)
        self.threshold = threshold
        self._llr = _SlotLlr([(post.slots, pre.slots)])
        super().__init__(pre.period, math.log(rho) if rho > 0.0 else _NEG_INF, math.log1p(-rho), [0.0],
                         _threshold_logits(threshold, pre.period), reset_on_alarm, start_time)

    @property
    def belief(self) -> float:
        return _expit(self._log_odds[0])


def robust_shiryaev(pre: IpidLaw, least_favorable: IpidLaw, rho: float, threshold,
                    **kwargs) -> ShiryaevDetector:
    """Posterior rule designed against the least favorable member of an uncertainty family.

    The detector is an ordinary :class:`ShiryaevDetector` whose post-change law
    is the least favorable law; callers should certify the law with
    :func:`periodetect.robust.validate_lfl` (or construct it with
    :func:`periodetect.robust.select_lfl`) unless they trust it by design.
    """
    return ShiryaevDetector(pre, least_favorable, rho, threshold, **kwargs)


class CusumDetector(_PosteriorOdds):
    """Cumulative-sum score test between a baseline law and one alternative law: the core with
    ``(+) = max`` and ``a = b = 0``, so ``W_n = max(W_{n-1}, 0) + z_n`` from ``W_0 = 0``."""

    _plus = np.maximum
    _display = float

    def __init__(self, baseline: IpidLaw, alternative: IpidLaw, threshold: float,
                 *, reset_on_alarm: bool = False, start_time: int = 0):
        if baseline.period != alternative.period:
            raise ValueError("laws must share one period")
        self.baseline = baseline
        self.alternative = alternative
        self.threshold = _real_number(threshold, "threshold")
        self._llr = _SlotLlr([(alternative.slots, baseline.slots)])
        super().__init__(baseline.period, 0.0, 0.0, [0.0], [self.threshold] * baseline.period,
                         reset_on_alarm, start_time)

    def reset(self) -> None:
        self._log_odds = [0.0]

    @property
    def score(self) -> float:
        return self._log_odds[0]

    def _walk(self, z, stop_on_alarm: bool = False):
        # the core's walk with (+) = max, at a tenth of its cost per column, which detect pays per row
        [score], stats, alarms = self._log_odds, [], []
        for x in z[0]:
            score = (score if score > 0.0 else 0.0) + x
            stats.append(score)
            alarms.append(alarm := score >= self.threshold)
            if alarm and self.reset_on_alarm:
                self.reset()
                [score] = self._log_odds
            if alarm and stop_on_alarm:
                break
        self._log_odds, self._time = [score], self._time + len(stats)
        return stats, alarms, [None] * len(stats)


class _OddsMixture(_PosteriorOdds):
    """Posterior-odds mixture whose statistic is the weighted odds ``sum_k w_k R_k``."""

    _display = staticmethod(_safe_exp)

    def __init__(self, period: int, rho: float, threshold: float, weights,
                 reset_on_alarm: bool, start_time: int):
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        self.rho = float(rho)
        self.threshold = _real_number(threshold, "threshold")
        log_threshold = math.log(self.threshold) if self.threshold > 0.0 else _NEG_INF
        super().__init__(period, math.log(rho), math.log1p(-rho), [math.log(w) for w in weights],
                         [log_threshold] * period, reset_on_alarm, start_time)

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
        self._llr = _SlotLlr([
            ([family.base_post.slots[i] if i in s else pre.slots[i] for i in range(family.period)],
             pre.slots)
            for s in family.candidates
        ])
        super().__init__(family.period, rho, threshold, family.weights, reset_on_alarm, start_time)


class MultistreamMixture(_OddsMixture):
    """Mixture rule over candidate changed-stream subsets.

    Each observation is a vector with one entry per stream; a candidate's
    per-sample score is the sum of its member streams' log-likelihood ratios.
    """

    def __init__(self, config: MultistreamConfig, rho: float, threshold: float,
                 *, reset_on_alarm: bool = False, start_time: int = 0):
        self.config = config
        self.num_streams = config.num_streams
        self._stream_tables = [_SlotLlr([(post.slots, pre.slots)]) for pre, post in config.streams]
        self._members = [sorted(b) for b in config.candidates]
        super().__init__(config.period, rho, threshold, config.weights, reset_on_alarm, start_time)

    def _step_scores(self, slot: int, x_vec) -> list[float]:
        x_vec = np.asarray(x_vec, dtype=float).reshape(-1)
        if x_vec.size != self.num_streams:
            raise ValueError(f"expected {self.num_streams} per-stream observations, got {x_vec.size}")
        return self._member_sums(
            [t.values(slot, x)[0] for t, x in zip(self._stream_tables, x_vec.tolist())])

    def _score_matrix(self, xs, start_slot: int) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.num_streams:
            raise ValueError(f"expected an (n, {self.num_streams}) observation matrix")
        return np.array(self._member_sums(
            [t.profile(xs[:, i], start_slot)[0] for i, t in enumerate(self._stream_tables)]))

    def _member_sums(self, per_stream) -> list:
        """Each candidate's score: the scores of its member streams, added in index order.

        ``per_stream[i]`` is stream ``i``'s score of one observation (``step``)
        or its row of scores (the batch paths); either way each candidate adds
        the same floats in the same order, so both paths give the same sums.
        """
        sums = []
        for members in self._members:
            total = per_stream[members[0]]
            for i in members[1:]:
                total = total + per_stream[i]
            sums.append(total)
        return sums


class ClassifierBankDetector(_Detector):
    """Joint detection and isolation against a bank of candidate post-change laws.

    For each class ``l`` the statistic is the best window of the running
    pairwise score sums, ``max_k min_{m != l} (C_lm(n) - C_lm(k-1))``; with
    ``window=L`` the start point ``k`` is restricted to the last ``L + 1``
    steps, which bounds memory and per-step work by O(L M^2); ``window=None``
    keeps all history (the full test).  On alarm, among the classes whose
    statistic cleared the threshold, the one with the largest statistic is
    declared, ties going to the smallest class index.

    The state is a ``(P, m)`` matrix of the last ``m`` checkpoints
    ``C(k-1)``, one row per (class, rival) pair, whose last column is the
    current sums ``C(n)``.  ``step`` and ``run`` walk it in blocks of columns
    of a matrix of pair scores (see ``_walk``); ``run_to_alarm`` and the trial
    engine scan it up to the alarm (see ``_scan_rows``).
    """

    _first_scan = 64  # also the walk's first block: typical runs alarm within a few dozen samples

    def __init__(self, bank: ClassBank, threshold: float, *, window: int | None = None,
                 reset_on_alarm: bool = False, start_time: int = 0):
        if window is not None and (window := _whole_number(window, "window")) < 1:
            raise ValueError("window must be >= 1 when given")
        self.bank = bank
        self.threshold = _real_number(threshold, "threshold")
        self.window = window
        # checkpoints a class statistic may start from
        self._span = math.inf if window is None else window + 1
        period = bank.period
        m = bank.num_classes
        active = bank.active_slots
        # pairs (l, m) in class-major order, so each class owns a contiguous run of m rows
        self._llr = _SlotLlr([
            ([bank.laws[ell].slots[i] if (active is None or i in active) else bank.laws[mm].slots[i]
              for i in range(period)],
             bank.laws[mm].slots)
            for ell in range(1, m + 1) for mm in range(m + 1) if mm != ell
        ])
        self.num_classes = m
        super().__init__(period, reset_on_alarm, start_time)

    def reset(self) -> None:
        self._checkpoints = np.zeros((self.num_classes ** 2, 1))
        self._stats = np.full(self.num_classes, _NEG_INF)

    def class_statistics(self) -> list[float]:
        """Per-class windowed statistics as of the last step (index 0 is a placeholder)."""
        return [_NEG_INF] + self._stats.tolist()

    def _walk(self, z, stop_on_alarm: bool = False):
        """The classifier's recursion over a ``(P, n)`` matrix of pair scores, in blocks of columns whose
        difference tensor holds at most ``_BLOCK_ELEMENTS`` entries (or one column): capped blocks from a
        full window, else (and after a reset alarm) ``_first_scan`` columns, doubling after each full block.
        No float depends on the blocks: the sums are a cumsum from the carried-in sums, sequential addition
        exactly, and each window is a strided view of the checkpoints padded in front with ``+inf``, a start
        point that never wins the max.  A block ends at an alarm that resets or stops."""
        z = np.asarray(z, dtype=float)
        m, (p, n) = self.num_classes, z.shape
        stats_col, alarm_col, decided_col, start = [], [], [], 0
        size = n if self._checkpoints.shape[1] == self._span else self._first_scan
        while start < n:
            held = self._checkpoints.shape[1]
            block = min(size, n - start, max(1, _BLOCK_ELEMENTS // (p * min(self._span, held + size))))
            width = min(self._span, held + block - 1)
            # columns: width - held pads, the held checkpoints, then the new running sums;
            # column i's window is columns i .. i + width - 1, its sums column width + i
            line = np.empty((p, width + block))
            line[:, :width - held] = _POS_INF
            line[:, width - held:width] = self._checkpoints
            line[:, width:] = z[:, start:start + block]
            sums = line[:, width - 1:]
            np.add.accumulate(sums, axis=1, out=sums)
            # ufuncs and a strided view built directly: the np.cumsum, .max and
            # as_strided wrappers cost microseconds per call, which step pays
            windows = np.ndarray((p, block, width), buffer=line,
                                 strides=(line.strides[0], line.itemsize, line.itemsize))
            diff = line[:, width:, None] - windows
            lows = np.minimum.reduce(diff.reshape(m, m, -1), axis=1)  # rival minimum per class
            stats = np.maximum.reduce(lows.reshape(m, block, width), axis=2)
            best = np.maximum.reduce(stats, axis=0)
            crossed = best >= self.threshold
            k = int(crossed.argmax())  # the first alarm, or 0 when there is none
            cut_here = bool(crossed[k]) and (self.reset_on_alarm or stop_on_alarm)
            cut = k + 1 if cut_here else block
            alarms = crossed[:cut].tolist()
            stats_col += best[:cut].tolist()
            alarm_col += alarms
            # the largest statistic names the class, ties going to the smallest index
            decided_col += [c if a else None for c, a in zip((stats[:, :cut].argmax(axis=0) + 1).tolist(), alarms)]
            self._checkpoints = line[:, max(width - held, width + cut - self._span):width + cut]
            self._stats, self._time = stats[:, cut - 1], self._time + cut
            start, size = start + cut, size * 2 if block == size else size
            if cut_here and self.reset_on_alarm:
                self.reset()
                size = self._first_scan
            if cut_here and stop_on_alarm:
                break
        self._checkpoints, self._stats = self._checkpoints.copy(), self._stats.copy()  # views of the last block
        return stats_col, alarm_col, decided_col

    def _window_stats(self, line: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The ``(M, S)`` class statistics of the observations whose sums are ``line[:, rows, cols]``,
        each over the up to ``_span`` checkpoints before it in its row: the differences, rival
        minima and window maxima of ``_walk``, so the same floats.  A window shorter than
        the widest repeats its row's first checkpoint, which changes no maximum."""
        m, width, flat = self.num_classes, int(min(self._span, cols.max())), line.reshape(len(line), -1)
        piece = max(1, _BLOCK_ELEMENTS // (len(line) * width))  # cells per difference tensor
        out = np.empty((m, rows.size))
        for lo in range(0, rows.size, piece):
            row, at = rows[lo:lo + piece] * line.shape[2], cols[lo:lo + piece]  # flat indices
            windows = np.maximum(row[:, None], (row + at)[:, None] + np.arange(-width, 0))
            diff = flat[:, row + at, None] - np.take(flat, windows, axis=1)
            out[:, lo:lo + piece] = diff.reshape(m, m, -1, width).min(axis=1).max(axis=2)
        return out

    def _scan_rows(self, z: np.ndarray, lengths, held: np.ndarray | None = None):
        """Scan the ``(P, B, n)`` pair scores of ``B`` runs (int array ``lengths``) from this unchanged
        state, or from each row's checkpoints ``held`` ``(P, B, h)``, in blocks of ``_SCAN_CHUNK``.

        The sums are ``_walk``'s sequential ``add.accumulate``.  ``U_l(n) = min_{m != l}
        (C_lm(n) - min_{j < n} C_lm(j))``, ``j`` over the block's checkpoints, bounds class ``l``'s
        windowed statistic from above exactly: every window start is such a ``j``, ``fl(a - b)``
        does not increase in ``b``, and a max over starts of a rival minimum never exceeds the
        rival minimum of the maxima.  So the statistic is evaluated only where ``max_l U_l(n)``
        reaches the threshold, in column order, up to each row's first alarm.  Returns per row
        whether it alarmed, where it stopped (first alarm, else last observation) and its class
        (0 if none), then the last block's checkpoints and sums ``(P, B, h + c)``."""
        m, rows = self.num_classes, z.shape[1]
        if held is None:
            held = np.broadcast_to(self._checkpoints[:, None], (len(z), rows, self._checkpoints.shape[1]))
        first, decided = np.full(rows, -1), np.zeros(rows, dtype=int)
        for start in range(0, z.shape[2], _SCAN_CHUNK):
            h = held.shape[2]
            line = np.concatenate([held, z[:, :, start:start + _SCAN_CHUNK]], axis=2)
            np.add.accumulate(line[:, :, h - 1:], axis=2, out=line[:, :, h - 1:])
            low = np.minimum.accumulate(line[:, :, :-1], axis=2)[:, :, h - 1:]
            bound = (line[:, :, h:] - low).reshape(m, m, rows, -1).min(axis=1).max(axis=0)
            cand = (bound >= self.threshold) & (np.arange(bound.shape[1]) < (lengths - start)[:, None])
            cand[first >= 0] = False
            take = 1
            while cand.any():  # each row's next 1, 2, 4, ... candidate columns
                now = cand & (np.cumsum(cand, axis=1) <= take)
                r, c = np.nonzero(now)
                stats = self._window_stats(line, r, h + c)
                cell = np.full(cand.shape, r.size)  # where a cell alarms, its index in r and c
                cell[r, c] = np.where(stats.max(axis=0) >= self.threshold, np.arange(r.size), r.size)
                cell = cell.min(axis=1)  # each row's first alarm
                hit = cell < r.size
                first[hit], decided[hit] = start + c[cell[hit]], stats[:, cell[hit]].argmax(axis=0) + 1
                cand &= ~now
                cand[hit], take = False, 2 * take
            if ((first >= 0) | (lengths <= start + bound.shape[1])).all():
                break
            held = line[:, :, max(0, line.shape[2] - self._span):]
        return first >= 0, np.where(first >= 0, first, lengths - 1), decided, line

    def _scan(self, z: np.ndarray) -> StepResult | None:
        [hit], [stop], [decided], line = self._scan_rows(z[:, None], np.array([z.shape[1]]))
        at = line.shape[2] + stop - min(stop // _SCAN_CHUNK * _SCAN_CHUNK + _SCAN_CHUNK, z.shape[1])
        self._stats = self._window_stats(line, np.zeros(1, dtype=int), np.array([at]))[:, 0]
        self._checkpoints = line[:, 0, max(0, at + 1 - self._span):at + 1].copy()
        self._time += int(stop) + 1
        return self._alarm(self._stats.max().item(), int(decided)) if hit else None


def _walk_blocks(detector, observations, stop_on_alarm: bool = False):
    """Score a whole input now (an invalid observation raises before any state changes), then return
    an iterator that walks ``_ROW_BLOCK`` observations per block as it is taken, ending at the first
    alarm with ``stop_on_alarm``.  A block is ``(times, observations, statistics, alarms, decided)``:
    its time indices (a range), its rows of ``observations`` and its walked columns."""
    if not isinstance(observations, np.ndarray):
        observations = list(observations)
    if len(observations) == 0:
        return iter(())
    z = detector._score_matrix(observations, detector.time % detector.period)

    def blocks():
        for lo in range(0, z.shape[1], _ROW_BLOCK):
            first = detector.time + 1
            stats, alarms, decided = detector._walk(z[:, lo:lo + _ROW_BLOCK].tolist(), stop_on_alarm)
            yield range(first, first + len(stats)), observations[lo:lo + len(stats)], stats, alarms, decided
            if stop_on_alarm and alarms[-1]:
                return

    return blocks()


def run(detector, observations, stop_on_alarm: bool = False) -> list[StepResult]:
    """Feed observations through any detector, collecting one result per observation.

    The whole input is scored before any state changes, so an invalid
    observation raises and leaves the detector as it was; the walk is the one
    ``step`` takes a column at a time, so the trajectory equals stepping, bit
    for bit.  With ``stop_on_alarm`` the trajectory is truncated at the first alarm.
    """
    trajectory: list[StepResult] = []
    for times, _, stats, alarms, decided in _walk_blocks(detector, observations, stop_on_alarm):
        trajectory += map(_new_tuple, itertools.repeat(StepResult), zip(times, stats, alarms, decided))
    return trajectory


def _value_fields(values: np.ndarray, sep: str) -> list[str]:
    """One field per row of a non-empty block: the ``repr`` of each value, joined by ``sep``."""
    rows = values.reshape(len(values), -1)
    if rows.shape[1] == 1:
        return list(map(repr, rows[:, 0].tolist()))
    return [sep.join(map(repr, row)) for row in rows.tolist()]


def _write_csv_blocks(path, header: list[str], chunks) -> None:
    """Write ``header``, then each chunk of CRLF-ended lines as it is taken: the bytes ``csv.writer``
    writes for fields that need no quoting."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for chunk in chunks:
            fh.write(chunk)


_ALARM_FIELDS = ("0", "1")


def _write_trajectory(path, blocks, period: int) -> None:
    """The one trajectory formatter: write blocks ``(times, observations, statistics, alarms, decided)``
    of columns as ``write_trajectory_csv`` does, formatting and writing each before taking the next."""
    slots = [f",{s}," for s in range(period)]

    def lines(times, observations, stats, alarms, decided):
        fields = _value_fields(np.asarray(observations, dtype=float), ";")
        return "".join([f"{t}{slots[(t - 1) % period]}{obs},{stat!r},{_ALARM_FIELDS[alarm]},"
                        f"{'' if d is None else d}\r\n"
                        for t, obs, stat, alarm, d in zip(times, fields, stats, alarms, decided)])

    _write_csv_blocks(path, ["time_index", "slot", "observation", "statistic", "alarm", "decided_class"],
                      (lines(*block) for block in blocks))


def write_trajectory_csv(path, trajectory: list[StepResult], observations, period: int) -> None:
    """Dump a trajectory as CSV: time_index, slot, observation, statistic, alarm, decided_class.

    ``observations`` must hold exactly one entry per trajectory row; a length
    mismatch raises ``ValueError`` before the file is opened.  Floats are
    written with ``repr``, and a vector observation as its entries joined by
    ``;``.
    """
    if len(trajectory) != len(observations):
        raise ValueError(f"trajectory has {len(trajectory)} rows but {len(observations)} "
                         "observations were given")
    values = np.asarray(observations, dtype=float)

    def blocks():
        for lo in range(0, len(trajectory), _ROW_BLOCK):
            times, stats, alarms, decided = zip(*trajectory[lo:lo + _ROW_BLOCK])
            yield times, values[lo:lo + _ROW_BLOCK], stats, map(int, alarms), decided

    _write_trajectory(path, blocks(), period)
