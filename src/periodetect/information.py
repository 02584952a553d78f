"""Information numbers, alarm thresholds, and first-order delay predictions.

All information numbers are per-period averages of slot Kullback-Leibler
divergences, so they are directly commensurate (in nats) with the log-scale
thresholds computed here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .densities import kl
from .model import ClassBank, IpidLaw, MultislotFamily, MultistreamConfig, _candidate, _real_number


class DetectorKind(enum.Enum):
    SHIRYAEV = "shiryaev"
    CUSUM = "cusum"
    MIXTURE = "mixture"
    MULTISTREAM = "multistream"
    CLASSIFIER = "classifier"


_BAYESIAN_KINDS = (DetectorKind.SHIRYAEV, DetectorKind.MIXTURE, DetectorKind.MULTISTREAM)


@dataclass(frozen=True)
class InfoReport:
    """Per-slot divergences plus the aggregate they feed."""

    per_slot_kl: tuple[float, ...]
    aggregate: float
    formula_id: str

    def to_dict(self) -> dict:
        return {
            "per_slot_kl": list(self.per_slot_kl),
            "aggregate": self.aggregate,
            "formula_id": self.formula_id,
        }


def per_slot_kl(pre: IpidLaw, post: IpidLaw) -> tuple[float, ...]:
    if pre.period != post.period:
        raise ValueError("laws must share one period")
    return tuple(kl(post.slots[i], pre.slots[i]) for i in range(pre.period))


def info_number(pre: IpidLaw, post: IpidLaw) -> float:
    """Per-period average KL divergence of the post-change law from the pre-change law."""
    slot_kls = per_slot_kl(pre, post)
    return sum(slot_kls) / pre.period


def info_multislot(family: MultislotFamily, changed_slots) -> float:
    """Information number of a candidate subset: changed slots contribute, others are zero."""
    s = _candidate(family.candidates, changed_slots, "changed slots")
    total = sum(kl(family.base_post.slots[i], family.base_pre.slots[i]) for i in s)
    return total / family.period


def info_multistream(config: MultistreamConfig, changed_streams) -> float:
    """Summed per-stream information numbers over the changed streams."""
    b = _candidate(config.candidates, changed_streams, "changed streams")
    return sum(info_number(config.streams[i][0], config.streams[i][1]) for i in b)


def info_matrix(bank: ClassBank) -> tuple[np.ndarray, float]:
    """Pairwise class information matrix and its minimum.

    Entry (l-1, m) for l in 1..M, m in 0..M, m != l is the per-period average
    divergence of law l from law m over the bank's contributing slots; the
    l == m cells are NaN.  The minimum entry governs the slowest pairwise
    discrimination and hence the first-order isolation delay.
    """
    m_classes = bank.num_classes
    slots = bank.contributing_slots()
    out = np.full((m_classes, m_classes + 1), np.nan)
    for ell in range(1, m_classes + 1):
        for m in range(0, m_classes + 1):
            if m == ell:
                continue
            total = sum(kl(bank.laws[ell].slots[i], bank.laws[m].slots[i]) for i in slots)
            out[ell - 1, m] = total / bank.period
    return out, float(np.nanmin(out))


def _checked_budget(kind: DetectorKind, budget) -> float:
    """``budget`` as a float: ``alpha`` in (0, 1) for a Bayesian kind, else ``beta`` > 1."""
    budget = float(budget)
    if kind in _BAYESIAN_KINDS and not (0.0 < budget < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {budget}")
    if kind not in _BAYESIAN_KINDS and not (budget > 1.0):
        raise ValueError(f"beta must exceed 1, got {budget}")
    return budget


def threshold(kind: DetectorKind, budget: float, num_classes: int | None = None) -> float:
    """Alarm threshold achieving the named false-alarm budget.

    Bayesian kinds take a false-alarm probability ``alpha`` in (0, 1):
    the posterior rule uses ``1 - alpha`` and the mixture rules use
    ``(1 - alpha) / alpha`` on the odds scale.  Frequentist kinds take a mean
    time to false alarm ``beta`` > 1: ``log(beta)`` for the single-alternative
    score test and ``log(4 * M * beta)`` for an M-class bank.
    """
    kind = DetectorKind(kind)
    budget = _checked_budget(kind, budget)
    if kind is DetectorKind.SHIRYAEV:
        return 1.0 - budget
    if kind in _BAYESIAN_KINDS:
        return (1.0 - budget) / budget
    if kind is DetectorKind.CUSUM:
        return math.log(budget)
    if kind is DetectorKind.CLASSIFIER:
        if num_classes is None or num_classes < 1:
            raise ValueError("classifier threshold needs the number of classes M >= 1")
        return math.log(4.0 * num_classes * budget)
    raise ValueError(f"unhandled kind {kind}")


def asymptotic_delay(kind: DetectorKind, budget: float, info: float, tail_exponent: float = 0.0) -> float:
    """First-order detection-delay prediction for the named rule.

    Bayesian kinds predict ``|log alpha| / (info + tail_exponent)``;
    frequentist kinds predict ``log(beta) / info`` (the prior tail plays no
    role there).
    """
    kind = DetectorKind(kind)
    info = float(info)
    if not (info > 0.0):
        raise ValueError(f"information number must be > 0, got {info}")
    budget = _checked_budget(kind, budget)
    if kind in _BAYESIAN_KINDS:
        d = _real_number(tail_exponent, "tail exponent")
        if d < 0.0:
            raise ValueError("tail exponent must be >= 0")
        return abs(math.log(budget)) / (info + d)
    return math.log(budget) / info


def window_size(beta: float, min_info: float, epsilon: float) -> int:
    """History window long enough to retain the window-limited test's optimality.

    Returns ``ceil((1 + epsilon) * log(beta) / min_info)``, at least 1.
    """
    if not (beta > 1.0):
        raise ValueError("beta must exceed 1")
    if not (min_info > 0.0):
        raise ValueError("information number must be > 0")
    if not (epsilon > 0.0):
        raise ValueError("epsilon must be > 0")
    return max(1, math.ceil((1.0 + epsilon) * math.log(beta) / min_info))


def info_report(pre: IpidLaw, post: IpidLaw) -> InfoReport:
    slot_kls = per_slot_kl(pre, post)
    return InfoReport(
        per_slot_kl=slot_kls,
        aggregate=sum(slot_kls) / pre.period,
        formula_id="period-averaged-kl",
    )
