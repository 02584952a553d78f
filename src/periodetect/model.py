"""Periodic process models, change-point priors, and detection configurations.

An i.p.i.d. (independent, periodically identically distributed) law is a
period-``T`` vector of slot distributions; observation ``n`` (1-based) is
governed by slot ``(n - 1) mod T``, so observation ``T`` uses the last slot
and observation ``T + 1`` wraps back to the first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

from .densities import SlotDensity, density_from_dict, density_to_dict

_WEIGHT_TOL = 1e-9


def _whole_number(value, name: str) -> int:
    """``value`` as an int when a whole number (``2`` or ``2.0``, not a bool); else a ValueError naming ``name``."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, numbers.Real) and float(value).is_integer()
    if whole and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _real_number(value, name: str) -> float:
    """``value`` as a float (``±inf`` too) unless a bool or NaN; else a ValueError naming ``name``."""
    if not isinstance(value, (bool, np.bool_)) and not math.isnan(number := float(value)):
        return number
    raise ValueError(f"{name} must be a number other than NaN, got {value!r}")


def _index_set(values, limit: int, name: str) -> frozenset:
    """``values`` as a nonempty set of whole numbers in ``0..limit - 1``; else a ValueError naming ``name``."""
    s = frozenset(_whole_number(i, f"an index of {name}") for i in values)
    if not s:
        raise ValueError(f"{name} must be nonempty")
    if not all(0 <= i < limit for i in s):
        raise ValueError(f"{name} {sorted(s)} outside 0..{limit - 1}")
    return s


def _candidate(candidates, values, name: str) -> frozenset:
    """The one of ``candidates`` whose indices are ``values``; else a ValueError naming ``name``."""
    if (s := frozenset(_whole_number(i, f"an index of {name}") for i in values)) not in candidates:
        raise ValueError(f"unknown candidate {sorted(s)}; not in the declared family")
    return s


@dataclass(frozen=True)
class IpidLaw:
    """Full law of a periodic process: one slot density per phase."""

    period: int
    slots: tuple[SlotDensity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _whole_number(self.period, "period"))
        object.__setattr__(self, "slots", tuple(self.slots))
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if len(self.slots) != self.period:
            raise ValueError(f"expected {self.period} slots, got {len(self.slots)}")

    def slot_of(self, time_index: int) -> int:
        """Slot governing the 1-based observation index ``time_index``."""
        if time_index < 1:
            raise ValueError("time indices are 1-based")
        return (time_index - 1) % self.period

    def density_at(self, time_index: int) -> SlotDensity:
        return self.slots[self.slot_of(time_index)]

    def to_dict(self) -> dict:
        return {"period": self.period, "slots": [density_to_dict(d) for d in self.slots]}

    @classmethod
    def from_dict(cls, obj: dict) -> "IpidLaw":
        return cls(period=obj["period"], slots=tuple(density_from_dict(d) for d in obj["slots"]))


@dataclass(frozen=True)
class GeometricPrior:
    """Geometric change-point prior on {1, 2, ...} with success parameter rho."""

    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", float(self.rho))
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    def mass(self, n: int) -> float:
        if n < 1:
            raise ValueError("prior mass is defined for n >= 1")
        return (1.0 - self.rho) ** (n - 1) * self.rho

    def survival(self, n: int) -> float:
        if n < 0:
            raise ValueError("survival is defined for n >= 0")
        return (1.0 - self.rho) ** n

    @property
    def tail_exponent(self) -> float:
        return abs(math.log(1.0 - self.rho))

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.geometric(self.rho))

    def to_dict(self) -> dict:
        return {"type": "geometric", "rho": self.rho}


@dataclass(frozen=True)
class ExplicitPrior:
    """Tabulated change-point prior over n = 1..N with an optional declared tail rate.

    The table must sum to one; there is no mass beyond it, so point masses past
    the table are an error while survival past the table is zero.  The tail
    exponent used in asymptotic formulas cannot be inferred from a finite table
    and defaults to 0 unless declared.
    """

    pmf: tuple[float, ...]
    declared_tail_exponent: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "pmf", tuple(_real_number(p, "a prior probability") for p in self.pmf))
        object.__setattr__(self, "declared_tail_exponent", _real_number(self.declared_tail_exponent, "tail exponent"))
        if not self.pmf:
            raise ValueError("explicit prior needs at least one entry")
        if any(p < 0.0 for p in self.pmf):
            raise ValueError("prior probabilities must be nonnegative")
        if abs(sum(self.pmf) - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"explicit prior must sum to 1 within {_WEIGHT_TOL}, got {sum(self.pmf)}")
        if self.declared_tail_exponent < 0.0:
            raise ValueError("tail exponent must be >= 0")

    def mass(self, n: int) -> float:
        if n < 1:
            raise ValueError("prior mass is defined for n >= 1")
        if n > len(self.pmf):
            raise ValueError(f"explicit prior has no mass beyond n={len(self.pmf)}")
        return self.pmf[n - 1]

    def survival(self, n: int) -> float:
        if n < 0:
            raise ValueError("survival is defined for n >= 0")
        return float(sum(self.pmf[n:]))

    @property
    def tail_exponent(self) -> float:
        return self.declared_tail_exponent

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self.pmf), p=np.asarray(self.pmf))) + 1

    def to_dict(self) -> dict:
        return {
            "type": "explicit",
            "pmf": list(self.pmf),
            "tail_exponent": self.declared_tail_exponent,
        }


ChangePointPrior = Union[GeometricPrior, ExplicitPrior]


def prior_mass(prior: ChangePointPrior, n: int) -> float:
    """P(change point = n)."""
    return prior.mass(n)


def survival(prior: ChangePointPrior, n: int) -> float:
    """P(change point > n)."""
    return prior.survival(n)


def tail_exponent(prior: ChangePointPrior) -> float:
    """Exponential decay rate of the prior's survival function."""
    return prior.tail_exponent


def prior_from_dict(obj: dict) -> ChangePointPrior:
    kind = obj.get("type")
    if kind == "geometric":
        return GeometricPrior(rho=obj["rho"])
    if kind == "explicit":
        return ExplicitPrior(pmf=tuple(obj["pmf"]), declared_tail_exponent=obj.get("tail_exponent", 0.0))
    raise ValueError(f"unknown prior type: {kind!r}")


def _normalize_candidates(candidates, limit: int, what: str) -> tuple[frozenset, ...]:
    out = tuple(_index_set(cand, limit, f"{what} candidate") for cand in candidates)
    if not out:
        raise ValueError(f"need at least one {what} candidate")
    return out


def _check_weights(weights, count: int) -> tuple[float, ...]:
    w = tuple(_real_number(x, "a weight") for x in weights)
    if len(w) != count:
        raise ValueError(f"expected {count} weights, got {len(w)}")
    if any(x <= 0.0 for x in w):
        raise ValueError("weights must be strictly positive")
    if abs(sum(w) - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {sum(w)}")
    return w


@dataclass(frozen=True)
class MultislotFamily:
    """Candidate changed-slot subsets with mixing weights.

    The post-change law for a candidate subset S keeps the baseline slot
    density outside S and switches to the changed density inside S.  A
    candidate on which the two base laws agree everywhere carries no
    information and is rejected.
    """

    period: int
    base_pre: IpidLaw
    base_post: IpidLaw
    candidates: tuple[frozenset, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _whole_number(self.period, "period"))
        if self.base_pre.period != self.period or self.base_post.period != self.period:
            raise ValueError("base laws must share the family period")
        cands = _normalize_candidates(self.candidates, self.period, "slot")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "weights", _check_weights(self.weights, len(cands)))
        for s in cands:
            if all(self.base_post.slots[i] == self.base_pre.slots[i] for i in s):
                raise ValueError(f"candidate {sorted(s)} has zero information: laws agree on every slot in it")

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "pre": self.base_pre.to_dict(),
            "post": self.base_post.to_dict(),
            "candidates": [sorted(s) for s in self.candidates],
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MultislotFamily":
        return cls(
            period=obj["period"],
            base_pre=IpidLaw.from_dict(obj["pre"]),
            base_post=IpidLaw.from_dict(obj["post"]),
            candidates=tuple(frozenset(c) for c in obj["candidates"]),
            weights=tuple(obj["weights"]),
        )


def post_change_law(family: MultislotFamily, changed_slots) -> IpidLaw:
    """Law with the changed density on ``changed_slots`` and the baseline elsewhere."""
    s = _candidate(family.candidates, changed_slots, "changed slots")
    slots = tuple(
        family.base_post.slots[i] if i in s else family.base_pre.slots[i] for i in range(family.period)
    )
    return IpidLaw(period=family.period, slots=slots)


@dataclass(frozen=True)
class ClassBank:
    """Baseline law plus M alternative laws for joint detection and isolation.

    ``laws[0]`` is the pre-change law; ``laws[1..M]`` are the candidate
    post-change laws.  When ``active_slots`` is set, likelihood-ratio
    contributions outside it are nullified, so every pair of laws must still
    be distinguishable somewhere inside it.
    """

    period: int
    laws: tuple[IpidLaw, ...]
    active_slots: frozenset | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _whole_number(self.period, "period"))
        object.__setattr__(self, "laws", tuple(self.laws))
        if len(self.laws) < 2:
            raise ValueError("a class bank needs the baseline law plus at least one alternative")
        for law in self.laws:
            if law.period != self.period:
                raise ValueError("all bank laws must share one period")
        if self.active_slots is not None:
            object.__setattr__(self, "active_slots", _index_set(self.active_slots, self.period, "active_slots"))
        slots = sorted(self.active_slots) if self.active_slots is not None else range(self.period)
        m = len(self.laws) - 1
        for a in range(m + 1):
            for b in range(a + 1, m + 1):
                if all(self.laws[a].slots[i] == self.laws[b].slots[i] for i in slots):
                    raise ValueError(
                        f"laws {a} and {b} coincide on every contributing slot; the bank is degenerate"
                    )

    @property
    def num_classes(self) -> int:
        return len(self.laws) - 1

    def class_law(self, k: int) -> IpidLaw:
        """The post-change law of class ``k``, one of 1..M."""
        k = _whole_number(k, "true_class")
        if not 1 <= k <= self.num_classes:
            raise ValueError(f"true_class must lie in 1..{self.num_classes}")
        return self.laws[k]

    def contributing_slots(self) -> tuple[int, ...]:
        if self.active_slots is None:
            return tuple(range(self.period))
        return tuple(sorted(self.active_slots))

    def to_dict(self) -> dict:
        return {
            "period": self.period,
            "laws": [law.to_dict() for law in self.laws],
            "active_slots": sorted(self.active_slots) if self.active_slots is not None else None,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ClassBank":
        return cls(
            period=obj["period"],
            laws=tuple(IpidLaw.from_dict(d) for d in obj["laws"]),
            active_slots=obj.get("active_slots"),
        )


@dataclass(frozen=True)
class MultistreamConfig:
    """Per-stream law pairs with candidate changed-stream subsets."""

    streams: tuple[tuple[IpidLaw, IpidLaw], ...]
    candidates: tuple[frozenset, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        streams = tuple((pre, post) for pre, post in self.streams)
        object.__setattr__(self, "streams", streams)
        if not streams:
            raise ValueError("need at least one stream")
        period = streams[0][0].period
        for pre, post in streams:
            if pre.period != period or post.period != period:
                raise ValueError("all stream laws must share one period")
        cands = _normalize_candidates(self.candidates, len(streams), "stream")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(self, "weights", _check_weights(self.weights, len(cands)))

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    @property
    def period(self) -> int:
        return self.streams[0][0].period

    def to_dict(self) -> dict:
        return {
            "streams": [{"pre": pre.to_dict(), "post": post.to_dict()} for pre, post in self.streams],
            "candidates": [sorted(s) for s in self.candidates],
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "MultistreamConfig":
        return cls(
            streams=tuple((IpidLaw.from_dict(s["pre"]), IpidLaw.from_dict(s["post"])) for s in obj["streams"]),
            candidates=tuple(frozenset(c) for c in obj["candidates"]),
            weights=tuple(obj["weights"]),
        )


@dataclass(frozen=True)
class PeriodicThresholds:
    """Belief-scale alarm thresholds: one value per slot, or a single shared value.

    Values live in [0, 1]; 0 makes the rule fire immediately and 1 makes it
    unattainable (the posterior stays below 1 almost surely).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("need at least one threshold value")
        for v in vals:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"belief thresholds must lie in [0, 1], got {v}")

    @classmethod
    def single(cls, value: float) -> "PeriodicThresholds":
        return cls(values=(value,))

    def for_slot(self, slot: int) -> float:
        if len(self.values) == 1:
            return self.values[0]
        return self.values[slot]

    def to_dict(self) -> dict:
        return {"values": list(self.values)}

    @classmethod
    def from_dict(cls, obj: dict) -> "PeriodicThresholds":
        return cls(values=tuple(obj["values"]))
