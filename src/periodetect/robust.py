"""Least-favorable-law selection and stochastic-boundedness checks.

An uncertainty family gives, per slot, the set of post-change densities the
process might follow.  A member law is least favorable when, slot by slot,
the log-likelihood ratio built from it is stochastically smallest under
itself: every other candidate pushes that ratio up, so a detector designed
against the least favorable law is conservative for the whole family.

Dominance between two candidate laws is decided on the survival function of
``Z = log gbar(X) / f(X)``: ``g`` dominates ``gbar`` when
``P_g(Z >= t) >= P_gbar(Z >= t)`` for every ``t``.  The audit is exact and
draws nothing.  A Poisson ``Z`` is monotone in ``x``, and Poisson laws are
ordered by rate, so a rate comparison settles it; so does a mean comparison
for a Gaussian ``Z`` that is linear in ``x``.  Otherwise ``Z`` is quadratic
in ``x``, ``Z >= t`` is a condition on ``|X - x0|``, and the two
folded-normal survival curves of ``|X - x0|`` are compared on a fixed grid.

``select_lfl`` and ``validate_lfl`` share one decision: a member is least
favorable when each of its rivals (``_rivals``) dominates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .densities import Gaussian, Poisson, SlotDensity, _json_object, _required, density_from_dict, density_to_dict
from .model import IpidLaw, _json_list, _whole_number

# The folded-normal curves are compared at this many points over each law's +-10 sd; a deficit within _TIE is a tie.
_GRID_POINTS, _TIE = 2001, 1e-12
_erfc = np.frompyfunc(math.erfc, 1, 1)


class NoLeastFavorableError(ValueError):
    """Raised when a family has no dominance-minimal member."""


@dataclass(frozen=True)
class FiniteSlotFamily:
    """Explicitly enumerated candidate densities for one slot."""

    candidates: tuple[SlotDensity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.candidates:
            raise ValueError("slot family must be nonempty")

    def contains(self, d: SlotDensity) -> bool:
        return d in self.candidates

    def to_dict(self) -> dict:
        return {"type": "finite", "candidates": [density_to_dict(d) for d in self.candidates]}


@dataclass(frozen=True)
class IntervalSlotFamily:
    """One-parameter family on one side of a boundary density.

    For a Gaussian boundary the free parameter is the mean (variance fixed at
    the boundary's); for Poisson it is the rate.  ``direction`` is ``"ge"``
    for parameters at or above the boundary and ``"le"`` for at or below.
    """

    boundary: SlotDensity
    direction: str

    def __post_init__(self) -> None:
        if self.direction not in ("ge", "le"):
            raise ValueError(f"direction must be 'ge' or 'le', got {self.direction!r}")

    def contains(self, d: SlotDensity) -> bool:
        if type(d) is not type(self.boundary) or isinstance(d, Gaussian) and d.variance != self.boundary.variance:
            return False
        p, b = (d.mean, self.boundary.mean) if isinstance(d, Gaussian) else (d.rate, self.boundary.rate)
        return p >= b if self.direction == "ge" else p <= b

    def to_dict(self) -> dict:
        return {"type": "interval", "boundary": density_to_dict(self.boundary), "direction": self.direction}


SlotFamily = Union[FiniteSlotFamily, IntervalSlotFamily]


@dataclass(frozen=True)
class UncertaintyFamily:
    """Per-slot candidate sets for the unknown post-change law."""

    period: int
    slots: tuple[SlotFamily, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "period", _whole_number(self.period, "period"))
        object.__setattr__(self, "slots", tuple(self.slots))
        if len(self.slots) != self.period:
            raise ValueError(f"expected {self.period} slot families, got {len(self.slots)}")

    def to_dict(self) -> dict:
        return {"period": self.period, "slots": [s.to_dict() for s in self.slots]}

    @classmethod
    def from_dict(cls, obj: dict) -> "UncertaintyFamily":
        slots = _json_list(_required(obj, "slots", "a family"), "slots", "objects")
        return cls(period=_required(obj, "period", "a family"), slots=tuple(map(_slot_family, slots)))


def _slot_family(obj: dict) -> SlotFamily:
    kind = _json_object(obj, "a slot family").get("type")
    if kind == "finite":
        cands = _json_list(_required(obj, "candidates", "a slot family"), "candidates", "densities")
        return FiniteSlotFamily(tuple(map(density_from_dict, cands)))
    if kind == "interval":
        return IntervalSlotFamily(density_from_dict(_required(obj, "boundary", "a slot family")), obj.get("direction"))
    raise ValueError(f"unknown slot family type {kind!r}")


def _vertex(f: Gaussian, g_bar: Gaussian) -> tuple[float, float]:
    """``(c2, c)``: ``Z = log gbar(x)/f(x)`` is ``c2 * (x - c)**2`` plus a constant, or linear where
    ``c2`` is 0, and then ``c`` is f's mean."""
    c2 = 0.5 * (1.0 / f.variance - 1.0 / g_bar.variance)
    return c2, (f.mean / f.variance - g_bar.mean / g_bar.variance) / (2.0 * c2) if c2 else f.mean


def dominance_check(f: SlotDensity, g_bar: SlotDensity, g: SlotDensity) -> bool:
    """True when ``g`` pushes the score ``Z = log gbar(X)/f(X)`` stochastically above ``gbar``."""
    if not (type(f) is type(g_bar) is type(g)):
        raise ValueError("dominance is defined within one family only")
    if g == g_bar:
        return True
    if isinstance(f, Poisson):  # Z is monotone in x
        return (g_bar.rate - f.rate) * (g.rate - g_bar.rate) >= 0.0
    c2, x0 = _vertex(f, g_bar)
    if c2 == 0.0:  # Z is linear in x, and the tails of two normals of unequal variances cross
        slope = (g_bar.mean - f.mean) / f.variance
        return slope == 0.0 or g.variance == g_bar.variance and slope * (g.mean - g_bar.mean) >= 0.0
    # Z >= t is |X - x0| >= r for c2 > 0 and |X - x0| <= r for c2 < 0
    steps = np.linspace(-10.0, 10.0, _GRID_POINTS)
    r = np.maximum(np.concatenate([abs(d.mean - x0) + steps * math.sqrt(d.variance) for d in (g_bar, g)]), 0.0)

    def survival(d):  # P(|X - x0| >= r) for X drawn from d
        scale = math.sqrt(2.0 * d.variance)
        return 0.5 * (_erfc((x0 + r - d.mean) / scale) + _erfc((r - x0 + d.mean) / scale)).astype(float)

    deficit = math.copysign(1.0, c2) * (survival(g_bar) - survival(g))
    return bool(deficit.max() <= _TIE)


def _rivals(i: int, family: SlotFamily, f: SlotDensity, g_bar: SlotDensity) -> tuple[SlotDensity, ...]:
    """The members of slot ``i``'s family that ``g_bar`` is audited against: a finite family's candidates, or
    an interval's boundary, a far member beyond ``g_bar`` and, where ``Z`` is quadratic, the member nearest ``x0``.

    These suffice.  A member ``m`` dominates a monotone ``Z`` exactly when it lies beyond ``g_bar`` from ``f``,
    so the boundary or the far member fails if any member does.  At one variance ``P(|X - x0| >= r)`` grows
    with ``|m - x0|``, so a quadratic ``Z`` fails at the nearest member or the far one if it fails anywhere.
    """
    if type(f) is not type(g_bar):
        raise ValueError(f"slot {i}: the slot family and the pre-change density are different families")
    if isinstance(family, FiniteSlotFamily):
        return family.candidates
    b, s = family.boundary, 1.0 if family.direction == "ge" else -1.0
    if isinstance(b, Poisson):
        return b, Poisson(2.0 * g_bar.rate + 1.0 if s > 0 else 0.5 * g_bar.rate)
    c2, c = _vertex(f, g_bar)
    nearest = (Gaussian(c, b.variance),) if c2 and s * (c - b.mean) > 0.0 else ()  # else the boundary is nearest
    far = g_bar.mean + s * (2.0 * abs(g_bar.mean - c) + math.sqrt(b.variance))
    return b, *nearest, Gaussian(far, b.variance)


@dataclass(frozen=True)
class LflValidationReport:
    """Outcome of the slot-wise dominance audit of a proposed least favorable law."""

    ok: bool
    checked: int
    violations: tuple[tuple[int, SlotDensity], ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": [{"slot": s, "candidate": density_to_dict(d)} for s, d in self.violations],
        }


def validate_lfl(pre: IpidLaw, proposed: IpidLaw, family: UncertaintyFamily) -> LflValidationReport:
    """Audit a proposed least favorable law against each slot's ``_rivals``.

    The proposed law must itself belong to the family.  Each verdict is
    ``dominance_check``'s exact one, so the report draws nothing and depends
    on no seed.
    """
    if pre.period != proposed.period or pre.period != family.period:
        raise ValueError("pre law, proposed law, and family must share one period")
    violations, checked = [], 0
    for i, (slot_family, f, g_bar) in enumerate(zip(family.slots, pre.slots, proposed.slots)):
        if not slot_family.contains(g_bar):
            raise ValueError(f"proposed slot {i} density is not a member of its declared family")
        rivals = _rivals(i, slot_family, f, g_bar)
        checked += len(rivals)
        violations += [(i, g) for g in rivals if not dominance_check(f, g_bar, g)]
    return LflValidationReport(ok=not violations, checked=checked, violations=tuple(violations))


def select_lfl(pre: IpidLaw, family: UncertaintyFamily) -> IpidLaw:
    """Pick, slot by slot, the first member that ``validate_lfl`` would pass.

    A finite family's candidates are tried in order; an interval offers its
    boundary.  Where none passes, the family is not stochastically bounded
    by a member on offer, and a ``NoLeastFavorableError`` names the slot.
    """
    if pre.period != family.period:
        raise ValueError("pre law and family must share one period")
    slots = []
    for i, (slot_family, f) in enumerate(zip(family.slots, pre.slots)):
        members = slot_family.candidates if isinstance(slot_family, FiniteSlotFamily) else (slot_family.boundary,)
        chosen = next((g_bar for g_bar in members
                       if all(dominance_check(f, g_bar, g) for g in _rivals(i, slot_family, f, g_bar))), None)
        if chosen is None:
            raise NoLeastFavorableError(f"slot {i}: no member is dominated by all its rivals")
        slots.append(chosen)
    return IpidLaw(period=family.period, slots=tuple(slots))
