"""Least-favorable-law selection and stochastic-boundedness checks.

An uncertainty family gives, per slot, the set of post-change densities the
process might follow.  A member law is least favorable when, slot by slot,
the log-likelihood ratio built from it is stochastically smallest under
itself: every other candidate pushes that ratio up, so a detector designed
against the least favorable law is conservative for the whole family.

Dominance between two candidate laws is decided on the survival function of
``Z = log gbar(X) / f(X)``: ``g`` dominates ``gbar`` when
``P_g(Z >= t) >= P_gbar(Z >= t)`` for every ``t``.  Equal-variance Gaussian
triples reduce to a mean comparison (``Z`` is linear in ``X``); all other
cases are settled by Monte Carlo comparison of the two empirical survival
curves on a quantile-anchored grid, with a three-standard-error tolerance
per grid point.  One pass, ``_violations``, audits ``gbar`` against all its
rivals: ``gbar``'s samples are drawn once for all of them, every sample is
scored through ``_SlotLlr``, and each rival draws from the generator state
just after ``gbar``'s, so a rival's verdict does not depend on the others.
Monte Carlo verdicts are deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .densities import Gaussian, Poisson, SlotDensity, density_from_dict, density_to_dict
from .detectors import _SlotLlr
from .model import IpidLaw, _whole_number

GRID_POINTS = 201
_GRID_QUANTILES = (0.001, 0.999)
# Interval families are certified at the boundary plus a few interior probes;
# the monotone-likelihood-ratio structure of the Gaussian/Poisson families
# makes the boundary the binding case, but the probes guard the wiring.
_INTERVAL_PROBE_MULTIPLIERS = (1.0, 2.0, 4.0)


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

    def _param(self, d: SlotDensity) -> float:
        return d.mean if isinstance(d, Gaussian) else d.rate

    def contains(self, d: SlotDensity) -> bool:
        if type(d) is not type(self.boundary):
            return False
        if isinstance(d, Gaussian) and d.variance != self.boundary.variance:
            return False
        p, b = self._param(d), self._param(self.boundary)
        return p >= b if self.direction == "ge" else p <= b

    def probes(self, pre: SlotDensity) -> tuple[SlotDensity, ...]:
        """Interior members used to spot-check dominance of the boundary."""
        b = self._param(self.boundary)
        scale = max(abs(b - self._param(pre)), 1e-3)
        sign = 1.0 if self.direction == "ge" else -1.0
        out = []
        for mult in _INTERVAL_PROBE_MULTIPLIERS:
            p = b + sign * mult * scale
            if isinstance(self.boundary, Gaussian):
                out.append(Gaussian(mean=p, variance=self.boundary.variance))
            else:
                if p <= 0.0:
                    continue
                out.append(Poisson(rate=p))
        return tuple(out)

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
        slots = []
        for s in obj["slots"]:
            if s["type"] == "finite":
                slots.append(FiniteSlotFamily(tuple(density_from_dict(d) for d in s["candidates"])))
            elif s["type"] == "interval":
                slots.append(IntervalSlotFamily(density_from_dict(s["boundary"]), s["direction"]))
            else:
                raise ValueError(f"unknown slot family type {s['type']!r}")
        return cls(period=obj["period"], slots=tuple(slots))


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0x6C666C], dtype=np.uint64)))


def _violations(f: SlotDensity, g_bar: SlotDensity, rivals, samples: int, seed: int) -> list:
    """The rivals that do not push ``Z`` stochastically above ``gbar``, in rival order."""
    failed, z_bar = [], None
    for g in rivals:
        if not (type(f) is type(g_bar) is type(g)):
            raise ValueError("dominance is defined within one family only")
        if g == g_bar:
            continue
        if isinstance(f, Gaussian) and f.variance == g_bar.variance == g.variance:
            if not (g_bar.mean - f.mean) / f.variance * (g.mean - g_bar.mean) >= 0.0:
                failed.append(g)
            continue
        if z_bar is None:
            rng, score = _rng(seed), _SlotLlr([((g_bar,), (f,))]).profile
            z_bar = np.sort(score(g_bar.sample(rng, samples), 0)[0])
            after_bar = rng.bit_generator.state
            lo, hi = np.quantile(z_bar, _GRID_QUANTILES)
            grid = np.array([lo]) if lo == hi else np.linspace(lo, hi, GRID_POINTS)
            # P(Z >= t) as the share of sorted scores at or above t
            p_bar = (samples - np.searchsorted(z_bar, grid)) / samples
        rng.bit_generator.state = after_bar
        z_g = np.sort(score(g.sample(rng, samples), 0)[0])
        p_g = (samples - np.searchsorted(z_g, grid)) / samples
        se = np.sqrt((p_g * (1 - p_g) + p_bar * (1 - p_bar)) / samples)
        if (p_g < p_bar - 3.0 * se).any():
            failed.append(g)
    return failed


def dominance_check(f: SlotDensity, g_bar: SlotDensity, g: SlotDensity,
                    *, samples: int = 100_000, seed: int = 0) -> bool:
    """True when ``g`` pushes the score ``Z = log gbar(X)/f(X)`` stochastically above ``gbar``."""
    _check_samples(samples)
    return not _violations(f, g_bar, (g,), samples, seed)


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


def validate_lfl(pre: IpidLaw, proposed: IpidLaw, family: UncertaintyFamily,
                 *, samples: int = 100_000, seed: int = 0) -> LflValidationReport:
    """Audit a proposed least favorable law against every declared candidate.

    Finite slot families are checked against each member; interval families
    against the boundary plus interior probes.  The proposed law must itself
    belong to the family.
    """
    _check_samples(samples)
    if pre.period != proposed.period or pre.period != family.period:
        raise ValueError("pre law, proposed law, and family must share one period")
    violations, checked = [], 0
    for i, (slot_family, f, g_bar) in enumerate(zip(family.slots, pre.slots, proposed.slots)):
        if not slot_family.contains(g_bar):
            raise ValueError(f"proposed slot {i} density is not a member of its declared family")
        rivals = (slot_family.candidates if isinstance(slot_family, FiniteSlotFamily)
                  else (slot_family.boundary,) + slot_family.probes(f))
        checked += len(rivals)
        violations += [(i, g) for g in _violations(f, g_bar, rivals, samples, seed + 7919 * i)]
    return LflValidationReport(ok=not violations, checked=checked, violations=tuple(violations))


def select_lfl(pre: IpidLaw, family: UncertaintyFamily,
               *, samples: int = 100_000, seed: int = 0) -> IpidLaw:
    """Pick the least favorable member of each slot family.

    Interval families yield their boundary density, provided the interval
    points away from the pre-change parameter.  Finite families are scanned
    for a member dominated by all others; if none exists the family is not
    stochastically bounded and no least favorable law exists.
    """
    _check_samples(samples)
    if pre.period != family.period:
        raise ValueError("pre law and family must share one period")
    slots = []
    for i, (slot_family, pre_d) in enumerate(zip(family.slots, pre.slots)):
        if isinstance(slot_family, IntervalSlotFamily):
            if type(slot_family.boundary) is not type(pre_d):
                raise ValueError(f"slot {i}: interval family and pre-change density are different families")
            b = slot_family._param(slot_family.boundary)
            p0 = slot_family._param(pre_d)
            outward = b > p0 if slot_family.direction == "ge" else b < p0
            if not outward:
                raise NoLeastFavorableError(
                    f"slot {i}: interval family straddles the pre-change parameter; no minimal member"
                )
            slots.append(slot_family.boundary)
            continue
        cands = slot_family.candidates
        chosen = next((c for c in cands
                       if not _violations(pre_d, c, [g for g in cands if g != c], samples, seed + 7919 * i)), None)
        if chosen is None:
            raise NoLeastFavorableError(f"slot {i}: no candidate is dominated by all others")
        slots.append(chosen)
    return IpidLaw(period=family.period, slots=tuple(slots))
