"""Per-slot observation distributions.

A periodic stream is described slot by slot; each slot carries one scalar
distribution, either Gaussian or Poisson.  Everything downstream (likelihood
ratios, detector recursions, information numbers) is built from the three
primitives here: log density evaluation, sampling, and closed-form
Kullback-Leibler divergence.  All likelihood arithmetic stays in the log
domain so that products over hundreds of slots never underflow.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

_LN_2PI = math.log(2.0 * math.pi)

# Floors applied by the fitting pipeline only; direct construction with a
# non-positive parameter is always an error.
FITTED_VARIANCE_FLOOR = 1e-8
FITTED_RATE_FLOOR = 1e-6


def _real_number(value, name: str) -> float:
    """``value`` as a float (``±inf`` too) if a number, not a bool or NaN; else a ValueError naming ``name``."""
    with contextlib.suppress(TypeError):  # float() of None or a list
        if not isinstance(value, (bool, np.bool_, str, bytes)) and not math.isnan(number := float(value)):
            return number
    raise ValueError(f"{name} must be a number other than NaN, got {value!r}")


def _json_object(obj, name: str) -> dict:
    """``obj`` when a dict (a JSON object); else a ValueError naming ``name``."""
    if isinstance(obj, dict):
        return obj
    raise ValueError(f"{name} must be a JSON object, got {obj!r}")


def _required(obj, key: str, what: str):
    """``obj[key]`` when ``obj`` is a JSON object that has ``key``; else a ValueError naming ``what``."""
    if key not in _json_object(obj, what):
        raise ValueError(f"{what} needs the key {key!r}")
    return obj[key]


@dataclass(frozen=True)
class Gaussian:
    """Normal slot distribution with the given mean and variance."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _real_number(self.mean, "Gaussian mean"))
        object.__setattr__(self, "variance", _real_number(self.variance, "Gaussian variance"))
        if not math.isfinite(self.mean):
            raise ValueError("Gaussian mean must be finite")
        if not (math.isfinite(self.variance) and self.variance > 0.0):
            raise ValueError(f"Gaussian variance must be > 0, got {self.variance}")

    def log_density(self, x: float) -> float:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"observation must be finite, got {x}")
        return -0.5 * (_LN_2PI + math.log(self.variance)) - (x - self.mean) ** 2 / (2.0 * self.variance)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.normal(self.mean, math.sqrt(self.variance), size)


@dataclass(frozen=True)
class Poisson:
    """Poisson slot distribution supported on the nonnegative integers."""

    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", _real_number(self.rate, "Poisson rate"))
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"Poisson rate must be > 0, got {self.rate}")

    def log_density(self, x: float) -> float:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"observation must be finite, got {x}")
        if x < 0.0 or not x.is_integer():
            raise ValueError(f"Poisson support is the nonnegative integers, got {x}")
        return x * math.log(self.rate) - self.rate - math.lgamma(x + 1.0)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draw = rng.poisson(self.rate, size)
        if size is None:
            return float(draw)
        return np.asarray(draw, dtype=float)


SlotDensity = Union[Gaussian, Poisson]


def log_density(d: SlotDensity, x: float) -> float:
    """Natural-log density (or pmf) of ``d`` at ``x``."""
    return d.log_density(x)


def llr(g: SlotDensity, f: SlotDensity, x: float) -> float:
    """Log-likelihood ratio log g(x)/f(x).

    Implemented as the difference of the two log densities, so
    ``llr(g, f, x) == -llr(f, g, x)`` holds exactly in floating point.
    """
    return g.log_density(x) - f.log_density(x)


def sample(d: SlotDensity, rng: np.random.Generator, size: int | None = None):
    """Draw from ``d`` using ``rng``; deterministic given the generator state."""
    return d.sample(rng, size)


def kl(g: SlotDensity, f: SlotDensity) -> float:
    """Kullback-Leibler divergence D(g || f), in nats, by closed form.

    Only within-family pairs are defined.  Gaussian:
    ``log(sf/sg) + (vg + (mg-mf)^2) / (2 vf) - 1/2``.  Poisson:
    ``lg log(lg/lf) + lf - lg``.
    """
    if isinstance(g, Gaussian) and isinstance(f, Gaussian):
        diff = g.mean - f.mean
        return 0.5 * (math.log(f.variance / g.variance) + (g.variance + diff * diff) / f.variance - 1.0)
    if isinstance(g, Poisson) and isinstance(f, Poisson):
        return g.rate * math.log(g.rate / f.rate) + f.rate - g.rate
    raise ValueError(
        f"KL divergence is defined within one family only, got {type(g).__name__} vs {type(f).__name__}"
    )


def density_to_dict(d: SlotDensity) -> dict:
    if isinstance(d, Gaussian):
        return {"type": "gaussian", "mean": d.mean, "variance": d.variance}
    if isinstance(d, Poisson):
        return {"type": "poisson", "rate": d.rate}
    raise TypeError(f"not a slot density: {d!r}")


def density_from_dict(obj: dict) -> SlotDensity:
    kind = _json_object(obj, "a slot density").get("type")
    if kind == "gaussian":
        return Gaussian(_required(obj, "mean", "a Gaussian density"), _required(obj, "variance", "a Gaussian density"))
    if kind == "poisson":
        return Poisson(_required(obj, "rate", "a Poisson density"))
    raise ValueError(f"unknown density type: {kind!r}")
