"""Training periodic models from repeated cycles.

Cycles may arrive with unequal lengths (heartbeats, calendar days with gaps);
they are brought to the target period by linear interpolation, then each slot
is fitted across cycles.  Fitted Gaussian variances and Poisson rates are
floored so degenerate slots (identical cycles, empty count bins) still yield
evaluable densities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .densities import FITTED_RATE_FLOOR, FITTED_VARIANCE_FLOOR, Gaussian, Poisson
from .model import ClassBank, IpidLaw, _whole_number


@dataclass(frozen=True)
class CycleSet:
    """Repeated observations of one period-long pattern."""

    cycles: tuple[tuple[float, ...], ...]
    target_period: int
    label: str = ""

    def __post_init__(self) -> None:
        cycles = tuple(tuple(float(v) for v in c) for c in self.cycles)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "target_period", _whole_number(self.target_period, "target period"))
        if not cycles:
            raise ValueError("need at least one cycle")
        if any(len(c) == 0 for c in cycles):
            raise ValueError("cycles must be nonempty")
        if self.target_period < 2:
            raise ValueError("target period must be >= 2")


def resample_cycle(cycle, period: int) -> np.ndarray:
    """Linearly interpolate a cycle onto ``period`` points, endpoints preserved."""
    values = np.asarray(cycle, dtype=float)
    if values.size < 2:
        raise ValueError("cannot resample a cycle with fewer than 2 samples")
    if period < 2:
        raise ValueError("target period must be >= 2")
    if values.size == period:
        return values.copy()
    positions = np.linspace(0.0, values.size - 1.0, period)
    return np.interp(positions, np.arange(values.size), values)


def median_smooth(series, window: int) -> np.ndarray:
    """Trailing-window median filter; windows are partial at the start."""
    return _trailing_median(series, window, lower=False)


def _trailing_median(series, window: int, lower: bool) -> np.ndarray:
    """``median_smooth``; ``lower`` takes an even window's lower middle value, so counts stay counts."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(series, dtype=float)
    out = np.empty_like(values)
    for i in range(values.size):
        cells = values[max(0, i - window + 1):i + 1]
        out[i] = np.quantile(cells, 0.5, method="lower") if lower else np.median(cells)
    return out


def _resampled_matrix(cycles: CycleSet) -> np.ndarray:
    return np.stack([resample_cycle(c, cycles.target_period) for c in cycles.cycles])


def fit_gaussian(cycles: CycleSet) -> IpidLaw:
    """Per-slot sample mean and unbiased sample variance, variance floored."""
    if len(cycles.cycles) < 2:
        raise ValueError("Gaussian fitting needs at least 2 cycles for a variance estimate")
    matrix = _resampled_matrix(cycles)
    means = matrix.mean(axis=0)
    variances = np.maximum(matrix.var(axis=0, ddof=1), FITTED_VARIANCE_FLOOR)
    slots = tuple(Gaussian(mean=float(m), variance=float(v)) for m, v in zip(means, variances))
    return IpidLaw(period=cycles.target_period, slots=slots)


def fit_poisson(cycles: CycleSet) -> IpidLaw:
    """Per-slot mean count as the Poisson rate, floored for empty slots."""
    for c in cycles.cycles:
        for v in c:
            if v < 0.0 or not float(v).is_integer():
                raise ValueError(f"count data must be nonnegative integers, got {v}")
    matrix = _resampled_matrix(cycles)
    rates = np.maximum(matrix.mean(axis=0), FITTED_RATE_FLOOR)
    return IpidLaw(period=cycles.target_period, slots=tuple(Poisson(rate=float(r)) for r in rates))


def restrict_slots(bank: ClassBank, slots) -> ClassBank:
    """Limit a class bank's likelihood contributions to the given slots.

    Raises when some pair of laws coincides on the subset, since the
    restricted bank could then never tell them apart.
    """
    return ClassBank(period=bank.period, laws=bank.laws, active_slots=tuple(slots))


def read_long_csv(path, period: int, value_column: str = "value") -> CycleSet:
    """Load a timestamp,value stream and chop it into consecutive period-long cycles.

    A trailing partial cycle is dropped.
    """
    if period < 2:
        raise ValueError("period must be >= 2")
    values = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or value_column not in reader.fieldnames:
            raise ValueError(f"expected a header containing {value_column!r}")
        for lineno, row in enumerate(reader, start=2):
            raw = row[value_column]
            try:
                values.append(float(raw))
            except (TypeError, ValueError):
                raise ValueError(f"line {lineno}: cannot parse {raw!r} as a number") from None
            if not math.isfinite(values[-1]):
                raise ValueError(f"line {lineno}: value must be finite, got {raw!r}")
    n_cycles = len(values) // period
    if n_cycles == 0:
        raise ValueError(f"need at least one full cycle of {period} samples, got {len(values)}")
    cycles = tuple(tuple(values[i * period:(i + 1) * period]) for i in range(n_cycles))
    return CycleSet(cycles=cycles, target_period=period)


def read_cycles_csv(path, period: int | None = None) -> CycleSet:
    """Load one cycle per row (no header); rows may have unequal lengths.

    Without an explicit target period the first row's length is used.
    """
    cycles = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            cells = [c for c in row if c.strip() != ""]
            if not cells:
                continue
            try:
                cycles.append(tuple(float(c) for c in cells))
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse row as numbers") from None
            if not all(map(math.isfinite, cycles[-1])):
                raise ValueError(f"line {lineno}: values must be finite")
    if not cycles:
        raise ValueError("no cycles found")
    return CycleSet(cycles=tuple(cycles), target_period=period if period is not None else len(cycles[0]))
