import math

import numpy as np
import pytest

from periodetect.densities import Gaussian, Poisson, llr
from periodetect.model import IpidLaw
from periodetect.robust import (
    _GRID_QUANTILES,
    GRID_POINTS,
    FiniteSlotFamily,
    IntervalSlotFamily,
    NoLeastFavorableError,
    UncertaintyFamily,
    _rng,
    dominance_check,
    select_lfl,
    validate_lfl,
)


def gaussian_law(means, variance=1.0):
    return IpidLaw(period=len(means), slots=tuple(Gaussian(m, variance) for m in means))


class TestDominance:
    def test_law_dominates_itself(self):
        d = Gaussian(0.5, 1.0)
        assert dominance_check(Gaussian(0, 1), d, d)
        p = Poisson(2.0)
        assert dominance_check(Poisson(1.0), p, p)

    def test_closed_form_mean_ordering(self):
        f, gbar = Gaussian(0, 1), Gaussian(0.5, 1)
        assert dominance_check(f, gbar, Gaussian(1.0, 1))      # score mean 0.375 vs 0.125
        assert not dominance_check(f, gbar, Gaussian(0.25, 1))  # ordering reversed

    def test_closed_form_mirrored_direction(self):
        # boundary below the baseline: the score is decreasing in x
        f, gbar = Gaussian(0, 1), Gaussian(-0.5, 1)
        assert dominance_check(f, gbar, Gaussian(-1.0, 1))
        assert not dominance_check(f, gbar, Gaussian(-0.25, 1))

    def test_monte_carlo_path_poisson(self):
        f, gbar = Poisson(1.0), Poisson(1.2)
        assert dominance_check(f, gbar, Poisson(1.5), samples=30_000)
        assert not dominance_check(f, gbar, Poisson(1.05), samples=30_000)

    def test_monte_carlo_verdict_deterministic(self):
        f, gbar, g = Poisson(1.0), Poisson(1.2), Poisson(1.35)
        first = dominance_check(f, gbar, g, samples=20_000, seed=5)
        second = dominance_check(f, gbar, g, samples=20_000, seed=5)
        assert first == second

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, samples):
        pre, lfl = gaussian_law([0.0]), gaussian_law([0.5])
        family = UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(0.5, 1.0), Gaussian(1.0, 1.0))),))
        for check in (lambda: dominance_check(Poisson(1.0), Poisson(1.2), Poisson(1.5), samples=samples),
                      lambda: validate_lfl(pre, lfl, family, samples=samples),
                      lambda: select_lfl(pre, family, samples=samples)):
            with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
                check()

    def test_cross_family_rejected(self):
        with pytest.raises(ValueError):
            dominance_check(Gaussian(0, 1), Gaussian(1, 1), Poisson(1.0))

    def test_transitive_along_gaussian_mean_order(self):
        f = Gaussian(0, 1)
        gbar = Gaussian(0.3, 1)
        means = [0.3, 0.6, 1.0, 2.0]
        for lo, hi in zip(means, means[1:]):
            assert dominance_check(f, gbar, Gaussian(hi, 1))
            assert dominance_check(f, Gaussian(lo, 1), Gaussian(hi, 1))


class TestValidateLfl:
    def test_singleton_families_vacuously_valid(self):
        pre = gaussian_law([0.0, 1.0])
        proposed = gaussian_law([0.5, 1.5])
        family = UncertaintyFamily(2, tuple(FiniteSlotFamily((d,)) for d in proposed.slots))
        report = validate_lfl(pre, proposed, family)
        assert report.ok and not report.violations

    def test_square_wave_boundary_validates(self):
        # levels +-1 with outward deviation at least 0.1, noise variance 0.01
        period = 4
        pre = IpidLaw(period, tuple(Gaussian(1.0 if i < 2 else -1.0, 0.01) for i in range(period)))
        boundary = IpidLaw(period, tuple(
            Gaussian(d.mean + (0.1 if d.mean > 0 else -0.1), 0.01) for d in pre.slots
        ))
        family = UncertaintyFamily(period, tuple(
            IntervalSlotFamily(b, "ge" if b.mean > 0 else "le") for b in boundary.slots
        ))
        report = validate_lfl(pre, boundary, family)
        assert report.ok
        assert report.checked == period * 4  # boundary + three probes per slot

    def test_intermediate_candidate_reported_as_violation(self):
        pre = gaussian_law([0.0])
        proposed = gaussian_law([0.5])
        family = UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(0.5, 1), Gaussian(0.25, 1))),))
        report = validate_lfl(pre, proposed, family)
        assert not report.ok
        assert report.violations == ((0, Gaussian(0.25, 1)),)

    def test_membership_enforced(self):
        pre = gaussian_law([0.0])
        outsider = gaussian_law([0.05])
        family = UncertaintyFamily(1, (IntervalSlotFamily(Gaussian(0.1, 1.0), "ge"),))
        with pytest.raises(ValueError):
            validate_lfl(pre, outsider, family)


class TestSelectLfl:
    def test_gaussian_interval_boundary(self):
        pre = gaussian_law([0.0], variance=0.04)
        family = UncertaintyFamily(1, (IntervalSlotFamily(Gaussian(0.1, 0.04), "ge"),))
        assert select_lfl(pre, family) == IpidLaw(1, (Gaussian(0.1, 0.04),))

    def test_poisson_interval_boundary(self):
        pre = IpidLaw(1, (Poisson(1.0),))
        family = UncertaintyFamily(1, (IntervalSlotFamily(Poisson(1.2), "ge"),))
        assert select_lfl(pre, family) == IpidLaw(1, (Poisson(1.2),))

    def test_finite_set_picks_dominated_member(self):
        pre = gaussian_law([0.0])
        family = UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(2, 1), Gaussian(1, 1))),))
        assert select_lfl(pre, family) == IpidLaw(1, (Gaussian(1, 1),))

    def test_two_sided_finite_set_has_no_minimum(self):
        pre = gaussian_law([0.0])
        family = UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(1, 1), Gaussian(-1, 1))),))
        with pytest.raises(NoLeastFavorableError):
            select_lfl(pre, family)

    def test_interval_straddling_pre_change_rejected(self):
        pre = gaussian_law([0.5])
        family = UncertaintyFamily(1, (IntervalSlotFamily(Gaussian(0.1, 1.0), "ge"),))
        with pytest.raises(NoLeastFavorableError):
            select_lfl(pre, family)

    def test_selected_law_passes_validation(self):
        period = 3
        pre = IpidLaw(period, (Gaussian(0, 1), Gaussian(1, 1), Gaussian(-1, 1)))
        family = UncertaintyFamily(period, (
            IntervalSlotFamily(Gaussian(0.4, 1), "ge"),
            FiniteSlotFamily((Gaussian(1.5, 1), Gaussian(2.5, 1))),
            IntervalSlotFamily(Gaussian(-1.3, 1), "le"),
        ))
        chosen = select_lfl(pre, family)
        assert validate_lfl(pre, chosen, family).ok

    def test_mixed_family_slot_rejected(self):
        pre = IpidLaw(1, (Poisson(1.0),))
        family = UncertaintyFamily(1, (IntervalSlotFamily(Gaussian(0.1, 1.0), "ge"),))
        with pytest.raises(ValueError):
            select_lfl(pre, family)


class TestFamilyJson:
    def test_round_trip(self):
        family = UncertaintyFamily(2, (
            FiniteSlotFamily((Gaussian(1, 1), Gaussian(2, 1))),
            IntervalSlotFamily(Poisson(1.2), "ge"),
        ))
        import json

        assert UncertaintyFamily.from_dict(json.loads(json.dumps(family.to_dict()))) == family

    @pytest.mark.parametrize("period", [1.5, "1", True])
    def test_a_period_that_is_no_whole_number_is_rejected(self, period):
        obj = {"period": 1, "slots": [{"type": "interval", "direction": "ge",
                                       "boundary": {"type": "gaussian", "mean": 0.1, "variance": 1.0}}]}
        assert UncertaintyFamily.from_dict({**obj, "period": 1.0}) == UncertaintyFamily.from_dict(obj)
        with pytest.raises(ValueError, match=f"^period must be a whole number, got {period!r}$"):
            UncertaintyFamily.from_dict({**obj, "period": period})


def ref_dominance_check(f, g_bar, g, samples, seed):
    """The per-sample dominance comparison: each sample scored by ``llr``, each grid point by its own mean."""
    if not (type(f) is type(g_bar) is type(g)):
        raise ValueError("dominance is defined within one family only")
    if g == g_bar:
        return True
    if isinstance(f, Gaussian) and f.variance == g_bar.variance == g.variance:
        slope = (g_bar.mean - f.mean) / f.variance
        return slope * (g.mean - g_bar.mean) >= 0.0
    rng = _rng(seed)
    z_bar = np.array([llr(g_bar, f, x) for x in g_bar.sample(rng, samples)])
    z_g = np.array([llr(g_bar, f, x) for x in g.sample(rng, samples)])
    lo, hi = np.quantile(z_bar, _GRID_QUANTILES)
    grid = np.array([lo]) if lo == hi else np.linspace(lo, hi, GRID_POINTS)
    for t in grid:
        p_g = float(np.mean(z_g >= t))
        p_bar = float(np.mean(z_bar >= t))
        se = math.sqrt((p_g * (1 - p_g) + p_bar * (1 - p_bar)) / samples)
        if p_g < p_bar - 3.0 * se:
            return False
    return True


def ref_validate(pre, proposed, family, samples, seed):
    violations, checked = [], 0
    for i, slot_family in enumerate(family.slots):
        if isinstance(slot_family, FiniteSlotFamily):
            rivals = slot_family.candidates
        else:
            rivals = (slot_family.boundary,) + slot_family.probes(pre.slots[i])
        for cand in rivals:
            checked += 1
            if not ref_dominance_check(pre.slots[i], proposed.slots[i], cand, samples, seed + 7919 * i):
                violations.append((i, cand))
    return not violations, checked, tuple(violations)


def ref_select(pre, family, samples, seed):
    """The chosen density of each slot, None where no candidate is dominated by all others."""
    slots = []
    for i, slot_family in enumerate(family.slots):
        if isinstance(slot_family, IntervalSlotFamily):
            slots.append(slot_family.boundary)
            continue
        cands = slot_family.candidates
        slots.append(next((c for c in cands if all(ref_dominance_check(pre.slots[i], c, g, samples, seed + 7919 * i)
                                                   for g in cands if g != c)), None))
    return slots


def fuzz_triple(rng, gaussian, near_tie):
    """(f, gbar, g) of one family; near a tie, g's parameters lie within 1% of gbar's."""
    def near(value, spread):
        return value * (1.0 + rng.uniform(-0.01, 0.01)) if near_tie else value * rng.uniform(*spread)

    if not gaussian:
        f = rng.uniform(0.5, 8.0)
        g_bar = f * rng.uniform(0.5, 2.0)
        return Poisson(f), Poisson(g_bar), Poisson(near(g_bar, (0.5, 2.0)))
    f = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
    g_bar = Gaussian(f.mean + rng.uniform(-1.5, 1.5), f.variance * rng.uniform(0.4, 2.5))
    mean = g_bar.mean + (rng.uniform(-0.01, 0.01) if near_tie else rng.uniform(-1.0, 1.0))
    return f, g_bar, Gaussian(mean, near(g_bar.variance, (0.5, 2.0)))


def fuzz_family(rng, gaussian):
    """A pre-change law and an uncertainty family of 1 to 4 slots, finite or interval per slot."""
    period = int(rng.integers(1, 5))
    pre, slots = [], []
    for _ in range(period):
        if gaussian:
            mean, variance = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0)
            pre.append(Gaussian(mean, variance))
            k = int(rng.integers(1, 4))
            finite = FiniteSlotFamily(tuple(Gaussian(mean + d, variance * w) for d, w in
                                            zip(rng.uniform(0.2, 1.5, k), rng.uniform(0.5, 2.0, k))))
            interval = IntervalSlotFamily(Gaussian(mean + rng.uniform(0.1, 1.0), variance), "ge")
        else:
            rate = rng.uniform(1.0, 6.0)
            pre.append(Poisson(rate))
            finite = FiniteSlotFamily(tuple(Poisson(rate * m) for m in rng.uniform(1.05, 2.0, int(rng.integers(1, 4)))))
            interval = IntervalSlotFamily(Poisson(rate * rng.uniform(1.05, 1.5)), "ge")
        slots.append(finite if rng.random() < 0.7 else interval)
    return IpidLaw(period, tuple(pre)), UncertaintyFamily(period, tuple(slots))


class TestOneAuditMatchesThePerSampleComparison:
    """The audit scores through ``_SlotLlr``, whose closed form may differ from ``llr`` by an ulp, and counts
    with sorted scores; its verdicts must still be the per-sample comparison's.  The fuzz seeds were fixed
    before the first run."""

    def test_verdicts_on_a_fuzz_set(self):
        rng = np.random.default_rng(2303_02826)
        cases = [(*fuzz_triple(rng, gaussian=n % 2 == 1, near_tie=n % 3 == 0), int(rng.integers(0, 10_000)))
                 for n in range(300)]
        got = [dominance_check(f, g_bar, g, samples=500, seed=seed) for f, g_bar, g, seed in cases]
        want = [ref_dominance_check(f, g_bar, g, 500, seed) for f, g_bar, g, seed in cases]
        assert got == want
        assert 0 < sum(got) < len(got)  # both verdicts occur

    def test_validate_and_select_on_random_families(self):
        rng = np.random.default_rng(17)
        selections, reports = [], []
        for n in range(24):
            pre, family = fuzz_family(rng, gaussian=n % 2 == 1)
            seed = int(rng.integers(0, 10_000))
            want = ref_select(pre, family, 400, seed)
            proposals = [IpidLaw(pre.period, tuple(
                s.candidates[0] if isinstance(s, FiniteSlotFamily) else s.boundary for s in family.slots))]
            if None in want:
                with pytest.raises(NoLeastFavorableError, match=f"^slot {want.index(None)}: "):
                    select_lfl(pre, family, samples=400, seed=seed)
            else:
                proposals.append(select_lfl(pre, family, samples=400, seed=seed))
                assert proposals[-1].slots == tuple(want)
            selections.append(None not in want)
            for proposed in proposals:
                report = validate_lfl(pre, proposed, family, samples=400, seed=seed)
                assert (report.ok, report.checked, report.violations) == ref_validate(pre, proposed, family, 400, seed)
                reports.append(report.ok)
        assert set(selections) == set(reports) == {False, True}  # each outcome occurs

    def test_validate_draws_each_proposed_slot_once(self, monkeypatch):
        draws = []
        real = Poisson.sample
        monkeypatch.setattr(Poisson, "sample", lambda d, rng, size=None: draws.append(d) or real(d, rng, size))
        rates = (1.0, 2.0, 3.0)
        pre = IpidLaw(3, tuple(Poisson(r) for r in rates))
        proposed = IpidLaw(3, tuple(Poisson(1.3 * r) for r in rates))
        family = UncertaintyFamily(3, tuple(FiniteSlotFamily(tuple(Poisson(m * r) for m in (1.3, 1.5, 1.8)))
                                            for r in rates))
        assert validate_lfl(pre, proposed, family, samples=200).checked == 9
        assert sorted(draws, key=lambda d: d.rate) == sorted(
            [*proposed.slots, *(g for s in family.slots for g in s.candidates if g not in proposed.slots)],
            key=lambda d: d.rate)
