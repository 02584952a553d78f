import pytest

from periodetect.densities import Gaussian, Poisson
from periodetect.model import IpidLaw
from periodetect.robust import (
    FiniteSlotFamily,
    IntervalSlotFamily,
    NoLeastFavorableError,
    UncertaintyFamily,
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
