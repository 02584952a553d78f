import math
import re

import numpy as np
import pytest

from periodetect.densities import Gaussian, Poisson, llr
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

# the grid of the sampled audit that ``ref_dominance_check`` keeps as the oracle: 201 points inside the
# 0.1-99.9% quantiles of gbar's scores
GRID_POINTS = 201
_GRID_QUANTILES = (0.001, 0.999)


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

    def test_poisson_rate_rule(self):
        f, gbar = Poisson(1.0), Poisson(1.2)
        assert dominance_check(f, gbar, Poisson(1.5))
        assert not dominance_check(f, gbar, Poisson(1.05))
        # below the baseline the score falls in x, so a smaller rate pushes it up
        assert dominance_check(f, Poisson(0.8), Poisson(0.5))
        assert not dominance_check(f, Poisson(0.8), Poisson(0.9))

    def test_a_constant_score_is_pushed_up_by_every_rival(self):
        assert dominance_check(Poisson(2.0), Poisson(2.0), Poisson(0.5))
        assert dominance_check(Gaussian(0, 1), Gaussian(0, 1), Gaussian(-3.0, 0.2))

    def test_a_linear_score_fails_a_rival_of_another_variance(self):
        # Z is linear in x, so its survival curves under two normals of unequal variances cross
        f, gbar = Gaussian(0, 1), Gaussian(0.5, 1)
        assert not dominance_check(f, gbar, Gaussian(3.0, 1.2))
        assert not dominance_check(f, gbar, Gaussian(3.0, 0.8))

    def test_a_quadratic_score_orders_by_spread_about_its_vertex(self):
        # c2 > 0 and x0 = 0: Z >= t is |X| >= r, so a wider law centred at 0 pushes Z up
        f, gbar = Gaussian(0, 1), Gaussian(0, 2)
        assert dominance_check(f, gbar, Gaussian(0, 3))
        assert not dominance_check(f, gbar, Gaussian(0, 1.5))
        # c2 < 0 and x0 = 0: Z >= t is |X| <= r, so a narrower law pushes Z up
        f, gbar = Gaussian(0, 2), Gaussian(0, 1)
        assert dominance_check(f, gbar, Gaussian(0, 0.5))
        assert not dominance_check(f, gbar, Gaussian(0, 1.5))

    @pytest.mark.parametrize("f, g_bar, g", [
        (Poisson(3.564), Poisson(0.84), Poisson(0.866)),
        (Gaussian(-0.441, 1.124), Gaussian(-0.429, 0.595), Gaussian(-0.67, 0.539)),
        (Gaussian(0, 1), Gaussian(0.5, 1), Gaussian(1.0, 1.2))])
    def test_violations_that_sampling_passed(self, f, g_bar, g):
        """A Poisson rival on the wrong side of gbar, a Gaussian one 0.0046 below it, and one whose lower
        tail crosses gbar's beyond any sampled grid: each is a violation, with no sample size or seed."""
        assert not dominance_check(f, g_bar, g)

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
        assert report.checked == period * 2  # Z is linear: the boundary and a far member per slot

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
        message = "^slot 0: the slot family and the pre-change density are different families$"
        with pytest.raises(ValueError, match=message):
            select_lfl(pre, family)
        with pytest.raises(ValueError, match=message):
            validate_lfl(pre, IpidLaw(1, (Gaussian(0.1, 1.0),)), family)


def test_an_interval_holds_only_its_own_family_and_variance():
    family = IntervalSlotFamily(Gaussian(0.0, 1.0), "ge")
    assert family.contains(Gaussian(1.0, 1.0))
    assert not family.contains(Gaussian(1.0, 2.0))
    assert not family.contains(Poisson(1.0))
    assert not IntervalSlotFamily(Poisson(1.0), "le").contains(Gaussian(0.5, 1.0))


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

    @pytest.mark.parametrize("make, message", [
        (lambda: FiniteSlotFamily(()), "slot family must be nonempty"),
        (lambda: IntervalSlotFamily(Poisson(1.0), "up"), "direction must be 'ge' or 'le', got 'up'"),
        (lambda: UncertaintyFamily.from_dict({"period": 1, "slots": [{"type": "ball"}]}),
         "unknown slot family type 'ball'"),
        (lambda: UncertaintyFamily(2, (FiniteSlotFamily((Gaussian(1, 1),)),)), "expected 2 slot families, got 1"),
        (lambda: validate_lfl(gaussian_law([0.0, 0.0]), gaussian_law([1.0]),
                              UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(1, 1),)),))),
         "pre law, proposed law, and family must share one period"),
        (lambda: validate_lfl(gaussian_law([0.0]), gaussian_law([2.0]),
                              UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(1, 1),)),))),
         "proposed slot 0 density is not a member of its declared family"),
        (lambda: select_lfl(gaussian_law([0.0, 0.0]), UncertaintyFamily(1, (FiniteSlotFamily((Gaussian(1, 1),)),))),
         "pre law and family must share one period")])
    def test_the_message_names_the_fault(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


def ref_dominance_check(f, g_bar, g, samples, seed):
    """The per-sample dominance comparison: each sample scored by ``llr``, each grid point by its own mean."""
    if not (type(f) is type(g_bar) is type(g)):
        raise ValueError("dominance is defined within one family only")
    if g == g_bar:
        return True
    if isinstance(f, Gaussian) and f.variance == g_bar.variance == g.variance:
        slope = (g_bar.mean - f.mean) / f.variance
        return slope * (g.mean - g_bar.mean) >= 0.0
    # the audit's keyed stream, built here as the Philox key it is, not through the library
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0x6C666C], dtype=np.uint64)))
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


DENSE_MEMBERS = 200


def dense_interval_verdict(f, g_bar, family):
    """Whether every one of ``DENSE_MEMBERS`` members of the interval ``family`` dominates ``g_bar``: its
    largest ``P_gbar(Z >= t) - P_m(Z >= t)``, from scipy's distribution functions, is at most 1e-9.

    The members reach ``3|b - x0| + 20 sd`` past the boundary ``b``, half of them within ``3|b - x0|``
    (``x0`` is f's parameter where ``Z`` is monotone); a Poisson "le" interval's reach down to
    ``b / DENSE_MEMBERS``.  ``t`` runs over ``20 sd`` either side of gbar's ``Z`` threshold at its own mean.
    """
    from scipy.special import ndtr, pdtrc

    b, s = family.boundary, 1.0 if family.direction == "ge" else -1.0
    if isinstance(b, Poisson):
        reach = 3 * abs(b.rate - f.rate) + 20 * math.sqrt(b.rate)
        rates = np.linspace(b.rate, b.rate + reach if s > 0 else b.rate / DENSE_MEMBERS, DENSE_MEMBERS)
        k = np.arange(rates.max() + 20 * math.sqrt(rates.max()) + 20)[:, None]  # past every member's bulk
        gap = np.sign(g_bar.rate - f.rate) * (pdtrc(k, g_bar.rate) - pdtrc(k, rates))
        return bool(gap.max() <= 1e-9)
    sd, c2 = math.sqrt(b.variance), 0.5 * (1 / f.variance - 1 / g_bar.variance)
    x0 = (f.mean / f.variance - g_bar.mean / g_bar.variance) / (2 * c2) if c2 else f.mean
    near, far = 3 * abs(b.mean - x0), 3 * abs(b.mean - x0) + 20 * sd
    means = b.mean + s * np.concatenate([np.linspace(0.0, near, DENSE_MEMBERS // 2),
                                         np.linspace(0.0, far, DENSE_MEMBERS // 2)])
    steps = sd * np.linspace(-20.0, 20.0, 1001)[:, None]
    if c2 == 0:  # Z >= t is X >= x or X <= x
        x = g_bar.mean + steps
        gap = np.sign(g_bar.mean - f.mean) * (ndtr((g_bar.mean - x) / sd) - ndtr((means - x) / sd))
    else:  # Z >= t is |X - x0| >= r or <= r
        r = np.maximum(abs(g_bar.mean - x0) + steps, 0.0)

        def survival(m):  # P(|X - x0| >= r)
            return ndtr((x0 - r - m) / sd) + ndtr((m - x0 - r) / sd)

        gap = np.sign(c2) * (survival(g_bar.mean) - survival(means))
    return bool(gap.max() <= 1e-9)


def ref_validate(pre, proposed, family):
    """``validate_lfl``'s verdict, the slots it fails and the violations of its finite slots: each candidate
    that ``dominance_check`` fails; an interval slot fails where ``dense_interval_verdict`` does."""
    violations, failed = [], set()
    for i, (slot_family, f, g_bar) in enumerate(zip(family.slots, pre.slots, proposed.slots)):
        if isinstance(slot_family, FiniteSlotFamily):
            bad = [(i, c) for c in slot_family.candidates if not dominance_check(f, g_bar, c)]
            violations += bad
            failed |= {i} if bad else set()
        elif not dense_interval_verdict(f, g_bar, slot_family):
            failed.add(i)
    return not failed, failed, tuple(violations)


def ref_select(pre, family):
    """The chosen density of each slot, None where no member on offer is dominated by all others."""
    slots = []
    for i, slot_family in enumerate(family.slots):
        if isinstance(slot_family, IntervalSlotFamily):
            b = slot_family.boundary
            slots.append(b if dense_interval_verdict(pre.slots[i], b, slot_family) else None)
            continue
        cands = slot_family.candidates
        slots.append(next((c for c in cands if all(dominance_check(pre.slots[i], c, g) for g in cands if g != c)),
                          None))
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


def exact_deficit(f, g_bar, g):
    """The largest ``P_gbar(Z >= t) - P_g(Z >= t)`` over ``t``, from scipy's distribution functions of ``X``:
    where ``Z`` is monotone in ``x``, ``Z >= t`` is ``X >= x`` or ``X <= x``; where it is quadratic, it is
    ``|X - x0| >= r`` or ``<= r``."""
    from scipy.special import ndtr, pdtrc

    if isinstance(f, Poisson):
        k = np.arange(1000.0)
        return max(float((np.sign(g_bar.rate - f.rate) * (pdtrc(k, g_bar.rate) - pdtrc(k, g.rate))).max()), 0.0)

    def below(x, d):  # P(X <= x)
        return ndtr((x - d.mean) / math.sqrt(d.variance))

    def above(x, d):  # P(X >= x)
        return ndtr((d.mean - x) / math.sqrt(d.variance))

    c2 = 0.5 * (1 / f.variance - 1 / g_bar.variance)
    if c2 == 0:
        x = np.linspace(-100.0, 100.0, 50_001)
        gap = np.sign(g_bar.mean - f.mean) * (above(x, g_bar) - above(x, g))
    else:
        x0 = (f.mean / f.variance - g_bar.mean / g_bar.variance) / (2 * c2)
        r = np.linspace(0.0, max(abs(d.mean - x0) + 20 * math.sqrt(d.variance) for d in (g_bar, g)), 50_001)
        gap = np.sign(c2) * (below(x0 - r, g_bar) + above(x0 + r, g_bar) - below(x0 - r, g) - above(x0 + r, g))
    return max(float(gap.max()), 0.0)


def fuzz_interval(rng, kind, direction, interior):
    """A pre-change density, an interval family of ``kind`` ("poisson", or a Gaussian of "equal" or "unequal"
    variance to it) and a proposed member: the boundary, or an interior member up to 1.5 sd past it (a rate up
    to 1.5 times the boundary's, or down to its 2/3)."""
    s = 1.0 if direction == "ge" else -1.0
    if kind == "poisson":
        f = Poisson(rng.uniform(0.5, 8.0))
        b = Poisson(f.rate * rng.uniform(0.5, 2.0))
        return f, IntervalSlotFamily(b, direction), Poisson(b.rate * rng.uniform(1.0, 1.5) ** s) if interior else b
    f = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0))
    b = Gaussian(f.mean + rng.uniform(-1.5, 1.5), f.variance * (1.0 if kind == "equal" else rng.uniform(0.4, 2.5)))
    g_bar = Gaussian(b.mean + s * rng.uniform(0.0, 1.5) * math.sqrt(b.variance), b.variance) if interior else b
    return f, IntervalSlotFamily(b, direction), g_bar


INTERVAL_KINDS = [(kind, direction, interior) for kind in ("poisson", "equal", "unequal")
                  for direction in ("ge", "le") for interior in (False, True)]


class TestIntervalAuditIsExact:
    """An interval's few rivals against a dense-member oracle.  The fuzz seeds were fixed before the first run."""

    def test_interval_verdicts_match_the_dense_oracle(self):
        rng = np.random.default_rng(2901)
        cases = [(*fuzz_interval(rng, *kind), kind) for _ in range(20) for kind in INTERVAL_KINDS]
        got = [validate_lfl(IpidLaw(1, (f,)), IpidLaw(1, (g_bar,)), UncertaintyFamily(1, (family,))).ok
               for f, family, g_bar, _ in cases]
        assert got == [dense_interval_verdict(f, g_bar, family) for f, family, g_bar, _ in cases]
        for kind in INTERVAL_KINDS:  # a boundary passes or fails; an interior member fails unless it sits at x0
            assert {ok for ok, case in zip(got, cases) if case[-1] == kind} == ({False} if kind[2] else {False, True})

    def test_every_selected_law_passes_the_audit(self):
        rng = np.random.default_rng(2902)
        selected = []
        for n in range(60):
            pre, slots = [], []
            for _ in range(int(rng.integers(1, 4))):
                f, interval, _ = fuzz_interval(rng, ("poisson", "equal", "unequal")[n % 3], ("ge", "le")[n % 2], False)
                pre.append(f)
                members = [fuzz_interval(rng, ("poisson", "equal", "unequal")[n % 3], "ge", True)[2]
                           for _ in range(int(rng.integers(1, 4)))]
                slots.append(interval if rng.random() < 0.5 else FiniteSlotFamily(tuple(members)))
            pre, family = IpidLaw(len(pre), tuple(pre)), UncertaintyFamily(len(slots), tuple(slots))
            try:
                law = select_lfl(pre, family)
            except NoLeastFavorableError:
                selected.append(False)
                continue
            assert validate_lfl(pre, law, family).ok and ref_validate(pre, law, family)[0]
            selected.append(True)
        assert set(selected) == {False, True}

    @pytest.mark.parametrize("f, boundary, far", [
        (Gaussian(0.0, 2.0), Gaussian(0.5, 1.0), 2.5),  # x0 = 1, and the far member is 0.5 + 2 * 0.5 + 1
        (Gaussian(-1.8, 3.0), Gaussian(-1.6, 2.0), -0.8 + math.sqrt(2.0))])  # x0 = -1.2
    def test_an_interval_of_another_variance_with_no_least_favorable_member(self, f, boundary, far):
        """Z peaks at x0 (c2 < 0), so members far from x0 push it down: neither boundary is least favorable."""
        pre, family = IpidLaw(1, (f,)), UncertaintyFamily(1, (IntervalSlotFamily(boundary, "ge"),))
        with pytest.raises(NoLeastFavorableError, match="^slot 0: "):
            select_lfl(pre, family)
        report = validate_lfl(pre, IpidLaw(1, (boundary,)), family)
        [(slot, member)] = report.violations
        assert (slot, member.variance, member.mean) == (0, boundary.variance, pytest.approx(far))
        assert report.checked == 3  # x0 lies inside the interval: the boundary, the member at x0 and the far one
        assert not dominance_check(f, boundary, Gaussian(5.0, boundary.variance))


class TestExactAuditMatchesItsOracles:
    """The exact verdicts against scipy's survival functions, and against the sampled per-sample comparison
    where a deficit is wide enough for 2*10^4 samples to resolve.  The fuzz seeds were fixed before the
    first run."""

    def test_verdicts_are_the_sign_of_scipys_deficit(self):
        rng = np.random.default_rng(2812)
        cases = [fuzz_triple(rng, gaussian=n % 2 == 1, near_tie=n % 3 == 0) for n in range(300)]
        deficits = [exact_deficit(*case) for case in cases]
        assert [dominance_check(*case) for case in cases] == [d <= 1e-12 for d in deficits]
        assert any(0.0 < d < 1e-3 for d in deficits)  # small deficits occur, and are violations

    def test_verdicts_match_the_sampled_oracle_where_it_resolves_them(self):
        rng = np.random.default_rng(2811)
        cases = [fuzz_triple(rng, gaussian=n % 2 == 1, near_tie=False) for n in range(36)]
        cases = [case for case in cases if not 1e-12 < exact_deficit(*case) <= 0.02]
        seeds = rng.integers(0, 10_000, len(cases))
        got = [dominance_check(*case) for case in cases]
        assert got == [ref_dominance_check(*case, 20_000, int(seed)) for case, seed in zip(cases, seeds)]
        assert len(cases) >= 20 and 0 < sum(got) < len(got)  # both verdicts occur

    def test_validate_and_select_on_random_families(self):
        rng = np.random.default_rng(17)
        selections, reports = [], []
        for n in range(24):
            pre, family = fuzz_family(rng, gaussian=n % 2 == 1)
            want = ref_select(pre, family)
            proposals = [IpidLaw(pre.period, tuple(
                s.candidates[0] if isinstance(s, FiniteSlotFamily) else s.boundary for s in family.slots))]
            if None in want:
                with pytest.raises(NoLeastFavorableError, match=f"^slot {want.index(None)}: "):
                    select_lfl(pre, family)
            else:
                proposals.append(select_lfl(pre, family))
                assert proposals[-1].slots == tuple(want)
            selections.append(None not in want)
            for proposed in proposals:
                report = validate_lfl(pre, proposed, family)
                ok, failed, finite = ref_validate(pre, proposed, family)
                assert (report.ok, {i for i, _ in report.violations}) == (ok, failed)
                assert tuple(v for v in report.violations if isinstance(family.slots[v[0]], FiniteSlotFamily)) == finite
                reports.append(report.ok)
        assert set(selections) == set(reports) == {False, True}  # each outcome occurs

    def test_validate_and_select_draw_nothing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the audit drew a sample")

        monkeypatch.setattr(Gaussian, "sample", no_draws)
        monkeypatch.setattr(Poisson, "sample", no_draws)
        pre = IpidLaw(3, (Poisson(2.0), Gaussian(0.0, 1.0), Gaussian(1.0, 0.5)))
        family = UncertaintyFamily(3, (FiniteSlotFamily(tuple(map(Poisson, (2.6, 3.0, 4.0)))),
                                       FiniteSlotFamily((Gaussian(0.8, 2.0), Gaussian(1.2, 2.5))),
                                       IntervalSlotFamily(Gaussian(1.4, 0.7), "ge")))
        chosen = select_lfl(pre, family)
        report = validate_lfl(pre, chosen, family)
        # x0 = 0 lies outside the interval, so its rivals are the boundary and a far member
        assert chosen.slots[0] == Poisson(2.6) and report.checked == 3 + 2 + 2
