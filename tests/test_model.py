import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from periodetect.densities import Gaussian, Poisson
from periodetect.model import (
    ClassBank,
    ExplicitPrior,
    GeometricPrior,
    IpidLaw,
    MultislotFamily,
    MultistreamConfig,
    PeriodicThresholds,
    post_change_law,
    prior_from_dict,
    prior_mass,
    survival,
    tail_exponent,
)


def gaussian_law(means, variance=1.0):
    return IpidLaw(period=len(means), slots=tuple(Gaussian(m, variance) for m in means))


class TestIpidLaw:
    def test_slot_indexing_wraps_after_full_period(self):
        law = gaussian_law([0, 1, 2])
        assert law.slot_of(1) == 0
        assert law.slot_of(3) == 2  # observation T uses the last slot, not a wrap
        assert law.slot_of(4) == 0
        for n in range(1, 20):
            assert law.slot_of(n) == law.slot_of(n + 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IpidLaw(period=2, slots=(Gaussian(0, 1),))

    def test_json_round_trip(self):
        law = IpidLaw(period=2, slots=(Gaussian(0.5, 2.0), Poisson(3.0)))
        assert IpidLaw.from_dict(json.loads(json.dumps(law.to_dict()))) == law


class TestPriors:
    def test_geometric_first_trial(self):
        p = GeometricPrior(0.5)
        assert prior_mass(p, 1) == pytest.approx(0.5)
        assert survival(p, 1) == pytest.approx(0.5)

    def test_geometric_long_survival(self):
        # direct power evaluation: 0.99^288
        assert survival(GeometricPrior(0.01), 288) == pytest.approx(0.99**288, rel=1e-12)

    def test_point_mass_explicit(self):
        p = ExplicitPrior((1.0,))
        assert prior_mass(p, 1) == 1.0
        assert survival(p, 1) == 0.0

    def test_explicit_beyond_table_is_error(self):
        p = ExplicitPrior((0.5, 0.5))
        with pytest.raises(ValueError):
            prior_mass(p, 3)
        assert survival(p, 3) == 0.0

    def test_explicit_must_normalize(self):
        with pytest.raises(ValueError):
            ExplicitPrior((0.5, 0.4))

    def test_tail_exponents(self):
        assert tail_exponent(GeometricPrior(0.01)) == pytest.approx(abs(math.log(0.99)), rel=1e-12)
        assert tail_exponent(GeometricPrior(0.5)) == pytest.approx(math.log(2), rel=1e-12)
        assert tail_exponent(ExplicitPrior((1.0,))) == 0.0
        assert tail_exponent(ExplicitPrior((1.0,), declared_tail_exponent=0.7)) == 0.7

    @given(st.floats(1e-4, 0.99), st.integers(1, 200))
    def test_survival_difference_is_mass(self, rho, n):
        p = GeometricPrior(rho)
        assert survival(p, n - 1) - survival(p, n) == pytest.approx(prior_mass(p, n), rel=1e-9, abs=1e-300)

    def test_explicit_survival_is_tail_sum(self):
        pmf = (0.1, 0.2, 0.3, 0.4)
        p = ExplicitPrior(pmf)
        for n in range(0, 5):
            assert survival(p, n) == pytest.approx(sum(pmf[n:]), abs=1e-9)
            if n >= 1:
                assert survival(p, n - 1) - survival(p, n) == pytest.approx(prior_mass(p, n), abs=1e-9)

    def test_prior_json_round_trip(self):
        for p in (GeometricPrior(0.05), ExplicitPrior((0.25, 0.75), declared_tail_exponent=0.3)):
            assert prior_from_dict(json.loads(json.dumps(p.to_dict()))) == p


@pytest.fixture
def family():
    pre = gaussian_law([0.0, 0.0])
    post = gaussian_law([1.0, 1.0])
    return MultislotFamily(
        period=2, base_pre=pre, base_post=post,
        candidates=(frozenset({0}), frozenset({1}), frozenset({0, 1})),
        weights=(0.25, 0.25, 0.5),
    )


class TestMultislotFamily:
    def test_full_subset_recovers_base_post(self, family):
        assert post_change_law(family, {0, 1}) == family.base_post

    def test_slot_wise_mix(self, family):
        law = post_change_law(family, {1})
        assert law.slots[0] == family.base_pre.slots[0]
        assert law.slots[1] == family.base_post.slots[1]

    def test_unknown_candidate_rejected(self, family):
        with pytest.raises(ValueError):
            post_change_law(family, {0, 1, 2})

    def test_empty_candidate_rejected(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        with pytest.raises(ValueError):
            MultislotFamily(1, pre, post, (frozenset(),), (1.0,))

    def test_zero_information_candidate_rejected(self):
        pre = gaussian_law([0.0, 0.0])
        post = gaussian_law([0.0, 1.0])  # slot 0 unchanged
        with pytest.raises(ValueError):
            MultislotFamily(2, pre, post, (frozenset({0}),), (1.0,))

    def test_weights_validated(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        with pytest.raises(ValueError):
            MultislotFamily(1, pre, post, (frozenset({0}),), (0.9,))
        with pytest.raises(ValueError):
            MultislotFamily(1, pre, post, (frozenset({0}), frozenset({0})), (1.0, -0.0))

    def test_post_change_differs_exactly_on_subset(self, family):
        for s in family.candidates:
            law = post_change_law(family, s)
            for i in range(family.period):
                if i in s:
                    assert law.slots[i] != family.base_pre.slots[i]
                else:
                    assert law.slots[i] == family.base_pre.slots[i]

    def test_json_round_trip(self, family):
        assert MultislotFamily.from_dict(json.loads(json.dumps(family.to_dict()))) == family


class TestClassBank:
    def test_valid_bank(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([2.0])))
        assert bank.num_classes == 2

    def test_indistinguishable_pair_rejected(self):
        with pytest.raises(ValueError):
            ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([1.0])))

    def test_restriction_can_make_bank_degenerate(self):
        laws = (gaussian_law([0.0, 0.0]), gaussian_law([1.0, 0.0]), gaussian_law([2.0, 5.0]))
        ClassBank(2, laws)  # fine unrestricted
        with pytest.raises(ValueError):
            ClassBank(2, laws, active_slots=frozenset({1}))  # laws 0 and 1 agree on slot 1

    def test_period_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0, 2.0])))

    @pytest.mark.parametrize("k", [2.0, 2])
    def test_class_law_takes_a_whole_float(self, k):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([2.0])))
        assert bank.class_law(k) is bank.laws[2]

    @pytest.mark.parametrize("k", [1.5, float("nan"), "2"])
    def test_class_law_rejects_a_value_that_is_no_whole_number(self, k):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([2.0])))
        with pytest.raises(ValueError, match="^true_class must be a whole number"):
            bank.class_law(k)

    def test_json_round_trip(self):
        bank = ClassBank(2, (gaussian_law([0, 0]), gaussian_law([1, 0]), gaussian_law([0, 2])),
                         active_slots=frozenset({0, 1}))
        assert ClassBank.from_dict(json.loads(json.dumps(bank.to_dict()))) == bank


class TestMultistreamConfig:
    def test_valid_config(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0]), gaussian_law([1])), (gaussian_law([0]), gaussian_law([2]))),
            candidates=(frozenset({0}), frozenset({1}), frozenset({0, 1})),
            weights=(0.3, 0.3, 0.4),
        )
        assert cfg.num_streams == 2
        assert cfg.period == 1

    def test_period_agreement_required(self):
        with pytest.raises(ValueError):
            MultistreamConfig(
                streams=((gaussian_law([0]), gaussian_law([1])), (gaussian_law([0, 0]), gaussian_law([1, 1]))),
                candidates=(frozenset({0}),),
                weights=(1.0,),
            )

    def test_json_round_trip(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0]), gaussian_law([1])),),
            candidates=(frozenset({0}),),
            weights=(1.0,),
        )
        assert MultistreamConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestPeriodicThresholds:
    def test_single_value_broadcasts(self):
        t = PeriodicThresholds.single(0.95)
        assert t.for_slot(0) == 0.95
        assert t.for_slot(17) == 0.95

    def test_vector_indexing(self):
        t = PeriodicThresholds((0.9, 0.8, 0.99))
        assert [t.for_slot(i) for i in range(3)] == [0.9, 0.8, 0.99]

    def test_range_enforced(self):
        PeriodicThresholds((0.0, 1.0))  # both ends usable: always-fire and never-fire
        with pytest.raises(ValueError):
            PeriodicThresholds((1.1,))
        with pytest.raises(ValueError):
            PeriodicThresholds((-0.1,))

    def test_json_round_trip(self):
        t = PeriodicThresholds((0.9, 0.95))
        assert PeriodicThresholds.from_dict(json.loads(json.dumps(t.to_dict()))) == t


@given(
    st.lists(
        st.one_of(
            st.tuples(st.floats(-5, 5), st.floats(0.01, 9.0)).map(lambda t: Gaussian(*t)),
            st.floats(0.1, 20.0).map(Poisson),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_law_serialization_identity(slots):
    law = IpidLaw(period=len(slots), slots=tuple(slots))
    encoded = json.dumps(law.to_dict(), sort_keys=True)
    decoded = IpidLaw.from_dict(json.loads(encoded))
    assert decoded == law
    assert json.dumps(decoded.to_dict(), sort_keys=True) == encoded


def law_dict(means):
    return {"period": len(means), "slots": [{"type": "gaussian", "mean": m, "variance": 1.0} for m in means]}


def family_dict(candidates, period=2):
    return {"period": period, "pre": law_dict([0.0] * period), "post": law_dict([1.0] * period),
            "candidates": candidates, "weights": [1.0 / len(candidates)] * len(candidates)}


def streams_dict(candidates):
    return {"streams": [{"pre": law_dict([0.0]), "post": law_dict([1.0])}] * 2,
            "candidates": candidates, "weights": [1.0 / len(candidates)] * len(candidates)}


def bank_dict(active_slots, period=2):
    return {"period": period, "laws": [law_dict([m, m + 1.0][:period]) for m in (0.0, 1.0, 3.0)],
            "active_slots": active_slots}


class TestIndexSetsFromJson:
    """Candidate subsets and active slots are sets of whole-number indices in range, as read from JSON."""

    @pytest.mark.parametrize("parse, obj, message", [
        (MultislotFamily.from_dict, family_dict([[0.7], [1.2]]),
         "an index of slot candidate must be a whole number, got 0.7"),
        (MultislotFamily.from_dict, family_dict([[0], []]), "slot candidate must be nonempty"),
        (MultislotFamily.from_dict, family_dict([[0], [1, 2]]), "slot candidate [1, 2] outside 0..1"),
        (MultislotFamily.from_dict, family_dict([[-1]]), "slot candidate [-1] outside 0..1"),
        (MultistreamConfig.from_dict, streams_dict([[0], [0.5]]),
         "an index of stream candidate must be a whole number, got 0.5"),
        (MultistreamConfig.from_dict, streams_dict([[]]), "stream candidate must be nonempty"),
        (MultistreamConfig.from_dict, streams_dict([[0, 2]]), "stream candidate [0, 2] outside 0..1"),
        (ClassBank.from_dict, bank_dict([0.5]), "an index of active_slots must be a whole number, got 0.5"),
        (ClassBank.from_dict, bank_dict(["1"]), "an index of active_slots must be a whole number, got '1'"),
        (ClassBank.from_dict, bank_dict([]), "active_slots must be nonempty"),
        (ClassBank.from_dict, bank_dict([0, 5]), "active_slots [0, 5] outside 0..1"),
        (ClassBank.from_dict, bank_dict([-1]), "active_slots [-1] outside 0..1")])
    def test_rejected(self, parse, obj, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse(obj)

    @pytest.mark.parametrize("parse, make", [
        (MultislotFamily.from_dict, lambda i: family_dict([[i], [1, 0]])),
        (MultistreamConfig.from_dict, lambda i: streams_dict([[i], [0, 1]])),
        (ClassBank.from_dict, lambda i: bank_dict([i]))])
    def test_whole_floats_load_as_their_ints_and_fractions_are_rejected(self, parse, make):
        assert parse(make(1.0)) == parse(make(1))
        with pytest.raises(ValueError, match="must be a whole number, got 1.5$"):
            parse(make(1.5))

    def test_post_change_law_takes_whole_indices_only(self, family):
        assert post_change_law(family, [1.0]) == post_change_law(family, [1])
        with pytest.raises(ValueError, match="^an index of changed slots must be a whole number, got 1.5$"):
            post_change_law(family, [1.5])
        with pytest.raises(ValueError, match=re.escape("unknown candidate [0, 3]; not in the declared family")):
            post_change_law(family, [0, 3])


class TestPeriodsFromJson:
    @pytest.mark.parametrize("parse, obj", [
        (IpidLaw.from_dict, law_dict([0.0, 1.0])),
        (MultislotFamily.from_dict, family_dict([[0], [1]])),
        (ClassBank.from_dict, bank_dict(None))])
    @pytest.mark.parametrize("period", [2.5, "2", True])
    def test_a_period_that_is_no_whole_number_is_rejected(self, parse, obj, period):
        model = parse({**obj, "period": 2.0})
        assert model == parse(obj) and type(model.period) is int
        with pytest.raises(ValueError, match=f"^period must be a whole number, got {re.escape(repr(period))}$"):
            parse({**obj, "period": period})


class TestWeightsAndPriorEntries:
    @pytest.mark.parametrize("make, name", [
        (lambda w: MultislotFamily(1, gaussian_law([0.0]), gaussian_law([1.0]), (frozenset({0}),), (w,)), "a weight"),
        (lambda w: MultistreamConfig(((gaussian_law([0.0]), gaussian_law([1.0])),), (frozenset({0}),), (w,)),
         "a weight"),
        (lambda p: ExplicitPrior((p,)), "a prior probability"),
        (lambda d: ExplicitPrior((1.0,), declared_tail_exponent=d), "tail exponent")])
    @pytest.mark.parametrize("bad", [math.nan, True, np.bool_(True)])
    def test_nan_and_bools_are_rejected(self, make, name, bad):
        assert make(np.float32(1.0)) == make(1.0)
        with pytest.raises(ValueError, match=f"^{name} must be a number other than NaN, got {re.escape(repr(bad))}$"):
            make(bad)
