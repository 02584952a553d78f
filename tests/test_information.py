import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from periodetect.densities import Gaussian
from periodetect.information import (
    DetectorKind,
    asymptotic_delay,
    info_matrix,
    info_multislot,
    info_multistream,
    info_number,
    info_report,
    threshold,
    window_size,
)
from periodetect.model import ClassBank, IpidLaw, MultislotFamily, MultistreamConfig


def gaussian_law(means, variance=1.0):
    return IpidLaw(period=len(means), slots=tuple(Gaussian(m, variance) for m in means))


class TestInfoNumber:
    def test_identical_laws_give_zero(self):
        law = gaussian_law([0.0, 1.0])
        assert info_number(law, law) == 0.0

    def test_mean_of_slot_divergences(self):
        # slot 0 carries KL 18 (0.6 shift at variance 0.01), slot 1 carries 0
        pre = IpidLaw(2, (Gaussian(0.0, 0.01), Gaussian(1.0, 1.0)))
        post = IpidLaw(2, (Gaussian(0.6, 0.01), Gaussian(1.0, 1.0)))
        assert info_number(pre, post) == pytest.approx(9.0, rel=1e-12)

    def test_single_slot_reduces_to_kl(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        assert info_number(pre, post) == pytest.approx(0.5, rel=1e-12)

    def test_period_mismatch_rejected(self):
        with pytest.raises(ValueError):
            info_number(gaussian_law([0.0]), gaussian_law([0.0, 1.0]))


@pytest.fixture
def shifted_family():
    period = 25
    pre = IpidLaw(period, tuple(Gaussian(math.sin(math.pi * (i + 0.5) / period), 0.01) for i in range(period)))
    post = IpidLaw(period, tuple(Gaussian(d.mean + 0.6, 0.01) for d in pre.slots))
    candidates = tuple(frozenset(range(5 * j, 5 * j + 5)) for j in range(5))
    return MultislotFamily(period, pre, post, candidates, (0.2,) * 5)


class TestInfoMultislot:
    def test_five_shifted_slots(self, shifted_family):
        # five slots at KL 18 each over a period of 25
        for s in shifted_family.candidates:
            assert info_multislot(shifted_family, s) == pytest.approx(3.6, rel=1e-12)

    def test_full_set_reduces_to_info_number(self):
        pre, post = gaussian_law([0.0, 0.0]), gaussian_law([0.5, 1.0])
        fam = MultislotFamily(2, pre, post, (frozenset({0, 1}),), (1.0,))
        assert info_multislot(fam, {0, 1}) == pytest.approx(info_number(pre, post), rel=1e-12)

    def test_unknown_candidate_rejected(self, shifted_family):
        with pytest.raises(ValueError):
            info_multislot(shifted_family, {0, 1})

    def test_changed_slots_are_whole_indices(self, shifted_family):
        assert info_multislot(shifted_family, [0.0, 1, 2, 3, 4]) == info_multislot(shifted_family, range(5))
        with pytest.raises(ValueError, match="^an index of changed slots must be a whole number, got 1.9$"):
            info_multislot(shifted_family, [0, 1.9, 2, 3, 4])

    def test_additive_over_disjoint_subsets(self):
        pre = gaussian_law([0.0, 0.0, 0.0, 0.0])
        post = gaussian_law([0.5, 1.0, 0.25, 0.75])
        cands = (frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 1, 2, 3}))
        fam = MultislotFamily(4, pre, post, cands, (0.25, 0.25, 0.5))
        total = info_multislot(fam, {0, 1}) + info_multislot(fam, {2, 3})
        assert abs(total - info_multislot(fam, {0, 1, 2, 3})) <= 1e-12


class TestInfoMatrix:
    def test_three_law_bank(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([2.0])))
        matrix, min_info = info_matrix(bank)
        assert matrix[0, 0] == pytest.approx(0.5)   # law 1 vs baseline
        assert matrix[1, 0] == pytest.approx(2.0)   # law 2 vs baseline
        assert matrix[0, 2] == pytest.approx(0.5)   # law 1 vs law 2
        assert matrix[1, 1] == pytest.approx(0.5)   # law 2 vs law 1
        assert np.isnan(matrix[0, 1]) and np.isnan(matrix[1, 2])
        assert min_info == 0.5
        assert min_info == np.nanmin(matrix)

    def test_single_alternative(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0])))
        matrix, min_info = info_matrix(bank)
        assert matrix.shape == (1, 2)
        assert min_info == pytest.approx(0.5)

    def test_mirrored_bank_is_symmetric(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([0.7]), gaussian_law([-0.7])))
        matrix, _ = info_matrix(bank)
        assert matrix[0, 2] == pytest.approx(matrix[1, 1], rel=1e-12)

    def test_active_slots_limit_contributions(self):
        laws = (gaussian_law([0, 0]), gaussian_law([1, 1]), gaussian_law([-1, 2]))
        full = ClassBank(2, laws)
        restricted = ClassBank(2, laws, active_slots=frozenset({0}))
        m_full, _ = info_matrix(full)
        m_restr, _ = info_matrix(restricted)
        assert m_restr[0, 0] == pytest.approx(0.25)  # only slot 0's KL 0.5, averaged over T=2
        assert m_full[0, 0] == pytest.approx(0.5)


class TestThreshold:
    def test_posterior_rule(self):
        assert threshold(DetectorKind.SHIRYAEV, 0.05) == pytest.approx(0.95)

    def test_mixture_rule(self):
        assert threshold(DetectorKind.MIXTURE, 0.05) == pytest.approx(19.0)
        assert threshold(DetectorKind.MULTISTREAM, 0.05) == pytest.approx(19.0)

    def test_cusum_rule(self):
        assert threshold(DetectorKind.CUSUM, 100.0) == pytest.approx(math.log(100))

    def test_classifier_rule(self):
        assert threshold(DetectorKind.CLASSIFIER, 100.0, num_classes=3) == pytest.approx(
            7.090076835776092, abs=1e-12
        )

    def test_budget_ranges(self):
        with pytest.raises(ValueError):
            threshold(DetectorKind.SHIRYAEV, 1.5)
        with pytest.raises(ValueError):
            threshold(DetectorKind.CUSUM, 0.5)
        with pytest.raises(ValueError):
            threshold(DetectorKind.CLASSIFIER, 100.0)


class TestAsymptoticDelay:
    def test_bayesian_formula(self):
        assert asymptotic_delay(DetectorKind.SHIRYAEV, 0.01, 1.0) == pytest.approx(
            math.log(100), rel=1e-12
        )

    def test_frequentist_formula(self):
        assert asymptotic_delay(DetectorKind.CLASSIFIER, 100.0, 0.5) == pytest.approx(
            math.log(100) / 0.5, rel=1e-12
        )

    def test_multislot_prediction(self):
        val = asymptotic_delay(DetectorKind.MIXTURE, 1e-3, 3.6, abs(math.log(0.99)))
        assert val == pytest.approx(abs(math.log(1e-3)) / (3.6 + abs(math.log(0.99))), rel=1e-12)

    def test_degenerate_info_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_delay(DetectorKind.SHIRYAEV, 0.01, 0.0)

    def test_a_negative_tail_exponent_is_rejected(self):
        with pytest.raises(ValueError, match="^tail exponent must be >= 0$"):
            asymptotic_delay(DetectorKind.SHIRYAEV, 0.01, 1.0, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, True])
    def test_a_tail_exponent_that_is_nan_or_a_bool_is_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^tail exponent must be a number other than NaN, got {bad!r}$"):
            asymptotic_delay(DetectorKind.SHIRYAEV, 0.01, 1.0, bad)

    @pytest.mark.parametrize("call, name", [
        (lambda v: asymptotic_delay(DetectorKind.SHIRYAEV, v, 1.0), "budget"),
        (lambda v: threshold(DetectorKind.CUSUM, v), "budget"),
        (lambda v: asymptotic_delay(DetectorKind.CUSUM, 100.0, v), "information number")])
    @pytest.mark.parametrize("bad", ["0.5", np.bool_(True)])
    def test_a_budget_or_information_number_that_is_a_string_or_a_bool_is_rejected(self, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a number other than NaN, got {re.escape(repr(bad))}$"):
            call(bad)

    @given(st.floats(1e-6, 0.5), st.floats(0.05, 10.0), st.floats(0.0, 2.0))
    def test_monotone_in_info_tail_and_budget(self, alpha, info, d):
        base = asymptotic_delay(DetectorKind.SHIRYAEV, alpha, info, d)
        assert asymptotic_delay(DetectorKind.SHIRYAEV, alpha, info * 2, d) < base
        assert asymptotic_delay(DetectorKind.SHIRYAEV, alpha, info, d + 0.5) < base
        assert asymptotic_delay(DetectorKind.SHIRYAEV, alpha / 2, info, d) > base


class TestWindowSize:
    def test_reference_case(self):
        assert window_size(100.0, 0.5, 0.1) == 11

    def test_floor_of_one(self):
        assert window_size(1.0 + 1e-12, 5.0, 0.1) == 1

    def test_unit_log_budget(self):
        # log(e) / 1.0 doubled by epsilon = 1
        assert window_size(math.e, 1.0, 1.0) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            window_size(0.9, 0.5, 0.1)
        with pytest.raises(ValueError):
            window_size(10.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            window_size(10.0, 0.5, 0.0)


class TestInfoReport:
    def test_report_consistency(self):
        pre = IpidLaw(2, (Gaussian(0.0, 0.01), Gaussian(1.0, 1.0)))
        post = IpidLaw(2, (Gaussian(0.6, 0.01), Gaussian(1.0, 1.0)))
        rep = info_report(pre, post)
        assert rep.aggregate == pytest.approx(sum(rep.per_slot_kl) / 2, rel=1e-12)
        assert rep.per_slot_kl[0] == pytest.approx(18.0)
        assert rep.per_slot_kl[1] == 0.0


class TestInfoMultistream:
    def test_sum_over_changed_streams(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0]), gaussian_law([1])), (gaussian_law([0]), gaussian_law([2]))),
            candidates=(frozenset({0}), frozenset({0, 1})),
            weights=(0.5, 0.5),
        )
        assert info_multistream(cfg, {0}) == pytest.approx(0.5)
        assert info_multistream(cfg, {0, 1}) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            info_multistream(cfg, {1})

    def test_changed_streams_are_whole_indices(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0]), gaussian_law([1])), (gaussian_law([0]), gaussian_law([2]))),
            candidates=(frozenset({0}), frozenset({0, 1})),
            weights=(0.5, 0.5),
        )
        assert info_multistream(cfg, [0.0, 1]) == info_multistream(cfg, {0, 1})
        with pytest.raises(ValueError, match="^an index of changed streams must be a whole number, got 0.5$"):
            info_multistream(cfg, [0.5])
