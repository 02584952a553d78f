import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodetect.densities import Gaussian, Poisson, llr
from periodetect.detectors import (
    _SCAN_CHUNK,
    ClassifierBankDetector,
    CusumDetector,
    MixtureShiryaev,
    MultistreamMixture,
    ShiryaevDetector,
    StepResult,
    _SlotLlr,
    _walk_blocks,
    robust_shiryaev,
    run,
    write_trajectory_csv,
)
from periodetect.model import (
    ClassBank,
    IpidLaw,
    MultislotFamily,
    MultistreamConfig,
    PeriodicThresholds,
    post_change_law,
)


def gaussian_law(means, variance=1.0):
    return IpidLaw(period=len(means), slots=tuple(Gaussian(m, variance) for m in means))


def shiryaev_oracle(pre, post, rho, xs):
    """Probability-domain reference recursion, independent of the log-odds path."""
    p = 0.0
    out = []
    for n, x in enumerate(xs, start=1):
        q = p + (1.0 - p) * rho
        g = math.exp(post.density_at(n).log_density(x))
        f = math.exp(pre.density_at(n).log_density(x))
        p = q * g / (q * g + (1.0 - q) * f)
        out.append(p)
    return out


def cusum_oracle(pre, post, xs):
    """Brute-force max over change hypotheses of suffix log-likelihood sums."""
    out = []
    for n in range(1, len(xs) + 1):
        best = -math.inf
        for k in range(1, n + 1):
            s = sum(llr(post.density_at(i), pre.density_at(i), xs[i - 1]) for i in range(k, n + 1))
            best = max(best, s)
        out.append(best)
    return out


def mixture_oracle(family, rho, xs):
    """Direct double sum over change times and candidates, no recursion."""
    laws = [post_change_law(family, s) for s in family.candidates]
    out = []
    for n in range(1, len(xs) + 1):
        total = 0.0
        for law, w in zip(laws, family.weights):
            for k in range(1, n + 1):
                pk = (1.0 - rho) ** (k - 1) * rho
                s = sum(llr(law.density_at(i), family.base_pre.density_at(i), xs[i - 1])
                        for i in range(k, n + 1))
                total += pk * w * math.exp(s)
        out.append(total / (1.0 - rho) ** n)
    return out


def classifier_oracle(bank, xs, n, label, window=None):
    """Enumerate all window start points and rival classes directly."""
    lo = 1 if window is None else max(1, n - window)
    best = -math.inf
    for k in range(lo, n + 1):
        worst = math.inf
        for m in range(bank.num_classes + 1):
            if m == label:
                continue
            s = 0.0
            for i in range(k, n + 1):
                slot = (i - 1) % bank.period
                if bank.active_slots is not None and slot not in bank.active_slots:
                    continue
                s += llr(bank.laws[label].slots[slot], bank.laws[m].slots[slot], xs[i - 1])
            worst = min(worst, s)
        best = max(best, worst)
    return best


class TestShiryaev:
    def test_zero_prior_keeps_belief_at_zero(self):
        det = ShiryaevDetector(gaussian_law([0.0]), gaussian_law([1.0]), 0.0, 0.999)
        for x in (0.3, -2.0, 5.0):
            assert det.step(x).statistic == 0.0

    def test_neutral_observation_moves_belief_to_prior_mix(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = ShiryaevDetector(pre, post, 0.2, 0.999)
        res = det.step(0.5)  # equidistant from both means: likelihood ratio 1
        assert res.statistic == pytest.approx(0.2, rel=1e-12)

    def test_hand_computed_first_step(self):
        # belief 0, rho 0.01, likelihood ratio 2 at the observed point
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = ShiryaevDetector(pre, post, 0.01, 0.999)
        res = det.step(math.log(2) + 0.5)
        assert res.statistic == pytest.approx(0.02 / 1.01, rel=1e-10)

    def test_matches_probability_domain_oracle(self):
        rng = np.random.default_rng(4)
        pre = gaussian_law([0.0, 0.5, 1.0])
        post = gaussian_law([0.4, 0.9, 1.6])
        xs = rng.normal(0.4, 1.0, 60)
        det = ShiryaevDetector(pre, post, 0.05, 1.0)
        stats = [det.step(x).statistic for x in xs]
        oracle = shiryaev_oracle(pre, post, 0.05, xs)
        np.testing.assert_allclose(stats, oracle, rtol=1e-9, atol=1e-12)

    def test_threshold_one_never_alarms(self):
        det = ShiryaevDetector(gaussian_law([0.0]), gaussian_law([3.0]), 0.3, 1.0)
        for x in np.random.default_rng(0).normal(3.0, 1.0, 500):
            assert not det.step(x).alarm
        assert det.belief > 0.999999

    def test_threshold_zero_always_alarms(self):
        det = ShiryaevDetector(gaussian_law([0.0]), gaussian_law([1.0]), 0.01, 0.0)
        assert det.step(0.0).alarm

    def test_periodic_thresholds_use_slot_of_observation(self):
        pre, post = gaussian_law([0.0, 0.0]), gaussian_law([1.0, 1.0])
        thresholds = PeriodicThresholds((1.0, 0.0))
        det = ShiryaevDetector(pre, post, 0.1, thresholds)
        first = det.step(0.0)
        second = det.step(0.0)
        assert not first.alarm    # observation 1 hits the unattainable slot-0 threshold
        assert second.alarm       # observation 2 hits the always-on slot-1 threshold

    @given(st.floats(-4, 4), st.floats(0.0, 0.9), st.floats(-3, 3))
    def test_belief_stays_in_unit_interval(self, prev_obs, rho, x):
        det = ShiryaevDetector(gaussian_law([0.0]), gaussian_law([1.0]), rho, 1.0)
        det.step(prev_obs)
        p = det.step(x).statistic
        assert 0.0 <= p <= 1.0

    def test_monotone_in_likelihood_ratio(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        beliefs = []
        for x in (-1.0, 0.0, 1.0, 2.0):  # larger x, larger likelihood ratio
            det = ShiryaevDetector(pre, post, 0.1, 1.0)
            det.step(0.5)
            beliefs.append(det.step(x).statistic)
        assert beliefs == sorted(beliefs)

    def test_robust_variant_is_plain_detector_on_lfl(self):
        pre = gaussian_law([0.0, 0.0])
        lfl = gaussian_law([0.1, 0.1])
        rng = np.random.default_rng(8)
        xs = rng.normal(0.3, 1.0, 50)
        a = robust_shiryaev(pre, lfl, 0.05, 0.99)
        b = ShiryaevDetector(pre, lfl, 0.05, 0.99)
        for x in xs:
            assert a.step(x).statistic == b.step(x).statistic

    def test_square_wave_change_detected_within_one_period(self):
        # pre levels +-1, least favorable offset 0.1 outward, variance 0.01;
        # a +0.8 outward shift at sample 500 should saturate the belief fast
        period = 100
        pre = IpidLaw(period, tuple(Gaussian(1.0 if i < 50 else -1.0, 0.01) for i in range(period)))
        lfl = IpidLaw(period, tuple(Gaussian(d.mean + (0.1 if d.mean > 0 else -0.1), 0.01) for d in pre.slots))
        true_post = IpidLaw(period, tuple(Gaussian(d.mean + (0.8 if d.mean > 0 else -0.8), 0.01) for d in pre.slots))
        rng = np.random.default_rng(55)
        nu = 500
        xs = [pre.density_at(n).sample(rng) if n < nu else true_post.density_at(n).sample(rng)
              for n in range(1, 601)]
        det = robust_shiryaev(pre, lfl, 0.01, 1.0)
        stats = [det.step(x).statistic for x in xs]
        assert max(stats[:nu - 1]) < 0.99
        assert max(stats[nu - 1:nu - 1 + period]) > 0.99


class TestCusum:
    def test_plain_accumulation(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 1e9)
        det._log_odds = [0.5]
        res = det.step(0.8)  # llr = x - 0.5 = 0.3
        assert res.statistic == pytest.approx(0.8, rel=1e-12)

    def test_reset_before_add(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 1e9)
        det._log_odds = [-2.0]
        res = det.step(1.5)  # llr = 1.0; negative score clamps to 0 first
        assert res.statistic == pytest.approx(1.0, rel=1e-12)

    def test_score_may_go_negative(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 1e9)
        assert det.step(-3.0).statistic < 0.0

    def test_matches_brute_force_max_form(self):
        rng = np.random.default_rng(17)
        pre = gaussian_law([0.0, 0.5], 1.0)
        post = IpidLaw(2, (Gaussian(0.7, 1.0), Gaussian(0.5, 2.0)))
        xs = rng.normal(0.2, 1.2, 120)
        det = CusumDetector(pre, post, 1e9)
        stats = [det.step(x).statistic for x in xs]
        np.testing.assert_allclose(stats, cusum_oracle(pre, post, xs), rtol=0, atol=1e-10)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 60))
    def test_recursion_equals_max_form_random(self, seed, period, n):
        rng = np.random.default_rng(seed)
        pre = gaussian_law(rng.uniform(-1, 1, period).tolist())
        post = gaussian_law((rng.uniform(-1, 1, period) + rng.uniform(0.2, 1.0, period)).tolist())
        xs = rng.normal(0, 1.5, n)
        det = CusumDetector(pre, post, 1e9)
        stats = [det.step(x).statistic for x in xs]
        np.testing.assert_allclose(stats, cusum_oracle(pre, post, xs), rtol=0, atol=1e-10)

    def test_batch_runner_matches_stepwise(self):
        rng = np.random.default_rng(23)
        pre, post = gaussian_law([0.0, 1.0]), gaussian_law([0.5, 1.8])
        xs = rng.normal(0.5, 1.0, 300)
        a, b = CusumDetector(pre, post, 3.0), CusumDetector(pre, post, 3.0)
        hit = a.run_to_alarm(xs)
        traj = run(b, xs, stop_on_alarm=True)
        assert hit is not None and traj[-1].alarm
        assert hit.time_index == traj[-1].time_index
        assert hit.statistic == pytest.approx(traj[-1].statistic, rel=1e-9)

    def test_slot_pattern_repeats_each_period(self):
        pre, post = gaussian_law([0.0, 2.0, -1.0]), gaussian_law([1.0, 2.5, -0.5])
        fresh = CusumDetector(pre, post, 1e9)
        aged = CusumDetector(pre, post, 1e9)
        for x in np.random.default_rng(3).normal(0, 1, 3):
            aged.step(x)
        aged._log_odds = [0.0]
        for x in (0.4, -1.2, 2.0):
            a = fresh.step(x).statistic
            b = aged.step(x).statistic
            assert a == pytest.approx(b, rel=1e-12)


@pytest.fixture
def small_family():
    pre = gaussian_law([0.0, 0.4, -0.3])
    post = gaussian_law([0.8, 1.0, 0.5])
    cands = (frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2}))
    return MultislotFamily(3, pre, post, cands, (0.5, 0.3, 0.2))


class TestMixtureShiryaev:
    def test_matches_direct_double_sum(self, small_family):
        rng = np.random.default_rng(31)
        xs = rng.normal(0.3, 1.0, 40)
        det = MixtureShiryaev(small_family, 0.08, 1e18)
        stats = [det.step(x).statistic for x in xs]
        oracle = mixture_oracle(small_family, 0.08, xs)
        np.testing.assert_allclose(stats, oracle, rtol=1e-9)

    def test_singleton_family_is_posterior_odds(self):
        pre, post = gaussian_law([0.0, 0.1]), gaussian_law([1.0, 0.9])
        fam = MultislotFamily(2, pre, post, (frozenset({0, 1}),), (1.0,))
        rng = np.random.default_rng(12)
        xs = rng.normal(0.5, 1.0, 30)
        mix = MixtureShiryaev(fam, 0.05, 1e18)
        plain = ShiryaevDetector(pre, post, 0.05, 1.0)
        for x in xs:
            r = mix.step(x).statistic
            p = plain.step(x).statistic
            assert r == pytest.approx(p / (1.0 - p), rel=1e-9)

    def test_first_sample_value(self, small_family):
        rho = 0.04
        det = MixtureShiryaev(small_family, rho, 1e18)
        x = 0.6
        expected = 0.0
        for s, w in zip(small_family.candidates, small_family.weights):
            law = post_change_law(small_family, s)
            lr = math.exp(llr(law.density_at(1), small_family.base_pre.density_at(1), x))
            expected += w * rho * lr / (1.0 - rho)
        assert det.step(x).statistic == pytest.approx(expected, rel=1e-12)

    def test_neutral_observations_give_prior_odds(self):
        # x chosen so every candidate's likelihood ratio is exactly 1
        pre = gaussian_law([0.0])
        post = gaussian_law([0.6])
        fam = MultislotFamily(1, pre, post, (frozenset({0}),), (1.0,))
        rho = 0.1
        det = MixtureShiryaev(fam, rho, 1e18)
        for n in range(1, 30):
            stat = det.step(0.3).statistic  # midpoint: log-likelihood ratio 0
            closed = (1.0 - (1.0 - rho) ** n) / (1.0 - rho) ** n
            assert stat == pytest.approx(closed, rel=1e-9)

    def test_overflow_reports_infinity_and_alarms(self):
        pre = IpidLaw(1, (Gaussian(0.0, 1e-6),))
        post = IpidLaw(1, (Gaussian(10.0, 1e-6),))
        fam = MultislotFamily(1, pre, post, (frozenset({0}),), (1.0,))
        det = MixtureShiryaev(fam, 0.5, 1e12)
        res = None
        for _ in range(100):
            res = det.step(10.0)
            if res.alarm:
                break
        assert res.alarm and res.statistic == math.inf

    def test_explicit_prior_not_supported(self, small_family):
        with pytest.raises(ValueError):
            MixtureShiryaev(small_family, 0.0, 10.0)
        with pytest.raises(ValueError):
            MixtureShiryaev(small_family, 1.0, 10.0)

    def test_batch_runner_matches_stepwise(self, small_family):
        rng = np.random.default_rng(41)
        xs = rng.normal(0.6, 1.0, 120)
        a = MixtureShiryaev(small_family, 0.05, 50.0)
        b = MixtureShiryaev(small_family, 0.05, 50.0)
        hit = a.run_to_alarm(xs)
        traj = run(b, xs, stop_on_alarm=True)
        assert hit.time_index == traj[-1].time_index


class TestMultistreamMixture:
    @pytest.fixture
    def config(self):
        s0 = (gaussian_law([0.0, 0.2]), gaussian_law([0.9, 1.1]))
        s1 = (gaussian_law([0.1, -0.2]), gaussian_law([1.2, 0.8]))
        return MultistreamConfig(
            streams=(s0, s1),
            candidates=(frozenset({0}), frozenset({1}), frozenset({0, 1})),
            weights=(0.25, 0.25, 0.5),
        )

    def test_single_stream_reduces_to_mixture(self):
        pre, post = gaussian_law([0.0, 0.3]), gaussian_law([1.0, 1.3])
        fam = MultislotFamily(2, pre, post, (frozenset({0, 1}),), (1.0,))
        cfg = MultistreamConfig(((pre, post),), (frozenset({0}),), (1.0,))
        xs = np.random.default_rng(5).normal(0.5, 1.0, 40)
        t1 = run(MixtureShiryaev(fam, 0.05, 1e15), xs)
        t2 = run(MultistreamMixture(cfg, 0.05, 1e15), xs.reshape(-1, 1))
        for a, b in zip(t1, t2):
            assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_first_sample_with_crafted_ratios(self):
        # per-stream likelihood ratios (2, 1) at the first sample
        s0 = (gaussian_law([0.0]), gaussian_law([1.0]))
        s1 = (gaussian_law([0.0]), gaussian_law([1.0]))
        cfg = MultistreamConfig((s0, s1), (frozenset({0}), frozenset({1})), (0.5, 0.5))
        rho = 0.3
        det = MultistreamMixture(cfg, rho, 1e15)
        x = (math.log(2) + 0.5, 0.5)
        expected = rho / (1.0 - rho) * (0.5 * 2.0 + 0.5 * 1.0)
        assert det.step(x).statistic == pytest.approx(expected, rel=1e-12)

    def test_neutral_observations_closed_form(self, config):
        det = MultistreamMixture(config, 0.2, 1e15)
        # pick per-slot midpoints so every stream's likelihood ratio is 1
        mids = []
        for slot in range(2):
            mids.append(tuple((pre.slots[slot].mean + post.slots[slot].mean) / 2
                              for pre, post in config.streams))
        for n in range(1, 20):
            stat = det.step(mids[(n - 1) % 2]).statistic
            closed = (1.0 - 0.8 ** n) / 0.8 ** n
            assert stat == pytest.approx(closed, rel=1e-9)

    def test_stream_count_mismatch_rejected(self, config):
        det = MultistreamMixture(config, 0.1, 10.0)
        with pytest.raises(ValueError):
            det.step((1.0,))

    def test_oracle_double_sum(self, config):
        rng = np.random.default_rng(9)
        xs = rng.normal(0.4, 1.0, (25, 2))
        det = MultistreamMixture(config, 0.07, 1e18)
        stats = [det.step(row).statistic for row in xs]
        rho = 0.07
        for n in range(1, 26):
            total = 0.0
            for b, w in zip(config.candidates, config.weights):
                for k in range(1, n + 1):
                    pk = (1 - rho) ** (k - 1) * rho
                    s = 0.0
                    for i in range(k, n + 1):
                        for ell in b:
                            pre, post = config.streams[ell]
                            s += llr(post.density_at(i), pre.density_at(i), xs[i - 1, ell])
                    total += pk * w * math.exp(s)
            oracle = total / (1 - rho) ** n
            assert stats[n - 1] == pytest.approx(oracle, rel=1e-9)


@pytest.fixture
def bank():
    return ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([-1.0])))


class TestClassifierBank:
    def test_matches_enumeration_oracle(self, bank):
        xs = [1.2, 0.9]
        det = ClassifierBankDetector(bank, 1e9)
        for x in xs:
            det.step(x)
        got = det.class_statistics()
        for label in (1, 2):
            assert got[label] == pytest.approx(classifier_oracle(bank, xs, 2, label), rel=1e-12)

    def test_single_class_equals_cusum_max_form(self):
        pre, post = gaussian_law([0.0, 0.5]), gaussian_law([1.0, 1.2])
        two_law_bank = ClassBank(2, (pre, post))
        rng = np.random.default_rng(2)
        xs = rng.normal(0.6, 1.0, 50)
        det = ClassifierBankDetector(two_law_bank, 1e9)
        stats = [det.step(x).statistic for x in xs]
        np.testing.assert_allclose(stats, cusum_oracle(pre, post, xs), rtol=0, atol=1e-10)

    def test_window_covering_history_equals_full_test(self, bank):
        rng = np.random.default_rng(6)
        xs = rng.normal(0.5, 1.0, 60)
        full = ClassifierBankDetector(bank, 1e9)
        windowed = ClassifierBankDetector(bank, 1e9, window=60)
        for x in xs:
            full.step(x)
            windowed.step(x)
            assert full.class_statistics() == windowed.class_statistics()

    def test_short_window_matches_enumeration(self, bank):
        rng = np.random.default_rng(7)
        xs = rng.normal(0.8, 1.0, 40).tolist()
        det = ClassifierBankDetector(bank, 1e9, window=5)
        for n, x in enumerate(xs, start=1):
            det.step(x)
            got = det.class_statistics()
            for label in (1, 2):
                assert got[label] == pytest.approx(
                    classifier_oracle(bank, xs, n, label, window=5), rel=1e-9, abs=1e-12
                )

    def test_a_whole_float_window_is_its_int(self, bank):
        xs = np.random.default_rng(8).normal(0.5, 1.0, 30)
        got = run(ClassifierBankDetector(bank, 2.0, window=2.0), xs)
        assert got == run(ClassifierBankDetector(bank, 2.0, window=2), xs)
        assert ClassifierBankDetector(bank, 2.0, window=2.0).window == 2

    @pytest.mark.parametrize("window", [2.5, "3", True])
    def test_a_window_that_is_no_whole_number_is_rejected_when_built(self, bank, window):
        with pytest.raises(ValueError, match=f"^window must be a whole number, got {window!r}$"):
            ClassifierBankDetector(bank, 2.0, window=window)

    def test_decided_class_is_largest_crossed_statistic(self, bank):
        det = ClassifierBankDetector(bank, threshold=0.4)
        res = det.step(1.2)  # class 1 statistic 0.7, class 2 far below
        assert res.alarm and res.decided_class == 1
        assert res.statistic >= det.threshold

    def test_tie_breaks_to_smallest_index(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([-1.0])))
        det = ClassifierBankDetector(bank, threshold=-0.5)
        res = det.step(0.0)  # symmetric observation: both statistics equal -0.5
        stats = det.class_statistics()
        assert stats[1] == stats[2] == pytest.approx(-0.5)
        assert res.alarm and res.decided_class == 1

    def test_active_slots_nullify_contributions(self):
        laws = (gaussian_law([0.0, 0.0]), gaussian_law([1.0, 1.0]), gaussian_law([-1.0, 2.0]))
        restricted = ClassBank(2, laws, active_slots=frozenset({1}))
        det = ClassifierBankDetector(restricted, 1e9)
        first = det.step(3.0)       # slot 0: masked, no information
        assert first.statistic == 0.0
        second = det.step(3.0)      # slot 1 contributes
        assert second.statistic != 0.0

    def test_batch_runner_matches_stepwise(self, bank):
        rng = np.random.default_rng(10)
        xs = rng.normal(1.0, 1.0, 80)
        a = ClassifierBankDetector(bank, 4.0)
        b = ClassifierBankDetector(bank, 4.0)
        hit = a.run_to_alarm(xs)
        traj = run(b, xs, stop_on_alarm=True)
        assert hit.time_index == traj[-1].time_index
        assert hit.decided_class == traj[-1].decided_class


class TestMixedFamilyLaws:
    def test_cross_family_slot_pair_uses_direct_log_densities(self):
        from periodetect.densities import Poisson

        pre = IpidLaw(1, (Gaussian(1.0, 1.0),))
        post = IpidLaw(1, (Poisson(2.0),))
        det = CusumDetector(pre, post, 1e9)
        res = det.step(3.0)
        assert res.statistic == llr(Poisson(2.0), Gaussian(1.0, 1.0), 3.0)
        batch = CusumDetector(pre, post, 1e9)
        batch.run_to_alarm(np.array([3.0, 1.0, 0.0]))
        step = CusumDetector(pre, post, 1e9)
        for x in (3.0, 1.0, 0.0):
            step.step(x)
        assert batch.score == pytest.approx(step.score, rel=1e-12)

    def test_threshold_vector_length_validated(self):
        pre, post = gaussian_law([0.0, 0.0]), gaussian_law([1.0, 1.0])
        with pytest.raises(ValueError):
            ShiryaevDetector(pre, post, 0.1, PeriodicThresholds((0.5, 0.6, 0.7)))


class TestRunDriver:
    def test_empty_sequence(self):
        det = CusumDetector(gaussian_law([0.0]), gaussian_law([1.0]), 1.0)
        assert run(det, []) == []
        assert det.run_to_alarm([]) is None

    def test_immediate_crossing_with_sunken_threshold(self):
        det = CusumDetector(gaussian_law([0.0]), gaussian_law([1.0]), -1e6)
        traj = run(det, np.zeros(10), stop_on_alarm=True)
        assert len(traj) == 1 and traj[0].alarm and traj[0].time_index == 1

    def test_replay_is_bit_identical(self):
        pre, post = gaussian_law([0.0, 0.3]), gaussian_law([0.5, 0.9])
        xs = np.random.default_rng(77).normal(0.2, 1.0, 64)
        t1 = run(ShiryaevDetector(pre, post, 0.02, 0.97), xs)
        t2 = run(ShiryaevDetector(pre, post, 0.02, 0.97), xs)
        assert [(r.time_index, r.statistic, r.alarm) for r in t1] == \
               [(r.time_index, r.statistic, r.alarm) for r in t2]

    def test_reset_on_alarm_restarts_statistic(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 0.4, reset_on_alarm=True)
        first = det.step(1.5)
        assert first.alarm
        after = det.step(0.5)  # llr = 0: statistic stays at the reset value
        assert after.statistic == pytest.approx(0.0, abs=1e-12)

    def test_alarm_implies_statistic_at_threshold(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 1.0)
        for x in np.random.default_rng(13).normal(0.8, 1.0, 200):
            res = det.step(x)
            if res.alarm:
                assert res.statistic >= det.threshold
                break

    def test_trajectory_csv(self, tmp_path):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        xs = [0.1, 2.0, -0.3]
        traj = run(CusumDetector(pre, post, 1.0), xs)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, xs, period=1)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_index,slot,observation,statistic,alarm,decided_class"
        assert len(lines) == 4
        assert lines[1].startswith("1,0,0.1,")

    def test_trajectory_csv_rejects_length_mismatch(self, tmp_path):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        xs = [0.1, 2.0, -0.3]
        traj = run(CusumDetector(pre, post, 1.0), xs)
        path = tmp_path / "traj.csv"
        for observations in (xs[:2], xs + [0.4]):
            with pytest.raises(ValueError, match="3 rows"):
                write_trajectory_csv(path, traj, observations, period=1)
        assert not path.exists()


# Posterior-odds detectors built on one three-slot model, so one stream drives all three.
ODDS_PRE = gaussian_law([0.0, 0.4, -0.3])
ODDS_POST = gaussian_law([0.8, 1.0, 0.5])
ODDS_FAMILY = MultislotFamily(3, ODDS_PRE, ODDS_POST,
                              (frozenset({0}), frozenset({1, 2}), frozenset({0, 1, 2})),
                              (0.5, 0.3, 0.2))
ODDS_STREAMS = MultistreamConfig(
    streams=((ODDS_PRE, ODDS_POST), (gaussian_law([0.1, -0.2, 0.0]), gaussian_law([1.2, 0.8, 0.9]))),
    candidates=(frozenset({0}), frozenset({1}), frozenset({0, 1})),
    weights=(0.25, 0.25, 0.5),
)
ODDS_DETECTORS = {
    "shiryaev": lambda **kw: ShiryaevDetector(ODDS_PRE, ODDS_POST, 0.02,
                                              PeriodicThresholds((0.9, 0.97, 0.95)), **kw),
    "mixture": lambda **kw: MixtureShiryaev(ODDS_FAMILY, 0.02, 20.0, **kw),
    "multistream": lambda **kw: MultistreamMixture(ODDS_STREAMS, 0.02, 20.0, **kw),
}


def odds_stream(kind, n, seed, shift=0.1):
    """Pre-change slot means plus ``shift`` and unit noise; at 0.1 alarms come and go."""
    means = np.array([d.mean for d in ODDS_PRE.slots])[np.arange(n) % 3, None] + shift
    xs = means + np.random.default_rng(seed).standard_normal((n, 2))
    return xs if kind == "multistream" else xs[:, 0]


def batch_alarms(det, xs):
    """Every alarm ``run_to_alarm`` raises when called again after each alarm."""
    start, alarms = det.time, []
    while det.time - start < len(xs):
        hit = det.run_to_alarm(xs[det.time - start:])
        if hit is None:
            break
        alarms.append(hit)
    return alarms


def displayed(det):
    if isinstance(det, CusumDetector):
        return det.score
    return det.belief if isinstance(det, ShiryaevDetector) else det.statistic


class TestPosteriorOddsCore:
    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("kind", [*sorted(ODDS_DETECTORS), "cusum"])
    def test_batch_scan_matches_stepwise_run(self, kind, reset_on_alarm):
        # a carry-in state from earlier steps, then a stream spanning several scan chunks
        warmup = odds_stream(kind, 18, seed=1)
        xs = odds_stream(kind, 2 * _SCAN_CHUNK + 123, seed=2)
        batch = FIVE_DETECTORS[kind](reset_on_alarm=reset_on_alarm)
        stepped = FIVE_DETECTORS[kind](reset_on_alarm=reset_on_alarm)
        run(batch, warmup)
        run(stepped, warmup)
        got = batch_alarms(batch, xs)
        want = [r for r in run(stepped, xs) if r.alarm]
        assert len(want) > 10
        assert [r.time_index for r in got] == [r.time_index for r in want]
        np.testing.assert_allclose([r.statistic for r in got], [r.statistic for r in want],
                                   rtol=1e-9)
        assert batch.time == stepped.time
        assert displayed(batch) == pytest.approx(displayed(stepped), rel=1e-9)

    def test_cusum_has_no_scan_of_its_own(self):
        # CUSUM is the core with max for logaddexp, so one closed form and one chunk restart serve both
        assert "_scan_rows" not in CusumDetector.__dict__ and "_scan" not in CusumDetector.__dict__
        assert CusumDetector._scan_rows is ShiryaevDetector._scan_rows
        assert not hasattr(CusumDetector(ODDS_PRE, ODDS_POST, 3.0), "rho")

    def test_a_climb_across_the_block_edge_carries_its_log_odds(self):
        n, nu = 2 * _SCAN_CHUNK, _SCAN_CHUNK - 40
        slots = np.arange(n) % 3
        means = np.where(np.arange(1, n + 1) < nu, np.array([d.mean for d in ODDS_PRE.slots])[slots],
                         np.array([d.mean for d in ODDS_POST.slots])[slots])
        xs = means + np.random.default_rng(4).standard_normal(n)
        hit = ShiryaevDetector(ODDS_PRE, ODDS_POST, 1e-4, 1 - 1e-9).run_to_alarm(xs)
        want = run(ShiryaevDetector(ODDS_PRE, ODDS_POST, 1e-4, 1 - 1e-9), xs, stop_on_alarm=True)[-1]
        assert want.alarm and want.time_index > _SCAN_CHUNK
        assert hit.time_index == want.time_index
        assert hit.statistic == pytest.approx(want.statistic, rel=1e-9)

    def test_long_stream_log_odds_track_scalar_update(self):
        # about 50 nats of evidence per sample: over 10^6 samples an unblocked
        # cumulative sum reaches 5e7, where its rounding alone exceeds 1e-9
        pre, post = gaussian_law([0.0, 0.4, -0.3], 0.0025), gaussian_law([0.5, 0.9, 0.2], 0.0025)
        n = 10**6
        xs = np.array([0.0, 0.4, -0.3])[np.arange(n) % 3] \
            + 0.05 * np.random.default_rng(3).standard_normal(n)
        stepped = ShiryaevDetector(pre, post, 0.01, 1.0)
        chunk_ends = []
        for lo in range(0, n, _SCAN_CHUNK):
            for x in xs[lo:lo + _SCAN_CHUNK].tolist():
                stepped.step(x)
            chunk_ends.append(stepped._log_odds[0])
        # fed one chunk per call, so every chunk end is observable
        chunked = ShiryaevDetector(pre, post, 0.01, 1.0)
        for lo, want in zip(range(0, n, _SCAN_CHUNK), chunk_ends):
            assert chunked.run_to_alarm(xs[lo:lo + _SCAN_CHUNK]) is None
            assert abs(chunked._log_odds[0] - want) <= 1e-9
        # fed whole, so the chunking inside one call carries the state
        whole = ShiryaevDetector(pre, post, 0.01, 1.0)
        assert whole.run_to_alarm(xs) is None
        assert whole.time == stepped.time == n
        assert abs(whole._log_odds[0] - chunk_ends[-1]) <= 1e-9


def test_cusum_long_stream_score_tracks_the_walk():
    # about 50 nats of drift per sample: over 10^6 samples one cumulative sum reaches 5e7,
    # where its rounding alone exceeds 1e-10
    pre, post = gaussian_law([0.0, 0.5, 1.0, 0.5], 0.0025), gaussian_law([0.5, 1.0, 1.5, 1.0], 0.0025)
    n = 10**6
    xs = np.array([0.0, 0.5, 1.0, 0.5])[np.arange(n) % 4] + 0.05 * np.random.default_rng(0).standard_normal(n)
    walked = CusumDetector(pre, post, 1e9)
    for _ in _walk_blocks(walked, xs):
        pass
    closed = CusumDetector(pre, post, 1e9)
    assert closed.run_to_alarm(xs) is None
    assert closed.time == walked.time == n
    assert abs(closed.score - walked.score) <= 1e-10


FIVE_DETECTORS = {
    **ODDS_DETECTORS,
    "cusum": lambda **kw: CusumDetector(ODDS_PRE, ODDS_POST, 3.0, **kw),
    "classifier": lambda **kw: ClassifierBankDetector(
        ClassBank(3, (ODDS_PRE, ODDS_POST, gaussian_law([-0.8, -0.4, -1.1]))), 3.0, window=20, **kw),
}


# each of the five built with a given threshold
THRESHOLD_DETECTORS = {
    "shiryaev": lambda h: ShiryaevDetector(ODDS_PRE, ODDS_POST, 0.02, h),
    "cusum": lambda h: CusumDetector(ODDS_PRE, ODDS_POST, h),
    "mixture": lambda h: MixtureShiryaev(ODDS_FAMILY, 0.02, h),
    "multistream": lambda h: MultistreamMixture(ODDS_STREAMS, 0.02, h),
    "classifier": lambda h: ClassifierBankDetector(
        ClassBank(3, (ODDS_PRE, ODDS_POST, gaussian_law([-0.8, -0.4, -1.1]))), h, window=20),
}


@pytest.mark.parametrize("kind", sorted(THRESHOLD_DETECTORS))
def test_a_threshold_is_a_number_other_than_nan_or_a_bool(kind):
    make = THRESHOLD_DETECTORS[kind]
    for bad in (math.nan, True, np.bool_(True)):
        message = f"threshold must be a number other than NaN, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(bad)
    # a numpy scalar is the float it holds
    xs = odds_stream(kind, 60, 5)
    assert run(make(np.float32(0.75)), xs) == run(make(float(np.float32(0.75))), xs)


# the rules that take a prior rho, each built with a given rho
RHO_DETECTORS = {
    "shiryaev": lambda rho: ShiryaevDetector(ODDS_PRE, ODDS_POST, rho, 0.9),
    "mixture": lambda rho: MixtureShiryaev(ODDS_FAMILY, rho, 20.0),
    "multistream": lambda rho: MultistreamMixture(ODDS_STREAMS, rho, 20.0),
}


@pytest.mark.parametrize("kind", sorted(RHO_DETECTORS))
@pytest.mark.parametrize("bad", [np.bool_(False), "0.1"])
def test_a_rho_is_a_number_other_than_a_bool_or_a_string(kind, bad):
    assert RHO_DETECTORS[kind](np.float32(0.5)).rho == 0.5
    with pytest.raises(ValueError, match=f"^rho must be a number other than NaN, got {re.escape(repr(bad))}$"):
        RHO_DETECTORS[kind](bad)


@pytest.mark.parametrize("make, message", [
    (lambda: ShiryaevDetector(ODDS_PRE, ODDS_POST, 1.0, 0.9), "rho must lie in [0, 1), got 1.0"),
    (lambda: ShiryaevDetector(ODDS_PRE, ODDS_POST, -0.1, 0.9), "rho must lie in [0, 1), got -0.1"),
    (lambda: ShiryaevDetector(ODDS_PRE, gaussian_law([0.8]), 0.1, 0.9), "pre and post laws must share one period"),
    (lambda: CusumDetector(ODDS_PRE, gaussian_law([0.8]), 3.0), "laws must share one period"),
    (lambda: ClassifierBankDetector(ClassBank(3, (ODDS_PRE, ODDS_POST)), 3.0, window=0),
     "window must be >= 1 when given"),
    (lambda: run(MultistreamMixture(ODDS_STREAMS, 0.02, 20.0), np.zeros((5, 3))),
     "expected an (n, 2) observation matrix"),
    (lambda: run(MultistreamMixture(ODDS_STREAMS, 0.02, 20.0), np.zeros(5)),
     "expected an (n, 2) observation matrix")])
def test_a_detector_names_the_fault_in_its_inputs(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("kind", sorted(FIVE_DETECTORS))
def test_fresh_copy_behaves_like_new_detector(kind):
    make = FIVE_DETECTORS[kind]
    head, body, tail = (odds_stream(kind, n, seed) for n, seed in ((25, 4), (60, 5), (40, 6)))
    proto, twin = make(reset_on_alarm=True), make(reset_on_alarm=True)
    run(proto, head)
    run(twin, head)
    for start_time in (None, 7):
        copy = proto.fresh() if start_time is None else proto.fresh(start_time=start_time)
        new = make(reset_on_alarm=True, start_time=start_time or 0)
        assert copy.time == new.time
        assert run(copy, body) == run(new, body)
    # running the copies left the prototype where it was
    assert proto.time == twin.time
    assert run(proto, tail) == run(twin, tail)


POISSON_PRE = IpidLaw(2, (Poisson(2.0), Poisson(3.0)))
POISSON_POST = IpidLaw(2, (Poisson(4.0), Poisson(5.0)))
POISSON_DETECTORS = {
    "shiryaev": lambda: ShiryaevDetector(POISSON_PRE, POISSON_POST, 0.05, 0.99),
    "cusum": lambda: CusumDetector(POISSON_PRE, POISSON_POST, 5.0),
    "mixture": lambda: MixtureShiryaev(
        MultislotFamily(2, POISSON_PRE, POISSON_POST, (frozenset({0}), frozenset({1})), (0.5, 0.5)),
        0.05, 100.0),
    "multistream": lambda: MultistreamMixture(
        MultistreamConfig(((POISSON_PRE, POISSON_POST), (POISSON_PRE, POISSON_POST)),
                          (frozenset({0}), frozenset({1})), (0.5, 0.5)),
        0.05, 100.0),
    "classifier": lambda: ClassifierBankDetector(
        ClassBank(2, (POISSON_PRE, POISSON_POST, IpidLaw(2, (Poisson(0.5), Poisson(1.0))))), 5.0),
}


@pytest.mark.parametrize("bad", [-1.0, 1.5])
@pytest.mark.parametrize("kind", sorted(POISSON_DETECTORS))
def test_poisson_slots_reject_observations_off_the_support(kind, bad):
    def obs(value):
        return (3.0, value) if kind == "multistream" else value

    with pytest.raises(ValueError, match="Poisson support"):
        POISSON_DETECTORS[kind]().step(obs(bad))
    # the bad count follows two valid ones
    xs = np.array([obs(2.0), obs(0.0), obs(bad)])
    with pytest.raises(ValueError, match="Poisson support"):
        POISSON_DETECTORS[kind]().run_to_alarm(xs)
    det = POISSON_DETECTORS[kind]()
    assert not det.step(obs(3.0)).alarm


def current_statistic(det):
    if isinstance(det, ClassifierBankDetector):
        return det.class_statistics()
    return det.score if isinstance(det, CusumDetector) else displayed(det)


@pytest.mark.parametrize("bad", [math.nan, -1.0, 1.5])
@pytest.mark.parametrize("kind", sorted(POISSON_DETECTORS))
def test_rejected_batch_leaves_state_unchanged(kind, bad):
    def obs(value):
        return (3.0, value) if kind == "multistream" else value

    det = POISSON_DETECTORS[kind]()
    for x in (4.0, 6.0, 5.0):
        det.step(obs(x))
    time, statistic = det.time, current_statistic(det)
    with pytest.raises(ValueError):
        det.run_to_alarm(np.array([obs(2.0), obs(7.0), obs(bad)]))
    assert det.time == time
    assert current_statistic(det) == statistic


def test_step_result_is_an_immutable_record():
    result = StepResult(time_index=3, statistic=0.5, alarm=False)
    assert result.decided_class is None
    assert result == StepResult(3, 0.5, False, None)
    assert result != StepResult(3, 0.5, True, None)
    with pytest.raises(AttributeError):
        result.alarm = True


def test_profile_rows_equal_scalar_values():
    # period 3; rows: two mostly Gaussian, one all Poisson, one mixed-family in every slot
    den = (Gaussian(0.0, 1.0), Poisson(3.0), Gaussian(0.0, 1.0))
    pairs = [
        ((Gaussian(0.5, 1.0), Poisson(4.0), Gaussian(1.0, 2.0)), den),
        ((Gaussian(-0.5, 0.5), Poisson(2.0), Gaussian(2.0, 1.0)), den),
        ((Poisson(2.0), Poisson(5.0), Poisson(1.5)), (Poisson(1.0), Poisson(3.0), Poisson(2.5))),
        ((Gaussian(1.0, 1.0), Gaussian(3.0, 2.0), Poisson(2.0)), (Poisson(2.0), Poisson(3.0), Gaussian(0.0, 1.0))),
    ]
    table = _SlotLlr(pairs)
    n = 2 * _SCAN_CHUNK + 57  # three pieces
    xs = np.random.default_rng(8).poisson(3.0, n).astype(float)
    for start_slot in (0, 2):
        got = table.profile(xs, start_slot)
        want = np.array([table.values((start_slot + j) % 3, x) for j, x in enumerate(xs)]).T
        assert got.shape == (4, n)
        assert np.array_equal(got, want)
    assert table.profile(np.array([]), 1).shape == (4, 0)


def test_profile_of_a_batch_equals_its_rows():
    # the table of the test above: Gaussian, Poisson and mixed-family (fallback) cells
    den = (Gaussian(0.0, 1.0), Poisson(3.0), Gaussian(0.0, 1.0))
    table = _SlotLlr([
        ((Gaussian(0.5, 1.0), Poisson(4.0), Gaussian(1.0, 2.0)), den),
        ((Poisson(2.0), Poisson(5.0), Poisson(1.5)), (Poisson(1.0), Poisson(3.0), Poisson(2.5))),
        ((Gaussian(1.0, 1.0), Gaussian(3.0, 2.0), Poisson(2.0)), (Poisson(2.0), Poisson(3.0), Gaussian(0.0, 1.0))),
    ])
    xs = np.random.default_rng(9).poisson(3.0, (5, _SCAN_CHUNK + 37)).astype(float)
    for start_slot in (0, 1):
        got = table.profile(xs, start_slot)
        assert got.shape == (3, 5, xs.shape[1])
        for b, row in enumerate(xs):
            assert np.array_equal(got[:, b], table.profile(row, start_slot))
    assert table.profile(np.empty((2, 0)), 1).shape == (3, 2, 0)
    bad = xs.copy()
    bad[3, 7] = np.nan
    with pytest.raises(ValueError, match="observations must be finite"):
        table.profile(bad, 0)
    bad[3, 7] = 2.5  # slot 1 of start slot 0 pairs two Poisson laws in every row
    with pytest.raises(ValueError, match="Poisson support is the nonnegative integers, got 2.5"):
        table.profile(bad, 0)
    with pytest.raises(ValueError, match="got shape"):
        table.profile(xs[None], 0)


# A three-class period-4 bank whose classes share slots, as in the misclassification benchmark.
SCAN_BASE = np.array([0.0, 0.5, 1.0, 0.5])
SCAN_LAWS = tuple(gaussian_law(SCAN_BASE + shift)
                  for shift in (0.0, 0.7, -0.7, 0.7 * np.array([1.0, 1.0, -1.0, -1.0])))
SCAN_BANKS = {
    "gaussian": ClassBank(4, SCAN_LAWS),
    "active_slots": ClassBank(4, SCAN_LAWS, active_slots=frozenset({0, 2, 3})),
    # class 2 is Gaussian where the others count, so its pairs fall back to the densities there
    "mixed": ClassBank(2, (
        IpidLaw(2, (Gaussian(0.0, 1.0), Poisson(3.0))),
        IpidLaw(2, (Gaussian(0.8, 1.0), Poisson(5.0))),
        IpidLaw(2, (Gaussian(-0.5, 1.5), Gaussian(4.0, 2.0))),
    )),
}


def scan_stream(kind, n, seed, change_at=0, first_slot=0):
    """Class-0 data up to ``change_at`` and class-1 data after it, starting in ``first_slot``."""
    rng = np.random.default_rng(seed)
    slots = first_slot + np.arange(n)
    if kind == "mixed":
        before = np.where(slots % 2 == 0, rng.normal(0.0, 1.0, n), rng.poisson(3.0, n))
        after = np.where(slots % 2 == 0, rng.normal(0.8, 1.0, n), rng.poisson(5.0, n))
    else:
        means = SCAN_BASE[slots % 4]
        before, after = means + rng.standard_normal(n), means + 0.7 + rng.standard_normal(n)
    return np.where(np.arange(n) < change_at, before, after).astype(float)


def classifier_reference(det, xs):
    """The scalar loop the blocked scan replaced, on ``det``'s own pair scores.

    Running sums updated with ``+=``, a list of checkpoint tuples, and per class
    a max over checkpoints of the min over rivals.  Starts from ``det``'s
    clock with zero sums and returns ``(time_index, class statistics, decided
    class or None)`` per observation.
    """
    m = det.num_classes
    sums = [0.0] * (m * m)
    history = [tuple(sums)]
    time = det.time
    out = []
    for x in xs:
        for p, z in enumerate(det._llr.values(time % det.period, x)):
            sums[p] += z
        time += 1
        stats = []
        for label in range(m):
            best = -math.inf
            for checkpoint in history:
                low = math.inf
                for p in range(label * m, label * m + m):
                    low = min(low, sums[p] - checkpoint[p])
                best = max(best, low)
            stats.append(best)
        history.append(tuple(sums))
        if det.window is not None and len(history) > det.window + 1:
            del history[0]
        top = max(stats)
        decided = stats.index(top) + 1 if top >= det.threshold else None
        if decided is not None and det.reset_on_alarm:
            sums = [0.0] * (m * m)
            history = [tuple(sums)]
        out.append((time, stats, decided))
    return out


def reference_after(row, reset_on_alarm):
    """``class_statistics()`` as the reference row leaves it."""
    _, stats, decided = row
    if decided is not None and reset_on_alarm:
        return [-math.inf] * (len(stats) + 1)
    return [-math.inf] + stats


class TestClassifierScan:
    @pytest.mark.parametrize("start_time", [0, 5])
    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("window", [50, None])
    @pytest.mark.parametrize("kind", sorted(SCAN_BANKS))
    def test_scan_equals_scalar_reference_and_stepping(self, kind, window, reset_on_alarm,
                                                       start_time):
        def make():
            return ClassifierBankDetector(SCAN_BANKS[kind], 6.0, window=window,
                                          reset_on_alarm=reset_on_alarm, start_time=start_time)

        warmup = scan_stream(kind, 30, seed=1, first_slot=start_time)
        xs = scan_stream(kind, 400 if window else 250, seed=2, change_at=120,
                         first_slot=start_time + 30)
        want = classifier_reference(make(), np.concatenate([warmup, xs]))[len(warmup):]
        assert any(decided for _, _, decided in want)
        # stepping: every result and every class statistic
        stepped = make()
        run(stepped, warmup)
        for x, (time, stats, decided) in zip(xs, want):
            result = stepped.step(x)
            assert result == StepResult(time, max(stats), decided is not None, decided)
            assert stepped.class_statistics() == reference_after((time, stats, decided),
                                                                 reset_on_alarm)
        # the batch scan, called again after each alarm; the state it leaves after each call
        batch = make()
        run(batch, warmup)
        alarms = []
        while batch.time - start_time - len(warmup) < len(xs):
            hit = batch.run_to_alarm(xs[batch.time - start_time - len(warmup):])
            row = want[batch.time - start_time - len(warmup) - 1]
            assert batch.class_statistics() == reference_after(row, reset_on_alarm)
            if hit is None:
                break
            alarms.append(hit)
        assert alarms == [StepResult(time, max(stats), True, decided)
                          for time, stats, decided in want if decided is not None]
        assert batch.time == stepped.time == start_time + len(warmup) + len(xs)

    @pytest.mark.parametrize("window", [50, None])
    def test_long_stream_spans_several_block_caps(self, window):
        # window 50: blocks of 64, 128, 256, then 285 rows (the element cap);
        # the full history caps its blocks as the checkpoints accumulate
        n, change_at = (3000, 2600) if window else (900, 800)
        xs = scan_stream("gaussian", n, seed=3, change_at=change_at)
        det = ClassifierBankDetector(SCAN_BANKS["gaussian"], 12.0, window=window)
        want = classifier_reference(det, xs)
        first = next(i for i, (_, _, decided) in enumerate(want) if decided is not None)
        assert first > 600
        time, stats, decided = want[first]
        assert det.run_to_alarm(xs) == StepResult(time, max(stats), True, decided)
        assert det.class_statistics() == [-math.inf] + stats
        quiet = ClassifierBankDetector(SCAN_BANKS["gaussian"], math.inf, window=window)
        assert quiet.run_to_alarm(xs) is None
        assert quiet.time == n
        assert quiet.class_statistics() == [-math.inf] + want[-1][1]

    @pytest.mark.parametrize("window", [50, 5, None])
    @pytest.mark.parametrize("kind", sorted(SCAN_BANKS))
    def test_batch_scan_equals_run_to_alarm_on_each_row(self, kind, window):
        det = ClassifierBankDetector(SCAN_BANKS[kind], 3.0 if window == 5 else 6.0, window=window, start_time=5)
        run(det, scan_stream(kind, 70, seed=1, change_at=70, first_slot=5))
        lengths = np.array([1, 10, 64, 200, 300, 300, 150])
        x = np.zeros((lengths.size, lengths.max()))
        for r, length in enumerate(lengths.tolist()):
            x[r, :length] = scan_stream(kind, length, seed=10 + r, change_at=20 * r, first_slot=det.time)
        time, stats = det.time, det.class_statistics()
        hit, stop, decided, _ = det._scan_rows(det._llr.profile(x, det.time % det.period), lengths)
        assert det.time == time and det.class_statistics() == stats
        for r, length in enumerate(lengths.tolist()):
            alone = copy.deepcopy(det).run_to_alarm(x[r, :length])
            if alone is None:
                assert (hit[r], stop[r], decided[r]) == (False, length - 1, 0)
            else:
                assert (hit[r], stop[r], decided[r]) == (True, alone.time_index - time - 1, alone.decided_class)
        assert hit.any() and not hit.all()

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_is_at_least_the_windowed_statistic(self, seed):
        rng = np.random.default_rng(seed)
        period, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        # means far from zero, so the sums are large and their rounding is coarse
        laws = tuple(gaussian_law(1e3 + rng.normal(0.0, 0.5, period), float(rng.uniform(0.5, 2.0)))
                     for _ in range(m + 1))
        window = [None, 1, 3, 50][seed % 4]
        det = ClassifierBankDetector(ClassBank(period, laws), math.inf, window=window)
        xs = np.array([d.mean for d in laws[1].slots])[np.arange(300) % period] + rng.standard_normal(300)
        z = det._llr.profile(xs, 0)
        stats = np.array([s for _, s, _ in classifier_reference(det, xs)]).T
        sums = np.add.accumulate(np.concatenate([np.zeros((len(z), 1)), z], axis=1), axis=1)
        low = np.minimum.accumulate(sums[:, :-1], axis=1)
        bound = (sums[:, 1:] - low).reshape(m, m, -1).min(axis=1)
        assert (bound >= stats).all()
        # a threshold equal to one column's statistic: the scan alarms where the walk does
        threshold = stats.max(axis=0)[int(rng.integers(0, 300))]
        want = run(ClassifierBankDetector(ClassBank(period, laws), threshold, window=window), xs,
                   stop_on_alarm=True)[-1]
        assert ClassifierBankDetector(ClassBank(period, laws), threshold, window=window).run_to_alarm(xs) == want

    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("window", [50, 5])
    def test_scan_across_blocks_equals_stepping(self, window, reset_on_alarm):
        def make():
            return ClassifierBankDetector(SCAN_BANKS["gaussian"], 8.0 if window == 50 else 5.0,
                                          window=window, reset_on_alarm=reset_on_alarm, start_time=5)

        # a carry-in longer than the window, then a climb across the first block edge
        warmup = scan_stream("gaussian", 80, seed=5, change_at=80, first_slot=5)
        xs = scan_stream("gaussian", 2 * _SCAN_CHUNK + 300, seed=6, change_at=_SCAN_CHUNK - 30, first_slot=85)
        stepped, batch = make(), make()
        run(stepped, warmup)
        run(batch, warmup)
        want = []
        for x in xs:
            result = stepped.step(x)
            want.append((result, stepped.class_statistics()))
        hits = []
        while batch.time - 85 < len(xs) and len(hits) < 30:
            hit = batch.run_to_alarm(xs[batch.time - 85:])
            assert batch.class_statistics() == want[batch.time - 86][1]
            if hit is None:
                break
            hits.append(hit)
        assert hits == [result for result, _ in want if result.alarm][:len(hits)]
        assert hits[0].time_index > _SCAN_CHUNK + 85 - 30

    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("window", [5, 50, None])
    def test_run_does_not_depend_on_how_the_input_is_split(self, window, reset_on_alarm):
        # the walk's blocks start anew in each call, so the pieces cut its block schedule at will
        def make():
            return ClassifierBankDetector(SCAN_BANKS["gaussian"], 5.0 if window == 5 else 9.0,
                                          window=window, reset_on_alarm=reset_on_alarm, start_time=3)

        xs = scan_stream("gaussian", _SCAN_CHUNK + 200, seed=8, change_at=3000, first_slot=3)
        whole = make()
        want = run(whole, xs)
        alarms = [r.time_index - 3 for r in want if r.alarm][:40]
        assert len(alarms) > 3
        splits = {size: list(range(0, len(xs), size)) for size in (1, 63, 64, 65, 4097)}
        # just before, at and just after each alarm (with a reset, across it)
        splits["alarms"] = sorted({0, *(a + d for a in alarms for d in (-1, 0, 1))})
        stats_after = {}  # class_statistics() after observation n, as the one-column pieces leave it
        for name, edges in splits.items():
            det, got = make(), []
            for lo, hi in zip(edges, edges[1:] + [len(xs)]):
                got += run(det, xs[lo:hi])
                if name == 1:
                    stats_after[hi] = det.class_statistics()
                assert det.class_statistics() == stats_after[hi], (name, hi)
            assert got == want, name
        assert whole.class_statistics() == stats_after[len(xs)]
        # stopping at each alarm and walking on from there splits the input too
        det, got = make(), []
        while len(got) < len(xs):
            got += run(det, xs[len(got):], stop_on_alarm=True)
            assert det.class_statistics() == stats_after[len(got)]
        assert got == want

    def test_scan_temporaries_do_not_grow_with_the_stream(self):
        # beyond the (P, n) score matrix, a window-50 scan holds one capped block
        import tracemalloc

        extra = []
        for n in (20_000, 80_000):
            xs = scan_stream("gaussian", n, seed=4)
            det = ClassifierBankDetector(SCAN_BANKS["gaussian"], math.inf, window=50)
            tracemalloc.start()
            try:
                det.run_to_alarm(xs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - 9 * n * 8)
        assert max(extra) < 4 * 2**20
        assert extra[1] < 1.1 * extra[0]


# ``run`` against a loop over ``step``: the five families, a multistream rule whose
# candidates sum 3 and 9 streams, and tables with Gaussian/Poisson mixed-family cells.
MIXED_PRE = IpidLaw(3, (Gaussian(3.0, 2.0), Poisson(3.0), Poisson(2.0)))
MIXED_POST = IpidLaw(3, (Poisson(5.0), Poisson(5.0), Gaussian(4.0, 3.0)))
WIDE_STREAMS = MultistreamConfig(
    streams=tuple((gaussian_law([0.0, 0.4, -0.3]), gaussian_law([0.8 - 0.05 * j, 1.0, 0.5]))
                  for j in range(9)),
    candidates=(frozenset({0, 1, 2}), frozenset(range(9)), frozenset({2, 4, 5, 8})),
    weights=(0.4, 0.3, 0.3),
)


def mixed_counts(n, seed):
    """Counts that every cell of the mixed tables accepts, rising half way through."""
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.poisson(3.0, n // 2), rng.poisson(5.0, n - n // 2)]).astype(float)


RUN_CASES = {
    **{kind: (make, lambda n, seed, kind=kind: odds_stream(kind, n, seed, shift=0.4))
       for kind, make in FIVE_DETECTORS.items()},
    "multistream_wide": (
        lambda **kw: MultistreamMixture(WIDE_STREAMS, 0.02, 50.0, **kw),
        lambda n, seed: np.random.default_rng(seed).normal(0.4, 1.0, (n, 9))),
    "shiryaev_mixed": (
        lambda **kw: ShiryaevDetector(MIXED_PRE, MIXED_POST, 0.02, 0.95, **kw), mixed_counts),
    "cusum_mixed": (lambda **kw: CusumDetector(MIXED_PRE, MIXED_POST, 3.0, **kw), mixed_counts),
    "mixture_mixed": (
        lambda **kw: MixtureShiryaev(
            MultislotFamily(3, MIXED_PRE, MIXED_POST, (frozenset({0}), frozenset({1, 2})),
                            (0.5, 0.5)), 0.02, 20.0, **kw),
        mixed_counts),
    "classifier_mixed": (
        lambda **kw: ClassifierBankDetector(
            ClassBank(3, (MIXED_PRE, MIXED_POST, IpidLaw(3, (Poisson(1.0),) * 3))), 3.0,
            window=20, **kw),
        mixed_counts),
}


class TestRunEqualsStepping:
    @pytest.mark.parametrize("stop_on_alarm", [False, True])
    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_trajectory_and_state_equal_a_step_loop(self, case, reset_on_alarm, stop_on_alarm):
        make, stream = RUN_CASES[case]
        carry = stream(25, 11)
        # long enough to cross a block of run's walk over the score columns
        xs = stream(900 if stop_on_alarm else _SCAN_CHUNK + 200, 12)
        ran = make(reset_on_alarm=reset_on_alarm, start_time=5)
        stepped = make(reset_on_alarm=reset_on_alarm, start_time=5)
        run(ran, carry)
        for x in carry:
            stepped.step(x)
        want = []
        for x in xs:
            want.append(stepped.step(x))
            if stop_on_alarm and want[-1].alarm:
                break
        assert any(r.alarm for r in want)
        got = run(ran, xs, stop_on_alarm=stop_on_alarm)
        assert got == want
        assert ran.time == stepped.time
        assert current_statistic(ran) == current_statistic(stepped)

    def test_single_observation_runs_equal_stepping(self):
        # one row per call, where a reduction that sums a lone row pairwise would differ
        make, stream = RUN_CASES["multistream_wide"]
        xs = stream(300, 15)
        ran, stepped = make(), make()
        assert [run(ran, xs[i:i + 1])[0] for i in range(len(xs))] == [stepped.step(x) for x in xs]

    def test_any_iterable_is_accepted(self):
        xs = odds_stream("cusum", 50, 13, shift=0.4)
        want = run(FIVE_DETECTORS["cusum"](), xs)
        assert run(FIVE_DETECTORS["cusum"](), (x for x in xs.tolist())) == want
        assert run(FIVE_DETECTORS["cusum"](), tuple(xs.tolist())) == want
        rows = odds_stream("multistream", 50, 13, shift=0.4)
        want = run(FIVE_DETECTORS["multistream"](), rows)
        assert run(FIVE_DETECTORS["multistream"](), [tuple(r) for r in rows.tolist()]) == want

    def test_scalar_detector_refuses_a_matrix(self):
        det = FIVE_DETECTORS["cusum"]()
        with pytest.raises(ValueError, match="one-dimensional"):
            run(det, np.zeros((4, 1)))
        assert det.time == 0


@pytest.mark.parametrize("cls", [ShiryaevDetector, CusumDetector, MixtureShiryaev,
                                 MultistreamMixture, ClassifierBankDetector])
def test_each_detector_class_holds_the_traced_methods(cls):
    # perfbench's tracer wraps these through each class's own __dict__, so a
    # wrapper installed on one class must leave the others alone
    for name in ("fresh", "step", "run_to_alarm"):
        assert name in cls.__dict__, name


@pytest.mark.parametrize("kind", sorted(FIVE_DETECTORS))
def test_empty_run_to_alarm_returns_none_and_keeps_state(kind):
    det = FIVE_DETECTORS[kind](start_time=3)
    run(det, odds_stream(kind, 7, 16))
    time, statistic = det.time, current_statistic(det)
    assert det.run_to_alarm(odds_stream(kind, 0, 16)) is None
    assert det.time == time and current_statistic(det) == statistic


@pytest.mark.parametrize("bad", [math.nan, -1.0, 1.5])
@pytest.mark.parametrize("kind", sorted(POISSON_DETECTORS))
def test_rejected_run_leaves_state_unchanged(kind, bad):
    def obs(value):
        return (3.0, value) if kind == "multistream" else value

    det = POISSON_DETECTORS[kind]()
    for x in (4.0, 6.0, 5.0):
        det.step(obs(x))
    time, statistic = det.time, current_statistic(det)
    with pytest.raises(ValueError):
        run(det, [obs(2.0), obs(7.0), obs(bad)])
    message = ("observation must be finite, got nan" if math.isnan(bad)
               else f"Poisson support is the nonnegative integers, got {bad}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        det.step(obs(bad))
    assert det.time == time
    assert current_statistic(det) == statistic


def test_slot_vectors_of_unequal_length_are_rejected():
    one, two = (Gaussian(0.0, 1.0),), (Gaussian(0.0, 1.0), Gaussian(1.0, 1.0))
    for pairs in ([(one, two)], [(two, two), (one, one)]):
        with pytest.raises(ValueError, match="^slot vectors must have equal length$"):
            _SlotLlr(pairs)


def test_scores_that_overflow_saturate_the_statistics():
    # unequal variances put x^2 in the score: +inf at x = 1e200 when the post-change law is wider
    det = ShiryaevDetector(gaussian_law([0.0]), gaussian_law([0.0], variance=2.0), 0.05, 0.9)
    assert det.step(1e200) == (1, 1.0, True, None)
    # -inf where it is narrower: candidate {0} scores -inf in slot 0 and candidate {1} scores 0
    family = MultislotFamily(2, gaussian_law([0.0, 0.0]), gaussian_law([0.0, 0.0], variance=0.5),
                             (frozenset({1}), frozenset({0})), (0.5, 0.5))
    det = MixtureShiryaev(family, 0.05, 20.0)
    first = det.step(1e200)
    assert first.statistic == pytest.approx(0.5 * 0.05 / 0.95, rel=1e-12) and not first.alarm
    assert math.isfinite(det.step(0.0).statistic)


def csv_writer_trajectory(path, trajectory, observations, period):
    """The per-row ``csv.writer`` dump of earlier releases, kept as the byte-level reference."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_index", "slot", "observation", "statistic", "alarm", "decided_class"])
        for result, obs in zip(trajectory, observations):
            if isinstance(obs, (list, tuple, np.ndarray)):
                obs_repr = ";".join(repr(float(v)) for v in np.asarray(obs).reshape(-1))
            else:
                obs_repr = repr(float(obs))
            writer.writerow([
                result.time_index,
                (result.time_index - 1) % period,
                obs_repr,
                repr(result.statistic),
                int(result.alarm),
                "" if result.decided_class is None else result.decided_class,
            ])


@pytest.mark.parametrize("kind", ["cusum", "multistream", "classifier"])
def test_trajectory_csv_bytes_equal_the_csv_writer_dump(tmp_path, kind):
    xs = odds_stream(kind, 2 * _SCAN_CHUNK + 77, 14, shift=0.4)
    xs.flat[:3] = -0.0, 1e-300, 12345678.9  # signed zero, tiny and wide reprs
    det = FIVE_DETECTORS[kind](reset_on_alarm=True, start_time=2)
    trajectory = run(det, xs)
    assert sum(r.alarm for r in trajectory) > 5
    if kind == "classifier":
        assert {r.decided_class for r in trajectory if r.alarm} >= {1}
    oracle = tmp_path / "oracle.csv"
    csv_writer_trajectory(oracle, trajectory, xs, det.period)
    for observations in (xs, xs.tolist()):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, trajectory, observations, det.period)
        assert path.read_bytes() == oracle.read_bytes()
    empty = tmp_path / "empty.csv"
    write_trajectory_csv(empty, [], [], 3)
    assert empty.read_bytes() == b"time_index,slot,observation,statistic,alarm,decided_class\r\n"
