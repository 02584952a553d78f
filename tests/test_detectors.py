import math

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
        det._score = 0.5
        res = det.step(0.8)  # llr = x - 0.5 = 0.3
        assert res.statistic == pytest.approx(0.8, rel=1e-12)

    def test_reset_before_add(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 1e9)
        det._score = -2.0
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
        aged._score = 0.0
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
    return det.belief if isinstance(det, ShiryaevDetector) else det.statistic


class TestPosteriorOddsCore:
    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("kind", sorted(ODDS_DETECTORS))
    def test_batch_scan_matches_stepwise_run(self, kind, reset_on_alarm):
        # a carry-in state from earlier steps, then a stream spanning several scan chunks
        warmup = odds_stream(kind, 18, seed=1)
        xs = odds_stream(kind, 2 * _SCAN_CHUNK + 123, seed=2)
        batch = ODDS_DETECTORS[kind](reset_on_alarm=reset_on_alarm)
        stepped = ODDS_DETECTORS[kind](reset_on_alarm=reset_on_alarm)
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


FIVE_DETECTORS = {
    **ODDS_DETECTORS,
    "cusum": lambda **kw: CusumDetector(ODDS_PRE, ODDS_POST, 3.0, **kw),
    "classifier": lambda **kw: ClassifierBankDetector(
        ClassBank(3, (ODDS_PRE, ODDS_POST, gaussian_law([-0.8, -0.4, -1.1]))), 3.0, window=20, **kw),
}


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
