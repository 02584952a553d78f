import json
import math

import numpy as np
import pytest

from periodetect.densities import Gaussian, Poisson
from periodetect.detectors import ClassifierBankDetector, CusumDetector, ShiryaevDetector
from periodetect.information import threshold as info_threshold
from periodetect.information import DetectorKind
from periodetect.model import ClassBank, GeometricPrior, IpidLaw, MultistreamConfig
from periodetect.simulate import (
    DrawnChange,
    FixedChange,
    InsufficientDataError,
    MonteCarloReport,
    NoChange,
    ScenarioSpec,
    estimate_add,
    estimate_arl,
    estimate_misclass,
    estimate_pfa,
    generate,
    generate_multistream,
    mexican_hat_wavelet,
    sample_law,
    signal_law,
    trial_rng,
    worst_case_delay,
)


def gaussian_law(means, variance=1.0):
    return IpidLaw(period=len(means), slots=tuple(Gaussian(m, variance) for m in means))


PRE = gaussian_law([0.0, 0.5, 1.0, 0.5])
POST = gaussian_law([0.5, 1.0, 1.5, 1.0])


class TestGenerate:
    def test_no_change_stays_on_pre_law(self):
        spec = ScenarioSpec(pre=gaussian_law([0.0, 10.0]), post=None, change=NoChange(),
                            horizon=2000, seed=1)
        obs, nu = generate(spec)
        assert nu == math.inf
        assert abs(obs[0::2].mean() - 0.0) < 0.15
        assert abs(obs[1::2].mean() - 10.0) < 0.15

    def test_change_at_one_is_all_post(self):
        spec = ScenarioSpec(pre=gaussian_law([0.0]), post=gaussian_law([50.0]),
                            change=FixedChange(1), horizon=500, seed=2)
        obs, nu = generate(spec)
        assert nu == 1
        assert obs.min() > 25.0

    def test_change_point_splits_the_stream(self):
        spec = ScenarioSpec(pre=gaussian_law([0.0]), post=gaussian_law([50.0]),
                            change=FixedChange(100), horizon=200, seed=3)
        obs, nu = generate(spec)
        assert obs[:99].max() < 25.0       # samples 1..99 are pre-change
        assert obs[99:].min() > 25.0       # sample 100 onward is post-change

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec(pre=PRE, post=POST, change=DrawnChange(GeometricPrior(0.1)),
                            horizon=64, seed=99)
        a, nu_a = generate(spec)
        b, nu_b = generate(spec)
        assert nu_a == nu_b
        np.testing.assert_array_equal(a, b)

    def test_drawn_change_matches_prior_rate(self):
        hits = 0
        trials = 10_000
        prior = GeometricPrior(0.5)
        for i in range(trials):
            spec = ScenarioSpec(pre=PRE, post=POST, change=DrawnChange(prior), horizon=4, seed=i)
            _, nu = generate(spec)
            hits += nu == 1
        se = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) < 3 * se

    def test_poisson_slots_sampled(self):
        law = IpidLaw(2, (Poisson(4.0), Gaussian(0.0, 1.0)))
        spec = ScenarioSpec(pre=law, post=None, change=NoChange(), horizon=4000, seed=5)
        obs, _ = generate(spec)
        counts = obs[0::2]
        assert np.all(counts >= 0) and np.allclose(counts, np.round(counts))
        assert abs(counts.mean() - 4.0) < 3 * math.sqrt(4.0 / counts.size)


class TestGenerateMultistream:
    def test_unchanged_streams_keep_their_law(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0.0]), gaussian_law([40.0])),
                     (gaussian_law([0.0]), gaussian_law([40.0]))),
            candidates=(frozenset({0}), frozenset({1})),
            weights=(0.5, 0.5),
        )
        obs, nu = generate_multistream(cfg, {1}, FixedChange(50), 200, seed=11)
        assert obs.shape == (200, 2)
        assert obs[:, 0].max() < 20.0
        assert obs[49:, 1].min() > 20.0

    def test_unknown_candidate_rejected(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0.0]), gaussian_law([1.0])),),
            candidates=(frozenset({0}),),
            weights=(1.0,),
        )
        with pytest.raises(ValueError):
            generate_multistream(cfg, {0, 1}, FixedChange(1), 10, seed=0)


class TestSignalLaw:
    def test_mexican_hat_closed_form(self):
        assert mexican_hat_wavelet(0.0) == pytest.approx(2.0 / (9 * math.pi) ** 0.25, rel=1e-12)
        assert mexican_hat_wavelet(1.0) == pytest.approx(0.0, abs=1e-15)
        assert mexican_hat_wavelet(-1.0) == pytest.approx(0.0, abs=1e-15)

    def test_square_wave_levels(self):
        law = signal_law("square", 100, 0.01, levels=(1.0, -1.0), half_period=50)
        assert all(d.mean == 1.0 for d in law.slots[:50])
        assert all(d.mean == -1.0 for d in law.slots[50:])

    def test_half_sine_positive(self):
        law = signal_law("half-sine", 25, 0.01)
        assert all(d.mean > 0 for d in law.slots)
        assert max(d.mean for d in law.slots) <= 1.0

    def test_mexican_hat_law_peak_at_center(self):
        law = signal_law("mexican-hat", 101, 0.01)
        means = [d.mean for d in law.slots]
        assert means[50] == pytest.approx(mexican_hat_wavelet(0.0), rel=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            signal_law("triangle", 10, 0.01)


class TestEstimatePfa:
    def test_threshold_zero_fires_immediately(self):
        # alarm at the first sample, so a false alarm happens exactly when nu > 1
        det = ShiryaevDetector(PRE, POST, 0.3, 0.0)
        rep = estimate_pfa(det, PRE, GeometricPrior(0.3), 4000, 50, master_seed=21)
        assert abs(rep.estimate - 0.7) < 3 * rep.std_error + 1e-9
        assert rep.censored_trials == 0

    def test_unattainable_threshold_gives_zero(self):
        det = ShiryaevDetector(PRE, POST, 0.3, 1.0)
        rep = estimate_pfa(det, PRE, GeometricPrior(0.3), 500, 30, master_seed=22)
        assert rep.estimate == 0.0

    def test_censoring_counted_when_change_beyond_horizon(self):
        det = ShiryaevDetector(PRE, POST, 0.001, 1.0)
        rep = estimate_pfa(det, PRE, GeometricPrior(0.001), 200, 10, master_seed=23)
        assert rep.censored_trials > 0
        assert rep.details["lower_bound_when_censored"]

    def test_uncensored_estimate_is_not_flagged_as_bound(self):
        det = ShiryaevDetector(PRE, POST, 0.3, 0.0)
        rep = estimate_pfa(det, PRE, GeometricPrior(0.3), 200, 50, master_seed=21)
        assert rep.censored_trials == 0
        assert rep.details["lower_bound_when_censored"] is False

    def test_workers_do_not_change_the_report(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 0.95)
        kwargs = dict(trials=800, horizon=200, master_seed=24)
        serial = estimate_pfa(det, PRE, GeometricPrior(0.05), **kwargs, workers=1)
        parallel = estimate_pfa(det, PRE, GeometricPrior(0.05), **kwargs, workers=4)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(parallel.to_dict(), sort_keys=True)


class TestEstimateAdd:
    def test_replay_deterministic(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 0.99)
        a = estimate_add(det, PRE, POST, FixedChange(1), 300, 300, master_seed=30)
        b = estimate_add(det, PRE, POST, FixedChange(1), 300, 300, master_seed=30)
        assert a == b

    def test_prediction_attached(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 0.99)
        rep = estimate_add(det, PRE, POST, FixedChange(1), 200, 300, master_seed=31, predicted=12.0)
        assert rep.predicted == 12.0

    def test_change_beyond_horizon_means_no_qualifying_trials(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 1.0)
        with pytest.raises(InsufficientDataError):
            estimate_add(det, PRE, POST, FixedChange(50), 50, 10, master_seed=32)

    def test_censored_trials_reported_as_bounds(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 1.0)  # never alarms
        rep = estimate_add(det, PRE, POST, FixedChange(5), 100, 40, master_seed=33)
        assert rep.censored_trials == 100
        assert rep.estimate == pytest.approx(35.0)  # horizon - nu lower bound


class TestEstimateArl:
    def test_immediate_alarm(self):
        det = CusumDetector(PRE, POST, -1e6)
        rep = estimate_arl(det, PRE, 200, 100, master_seed=40)
        assert rep.estimate == 1.0 and rep.censored_trials == 0

    def test_unattainable_threshold_reports_cap_and_censoring(self):
        det = CusumDetector(PRE, POST, 1e6)
        rep = estimate_arl(det, PRE, 50, 1000, master_seed=41)
        assert rep.estimate == 1000.0
        assert rep.censored_trials == 50
        assert rep.details["lower_bound_when_censored"]


class TestEstimateMisclass:
    def test_single_class_never_misclassifies(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0])))
        det = ClassifierBankDetector(bank, info_threshold(DetectorKind.CLASSIFIER, 50.0, num_classes=1))
        rep = estimate_misclass(det, 1, 500, 200, master_seed=50, budget=50.0)
        assert rep.estimate == 0.0
        assert rep.details["mean_delay"] == rep.details["mean_stop_time"] - 1.0
        assert "misclass_bound_mean_tau_over_beta" in rep.details

    def test_true_class_validated(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0])))
        det = ClassifierBankDetector(bank, 5.0)
        with pytest.raises(ValueError):
            estimate_misclass(det, 2, 10, 50, master_seed=51)


class TestWorstCaseDelay:
    def test_single_slot_reduces_to_fixed_change_estimate(self):
        pre, post = gaussian_law([0.0]), gaussian_law([1.0])
        det = CusumDetector(pre, post, 3.0)
        report = worst_case_delay(det, pre, post, trials=400, horizon=200, master_seed=60)
        assert len(report.per_change_point) == 1
        direct = estimate_add(det, pre, post, FixedChange(1), 400, 200, master_seed=60)
        nu, natural, pinned = report.per_change_point[0]
        assert nu == 1
        assert natural.estimate == direct.estimate
        # with no pre-change history the two surrogates run the same detector
        assert pinned.estimate == pytest.approx(natural.estimate)

    def test_periodicity_of_delay_in_change_point(self):
        # change points one period apart, late enough for the pre-change state
        # distribution to have mixed
        det = CusumDetector(PRE, POST, 2.5)
        report = worst_case_delay(det, PRE, POST, trials=3000, horizon=300, master_seed=61,
                                  change_points=[30, 34])
        (_, nat_a, pin_a), (_, nat_b, pin_b) = report.per_change_point
        gap = abs(nat_a.estimate - nat_b.estimate)
        assert gap < 3 * math.hypot(nat_a.std_error, nat_b.std_error)
        # pinned-state delays at nu and nu + T are identically distributed
        assert pin_a.estimate == pytest.approx(pin_b.estimate, rel=1e-12)

    def test_pinned_state_upper_bounds_natural_cusum(self):
        det = CusumDetector(PRE, POST, 2.5)
        report = worst_case_delay(det, PRE, POST, trials=3000, horizon=300, master_seed=62,
                                  change_points=[3])
        _, natural, pinned = report.per_change_point[0]
        # zeroing the score at the change can only slow detection down
        assert pinned.estimate >= natural.estimate - 3 * math.hypot(natural.std_error, pinned.std_error)

    def test_max_fields_consistent(self):
        det = CusumDetector(PRE, POST, 1.5)
        report = worst_case_delay(det, PRE, POST, trials=200, horizon=200, master_seed=63,
                                  change_points=[1, 2, 3])
        assert report.max_natural == max(r[1].estimate for r in report.per_change_point)
        assert report.max_pinned == max(r[2].estimate for r in report.per_change_point)


class TestMonteCarloReport:
    def test_round_trip(self):
        rep = MonteCarloReport(metric="pfa", trials=100, estimate=0.04, std_error=0.01,
                               censored_trials=2, predicted=0.05, budget=0.05,
                               details={"alarm_trials": 4})
        assert MonteCarloReport.from_dict(json.loads(json.dumps(rep.to_dict()))) == rep

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            MonteCarloReport(metric="pfa", trials=10, estimate=1.2, std_error=0.0)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            MonteCarloReport(metric="arl", trials=10, estimate=5.0, std_error=0.1, censored_trials=11)


class TestTrialRng:
    def test_streams_keyed_by_seed_and_index(self):
        a = trial_rng(7, 0).standard_normal(4)
        b = trial_rng(7, 0).standard_normal(4)
        c = trial_rng(7, 1).standard_normal(4)
        d = trial_rng(8, 0).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_sample_law_start_slot(self):
        law = gaussian_law([0.0, 100.0])
        obs = sample_law(trial_rng(1), law, 4, start_slot=1)
        assert obs[0] > 50.0 and obs[2] > 50.0
        assert obs[1] < 50.0 and obs[3] < 50.0
