import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from periodetect.densities import Gaussian, Poisson
from periodetect.detectors import (
    _SCAN_CHUNK,
    ClassifierBankDetector,
    CusumDetector,
    MixtureShiryaev,
    MultistreamMixture,
    ShiryaevDetector,
)
from periodetect.information import threshold as info_threshold
from periodetect.information import DetectorKind
from periodetect.model import (
    ClassBank,
    ExplicitPrior,
    GeometricPrior,
    IpidLaw,
    MultislotFamily,
    MultistreamConfig,
    PeriodicThresholds,
    post_change_law,
)
from periodetect.simulate import (
    DrawnChange,
    FixedChange,
    InsufficientDataError,
    MonteCarloReport,
    NoChange,
    ScenarioSpec,
    TrialPlan,
    _trial_streams,
    change_from_dict,
    estimate_add,
    estimate_arl,
    estimate_misclass,
    estimate_pfa,
    generate,
    generate_multistream,
    mexican_hat_wavelet,
    run_trials,
    sample_law,
    sample_with_change,
    signal_law,
    trial_plans,
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

    def test_changed_streams_are_whole_indices(self):
        cfg = MultistreamConfig(
            streams=((gaussian_law([0.0]), gaussian_law([1.0])), (gaussian_law([0.0]), gaussian_law([2.0]))),
            candidates=(frozenset({0}), frozenset({1})),
            weights=(0.5, 0.5),
        )
        obs, nu = generate_multistream(cfg, [1.0], FixedChange(3), 20, seed=4)
        want, want_nu = generate_multistream(cfg, [1], FixedChange(3), 20, seed=4)
        assert nu == want_nu and np.array_equal(obs, want)
        with pytest.raises(ValueError, match="^an index of changed streams must be a whole number, got 0.5$"):
            generate_multistream(cfg, [0.5], FixedChange(3), 20, seed=4)


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
        assert rep.details["lower_bound_when_censored"]
        (_, natural, pinned), = worst_case_delay(det, PRE, POST, 50, 40, master_seed=33,
                                                 change_points=[5]).per_change_point
        assert natural.details["lower_bound_when_censored"]
        assert pinned.censored_trials == 50 and pinned.details["lower_bound_when_censored"]

    def test_uncensored_estimate_is_not_flagged_as_bound(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 0.0)  # alarms at its first sample
        rep = estimate_add(det, PRE, POST, FixedChange(1), 100, 40, master_seed=34)
        assert rep.censored_trials == 0
        assert rep.details["lower_bound_when_censored"] is False
        (_, natural, pinned), = worst_case_delay(det, PRE, POST, 50, 40, master_seed=34,
                                                 change_points=[1]).per_change_point
        assert natural.details["lower_bound_when_censored"] is False
        assert pinned.details["lower_bound_when_censored"] is False


class TestPlanHorizons:
    def test_a_float_horizon_gives_the_integer_horizons_report(self):
        det = CusumDetector(PRE, POST, 3.0)
        assert (estimate_add(det, PRE, POST, FixedChange(3), 40, 50.0, 9).to_dict()
                == estimate_add(det, PRE, POST, FixedChange(3), 40, 50, 9).to_dict())
        assert (estimate_arl(det, PRE, 40, 50.0, 9).to_dict() == estimate_arl(det, PRE, 40, 50, 9).to_dict())
        plan = TrialPlan(PRE, POST, FixedChange(4), 10.0, start_time=2.0)
        assert (plan.horizon, plan.start_time) == (10, 2)
        np.testing.assert_array_equal(plan.draw(1, 0)[1], TrialPlan(PRE, POST, FixedChange(4), 10, start_time=2)
                                      .draw(1, 0)[1])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        [(_, plan)] = trial_plans("arl", CusumDetector(PRE, POST, 3.0), PRE, None, 20)
        with pytest.raises(ValueError, match="^trials and workers must be >= 1$"):
            run_trials(CusumDetector(PRE, POST, 3.0), plan, 5, 1, workers=workers)


def _count_runs(trials, workers=1):
    """Each estimator's report at ``trials`` and ``workers``, as a dict."""
    bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0])))
    classifier = ClassifierBankDetector(bank, info_threshold(DetectorKind.CLASSIFIER, 50.0, num_classes=1))
    det, kw = CusumDetector(PRE, POST, 2.0), {"workers": workers}
    return {
        "pfa": lambda: estimate_pfa(det, PRE, GeometricPrior(0.1), trials, 50, 3, **kw),
        "add": lambda: estimate_add(det, PRE, POST, FixedChange(3), trials, 50, 3, **kw),
        "arl": lambda: estimate_arl(det, PRE, trials, 50, 3, **kw),
        "misclass": lambda: estimate_misclass(classifier, 1, trials, 200, 3, **kw),
        "worst_case": lambda: worst_case_delay(det, PRE, POST, trials, 50, 3, change_points=[2], **kw),
    }


class TestTrialCounts:
    """``run_trials``, which every estimator calls, takes whole counts; each report holds the count that ran."""

    @pytest.mark.parametrize("metric", ["pfa", "add", "arl", "misclass", "worst_case"])
    @pytest.mark.parametrize("bad", [2.5, "3", True])
    def test_a_trial_count_must_be_whole(self, metric, bad):
        with pytest.raises(ValueError, match=f"^trials must be a whole number, got {re.escape(repr(bad))}$"):
            _count_runs(bad)[metric]()

    @pytest.mark.parametrize("bad", [2.5, "2", True])
    def test_a_worker_count_must_be_whole(self, bad):
        [(_, plan)] = trial_plans("arl", None, PRE, None, 20)
        with pytest.raises(ValueError, match=f"^workers must be a whole number, got {re.escape(repr(bad))}$"):
            run_trials(CusumDetector(PRE, POST, 3.0), plan, 5, 1, workers=bad)

    @pytest.mark.parametrize("metric", ["pfa", "add", "arl", "misclass", "worst_case"])
    def test_reports_hold_the_int_that_ran(self, metric):
        want = _count_runs(4)[metric]().to_dict()
        for trials in (4.0, np.int64(4)):
            got = _count_runs(trials)[metric]().to_dict()
            assert got == want
            counts = [got] if metric != "worst_case" else [r[arm] for r in got["per_change_point"]
                                                           for arm in ("natural", "pinned")]
            assert all(type(r["trials"]) is int and r["trials"] == 4 for r in counts)
            json.dumps(got)


class TestEstimateArl:
    def test_immediate_alarm(self):
        det = CusumDetector(PRE, POST, -1e6)
        rep = estimate_arl(det, PRE, 200, 100, master_seed=40)
        assert rep.estimate == 1.0 and rep.censored_trials == 0

    def test_counts_below_one_are_checked_by_the_plan_and_the_engine(self):
        det = CusumDetector(PRE, POST, 3.0)
        with pytest.raises(ValueError, match="^horizon must be >= 1$"):
            estimate_arl(det, PRE, 5, 0, master_seed=41)
        with pytest.raises(ValueError, match="^trials and workers must be >= 1$"):
            estimate_arl(det, PRE, 0, 50, master_seed=41)

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
        assert rep.censored_trials == 0
        assert rep.details["stop_time_lower_bound_when_censored"] is False

    def test_censored_stop_time_flagged_as_bound(self):
        # about 8 samples are needed to reach the threshold, so a horizon of 8 leaves many unalarmed
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0])))
        det = ClassifierBankDetector(bank, info_threshold(DetectorKind.CLASSIFIER, 50.0, num_classes=1))
        rep = estimate_misclass(det, 1, 200, 8, master_seed=52)
        assert 0 < rep.censored_trials < 200
        assert rep.details["stop_time_lower_bound_when_censored"] is True

    def test_no_alarm_within_the_horizon_is_insufficient_data(self):
        det = ClassifierBankDetector(ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]))), 1e6)
        with pytest.raises(InsufficientDataError, match="^no trial raised an alarm within the horizon$"):
            estimate_misclass(det, 1, 20, 30, master_seed=53)

    def test_true_class_validated(self):
        bank = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0])))
        det = ClassifierBankDetector(bank, 5.0)
        with pytest.raises(ValueError):
            estimate_misclass(det, 2, 10, 50, master_seed=51)

    @pytest.mark.parametrize("true_class", [0, 2, 5, -1])
    def test_a_class_outside_the_bank_is_a_value_error(self, true_class):
        det = ClassifierBankDetector(ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]))), 5.0)
        with pytest.raises(ValueError, match=r"^true_class must lie in 1\.\.1$"):
            trial_plans("misclass", det, None, None, 50, true_class=true_class)

    def test_misclass_needs_the_classifier(self):
        det = CusumDetector(PRE, POST, 3.0)
        for estimate in (lambda: estimate_misclass(det, 1, 10, 50, master_seed=51),
                         lambda: trial_plans("misclass", det, PRE, POST, 50, true_class=1)):
            with pytest.raises(ValueError, match="^misclass needs the classifier detector$"):
                estimate()


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

    def test_pinned_report_counts_every_trial(self):
        # every pinned trial starts at its change point, so none is a false alarm
        det = CusumDetector(PRE, POST, 1.5)
        report = worst_case_delay(det, PRE, POST, trials=200, horizon=200, master_seed=64,
                                  change_points=[2, 3])
        for nu, _, pinned in report.per_change_point:
            _, tau, _ = run_trials(det, dict(trial_plans("worst_case", det, PRE, POST, 200,
                                                         change_points=[nu]))[f"nu{nu}_pinned_"], 200, 64)
            assert pinned.estimate == float(np.mean(tau - nu))
            assert pinned.details == {
                "qualifying_trials": 200, "false_alarm_trials": 0,
                "unconditional_mean_positive_delay": pinned.estimate,
                "lower_bound_when_censored": False, "state": "pinned-at-change"}


class TestTrialChecks:
    """Every trial description is checked once, when its TrialPlan is built."""

    @pytest.mark.parametrize("make", [
        lambda pre, post, change, horizon: TrialPlan(pre, post, change, horizon),
        lambda pre, post, change, horizon: ScenarioSpec(pre, post, change, horizon, seed=0),
    ], ids=["plan", "scenario"])
    @pytest.mark.parametrize("post, change, horizon, message", [
        (POST, FixedChange(3), 0, "horizon must be >= 1"),
        (None, FixedChange(3), 10, "a post-change law is required unless the scenario is NoChange"),
        (None, DrawnChange(GeometricPrior(0.1)), 10,
         "a post-change law is required unless the scenario is NoChange"),
        (gaussian_law([1.0]), FixedChange(3), 10, "pre and post laws must share one period"),
        (POST, DrawnChange(None), 10, "a drawn change point needs a prior"),
    ])
    def test_invalid_descriptions_rejected(self, make, post, change, horizon, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(PRE, post, change, horizon)

    @pytest.mark.parametrize("make, name", [
        (lambda h, s: TrialPlan(PRE, POST, FixedChange(3), h, start_time=s), "start time"),
        (lambda h, s: ScenarioSpec(PRE, POST, FixedChange(3), h, seed=s), "seed")], ids=["plan", "scenario"])
    @pytest.mark.parametrize("bad", [10.5, "10", True])
    def test_horizon_and_clock_fields_must_be_whole(self, make, name, bad):
        assert make(10.0, 2.0) == make(10, 2)
        with pytest.raises(ValueError, match=f"^horizon must be a whole number, got {re.escape(repr(bad))}$"):
            make(bad, 2)
        with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {re.escape(repr(bad))}$"):
            make(10, bad)

    @pytest.mark.parametrize("horizon, change, seed, message", [
        (0, FixedChange(3), 0, "horizon must be >= 1"),
        (-4, FixedChange(3), 0, "horizon must be >= 1"),
        (2.5, FixedChange(3), 0, "horizon must be a whole number, got 2.5"),
        (True, FixedChange(3), 0, "horizon must be a whole number, got True"),
        (10, DrawnChange(None), 0, "a drawn change point needs a prior"),
        (10, FixedChange(3), 2.5, "seed must be a whole number, got 2.5")])
    def test_a_multistream_scenario_gets_the_single_stream_checks(self, horizon, change, seed, message):
        config = MultistreamConfig(((PRE, POST),), (frozenset({0}),), (1.0,))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScenarioSpec(PRE, POST, change, horizon, seed)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_multistream(config, None, change, horizon, seed)
        obs, nu = generate_multistream(config, [0], FixedChange(3), 10.0, 2.0)
        want, want_nu = generate_multistream(config, [0], FixedChange(3), 10, 2)
        assert nu == want_nu and np.array_equal(obs, want)

    def test_plans_that_never_draw_past_the_change_need_no_post_law(self):
        TrialPlan(PRE, None, NoChange(), 10)
        [(_, plan)] = trial_plans("pfa", None, PRE, None, 10, prior=GeometricPrior(0.1))
        assert plan.post is None and plan.stop_before_change

    def test_add_without_a_post_law_raises(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 0.99)
        with pytest.raises(ValueError, match="post-change law is required"):
            estimate_add(det, PRE, None, FixedChange(5), 20, 100, master_seed=1)

    def test_worst_case_without_a_post_law_raises(self):
        det = CusumDetector(PRE, POST, 2.5)
        with pytest.raises(ValueError, match="post-change law is required"):
            worst_case_delay(det, PRE, None, trials=5, horizon=50, master_seed=1)

    def test_whole_float_change_points_label_and_run_as_ints(self):
        det = CusumDetector(PRE, POST, 2.5)
        got = trial_plans("worst_case", det, PRE, POST, 50, change_points=[2.0, 3])
        want = trial_plans("worst_case", det, PRE, POST, 50, change_points=[2, 3])
        assert [label for label, _ in got] == ["nu2_natural_", "nu2_pinned_", "nu3_natural_", "nu3_pinned_"]
        assert got == want
        assert FixedChange(4.0) == FixedChange(4)

    @pytest.mark.parametrize("change_points, message", [
        ([1.5], "change_points must be a whole number, got 1.5"),
        ([], "change_points must name at least one change point")])
    def test_invalid_change_points_raise(self, change_points, message):
        det = CusumDetector(PRE, POST, 2.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            worst_case_delay(det, PRE, POST, trials=5, horizon=50, master_seed=1, change_points=change_points)

    @pytest.mark.parametrize("point", [0, 51])
    def test_a_change_point_outside_the_horizon_raises(self, point):
        det = CusumDetector(PRE, POST, 2.5)
        with pytest.raises(ValueError, match=f"^change point {point} outside 1..horizon$"):
            worst_case_delay(det, PRE, POST, trials=5, horizon=50, master_seed=1, change_points=[2, point])

    @pytest.mark.parametrize("obj, want", [
        ({"type": "fixed", "nu": 4}, FixedChange(4)),
        ({"type": "drawn", "prior": {"type": "geometric", "rho": 0.1}}, DrawnChange(GeometricPrior(0.1))),
        ({"type": "nochange"}, NoChange())])
    def test_change_from_dict(self, obj, want):
        assert change_from_dict(obj) == want

    def test_an_unknown_change_type_raises(self):
        with pytest.raises(ValueError, match="^unknown change spec type 'sudden'$"):
            change_from_dict({"type": "sudden", "nu": 4})

    def test_a_fixed_change_point_must_be_whole(self):
        with pytest.raises(ValueError, match="^change point must be a whole number, got 2.5$"):
            FixedChange(2.5)

    def test_pfa_without_a_prior_raises(self):
        det = ShiryaevDetector(PRE, POST, 0.05, 0.99)
        with pytest.raises(ValueError, match="prior"):
            estimate_pfa(det, PRE, None, 20, 100, master_seed=1)


class TestTrialClock:
    def test_trials_start_at_the_plan_clock_whatever_the_detector_clock(self):
        pre, post = gaussian_law([0.0, 5.0, 0.0, 5.0]), gaussian_law([1.0, 6.0, 1.0, 6.0])
        reports = {start: estimate_add(CusumDetector(pre, post, 3.0, start_time=start), pre, post,
                                       FixedChange(3), 200, 60, master_seed=1).to_dict()
                   for start in (0, 1, 4)}
        assert reports[1] == reports[0] and reports[4] == reports[0]
        assert TrialPlan(pre, post, FixedChange(3), 60).start_time == 0

    @pytest.mark.parametrize("estimate", [
        lambda det: estimate_arl(det, PRE, 5, 50, master_seed=1),
        lambda det: estimate_pfa(det, PRE, GeometricPrior(0.1), 5, 50, master_seed=1),
        lambda det: estimate_add(det, PRE, POST, FixedChange(3), 5, 50, master_seed=1),
        lambda det: worst_case_delay(det, PRE, POST, trials=5, horizon=50, master_seed=1),
    ], ids=["arl", "pfa", "add", "worst_case"])
    def test_the_multistream_detector_is_rejected(self, estimate):
        config = MultistreamConfig(streams=((PRE, POST),), candidates=(frozenset({0}),), weights=(1.0,))
        with pytest.raises(ValueError, match="^evaluate draws one stream per trial, so the multistream "
                                             "detector is not supported$"):
            estimate(MultistreamMixture(config, 0.1, 20.0))


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

    @pytest.mark.parametrize("law", [gaussian_law([0.0, 100.0]),
                                     IpidLaw(2, (Gaussian(0.0, 1.0), Poisson(100.0)))])
    def test_sample_law_start_slot(self, law):
        obs = sample_law(trial_rng(1), law, 4, start_slot=1)
        assert obs[0] > 50.0 and obs[2] > 50.0
        assert obs[1] < 50.0 and obs[3] < 50.0

    @pytest.mark.parametrize("post", [gaussian_law([1.0, 2.0, 3.0]), gaussian_law([1.0])])
    def test_laws_of_different_periods_rejected(self, post):
        with pytest.raises(ValueError, match="^pre and post laws must share one period$"):
            sample_with_change(trial_rng(1), gaussian_law([0.0, 100.0]), post, 3, 8)

    def test_a_plan_rejects_a_post_law_of_another_period_it_never_draws(self):
        with pytest.raises(ValueError, match="^pre and post laws must share one period$"):
            TrialPlan(PRE, gaussian_law([1.0]), NoChange(), 10)


# ---------------------------------------------------------------- engine oracle
# The per-trial loop every estimator ran before the trial engine existed, with
# the sampling code of that time, kept as the reference: trial_rng -> sample ->
# fresh().run_to_alarm.


def _ref_sample_law(rng, law, n, start_slot=0):
    if n <= 0:
        return np.empty(0)
    slots = (start_slot + np.arange(n)) % law.period
    if all(isinstance(d, Gaussian) for d in law.slots):
        means = np.array([d.mean for d in law.slots])
        stds = np.array([math.sqrt(d.variance) for d in law.slots])
        return means[slots] + stds[slots] * rng.standard_normal(n)
    out = np.empty(n)
    for s in range(law.period):
        idx = np.nonzero(slots == s)[0]
        if idx.size:
            out[idx] = np.asarray(law.slots[s].sample(rng, idx.size), dtype=float)
    return out


def _ref_sample_with_change(rng, pre, post, nu, horizon, start=0):
    if horizon <= start:
        return np.empty(0)
    times = np.arange(start + 1, horizon + 1)
    slots = (times - 1) % pre.period
    pre_mask = times < nu
    if post is None or pre_mask.all():
        return _ref_sample_law(rng, pre, times.size, start_slot=start % pre.period)
    if all(isinstance(d, Gaussian) for law in (pre, post) for d in law.slots):
        means = np.where(pre_mask, np.array([d.mean for d in pre.slots])[slots],
                         np.array([d.mean for d in post.slots])[slots])
        stds = np.where(pre_mask, np.array([math.sqrt(d.variance) for d in pre.slots])[slots],
                        np.array([math.sqrt(d.variance) for d in post.slots])[slots])
        return means + stds * rng.standard_normal(times.size)
    out = np.empty(times.size)
    for law, mask in ((pre, pre_mask), (post, ~pre_mask)):
        for s in range(law.period):
            idx = np.nonzero(mask & (slots == s))[0]
            if idx.size:
                out[idx] = np.asarray(law.slots[s].sample(rng, idx.size), dtype=float)
    return out


def _ref_nu(rng, change):
    if isinstance(change, FixedChange):
        return change.nu
    if isinstance(change, DrawnChange):
        return change.prior.sample(rng)
    return math.inf


def reference_trials(arm, detector, trials, seed, horizon, *, pre=None, post=None, change=None,
                     prior=None, true_class=None, nu=None):
    """Per-trial (nu, tau, decided class) as the pre-engine loop of ``arm`` computed them."""
    rows = []
    for i in range(trials):
        rng = trial_rng(seed, i)
        start_time = None
        if arm == "pfa":
            nu_i = prior.sample(rng)
            obs = _ref_sample_law(rng, pre, min(nu_i - 1, horizon))
        elif arm == "add":
            nu_i = _ref_nu(rng, change)
            obs = _ref_sample_with_change(rng, pre, post, nu_i, horizon)
        elif arm == "arl":
            nu_i = math.inf
            obs = _ref_sample_law(rng, pre, horizon)
        elif arm == "misclass":
            nu_i = 1
            obs = _ref_sample_law(rng, detector.bank.laws[true_class], horizon)
        else:  # the pinned arm of worst_case_delay
            nu_i, start_time = nu, nu - 1
            obs = _ref_sample_law(rng, post, horizon - nu + 1, start_slot=(nu - 1) % post.period)
        hit = detector.fresh(start_time=start_time).run_to_alarm(obs)
        rows.append((nu_i, math.nan if hit is None else hit.time_index,
                     0 if hit is None or hit.decided_class is None else hit.decided_class))
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


POIS_PRE = IpidLaw(3, (Poisson(2.0), Poisson(5.0), Poisson(3.0)))
POIS_POST = IpidLaw(3, (Poisson(4.0), Poisson(8.0), Poisson(6.0)))
FAR = gaussian_law([10.0, 10.5, 11.0, 10.5])
MIXED_PRE = IpidLaw(3, (Gaussian(0.0, 1.0), Poisson(3.0), Gaussian(1.0, 2.0)))
MIXED_POST = IpidLaw(3, (Gaussian(1.0, 1.0), Poisson(6.0), Gaussian(2.0, 2.0)))
ORACLE_BANK = ClassBank(1, (gaussian_law([0.0]), gaussian_law([1.0]), gaussian_law([2.0])))
# period 3, so a chunk of 64 draws ends mid-period
ORACLE_BANK3 = ClassBank(3, tuple(gaussian_law(m) for m in ([0.0, 0.5, 1.0], [0.7, 1.2, 1.7],
                                                            [-0.7, -0.2, 0.3], [0.7, 1.2, 0.3])))
# adjacent classes 0.25 sd apart, so alarms take hundreds of samples
SLOW_BANK = ClassBank(1, (gaussian_law([0.0]), gaussian_law([0.25]), gaussian_law([0.5])))
POIS_BANK = ClassBank(3, (POIS_PRE, POIS_POST, IpidLaw(3, (Poisson(1.0), Poisson(7.0), Poisson(3.0)))))
# rates 10-20% apart, so alarms take a median of about 150 samples
SLOW_POIS_BANK = ClassBank(3, (POIS_PRE, IpidLaw(3, (Poisson(2.4), Poisson(5.6), Poisson(3.4))),
                               IpidLaw(3, (Poisson(1.7), Poisson(4.5), Poisson(2.6)))))
ORACLE_MEANS = np.sin(math.pi * (np.arange(24) + 0.5) / 24)
ORACLE_FAMILY = MultislotFamily(24, gaussian_law(ORACLE_MEANS), gaussian_law(ORACLE_MEANS + 0.5),
                                tuple(frozenset(range(k, k + 4)) for k in range(0, 24, 4)), (1 / 6,) * 6)


class TestSamplerOracle:
    # (nu, horizon, start): starts past 0, fractional and negative change points, change points at
    # or before the start, past the horizon, and horizons at or before the start
    INPUTS = [(5, 20, 0), (5, 20, 3), (6.5, 20, 2), (-2.5, 12, 0), (-3, 12, 4), (3, 12, 3), (2, 12, 7),
              (7.25, 13, 7), (math.inf, 12, 4), (30, 20, 5), (20.5, 20, 1), (21, 20, 0), (4, 3, 3), (4, 2, 5)]

    @pytest.mark.parametrize("pre, post", [(PRE, POST), (PRE, None), (POIS_PRE, POIS_POST),
                                           (MIXED_PRE, MIXED_POST), (MIXED_PRE, None),
                                           (POIS_PRE, IpidLaw(3, (Gaussian(2.0, 1.0),) * 3)),
                                           (IpidLaw(3, (Gaussian(2.0, 1.0),) * 3), POIS_POST)])
    def test_sample_with_change_equals_the_reference(self, pre, post):
        for k, (nu, horizon, start) in enumerate(self.INPUTS):
            got_rng, want_rng = trial_rng(k, 1), trial_rng(k, 1)
            got = sample_with_change(got_rng, pre, post, nu, horizon, start=start)
            want = _ref_sample_with_change(want_rng, pre, post, nu, horizon, start=start)
            np.testing.assert_array_equal(got, want, err_msg=str((nu, horizon, start)))
            assert got_rng.random(4).tolist() == want_rng.random(4).tolist()  # as many bits drawn


def _oracle_cases():
    shq = ShiryaevDetector(PRE, POST, 0.05, 0.99)
    cases = [
        ("pfa", shq, 60, dict(pre=PRE, prior=GeometricPrior(0.05))),
        # alarms at the first sample it sees, so one sample drawn past nu - 1 would show
        ("pfa", ShiryaevDetector(PRE, POST, 0.3, 0.0), 60, dict(pre=PRE, prior=GeometricPrior(0.3))),
        ("pfa", shq, 60, dict(pre=PRE, prior=ExplicitPrior((0.2, 0.3, 0.5)))),
        ("add", shq, 200, dict(pre=PRE, post=POST, change=FixedChange(3))),
        ("add", shq, 200, dict(pre=PRE, post=POST, change=DrawnChange(GeometricPrior(0.05)))),
        ("add", shq, 200, dict(pre=PRE, post=POST, change=NoChange())),
        ("arl", CusumDetector(PRE, POST, 3.0), 300, dict(pre=PRE)),
        # a change 10 sd away at sample 4500 is detected at once, past the 4096-sample scan block
        ("add", CusumDetector(PRE, FAR, 20.0), 6000, dict(pre=PRE, post=FAR, change=FixedChange(4500))),
    ]
    for pre, post in ((POIS_PRE, POIS_POST), (MIXED_PRE, MIXED_POST)):
        det = CusumDetector(pre, post, 4.0)
        cases += [("pfa", ShiryaevDetector(pre, post, 0.05, 0.9), 100,
                   dict(pre=pre, prior=GeometricPrior(0.05))),
                  ("add", det, 100, dict(pre=pre, post=post, change=FixedChange(1))),
                  ("add", det, 100, dict(pre=pre, post=post, change=FixedChange(5))),
                  ("add", det, 100, dict(pre=pre, post=post, change=DrawnChange(GeometricPrior(0.1)))),
                  ("arl", det, 300, dict(pre=pre)),
                  ("worst_case", det, 100, dict(pre=pre, post=post))]
    # Gaussian and Poisson laws on either side of the change; the detector scores both
    g3 = IpidLaw(3, (Gaussian(2.0, 1.0), Gaussian(5.0, 1.0), Gaussian(3.0, 1.0)))
    det = CusumDetector(g3, IpidLaw(3, tuple(Gaussian(d.mean + 1.0, 1.0) for d in g3.slots)), 4.0)
    cases += [("add", det, 100, dict(pre=g3, post=POIS_POST, change=FixedChange(200))),
              ("add", det, 100, dict(pre=g3, post=POIS_POST, change=FixedChange(4))),
              ("add", det, 100, dict(pre=POIS_PRE, post=g3, change=FixedChange(1)))]
    for window in (None, 30):
        det = ClassifierBankDetector(ORACLE_BANK, 6.0, window=window)
        cases.append(("misclass", det, 200, dict(true_class=2)))
    cases.append(("worst_case", CusumDetector(PRE, POST, 2.5), 100,
                  dict(pre=PRE, post=POST, change_points=[1, 2, 7])))
    # K = 6 components, as in the mixture benchmark
    mix_post = post_change_law(ORACLE_FAMILY, [4, 5, 6, 7])
    cases.append(("add", MixtureShiryaev(ORACLE_FAMILY, 0.01, 200.0), 300,
                  dict(pre=ORACLE_FAMILY.base_pre, post=mix_post, change=FixedChange(40))))
    # the posterior-odds scan carries each trial's log-odds into its second block, mid-climb
    cases.append(("add", ShiryaevDetector(PRE, POST, 1e-5, 1 - 1e-9), 9000,
                  dict(pre=PRE, post=POST, change=FixedChange(4000))))
    # a zero (the padding of a short trial in a batch) looks post-change to these detectors
    for det in (ShiryaevDetector(FAR, PRE, 0.05, 0.9), CusumDetector(FAR, PRE, 3.0)):
        cases.append(("pfa", det, 400, dict(pre=FAR, prior=GeometricPrior(0.05), trials=100)))
    # alarms after the classifier's first chunk of draws
    cases.append(("misclass", ClassifierBankDetector(ORACLE_BANK3, 14.0, window=50), 400, dict(true_class=2)))
    # per-slot thresholds, so the pinned arm's start offsets into the threshold run
    per_slot = PeriodicThresholds((0.9, 0.99, 0.95, 0.999))
    cases.append(("worst_case", ShiryaevDetector(PRE, POST, 0.05, per_slot), 100, dict(pre=PRE, post=POST)))
    # enough trials for several length buckets, one of them over its batch cap
    cases.append(("pfa", ShiryaevDetector(PRE, POST, 0.05, 0.9), 400,
                  dict(pre=PRE, prior=GeometricPrior(0.05), trials=600)))
    cases.append(("add", shq, 200, dict(pre=PRE, post=POST, change=FixedChange(3), trials=1)))
    # every trial has zero length: nu = 1, so pfa draws nothing
    cases.append(("pfa", shq, 60, dict(pre=PRE, prior=ExplicitPrior((1.0,)))))
    # the classifier's rounds: the full history, and alarms after the third round (past 448 draws),
    # over several groups of trials
    cases.append(("misclass", ClassifierBankDetector(SLOW_BANK, 14.0), 1500, dict(true_class=2)))
    cases.append(("misclass", ClassifierBankDetector(SLOW_BANK, 12.0, window=300), 1500,
                  dict(true_class=2, trials=150)))
    # a window of 5, where the bound is loose and candidate columns fail
    cases.append(("misclass", ClassifierBankDetector(ORACLE_BANK3, 4.0, window=5), 400, dict(true_class=3)))
    # counts: each trial draws its whole stream, over several groups
    cases.append(("misclass", ClassifierBankDetector(POIS_BANK, 8.0, window=40), 100,
                  dict(true_class=1, trials=100)))
    # trials censored at the horizon
    cases.append(("misclass", ClassifierBankDetector(ORACLE_BANK3, 14.0, window=50), 70, dict(true_class=2)))
    # pinned and natural arms; pfa trials of every length, some of none
    bank_det = ClassifierBankDetector(ORACLE_BANK3, 8.0, window=20)
    cases.append(("worst_case", bank_det, 200, dict(pre=ORACLE_BANK3.laws[0], post=ORACLE_BANK3.laws[2],
                                                    change_points=[1, 2, 5])))
    cases.append(("pfa", bank_det, 100, dict(pre=ORACLE_BANK3.laws[0], prior=GeometricPrior(0.05))))
    # counts past the first round: each round redraws its trial's whole stream and keeps its own
    # draws, and later rounds fill their buckets
    cases.append(("misclass", ClassifierBankDetector(SLOW_POIS_BANK, 6.0, window=100), 600,
                  dict(true_class=1, trials=80)))
    return cases


class TestTrialEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", range(len(_oracle_cases())))
    def test_engine_equals_the_per_trial_loop(self, case, workers):
        metric, det, horizon, inputs = _oracle_cases()[case]
        trials, seed = inputs.pop("trials", 12), 700 + case
        plans = trial_plans(metric, det, inputs.get("pre"), inputs.get("post"), horizon,
                            change=inputs.get("change"), prior=inputs.get("prior"),
                            true_class=inputs.get("true_class"),
                            change_points=inputs.get("change_points"))
        assert len(plans) == (1 if metric != "worst_case" else 2 * len(
            inputs.get("change_points") or range(inputs["pre"].period)))
        for label, plan in plans:
            arm, ref_inputs = metric, dict(inputs)
            ref_inputs.pop("change_points", None)
            if label.endswith("_natural_"):
                arm, ref_inputs["change"] = "add", plan.change
            elif label.endswith("_pinned_"):
                arm, ref_inputs["nu"] = "pinned", plan.change.nu
            expected = reference_trials(arm, det, trials, seed, horizon, **ref_inputs)
            got = run_trials(det, plan, trials, seed, workers=workers)
            for name, want, have in zip(("nu", "tau", "class"), expected, got):
                np.testing.assert_array_equal(have, want, err_msg=f"{label or metric}: {name}")

    def test_long_horizon_case_alarms_in_the_second_scan_block(self):
        [case] = [i for i, c in enumerate(_oracle_cases())
                  if c[2] > 4096 and isinstance(c[1], CusumDetector)]
        metric, det, horizon, inputs = _oracle_cases()[case]
        [(_, plan)] = trial_plans(metric, det, inputs["pre"], inputs["post"], horizon,
                                  change=inputs["change"])
        _, tau, _ = run_trials(det, plan, 12, 700 + case)
        assert np.all((tau >= 4500) & (tau < 4600))

    def test_oracle_spans_the_batch_structure(self):
        # lengths of the 600-trial pfa case: at least 4 buckets of width 2^b, one over its cap
        [case] = [i for i, c in enumerate(_oracle_cases()) if c[3].get("trials") == 600]
        _, det, horizon, inputs = _oracle_cases()[case]
        [(_, plan)] = trial_plans("pfa", det, inputs["pre"], None, horizon, prior=inputs["prior"])
        sizes = [plan.draw(700 + case, i)[1].size for i in range(600)]
        buckets = np.bincount([(n - 1).bit_length() for n in sizes if n])
        assert np.count_nonzero(buckets) >= 4
        assert any(count > max(1, _SCAN_CHUNK >> b) for b, count in enumerate(buckets))

    def test_oracle_cases_reach_past_the_first_block(self):
        cases = _oracle_cases()
        [odds] = [i for i, c in enumerate(cases) if c[2] > 4096 and isinstance(c[1], ShiryaevDetector)]
        _, det, horizon, inputs = cases[odds]
        [(_, plan)] = trial_plans("add", det, inputs["pre"], inputs["post"], horizon, change=inputs["change"])
        _, tau, _ = run_trials(det, plan, 12, 700 + odds)
        assert np.all((tau > 4096) & (tau < 4500))  # the climb from nu = 4000 spans the block edge
        [bank] = [i for i, c in enumerate(cases)
                  if c[0] == "misclass" and c[1].period == 3 and c[1].window == 50 and c[2] == 400]
        _, det, horizon, inputs = cases[bank]
        [(_, plan)] = trial_plans("misclass", det, None, None, horizon, true_class=2)
        _, tau, _ = run_trials(det, plan, 12, 700 + bank)
        assert np.nanmax(tau) > 64  # some trial draws a second chunk

    @pytest.mark.parametrize("seed, i", [(-3, 5), (7, 2**32 + 9), (2**64 + 1, 2**64 - 1)])
    def test_rekeyed_stream_equals_trial_rng(self, seed, i):
        def draws(rng):
            return (rng.geometric(0.05), rng.standard_normal(7).tolist(), rng.poisson(3.0, 5).tolist(),
                    rng.integers(0, 10, size=3, dtype=np.uint32).tolist())

        rekey = _trial_streams(seed)
        # the trial before leaves half of a 64-bit draw held and the Philox buffer part-used
        before = rekey(i + 1)
        before.integers(0, 10, size=3, dtype=np.uint32)
        assert before.bit_generator.state["has_uint32"] == 1
        assert draws(rekey(i)) == draws(trial_rng(seed, i))

    def test_peak_memory_does_not_grow_with_trials(self):
        det = ShiryaevDetector(PRE, POST, 0.0005, 0.999)
        [(_, plan)] = trial_plans("pfa", det, PRE, None, 3000, prior=GeometricPrior(0.0005))
        peaks = {}
        for trials in (100, 1000):
            tracemalloc.start()
            run_trials(det, plan, trials, 5)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # holding every trial's draws would add 900 trials x about 1500 samples x 8 bytes (10 MB);
        # the per-trial output arrays add 900 x 3 x 8 bytes
        assert peaks[1000] - peaks[100] < 900 * 3 * 8 + 512 * 1024, peaks

    def test_classifier_cases_reach_their_rounds(self, monkeypatch):
        cases = _oracle_cases()

        def outcome(pick):
            [case] = [i for i, c in enumerate(cases) if c[0] == "misclass" and pick(c[1], c[2])]
            _, det, horizon, inputs = cases[case]
            [(_, plan)] = trial_plans("misclass", det, None, None, horizon, true_class=inputs["true_class"])
            return run_trials(det, plan, inputs.get("trials", 12), 700 + case)

        assert np.nanmax(outcome(lambda det, h: det.window == 300)[1]) > 448  # a fourth round
        assert np.isnan(outcome(lambda det, h: h == 70)[1]).any()  # censored at the horizon
        # window 5: more windowed statistics evaluated than trials alarm, so candidates failed
        evaluated = []
        window_stats = ClassifierBankDetector._window_stats

        def counted(det, line, rows, cols):
            evaluated.append(rows.size)
            return window_stats(det, line, rows, cols)

        monkeypatch.setattr(ClassifierBankDetector, "_window_stats", counted)
        _, tau, _ = outcome(lambda det, h: det.window == 5)
        assert sum(evaluated) > 2 * np.count_nonzero(~np.isnan(tau))

    def test_misclass_never_runs_a_trial_alone(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the engine ran a classifier trial on its own")

        monkeypatch.setattr(ClassifierBankDetector, "run_to_alarm", refuse)
        det = ClassifierBankDetector(ORACLE_BANK3, 14.0, window=50)
        assert estimate_misclass(det, 2, 200, 400, 3).details["alarmed_trials"] > 0

    def test_misclass_peak_memory_does_not_grow_with_trials(self):
        det = ClassifierBankDetector(SLOW_BANK, 12.0, window=50)
        [(_, plan)] = trial_plans("misclass", det, None, None, 1500, true_class=2)
        peaks = {}
        for trials in (100, 1000):
            tracemalloc.start()
            run_trials(det, plan, trials, 5)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # holding every trial's draws and pair scores would add 900 trials x 1500 x 10 x 8 bytes
        assert peaks[1000] - peaks[100] < 900 * 3 * 8 + 512 * 1024, peaks

    def test_odds_and_cusum_trials_are_drawn_once(self, monkeypatch):
        rekeyed = []

        def counted(seed):
            rekey = _trial_streams(seed)

            def counting(i):
                rekeyed.append(i)
                return rekey(i)

            return counting

        monkeypatch.setattr("periodetect.simulate._trial_streams", counted)
        for det in (ShiryaevDetector(PRE, POST, 0.05, 0.9), CusumDetector(PRE, POST, 3.0)):
            for metric, post, kw in (("pfa", None, dict(prior=GeometricPrior(0.02))),
                                     ("add", POST, dict(change=FixedChange(100)))):
                [(_, plan)] = trial_plans(metric, det, PRE, post, 300, **kw)
                rekeyed.clear()
                run_trials(det, plan, 200, 3)
                assert sorted(rekeyed) == list(range(200)), (type(det).__name__, metric)

    def test_later_rounds_flush_full_buckets_before_the_drain(self, monkeypatch):
        # a bucket is scanned as soon as it holds _SCAN_CHUNK draws, so a later-round scan that
        # large came from a full bucket, not from the drain at the end
        cases = _oracle_cases()
        [case] = [i for i, c in enumerate(cases) if c[0] == "misclass" and c[1].bank is SLOW_POIS_BANK]
        _, det, horizon, inputs = cases[case]
        full = []
        scan_rows = ClassifierBankDetector._scan_rows

        def counted(self, z, lengths, *held):
            full.append(bool(held) and z.shape[1] << int(lengths.max() - 1).bit_length() >= _SCAN_CHUNK)
            return scan_rows(self, z, lengths, *held)

        monkeypatch.setattr(ClassifierBankDetector, "_scan_rows", counted)
        [(_, plan)] = trial_plans("misclass", det, None, None, horizon, true_class=inputs["true_class"])
        run_trials(det, plan, inputs["trials"], 700 + case)
        assert sum(full) >= 2

    def test_every_scan_runs_at_one_stack_depth(self, monkeypatch):
        # a bucket that fills while another is scanned waits on the work list, so no scan runs
        # inside another and the matrices of one are freed before the next
        cases = _oracle_cases()
        [case] = [i for i, c in enumerate(cases) if c[0] == "misclass" and c[1].bank is SLOW_POIS_BANK]
        _, det, horizon, inputs = cases[case]
        depths, later = [], []
        scan_rows = ClassifierBankDetector._scan_rows

        def measured(self, z, lengths, *held):
            frame, depth = sys._getframe(), 0
            while frame is not None:
                frame, depth = frame.f_back, depth + 1
            depths.append(depth)
            later.append(bool(held))
            return scan_rows(self, z, lengths, *held)

        monkeypatch.setattr(ClassifierBankDetector, "_scan_rows", measured)
        [(_, plan)] = trial_plans("misclass", det, None, None, horizon, true_class=inputs["true_class"])
        run_trials(det, plan, inputs["trials"], 700 + case)
        assert sum(later) >= 2 and not all(later)  # later rounds as well as first ones
        assert len(set(depths)) == 1, depths

    def test_misclass_counts_hold_no_whole_streams(self, monkeypatch):
        horizon = 200_000
        det = ClassifierBankDetector(SLOW_POIS_BANK, 6.0, window=100)
        [(_, plan)] = trial_plans("misclass", det, None, None, horizon, true_class=1)
        held = []
        scan_rows = ClassifierBankDetector._scan_rows

        def measured(self, *args):
            held.append(tracemalloc.get_traced_memory()[0])  # what the engine holds while it scans
            return scan_rows(self, *args)

        run_trials(det, plan, 1, 5)  # imports done outside the trace
        monkeypatch.setattr(ClassifierBankDetector, "_scan_rows", measured)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        _, tau, _ = run_trials(det, plan, 30, 5)
        tracemalloc.stop()
        assert np.nanmax(tau) > 192  # some trials redraw their stream for a third round
        # one whole stream is horizon x 8 bytes (1.6 MB); a bucket of first rounds holds 64 x 64 draws
        assert max(held) - base < horizon * 8 // 2, held

    def test_plans_are_labelled_for_the_dump(self):
        det = CusumDetector(PRE, POST, 2.5)
        labels = [label for label, _ in trial_plans("worst_case", det, PRE, POST, 50, change_points=[2, 3])]
        assert labels == ["nu2_natural_", "nu2_pinned_", "nu3_natural_", "nu3_pinned_"]
        assert [label for label, _ in trial_plans("arl", det, PRE, None, 50)] == [""]
