import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from periodetect import information, simulate
from periodetect.cli import (
    _READ_BLOCK,
    _predicted_for,
    build_parser,
    main,
    read_observations_csv,
    write_observations_csv,
)
from periodetect.densities import Gaussian
from periodetect.detectors import (
    _ROW_BLOCK,
    ClassifierBankDetector,
    CusumDetector,
    MixtureShiryaev,
    MultistreamMixture,
    ShiryaevDetector,
    run,
)
from periodetect.model import ClassBank, GeometricPrior, IpidLaw, MultislotFamily, MultistreamConfig
from periodetect.simulate import FixedChange, NoChange, TrialPlan, generate_multistream, run_trials, trial_plans
from test_detectors import csv_writer_trajectory


def gaussian_law_dict(means, variance=1.0):
    return {"period": len(means),
            "slots": [{"type": "gaussian", "mean": float(m), "variance": variance} for m in means]}


@pytest.fixture
def models(tmp_path):
    pre = gaussian_law_dict([0.0, 0.5, 1.0, 0.5])
    post = gaussian_law_dict([0.5, 1.0, 1.5, 1.0])
    pre_path = tmp_path / "pre.json"
    post_path = tmp_path / "post.json"
    pre_path.write_text(json.dumps(pre))
    post_path.write_text(json.dumps(post))
    return pre_path, post_path


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulateAndDetect:
    def test_pipeline_and_rerun_identical(self, tmp_path, models, capsys):
        pre_path, post_path = models
        scenario = {
            "pre": json.loads(pre_path.read_text()),
            "post": json.loads(post_path.read_text()),
            "change": {"type": "fixed", "nu": 40},
            "horizon": 200,
            "seed": 7,
        }
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(scenario))
        obs_path = tmp_path / "obs.csv"
        sum_path = tmp_path / "sim_summary.json"
        code, _, err = run_cli(
            ["simulate", "--scenario", sc_path, "--out", obs_path, "--summary", sum_path], capsys
        )
        assert code == 0, err
        summary = json.loads(sum_path.read_text())
        assert summary["realized_change_point"] == 40

        det_out = tmp_path / "detect.json"
        traj = tmp_path / "traj.csv"
        args = [
            "detect", "--detector", "shiryaev", "--model", pre_path, "--model2", post_path,
            "--prior-rho", "0.05", "--alpha", "0.01", "--input", obs_path,
            "--out", det_out, "--trajectory", traj,
        ]
        code, _, err = run_cli(args, capsys)
        assert code == 0, err
        report = json.loads(det_out.read_text())
        assert report["first_alarm"] is not None
        assert report["first_alarm"]["time_index"] >= 40
        first_bytes = det_out.read_bytes() + traj.read_bytes()

        code, _, _ = run_cli(args, capsys)
        assert code == 0
        assert det_out.read_bytes() + traj.read_bytes() == first_bytes

    def test_simulate_a_multistream_family_writes_generate_multistreams_matrix(self, tmp_path, capsys):
        config = DETECT_MODELS["multistream"]
        sc_path, out = tmp_path / "sc.json", tmp_path / "obs.csv"
        sc_path.write_text(json.dumps({"family": config, "changed_streams": [1],
                                       "change": {"type": "fixed", "nu": 30}, "horizon": 90, "seed": 4}))
        code, stdout, err = run_cli(["simulate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 0, err
        assert json.loads(stdout)["realized_change_point"] == 30
        obs, nu = generate_multistream(MultistreamConfig.from_dict(config), [1], FixedChange(30), 90, 4)
        write_observations_csv(tmp_path / "want.csv", obs)
        assert obs.shape == (90, 2) and nu == 30
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("horizon", [0, -4])
    @pytest.mark.parametrize("law", ["pre", "family"])
    def test_simulate_rejects_a_horizon_below_one_for_every_scenario(self, tmp_path, capsys, law, horizon):
        model = DETECT_MODELS["pre" if law == "pre" else "multistream"]
        sc_path, out = tmp_path / "sc.json", tmp_path / "obs.csv"
        sc_path.write_text(json.dumps({law: model, "horizon": horizon, "seed": 4}))
        code, _, err = run_cli(["simulate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "horizon must be >= 1"}
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["cusum", "mixture", "multistream", "classifier"])
    def test_detect_rejects_a_nan_threshold_before_any_file_opens(self, tmp_path, capsys, detect_models, kind):
        paths, _ = detect_models
        flags, _ = DETECT_KINDS[kind]
        at = flags.index("--threshold") + 1
        obs = tmp_path / "obs.csv"
        write_observations_csv(obs, np.zeros((5, 2)) if kind == "multistream" else np.zeros(5))
        out, traj = tmp_path / "out.json", tmp_path / "traj.csv"
        code, _, err = run_cli(["detect", "--detector", kind, *[paths.get(f, f) for f in flags[:at]], "nan",
                                *flags[at + 1:], "--input", obs, "--out", out, "--trajectory", traj], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "threshold must be a number other than NaN, got nan"}
        assert not out.exists() and not traj.exists()

    def test_simulate_needs_a_pre_change_law(self, tmp_path, capsys):
        sc_path, out = tmp_path / "sc.json", tmp_path / "obs.csv"
        sc_path.write_text(json.dumps({"post": gaussian_law_dict([1.0]), "horizon": 10}))
        code, _, err = run_cli(["simulate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "scenario needs a 'pre' law (or a family/bank that implies one)"}
        assert not out.exists()

    def test_simulate_without_a_change_never_changes(self, tmp_path, models, capsys):
        pre = json.loads(models[0].read_text())
        outputs = []
        for extra in ({}, {"change": {"type": "nochange"}}):
            sc_path, out = tmp_path / "sc.json", tmp_path / f"obs_{len(extra)}.csv"
            sc_path.write_text(json.dumps({"pre": pre, "horizon": 40, "seed": 2, **extra}))
            code, stdout, err = run_cli(["simulate", "--scenario", sc_path, "--out", out], capsys)
            assert code == 0, err
            assert json.loads(stdout)["realized_change_point"] is None
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        want = TrialPlan(IpidLaw.from_dict(pre), None, NoChange(), 40).draw(2, 0)[1]
        np.testing.assert_array_equal(read_observations_csv(tmp_path / "obs_0.csv"), want)

    @pytest.mark.parametrize("kind, columns, message", [
        ("multistream", 1, "multistream detection needs a multi-column observation file"),
        ("cusum", 2, "this detector consumes a single-column observation file")])
    def test_detect_needs_the_columns_its_detector_reads(self, tmp_path, capsys, detect_models, kind, columns,
                                                         message):
        paths, _ = detect_models
        obs = tmp_path / "obs.csv"
        write_observations_csv(obs, np.zeros((5, columns)) if columns > 1 else np.zeros(5))
        flags, _ = DETECT_KINDS[kind]
        out, traj = tmp_path / "out.json", tmp_path / "traj.csv"
        code, _, err = run_cli(["detect", "--detector", kind, *[paths.get(f, f) for f in flags],
                                "--input", obs, "--out", out, "--trajectory", traj], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out.exists() and not traj.exists()

    def test_empty_observation_file(self, tmp_path, models, capsys):
        pre_path, post_path = models
        obs_path = tmp_path / "empty.csv"
        obs_path.write_text("time,value\n")
        out = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["detect", "--detector", "cusum", "--model", pre_path, "--model2", post_path,
             "--beta", "100", "--input", obs_path, "--out", out], capsys)
        assert code == 0, err
        summary = json.loads(out.read_text())
        assert summary["n_observations"] == 0
        assert summary["first_alarm"] is None

    def test_malformed_csv_reports_line(self, tmp_path, models, capsys):
        pre_path, post_path = models
        obs_path = tmp_path / "bad.csv"
        obs_path.write_text("time,value\n1,0.5\n2,zz\n")
        out = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["detect", "--detector", "cusum", "--model", pre_path, "--model2", post_path,
             "--beta", "100", "--input", obs_path, "--out", out], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "line 3" in payload["message"]

    def test_count_off_the_poisson_support_fails_detect(self, tmp_path, capsys):
        pre_path, post_path = tmp_path / "pre.json", tmp_path / "post.json"
        pre_path.write_text(json.dumps({"period": 1, "slots": [{"type": "poisson", "rate": 2.0}]}))
        post_path.write_text(json.dumps({"period": 1, "slots": [{"type": "poisson", "rate": 4.0}]}))
        obs_path = tmp_path / "counts.csv"
        obs_path.write_text("time,value\n1,3\n2,-1\n3,2\n")
        out = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["detect", "--detector", "cusum", "--model", pre_path, "--model2", post_path,
             "--beta", "100", "--input", obs_path, "--out", out], capsys)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "Poisson support" in payload["message"]
        assert not out.exists()


class TestEvaluate:
    def make_scenario(self, tmp_path, models, metric, extra=None):
        pre_path, post_path = models
        scenario = {
            "metric": metric,
            "detector": {"kind": "shiryaev", "alpha": 0.05, "rho": 0.05},
            "pre": json.loads(pre_path.read_text()),
            "post": json.loads(post_path.read_text()),
            "prior": {"type": "geometric", "rho": 0.05},
            "change": {"type": "fixed", "nu": 1},
            "trials": 400,
            "horizon": 300,
            "seed": 5,
        }
        scenario.update(extra or {})
        path = tmp_path / f"eval_{metric}.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_pfa_report(self, tmp_path, models, capsys):
        sc = self.make_scenario(tmp_path, models, "pfa")
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["metric"] == "pfa"
        assert report["estimate"] <= 0.05 + 3 * report["std_error"]
        assert report["predicted"] == 0.05
        assert report["config"]["trials"] == 400

    def test_add_report_has_prediction(self, tmp_path, models, capsys):
        sc = self.make_scenario(tmp_path, models, "add")
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["metric"] == "add"
        assert report["predicted"] is not None and report["predicted"] > 0

    def test_zero_trials_rejected(self, tmp_path, models, capsys):
        sc = self.make_scenario(tmp_path, models, "pfa")
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            ["evaluate", "--scenario", sc, "--trials", "0", "--out", out], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"

    def test_worker_counts_agree(self, tmp_path, models, capsys):
        sc = self.make_scenario(tmp_path, models, "pfa")
        out1, out8 = tmp_path / "r1.json", tmp_path / "r8.json"
        code, _, _ = run_cli(["evaluate", "--scenario", sc, "--workers", "1", "--out", out1], capsys)
        assert code == 0
        code, _, _ = run_cli(["evaluate", "--scenario", sc, "--workers", "8", "--out", out8], capsys)
        assert code == 0
        r1, r8 = json.loads(out1.read_text()), json.loads(out8.read_text())
        for r in (r1, r8):
            r["config"].pop("workers")
            r["config"].pop("out")
        assert r1 == r8


class TestFitCommand:
    def test_fit_gaussian_long_format(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        values = (np.tile([0.0, 5.0], 100) + rng.normal(0, 0.1, 200)).tolist()
        csv_path = tmp_path / "train.csv"
        csv_path.write_text("time,value\n" + "\n".join(f"{i},{v}" for i, v in enumerate(values)) + "\n")
        out = tmp_path / "model.json"
        code, _, err = run_cli(
            ["fit", "--input", csv_path, "--format", "long", "--period", "2",
             "--family", "gaussian", "--out", out], capsys)
        assert code == 0, err
        law = IpidLaw.from_dict(json.loads(out.read_text()))
        assert abs(law.slots[0].mean - 0.0) < 0.05
        assert abs(law.slots[1].mean - 5.0) < 0.05

    @pytest.mark.parametrize("window, rates", [(2, [4.5, 2.0, 2.5, 3.5]), (3, [4.5, 2.0, 3.0, 3.5])])
    def test_fit_poisson_smooths_counts_to_observed_counts(self, tmp_path, capsys, window, rates):
        # a window of two counts, even one partial at a cycle start, takes the lower one
        csv_path = tmp_path / "counts.csv"
        counts = [3, 4, 5, 6, 6, 1, 2, 2]
        csv_path.write_text("time,value\n" + "\n".join(f"{i},{v}" for i, v in enumerate(counts)) + "\n")
        out = tmp_path / "model.json"
        code, _, err = run_cli(
            ["fit", "--input", csv_path, "--format", "long", "--period", "4", "--family", "poisson",
             "--smooth-window", window, "--out", out], capsys)
        assert code == 0, err
        assert [d.rate for d in IpidLaw.from_dict(json.loads(out.read_text())).slots] == rates

    @pytest.mark.parametrize("window", ["0", "-1"])
    def test_fit_rejects_a_smoothing_window_below_one(self, tmp_path, capsys, window):
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("time,value\n" + "\n".join(f"{i},{i % 4}" for i in range(16)) + "\n")
        out = tmp_path / "model.json"
        code, _, err = run_cli(
            ["fit", "--input", csv_path, "--format", "long", "--period", "4", "--family", "poisson",
             "--smooth-window", window, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "window must be >= 1"}
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_fit_long_rejects_a_non_finite_value_with_its_line(self, tmp_path, capsys, bad):
        csv_path = tmp_path / "train.csv"
        values = ["0.5", "1.0", "0.7", bad, "0.2", "0.9"]
        csv_path.write_text("time,value\n" + "\n".join(f"{i},{v}" for i, v in enumerate(values)) + "\n")
        out = tmp_path / "model.json"
        code, _, err = run_cli(["fit", "--input", csv_path, "--format", "long", "--period", "2",
                                "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"line 5: value must be finite, got '{bad}'"}
        assert not out.exists()

    def test_fit_cycles_rejects_a_non_finite_value_with_its_line(self, tmp_path, capsys):
        csv_path = tmp_path / "cycles.csv"
        csv_path.write_text("0.5,1.0\n0.7,nan\n0.2,0.9\n")
        out = tmp_path / "model.json"
        code, _, err = run_cli(["fit", "--input", csv_path, "--format", "cycles", "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "line 2: values must be finite"}
        assert not out.exists()

    def test_fit_respects_config_file_with_flag_override(self, tmp_path, capsys):
        csv_path = tmp_path / "train.csv"
        csv_path.write_text("time,value\n" + "\n".join(f"{i},{i % 3}" for i in range(30)) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "long", "period": 5, "family": "poisson"}))
        out = tmp_path / "model.json"
        code, _, err = run_cli(
            ["fit", "--config", cfg, "--input", csv_path, "--period", "3", "--out", out], capsys)
        assert code == 0, err
        payload = json.loads(out.read_text())
        assert payload["period"] == 3  # flag wins over config file
        assert payload["config"]["family"] == "poisson"  # config fills the gap


class TestInfoAndLfl:
    def test_info_report(self, tmp_path, models, capsys):
        pre_path, post_path = models
        code, out, err = run_cli(
            ["info", "--model", pre_path, "--model2", post_path, "--out", "-"], capsys)
        assert code == 0, err
        payload = json.loads(out)
        assert payload["aggregate"] == pytest.approx(0.125)
        assert len(payload["per_slot_kl"]) == 4

    def test_info_on_a_multistream_family(self, tmp_path, capsys):
        fam_path = tmp_path / "streams.json"
        fam_path.write_text(json.dumps(DETECT_MODELS["multistream"]))
        code, out, err = run_cli(["info", "--family", fam_path, "--out", "-"], capsys)
        assert code == 0, err
        config = MultistreamConfig.from_dict(DETECT_MODELS["multistream"])
        assert json.loads(out)["multistream"] == [
            {"streams": streams, "info": information.info_multistream(config, streams)}
            for streams in ([0], [1], [0, 1])]
        assert "multislot" not in json.loads(out)

    def test_lfl_select_and_validate(self, tmp_path, capsys):
        pre = gaussian_law_dict([0.0], variance=0.04)
        pre_path = tmp_path / "pre.json"
        pre_path.write_text(json.dumps(pre))
        family = {"period": 1, "slots": [{
            "type": "interval",
            "boundary": {"type": "gaussian", "mean": 0.1, "variance": 0.04},
            "direction": "ge",
        }]}
        fam_path = tmp_path / "family.json"
        fam_path.write_text(json.dumps(family))
        lfl_path = tmp_path / "lfl.json"
        code, _, err = run_cli(
            ["lfl", "select", "--model", pre_path, "--family", fam_path, "--out", lfl_path], capsys)
        assert code == 0, err
        law = IpidLaw.from_dict(json.loads(lfl_path.read_text()))
        assert law.slots[0] == Gaussian(0.1, 0.04)

        code, out, err = run_cli(
            ["lfl", "validate", "--model", pre_path, "--model2", lfl_path,
             "--family", fam_path, "--out", "-"], capsys)
        assert code == 0, err
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("action", ["select", "validate"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_lfl_samples_below_one_rejected(self, tmp_path, capsys, action, samples):
        pre_path, fam_path = tmp_path / "pre.json", tmp_path / "family.json"
        pre_path.write_text(json.dumps(gaussian_law_dict([0.0])))
        fam_path.write_text(json.dumps({"period": 1, "slots": [{"type": "finite", "candidates": [
            {"type": "poisson", "rate": 1.5}, {"type": "poisson", "rate": 2.0}]}]}))
        out = tmp_path / "lfl.json"
        code, _, err = run_cli(["lfl", action, "--model", pre_path, "--model2", pre_path, "--family", fam_path,
                                "--samples", samples, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"samples must be >= 1, got {samples}"}
        assert not out.exists()

    def test_lfl_select_failure_is_machine_readable(self, tmp_path, capsys):
        pre_path = tmp_path / "pre.json"
        pre_path.write_text(json.dumps(gaussian_law_dict([0.0])))
        family = {"period": 1, "slots": [{"type": "finite", "candidates": [
            {"type": "gaussian", "mean": 1.0, "variance": 1.0},
            {"type": "gaussian", "mean": -1.0, "variance": 1.0},
        ]}]}
        fam_path = tmp_path / "family.json"
        fam_path.write_text(json.dumps(family))
        code, _, err = run_cli(
            ["lfl", "select", "--model", pre_path, "--family", fam_path, "--out", "-"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "NoLeastFavorableError"


class TestTrafficStyleRun:
    def test_poisson_daily_cycle_cusum(self, tmp_path, capsys):
        # 288 five-minute bins per day; weekend-like drop detected by the score test
        period = 288
        base = [5.0 + 4.0 * np.sin(np.pi * i / period) ** 2 for i in range(period)]
        weekday = {"period": period,
                   "slots": [{"type": "poisson", "rate": r} for r in base]}
        weekend = {"period": period,
                   "slots": [{"type": "poisson", "rate": max(0.5, 0.5 * r)} for r in base]}
        pre_path, post_path = tmp_path / "weekday.json", tmp_path / "weekend.json"
        pre_path.write_text(json.dumps(weekday))
        post_path.write_text(json.dumps(weekend))
        scenario = {"pre": weekday, "post": weekend,
                    "change": {"type": "fixed", "nu": 300}, "horizon": 700, "seed": 9}
        sc_path = tmp_path / "scenario.json"
        sc_path.write_text(json.dumps(scenario))
        obs_path = tmp_path / "obs.csv"
        code, _, err = run_cli(["simulate", "--scenario", sc_path, "--out", obs_path], capsys)
        assert code == 0, err
        out = tmp_path / "summary.json"
        code, _, err = run_cli(
            ["detect", "--detector", "cusum", "--model", pre_path, "--model2", post_path,
             "--beta", "1000", "--input", obs_path, "--out", out], capsys)
        assert code == 0, err
        summary = json.loads(out.read_text())
        assert summary["first_alarm"] is not None
        assert summary["first_alarm"]["time_index"] >= 300
        assert summary["config"]["threshold_used"] == pytest.approx(np.log(1000.0))


class TestTrialDump:
    def test_first_trials_dumped_as_trajectories(self, tmp_path, models, capsys):
        pre_path, post_path = models
        scenario = {
            "metric": "add",
            "detector": {"kind": "shiryaev", "alpha": 0.05, "rho": 0.05},
            "pre": json.loads(pre_path.read_text()),
            "post": json.loads(post_path.read_text()),
            "change": {"type": "fixed", "nu": 5},
            "trials": 20, "horizon": 120, "seed": 3,
        }
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps(scenario))
        dump_dir = tmp_path / "dumps"
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            ["evaluate", "--scenario", sc_path, "--out", out,
             "--dump-trials", "3", "--dump-dir", dump_dir], capsys)
        assert code == 0, err
        files = sorted(p.name for p in dump_dir.iterdir())
        assert files == ["trial_0000.csv", "trial_0001.csv", "trial_0002.csv"]
        header = (dump_dir / "trial_0000.csv").read_text().splitlines()[0]
        assert header == "time_index,slot,observation,statistic,alarm,decided_class"

    def test_dump_stops_at_the_trials_the_report_counted(self, tmp_path, capsys):
        pre, post = gaussian_law_dict([0.0, 0.0]), gaussian_law_dict([10.0, 10.0])
        scenario = {"metric": "worst_case", "detector": {"kind": "cusum", "threshold": 5.0},
                    "pre": pre, "post": post, "trials": 50, "horizon": 40, "seed": 8}
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps(scenario))
        dump_dir = tmp_path / "dumps"
        code, _, err = run_cli(
            ["evaluate", "--scenario", sc_path, "--trials", "2", "--out", tmp_path / "report.json",
             "--dump-trials", "5", "--dump-dir", dump_dir], capsys)
        assert code == 0, err
        assert json.loads((tmp_path / "report.json").read_text())["config"]["trials"] == 2
        assert sorted(p.name for p in dump_dir.iterdir()) == [
            f"nu{nu}_{arm}_trial_{i:04d}.csv" for nu in (1, 2) for arm in ("natural", "pinned")
            for i in range(2)]

    def test_negative_dump_count_rejected(self, tmp_path, models, capsys):
        sc = TestEvaluate().make_scenario(tmp_path, models, "arl")
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--trials", "3", "--out", out,
                                "--dump-trials", "-1", "--dump-dir", tmp_path / "dumps"], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "--dump-trials must be >= 0"}
        assert not out.exists() and not (tmp_path / "dumps").exists()

    def test_worst_case_dumps_both_arms_of_every_change_point(self, tmp_path, capsys):
        pre, post = gaussian_law_dict([0.0, 0.0]), gaussian_law_dict([10.0, 10.0])
        scenario = {"metric": "worst_case", "detector": {"kind": "cusum", "threshold": 200.0},
                    "pre": pre, "post": post, "trials": 4, "horizon": 40, "seed": 8}
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps(scenario))
        dump_dir = tmp_path / "dumps"
        code, _, err = run_cli(
            ["evaluate", "--scenario", sc_path, "--out", tmp_path / "report.json",
             "--dump-trials", "3", "--dump-dir", dump_dir], capsys)
        assert code == 0, err
        assert sorted(p.name for p in dump_dir.iterdir()) == [
            f"nu{nu}_{arm}_trial_{i:04d}.csv" for nu in (1, 2) for arm in ("natural", "pinned")
            for i in range(3)]
        det = CusumDetector(IpidLaw.from_dict(pre), IpidLaw.from_dict(post), 200.0)
        plans = dict(trial_plans("worst_case", det, IpidLaw.from_dict(pre), IpidLaw.from_dict(post), 40))
        for nu in (1, 2):
            for arm in ("natural", "pinned"):
                _, tau, _ = run_trials(det, plans[f"nu{nu}_{arm}_"], 3, 8)
                for i in range(3):
                    lines = (dump_dir / f"nu{nu}_{arm}_trial_{i:04d}.csv").read_text().splitlines()
                    rows = [line.split(",") for line in lines[1:]]
                    times = [int(r[0]) for r in rows]
                    # pre-change values lie near 0 and post-change values near 10
                    assert [float(r[2]) > 5.0 for r in rows] == [t >= nu for t in times]
                    assert times[0] == (nu if arm == "pinned" else 1)
                    assert [r[4] for r in rows] == ["0"] * (len(rows) - 1) + ["1"]
                    assert times[-1] == tau[i]


class TestObservationCsv:
    def test_round_trip_single_stream(self, tmp_path):
        obs = np.array([0.5, -1.25, 3.0])
        path = tmp_path / "obs.csv"
        write_observations_csv(path, obs)
        np.testing.assert_array_equal(read_observations_csv(path), obs)

    def test_round_trip_multistream(self, tmp_path):
        obs = np.arange(12, dtype=float).reshape(4, 3)
        path = tmp_path / "obs.csv"
        write_observations_csv(path, obs)
        np.testing.assert_array_equal(read_observations_csv(path), obs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "obs.csv"
        path.write_text(f"time,value\n1,0.5\n2,1.0\n3,{value}\n")
        with pytest.raises(ValueError, match="line 4: observation values must be finite"):
            read_observations_csv(path)

    def test_module_entry_point(self, tmp_path, models):
        pre_path, post_path = models
        result = subprocess.run(
            [sys.executable, "-m", "periodetect", "info",
             "--model", str(pre_path), "--model2", str(post_path), "--out", "-"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["aggregate"] == pytest.approx(0.125)


class TestBlockedObservationCsv:
    """Reading and writing observation CSVs in blocks of ``_READ_BLOCK`` rows."""

    @staticmethod
    def csv_writer_observations(path, obs):
        """The per-row ``csv.writer`` dump of earlier releases, kept as the byte-level reference."""
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if obs.ndim == 1:
                writer.writerow(["time", "value"])
                for i, v in enumerate(obs, start=1):
                    writer.writerow([i, repr(float(v))])
            else:
                writer.writerow(["time"] + [f"value_{j}" for j in range(obs.shape[1])])
                for i, row in enumerate(obs, start=1):
                    writer.writerow([i] + [repr(float(v)) for v in row])

    @pytest.mark.parametrize("columns", [1, 3])
    def test_round_trip_across_blocks_with_csv_writer_bytes(self, tmp_path, columns):
        n = 3 * _READ_BLOCK + 17
        obs = np.random.default_rng(5).normal(0.0, 10.0, (n, columns))
        obs.flat[:3] = -0.0, 1e-300, 12345678.9
        if columns == 1:
            obs = obs[:, 0]
        path, oracle = tmp_path / "obs.csv", tmp_path / "oracle.csv"
        write_observations_csv(path, obs)
        self.csv_writer_observations(oracle, obs)
        assert path.read_bytes() == oracle.read_bytes()
        got = read_observations_csv(path)
        assert got.shape == obs.shape
        assert np.array_equal(got, obs)

    def test_blank_rows_are_skipped_in_every_block(self, tmp_path):
        n = 2 * _READ_BLOCK + 9
        lines, want = ["time,value_0,value_1"], []
        for i in range(1, n + 1):
            if i in (3, _READ_BLOCK + 5, 2 * _READ_BLOCK):
                lines.append("" if i % 2 else " ,  ")
            else:
                lines.append(f"{i},{i},{-i}")
                want.append((i, -i))
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(read_observations_csv(path), np.array(want, dtype=float))

    @pytest.mark.parametrize("bad_row, message", [
        ("{i},oops", "cannot parse observation values"),
        ("{i},1.0,2.0", "expected 2 fields, got 3"),
        ("{i}", "expected 2 fields, got 1"),
        ("{i},nan", "observation values must be finite"),
        ("{i},-inf", "observation values must be finite"),
    ])
    def test_error_past_the_first_block_names_its_line(self, tmp_path, bad_row, message):
        # blank and whitespace-only rows in both blocks, before the bad one
        lines = ["time,value"]
        for i in range(1, _READ_BLOCK + 40):
            lines.append("" if i in (7, _READ_BLOCK + 3) else "  ,  " if i == _READ_BLOCK + 9
                         else f"{i},{i % 5}")
        bad_line = len(lines) + 1  # the header is line 1
        lines += [bad_row.format(i=bad_line), "9999,nan", "10000,1.0,2.0"]
        path = tmp_path / "obs.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^line {bad_line}: {message}$"):
            read_observations_csv(path)

    def test_import_leaves_multiprocessing_unloaded(self):
        code = "import sys, periodetect.cli; print('multiprocessing' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


@pytest.fixture
def detector_models(tmp_path, models):
    pre_path, post_path = models
    law = gaussian_law_dict([0.0, 0.5])
    alt = gaussian_law_dict([1.0, 0.5])
    paths = {"model": pre_path, "model2": post_path}
    payloads = {
        "multislot": {"period": 2, "pre": law, "post": alt, "candidates": [[0]], "weights": [1.0]},
        "multistream": {"streams": [{"pre": law, "post": alt}], "candidates": [[0]], "weights": [1.0]},
        "bank": {"period": 2, "laws": [law, alt], "active_slots": None},
    }
    for name, payload in payloads.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return paths


class TestBuildDetectorErrors:
    @pytest.mark.parametrize("kind, flags, message", [
        ("shiryaev", ["--model", "model", "--prior-rho", "0.1", "--alpha", "0.05"],
         "shiryaev needs --model (pre) and --model2 (post)"),
        ("shiryaev", ["--model", "model", "--model2", "model2", "--alpha", "0.05"],
         "shiryaev needs --prior-rho"),
        ("shiryaev", ["--model", "model", "--model2", "model2", "--prior-rho", "0.1"],
         "give --threshold or --alpha"),
        ("cusum", ["--model2", "model2", "--beta", "100"],
         "cusum needs --model (baseline) and --model2 (alternative)"),
        ("cusum", ["--model", "model", "--model2", "model2"], "give --threshold or --beta"),
        ("mixture", ["--prior-rho", "0.1", "--alpha", "0.05"],
         "mixture needs --family (multislot family JSON)"),
        ("mixture", ["--family", "multislot", "--alpha", "0.05"], "mixture needs --prior-rho"),
        ("mixture", ["--family", "multislot", "--prior-rho", "0.1"], "give --threshold or --alpha"),
        ("multistream", ["--prior-rho", "0.1", "--alpha", "0.05"],
         "multistream needs --family (multistream config JSON)"),
        ("multistream", ["--family", "multistream", "--alpha", "0.05"],
         "multistream needs --prior-rho"),
        ("multistream", ["--family", "multistream", "--prior-rho", "0.1"],
         "give --threshold or --alpha"),
        ("classifier", ["--beta", "100"], "classifier needs --bank"),
        ("classifier", ["--bank", "bank"], "give --threshold or --beta"),
        # a family of the other shape names the flag too
        ("multistream", ["--family", "multislot", "--prior-rho", "0.1", "--alpha", "0.05"],
         "multistream needs --family (multistream config JSON)"),
        ("mixture", ["--family", "multistream", "--prior-rho", "0.1", "--alpha", "0.05"],
         "mixture needs --family (multislot family JSON)"),
    ])
    def test_missing_model_or_budget_names_the_flag(self, tmp_path, capsys, detector_models,
                                                     kind, flags, message):
        argv = ["detect", "--detector", kind, "--input", tmp_path / "absent.csv",
                "--out", tmp_path / "out.json"]
        argv += [detector_models.get(f, f) for f in flags]
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("kind", ["ewma", ["cusum"], None])
    def test_unknown_kind_in_a_scenario(self, tmp_path, capsys, kind):
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps({"metric": "arl", "detector": {"kind": kind},
                                       "pre": gaussian_law_dict([0.0]), "trials": 2, "horizon": 5}))
        code, _, err = run_cli(["evaluate", "--scenario", sc_path], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"unknown detector kind {kind!r}"}


PRED_PRE = IpidLaw.from_dict(gaussian_law_dict([0.0, 0.5, 1.0, 0.5]))
PRED_POST = IpidLaw.from_dict(gaussian_law_dict([0.5, 1.0, 1.5, 1.0]))
PRED_FAMILY = MultislotFamily.from_dict({
    "period": 4, "pre": gaussian_law_dict([0.0, 0.5, 1.0, 0.5]),
    "post": gaussian_law_dict([1.0, 1.5, 2.0, 1.5]), "candidates": [[0, 1], [2, 3]], "weights": [0.5, 0.5]})
PRED_BANK = ClassBank.from_dict({"period": 4, "active_slots": None, "laws": [
    gaussian_law_dict([0.0] * 4), gaussian_law_dict([1.0] * 4), gaussian_law_dict([-1.0, 0.0, 1.0, 2.0])]})
PRED_STREAMS = MultistreamConfig.from_dict({
    "streams": [{"pre": gaussian_law_dict([0.0]), "post": gaussian_law_dict([1.0])}],
    "candidates": [[0]], "weights": [1.0]})
PRED_PRIOR = GeometricPrior(0.05)
PRED_ALPHA, PRED_BETA = 0.01, 200.0


def _expected_prediction(metric, kind):
    kinds = information.DetectorKind
    d = PRED_PRIOR.tail_exponent
    return {
        ("pfa", "shiryaev"): PRED_ALPHA,
        ("pfa", "cusum"): PRED_ALPHA,
        ("arl", "cusum"): PRED_BETA,
        ("arl", "shiryaev"): PRED_BETA,
        ("misclass", "classifier"): 1.0 / PRED_BETA,
        ("add", "shiryaev"): information.asymptotic_delay(
            kinds.SHIRYAEV, PRED_ALPHA, information.info_number(PRED_PRE, PRED_POST), d),
        ("add", "cusum"): information.asymptotic_delay(
            kinds.CUSUM, PRED_BETA, information.info_number(PRED_PRE, PRED_POST)),
        ("add", "mixture"): information.asymptotic_delay(
            kinds.MIXTURE, PRED_ALPHA, information.info_multislot(PRED_FAMILY, [2, 3]), d),
        ("add", "classifier"): information.asymptotic_delay(
            kinds.CLASSIFIER, PRED_BETA, information.info_matrix(PRED_BANK)[1]),
    }.get((metric, kind))


class TestPredictedFor:
    """The first-order prediction attached to each metric and detector kind."""

    @pytest.mark.parametrize("metric, kind", [
        ("pfa", "shiryaev"), ("pfa", "cusum"), ("arl", "cusum"), ("arl", "shiryaev"),
        ("misclass", "classifier"), ("add", "shiryaev"), ("add", "cusum"), ("add", "mixture"),
        ("add", "classifier"), ("add", "multistream"), ("worst_case", "shiryaev"),
        ("worst_case", "cusum"),
    ])
    def test_prediction_per_metric_and_kind(self, metric, kind):
        family = PRED_STREAMS if kind == "multistream" else PRED_FAMILY
        predicted = _predicted_for(metric, kind, {"true_slots": [2, 3]},
                                   {"alpha": PRED_ALPHA, "beta": PRED_BETA},
                                   PRED_PRE, PRED_POST, family, PRED_BANK, PRED_PRIOR)
        assert predicted == _expected_prediction(metric, kind)

    def test_mixture_add_with_a_threshold_and_no_alpha_predicts_nothing(self, tmp_path, capsys):
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps({
            "metric": "add", "detector": {"kind": "mixture", "threshold": 20.0, "rho": 0.05},
            "family": {"period": 2, "pre": gaussian_law_dict([0.0, 0.0]),
                       "post": gaussian_law_dict([2.0, 2.0]), "candidates": [[0], [1]],
                       "weights": [0.5, 0.5]},
            "true_slots": [0], "change": {"type": "fixed", "nu": 3},
            "trials": 5, "horizon": 200, "seed": 2}))
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["predicted"] is None
        assert report["censored_trials"] < report["trials"]


class TestEvaluateChecks:
    @pytest.mark.parametrize("metric", ["add", "worst_case"])
    def test_a_delay_needs_a_post_change_law(self, tmp_path, capsys, metric):
        # a mixture scenario without true_slots names no post-change law to draw from
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps({
            "metric": metric, "detector": {"kind": "mixture", "alpha": 0.01, "rho": 0.05},
            "family": {"period": 2, "pre": gaussian_law_dict([0.0, 0.0]),
                       "post": gaussian_law_dict([2.0, 2.0]), "candidates": [[0], [1]], "weights": [0.5, 0.5]},
            "change": {"type": "fixed", "nu": 5}, "trials": 5, "horizon": 200, "seed": 4}))
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "a post-change law is required unless the scenario is NoChange"}
        assert not out.exists()

    @pytest.mark.parametrize("kind, true_class, message", [
        ("cusum", 1, "misclass needs the classifier detector"),
        ("classifier", 5, "true_class must lie in 1..2"),
        ("classifier", 2.5, "true_class must be a whole number, got 2.5"),
        ("cusum", 0, "true_class must lie in 1..2")])
    def test_misclass_input_errors_are_value_errors(self, tmp_path, capsys, kind, true_class, message):
        bank = {"period": 1, "laws": [gaussian_law_dict([m]) for m in (0.0, 1.0, 2.0)], "active_slots": None}
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps({
            "metric": "misclass", "detector": {"kind": kind, "alpha": 0.05, "beta": 100, "threshold": 4.0},
            "bank": bank, "true_class": true_class, "trials": 5, "horizon": 100, "seed": 3}))
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "cusum", "beta": 50.0, "reset_on_alarm": "false"},
         "detector reset_on_alarm must be true or false, got 'false'"),
        ({"kind": "cusum", "beta": "50"}, "detector beta must be a number, got '50'"),
        ({"kind": "cusum", "threshold": "3.0"}, "detector threshold must be a number, got '3.0'"),
        ({"kind": "cusum", "threshold": True}, "detector threshold must be a number, got True"),
        ({"kind": "shiryaev", "alpha": "0.05"}, "detector alpha must be a number, got '0.05'"),
        ({"kind": "shiryaev", "alpha": 0.05, "rho": "0.01"}, "detector rho must be a number, got '0.01'"),
        ({"kind": "cusum", "beta": 50.0, "window": 2.5}, "detector window must be a whole number, got 2.5")])
    def test_detector_spec_values_take_their_declared_types(self, tmp_path, models, capsys, spec, message):
        sc = TestEvaluate().make_scenario(tmp_path, models, "arl", {"detector": spec, "trials": 5, "horizon": 50})
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out.exists()

    def test_whole_float_scenario_fields_run_as_their_ints(self, tmp_path, capsys):
        bank = {"period": 1, "laws": [gaussian_law_dict([m]) for m in (0.0, 1.0, 2.0)], "active_slots": None}
        outputs = []
        for number in (int, float):
            true_class = number(2)
            sc_path = tmp_path / f"sc_{true_class}.json"
            sc_path.write_text(json.dumps({
                "metric": "misclass", "detector": {"kind": "classifier", "beta": 100, "window": 20},
                "bank": bank, "true_class": true_class, "trials": number(20), "horizon": number(200),
                "seed": number(3), "change": {"type": "fixed", "nu": number(4)}}))
            report, obs = tmp_path / f"report_{true_class}.json", tmp_path / f"obs_{true_class}.csv"
            code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", report], capsys)
            assert code == 0, err
            code, _, err = run_cli(["simulate", "--scenario", sc_path, "--out", obs, "--summary",
                                    tmp_path / "summary.json"], capsys)
            assert code == 0, err
            outputs.append((json.loads(report.read_text()), obs.read_bytes()))
        (one, one_obs), (two, two_obs) = outputs
        one.pop("config"), two.pop("config")
        assert one == two and one_obs == two_obs

    def test_whole_float_change_points_run_and_dump_as_ints(self, tmp_path, models, capsys):
        runs = []
        for points in ([2], [2.0]):
            sc = TestEvaluate().make_scenario(tmp_path, models, "worst_case", {
                "detector": {"kind": "cusum", "beta": 50.0}, "change_points": points, "trials": 20})
            out, dump_dir = tmp_path / f"report_{points[0]}.json", tmp_path / f"dump_{points[0]}"
            code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out,
                                    "--dump-trials", "1", "--dump-dir", dump_dir], capsys)
            assert code == 0, err
            report = json.loads(out.read_text())
            report.pop("config")
            runs.append((report, {p.name: p.read_bytes() for p in dump_dir.iterdir()}))
        assert runs[0] == runs[1]
        assert sorted(runs[1][1]) == ["nu2_natural_trial_0000.csv", "nu2_pinned_trial_0000.csv"]

    @pytest.mark.parametrize("points, message", [
        ([1.5], "change_points must be a whole number, got 1.5"),
        ([], "change_points must name at least one change point")])
    def test_invalid_change_points_rejected(self, tmp_path, models, capsys, points, message):
        sc = TestEvaluate().make_scenario(tmp_path, models, "worst_case", {
            "detector": {"kind": "cusum", "beta": 50.0}, "change_points": points, "trials": 5})
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_a_fractional_horizon_is_rejected(self, tmp_path, models, capsys, command):
        sc = TestEvaluate().make_scenario(tmp_path, models, "arl", {"horizon": 100.7, "trials": 5})
        out = tmp_path / "out"
        code, _, err = run_cli([command, "--scenario", sc, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "horizon must be a whole number, got 100.7"}
        assert not out.exists()

    @pytest.mark.parametrize("command, key, message", [
        ("evaluate", "trials", "scenario needs 'trials' (or --trials)"),
        ("evaluate", "horizon", "scenario needs 'horizon' (or --horizon)"),
        ("evaluate", "change", "an add scenario needs 'change' (no flag sets it)"),
        ("simulate", "horizon", "scenario needs 'horizon' (or --horizon)")])
    def test_a_missing_scenario_key_is_named_with_its_flag(self, tmp_path, models, capsys, command, key, message):
        sc = TestEvaluate().make_scenario(tmp_path, models, "add", {"trials": 5, "horizon": 50})
        scenario = json.loads(sc.read_text())
        del scenario[key]
        sc.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        code, _, err = run_cli([command, "--scenario", sc, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out.exists()
        if key != "change":  # the flag supplies it
            code, _, err = run_cli([command, "--scenario", sc, f"--{key}", "5", "--out", out], capsys)
            assert code == 0, err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, models, capsys, workers):
        sc = TestEvaluate().make_scenario(tmp_path, models, "arl", {"trials": 5, "horizon": 50})
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--workers", workers, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "trials and workers must be >= 1"}
        assert not out.exists()

    def test_multistream_is_rejected(self, tmp_path, capsys):
        law, alt = gaussian_law_dict([0.0, 0.5]), gaussian_law_dict([1.0, 0.5])
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps({
            "metric": "arl", "detector": {"kind": "multistream", "alpha": 0.05, "rho": 0.1},
            "family": {"streams": [{"pre": law, "post": alt}], "candidates": [[0]], "weights": [1.0]},
            "trials": 3, "horizon": 50, "seed": 1}))
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError",
            "message": "evaluate draws one stream per trial, so the multistream detector is not supported"}
        assert not out.exists()

    def test_budget_is_the_kinds_own(self, tmp_path, capsys):
        # a classifier given both budgets reports and bounds with beta, the budget it takes
        bank = {"period": 1, "laws": [gaussian_law_dict([m]) for m in (0.0, 1.0, 2.0)], "active_slots": None}
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps({
            "metric": "misclass", "detector": {"kind": "classifier", "beta": 100, "alpha": 0.05, "window": 20},
            "bank": bank, "true_class": 1, "trials": 50, "horizon": 200, "seed": 3}))
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["budget"] == 100.0
        details = report["details"]
        assert details["misclass_bound_mean_tau_over_beta"] == details["mean_stop_time"] / 100.0
        assert details["mean_stop_time"] == pytest.approx(20.14)
        assert report["predicted"] == 1.0 / 100.0

    def test_cusum_given_both_budgets_reports_beta(self, tmp_path, models, capsys):
        sc = TestEvaluate().make_scenario(tmp_path, models, "arl", {
            "detector": {"kind": "cusum", "alpha": 0.05, "beta": 50.0}, "trials": 5})
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
        assert code == 0, err
        assert json.loads(out.read_text())["budget"] == 50.0

    CUSUM_SCENARIO = {"detector": {"kind": "cusum", "beta": 50.0}, "pre": gaussian_law_dict([0.0, 0.5]),
                      "post": gaussian_law_dict([1.0, 1.5]), "trials": 5, "horizon": 50}
    BANK_SCENARIO = {"detector": {"kind": "classifier", "beta": 100.0}, "trials": 5, "horizon": 50,
                     "bank": {"period": 1, "laws": [gaussian_law_dict([m]) for m in (0.0, 1.0, 2.0)]}}

    @pytest.mark.parametrize("scenario, argv, message", [
        ({**CUSUM_SCENARIO, "metric": "pfa"}, [], "a drawn change point needs a prior"),
        ({**BANK_SCENARIO, "metric": "misclass"}, [], "true_class must be a whole number, got None"),
        ({**CUSUM_SCENARIO, "metric": "arl"}, ["--trials", "0"], "trials and workers must be >= 1"),
        ({**CUSUM_SCENARIO, "metric": "arl", "horizon": 0}, [], "horizon must be >= 1")],
        ids=["pfa-without-prior", "misclass-without-true-class", "zero-trials", "zero-horizon"])
    def test_the_library_checks_the_scenario_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                              scenario, argv, message):
        def no_trial(args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(simulate, "_run_chunk", no_trial)
        sc_path, out, dump_dir = tmp_path / "sc.json", tmp_path / "report.json", tmp_path / "dumps"
        sc_path.write_text(json.dumps(scenario))
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", out, "--dump-trials", "2",
                                "--dump-dir", dump_dir, *argv], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}
        assert not out.exists() and not dump_dir.exists()

    def test_a_null_rho_takes_the_priors(self, tmp_path, models, capsys):
        reports = []
        for spec in ({"kind": "shiryaev", "alpha": 0.05}, {"kind": "shiryaev", "alpha": 0.05, "rho": None}):
            sc = TestEvaluate().make_scenario(tmp_path, models, "pfa", {"detector": spec, "trials": 200})
            out = tmp_path / f"report_{len(spec)}.json"
            code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
            assert code == 0, err
            report = json.loads(out.read_text())
            assert report.pop("config")["detector"] == spec
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["trials"] == 200

    def test_a_prediction_that_raises_is_reported_as_null(self, tmp_path, models, capsys):
        # the threshold builds the detector; alpha 2.0 is no probability, so the delay cannot be predicted
        sc = TestEvaluate().make_scenario(tmp_path, models, "add", {
            "detector": {"kind": "shiryaev", "threshold": 0.99, "alpha": 2.0, "rho": 0.05}, "trials": 5})
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["predicted"] is None and report["budget"] == 2.0

    def test_dump_trials_needs_a_dump_dir(self, tmp_path, models, capsys):
        sc = TestEvaluate().make_scenario(tmp_path, models, "arl")
        out = tmp_path / "report.json"
        code, _, err = run_cli(["evaluate", "--scenario", sc, "--trials", "3", "--out", out,
                                "--dump-trials", "2"], capsys)
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "--dump-trials needs --dump-dir"}
        assert not out.exists()


# ``detect`` against ``run`` plus the per-row csv.writer dump: five kinds, with and without
# reset, on a stream of three trajectory blocks with alarms on both sides of a block edge.
DETECT_ROWS = 2 * _ROW_BLOCK + 77
DETECT_PRE, DETECT_POST = gaussian_law_dict([0.0, 0.4, -0.3]), gaussian_law_dict([0.8, 1.0, 0.5])
DETECT_MODELS = {
    "pre": DETECT_PRE,
    "post": DETECT_POST,
    "multislot": {"period": 3, "pre": DETECT_PRE, "post": DETECT_POST,
                  "candidates": [[0], [1, 2], [0, 1, 2]], "weights": [0.5, 0.3, 0.2]},
    "multistream": {"streams": [{"pre": DETECT_PRE, "post": DETECT_POST},
                                {"pre": gaussian_law_dict([0.1, -0.2, 0.0]),
                                 "post": gaussian_law_dict([1.2, 0.8, 0.9])}],
                    "candidates": [[0], [1], [0, 1]], "weights": [0.25, 0.25, 0.5]},
    "bank": {"period": 3, "laws": [DETECT_PRE, DETECT_POST, gaussian_law_dict([-0.8, -0.4, -1.1])],
             "active_slots": None},
}
# kind: (its flags, the same detector built directly)
DETECT_KINDS = {
    "shiryaev": (["--model", "pre", "--model2", "post", "--prior-rho", "0.02", "--threshold", "0.97"],
                 lambda m, r: ShiryaevDetector(m["pre"], m["post"], 0.02, 0.97, reset_on_alarm=r)),
    "cusum": (["--model", "pre", "--model2", "post", "--threshold", "3.0"],
              lambda m, r: CusumDetector(m["pre"], m["post"], 3.0, reset_on_alarm=r)),
    "mixture": (["--family", "multislot", "--prior-rho", "0.02", "--threshold", "20"],
                lambda m, r: MixtureShiryaev(m["multislot"], 0.02, 20.0, reset_on_alarm=r)),
    "multistream": (["--family", "multistream", "--prior-rho", "0.02", "--threshold", "20"],
                    lambda m, r: MultistreamMixture(m["multistream"], 0.02, 20.0, reset_on_alarm=r)),
    "classifier": (["--bank", "bank", "--threshold", "3.0", "--window", "20"],
                   lambda m, r: ClassifierBankDetector(m["bank"], 3.0, window=20, reset_on_alarm=r)),
}


@pytest.fixture
def detect_models(tmp_path):
    paths, parsed = {}, {}
    for name, payload in DETECT_MODELS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    parsed["pre"], parsed["post"] = IpidLaw.from_dict(DETECT_PRE), IpidLaw.from_dict(DETECT_POST)
    parsed["multislot"] = MultislotFamily.from_dict(DETECT_MODELS["multislot"])
    parsed["multistream"] = MultistreamConfig.from_dict(DETECT_MODELS["multistream"])
    parsed["bank"] = ClassBank.from_dict(DETECT_MODELS["bank"])
    return paths, parsed


class TestDetectStreamsBlocks:
    @pytest.mark.parametrize("reset_on_alarm", [False, True])
    @pytest.mark.parametrize("kind", sorted(DETECT_KINDS))
    def test_trajectory_and_summary_equal_run(self, tmp_path, capsys, detect_models, kind, reset_on_alarm):
        paths, parsed = detect_models
        flags, make = DETECT_KINDS[kind]
        rng = np.random.default_rng(21)
        xs = np.array([0.0, 0.4, -0.3])[np.arange(DETECT_ROWS) % 3, None] + 0.4 + rng.standard_normal(
            (DETECT_ROWS, 2))
        xs[_ROW_BLOCK - 1:_ROW_BLOCK + 1] = 30.0  # the last row of a block and the first of the next
        xs = xs if kind == "multistream" else xs[:, 0]
        obs_path = tmp_path / "obs.csv"
        write_observations_csv(obs_path, xs)
        want = run(make(parsed, reset_on_alarm), xs)
        assert want[_ROW_BLOCK - 1].alarm and want[_ROW_BLOCK].alarm
        oracle = tmp_path / "oracle.csv"
        csv_writer_trajectory(oracle, want, xs, 3)

        out, traj = tmp_path / "summary.json", tmp_path / "traj.csv"
        argv = ["detect", "--detector", kind, *[paths.get(f, f) for f in flags], "--input", obs_path,
                "--out", out, "--trajectory", traj, *(["--reset-on-alarm"] if reset_on_alarm else [])]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert traj.read_bytes() == oracle.read_bytes()
        summary = json.loads(out.read_text())
        first = next(r for r in want if r.alarm)
        assert summary["n_observations"] == len(want) == DETECT_ROWS
        assert summary["alarm_count"] == sum(r.alarm for r in want)
        assert summary["first_alarm"] == {"time_index": first.time_index, "statistic": first.statistic,
                                          "decided_class": first.decided_class}
        assert type(summary["first_alarm"]["time_index"]) is int
        assert type(summary["first_alarm"]["statistic"]) is float
        assert type(summary["first_alarm"]["decided_class"]) is (int if kind == "classifier" else type(None))
        assert summary["final_statistic"] == want[-1].statistic
        assert type(summary["final_statistic"]) is float

    def test_count_off_the_support_in_the_last_block_writes_nothing(self, tmp_path, capsys):
        pre_path, post_path = tmp_path / "pre.json", tmp_path / "post.json"
        pre_path.write_text(json.dumps({"period": 2, "slots": [{"type": "poisson", "rate": 2.0},
                                                                {"type": "poisson", "rate": 3.0}]}))
        post_path.write_text(json.dumps({"period": 2, "slots": [{"type": "poisson", "rate": 4.0},
                                                                 {"type": "poisson", "rate": 1.5}]}))
        counts = np.random.default_rng(22).poisson(3.0, DETECT_ROWS).astype(float)
        counts[2 * _ROW_BLOCK + 50] = 1.5
        obs_path = tmp_path / "counts.csv"
        write_observations_csv(obs_path, counts)
        out, traj = tmp_path / "summary.json", tmp_path / "traj.csv"
        code, _, err = run_cli(
            ["detect", "--detector", "cusum", "--model", pre_path, "--model2", post_path,
             "--threshold", "5", "--input", obs_path, "--out", out, "--trajectory", traj], capsys)
        assert code == 1
        assert "Poisson support" in json.loads(err)["message"]
        assert not out.exists() and not traj.exists()

    def test_memory_does_not_hold_a_result_per_row(self, tmp_path, capsys):
        # a StepResult per row costs about 145 bytes; the input, its scores and one block cost far less
        import tracemalloc

        pre_path, post_path = tmp_path / "pre.json", tmp_path / "post.json"
        pre_path.write_text(json.dumps({"period": 1, "slots": [{"type": "poisson", "rate": 2.0}]}))
        post_path.write_text(json.dumps({"period": 1, "slots": [{"type": "poisson", "rate": 4.0}]}))
        counts = np.random.default_rng(23).poisson(2.0, 40_000).astype(float)
        peaks = {}
        for n in (10_000, 40_000):
            obs_path = tmp_path / f"counts_{n}.csv"
            write_observations_csv(obs_path, counts[:n])
            argv = ["detect", "--detector", "cusum", "--model", str(pre_path), "--model2", str(post_path),
                    "--threshold", "5", "--reset-on-alarm", "--input", str(obs_path),
                    "--out", str(tmp_path / f"summary_{n}.json")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert (peaks[40_000] - peaks[10_000]) / 30_000 <= 64


class TestTrialDumpBytes:
    @pytest.mark.parametrize("scenario", ["worst_case", "misclass"])
    def test_dump_files_equal_the_csv_writer_dump_of_run(self, tmp_path, capsys, scenario):
        pre, post = DETECT_PRE, DETECT_POST
        bank = DETECT_MODELS["bank"]
        sc = {"worst_case": {"metric": "worst_case", "detector": {"kind": "cusum", "threshold": 3.0},
                             "pre": pre, "post": post, "trials": 5, "horizon": 200, "seed": 8},
              "misclass": {"metric": "misclass",
                           "detector": {"kind": "classifier", "threshold": 3.0, "window": 20},
                           "bank": bank, "true_class": 2, "trials": 5, "horizon": 200, "seed": 8}}[scenario]
        sc_path = tmp_path / "sc.json"
        sc_path.write_text(json.dumps(sc))
        dump_dir = tmp_path / "dumps"
        code, _, err = run_cli(["evaluate", "--scenario", sc_path, "--out", tmp_path / "report.json",
                                "--dump-trials", "3", "--dump-dir", dump_dir], capsys)
        assert code == 0, err
        if scenario == "worst_case":
            det = CusumDetector(IpidLaw.from_dict(pre), IpidLaw.from_dict(post), 3.0)
            plans = trial_plans("worst_case", det, IpidLaw.from_dict(pre), IpidLaw.from_dict(post), 200)
        else:
            det = ClassifierBankDetector(ClassBank.from_dict(bank), 3.0, window=20)
            plans = trial_plans("misclass", det, None, None, 200, true_class=2)
        names = []
        for label, plan in plans:
            for i in range(3):
                _, obs = plan.draw(8, i)
                trajectory = run(det.fresh(start_time=plan.start_time), obs, stop_on_alarm=True)
                oracle = tmp_path / "oracle.csv"
                csv_writer_trajectory(oracle, trajectory, obs[:len(trajectory)], det.period)
                names.append(f"{label}trial_{i:04d}.csv")
                assert (dump_dir / names[-1]).read_bytes() == oracle.read_bytes()
        assert sorted(p.name for p in dump_dir.iterdir()) == sorted(names)


def declared_options():
    """{subcommand argv: the options its subparser declares}, read from the parser itself."""
    found = {}

    def walk(parser, prefix):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            found[prefix] = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        for action in subs:
            for name, sub in action.choices.items():
                walk(sub, prefix + (name,))

    walk(build_parser(), ())
    return found


def option_values(tmp_path):
    """{subcommand argv: a valid value, unlike its default, for every option but --config}."""
    files = {}
    for name, payload in {**DETECT_MODELS, "lpre": gaussian_law_dict([0.0], variance=0.04),
                          "lfl": gaussian_law_dict([0.1], variance=0.04),
                          "lfam": {"period": 1, "slots": [{
                              "type": "interval", "direction": "ge",
                              "boundary": {"type": "gaussian", "mean": 0.1, "variance": 0.04}}]},
                          "sc_sim": {"pre": DETECT_PRE, "post": DETECT_POST, "horizon": 10,
                                     "change": {"type": "fixed", "nu": 5}},
                          "sc_eval": {"metric": "arl", "detector": {"kind": "cusum", "beta": 50.0},
                                      "pre": DETECT_PRE, "post": DETECT_POST, "trials": 10, "horizon": 10}}.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    files["train"], files["obs"] = str(tmp_path / "train.csv"), str(tmp_path / "obs.csv")
    write_observations_csv(files["train"], np.tile([1.0, 5.0, 2.0, 4.0], 10))
    write_observations_csv(files["obs"], np.linspace(-1.0, 2.0, 30))
    lfl = {"model": files["lpre"], "model2": files["lfl"], "family": files["lfam"], "samples": 500, "seed": 3}
    return {
        ("fit",): {"input": files["train"], "format": "long", "period": 2, "family": "poisson",
                   "smooth_window": 1, "label": "from config"},
        ("detect",): {"detector": "cusum", "model": files["pre"], "model2": files["post"],
                      "family": files["multislot"], "bank": files["bank"], "prior_rho": 0.1, "alpha": 0.05,
                      "beta": 100.0, "threshold": 2.5, "window": 10, "reset_on_alarm": True,
                      "input": files["obs"], "trajectory": str(tmp_path / "traj.csv")},
        ("simulate",): {"scenario": files["sc_sim"], "horizon": 12, "seed": 4,
                        "summary": str(tmp_path / "summary.json")},
        ("evaluate",): {"scenario": files["sc_eval"], "trials": 3, "horizon": 20, "seed": 2, "workers": 2,
                        "dump_trials": 1, "dump_dir": str(tmp_path / "dumps")},
        ("info",): {"model": files["pre"], "model2": files["post"], "family": files["multislot"],
                    "bank": files["bank"]},
        ("lfl", "validate"): lfl,
        ("lfl", "select"): lfl,
    }


class TestOptionsDeclaredOnce:
    # keys that a command adds to the resolved options in the config it embeds
    EXTRA = {("fit",): {"cycles_used"}, ("detect",): {"threshold_used"}, ("evaluate",): {"metric", "detector"}}
    # the options whose declared default is not None
    DEFAULTS = {"fit": {"format": "long", "family": "gaussian", "label": ""}, "detect": {"reset_on_alarm": False},
                "evaluate": {"workers": 1, "dump_trials": 0}, "lfl": {"samples": 100_000, "seed": 0}}

    def test_every_option_is_embedded_and_set_from_a_config_file(self, tmp_path, capsys):
        declared, values = declared_options(), option_values(tmp_path)
        assert set(declared) == set(values)
        for command, options in declared.items():
            # an option the values above do not cover fails here, until it is added to them
            assert options - {"config"} == set(values[command]) | {"out"}, command
            out = tmp_path / f"{'_'.join(command)}.json"
            config_path = tmp_path / f"{'_'.join(command)}_config.json"
            config_path.write_text(json.dumps({**values[command], "out": str(out)}))
            code, _, err = run_cli([*command, "--config", config_path], capsys)
            assert code == 0, (command, err)
            written = tmp_path / "summary.json" if command == ("simulate",) else out
            embedded = json.loads(written.read_text())["config"]
            assert set(embedded) == options - {"config"} | self.EXTRA.get(command, set()), command
            assert {key: embedded[key] for key in values[command]} == values[command], command
            assert embedded["out"] == str(out)

    def test_whole_float_int_options_are_embedded_as_ints(self, tmp_path, capsys):
        for command, options in declared_options().items():
            actions = leaf_actions(command)
            values = option_values(tmp_path)[command]
            ints = {key: value for key, value in values.items() if actions[key].type is int}
            out = tmp_path / f"{'_'.join(command)}.json"
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({**values, **{k: float(v) for k, v in ints.items()}, "out": str(out)}))
            code, _, err = run_cli([*command, "--config", config_path], capsys)
            assert code == 0, (command, err)
            written = tmp_path / "summary.json" if command == ("simulate",) else out
            embedded = json.loads(written.read_text())["config"]
            assert {key: embedded[key] for key in ints} == ints, command
            assert all(type(embedded[key]) is int for key in ints), command

    def test_a_null_config_value_leaves_the_declared_default(self, tmp_path, capsys):
        for command, options in declared_options().items():
            defaults = self.DEFAULTS.get(command[0], {})
            assert defaults == {key: action.default for key, action in leaf_actions(command).items()
                                if key in options and action.default is not None}
            out = tmp_path / f"{'_'.join(command)}.json"
            config_path = tmp_path / "config.json"
            values = {**option_values(tmp_path)[command], **dict.fromkeys(defaults)}
            config_path.write_text(json.dumps({**values, "out": str(out)}))
            code, _, err = run_cli([*command, "--config", config_path], capsys)
            assert code == 0, (command, err)
            written = tmp_path / "summary.json" if command == ("simulate",) else out
            embedded = json.loads(written.read_text())["config"]
            assert {key: embedded[key] for key in defaults} == defaults, command


def leaf_actions(command):
    """{dest: action} of the subparser that ``command`` (its argv words) names."""
    parser = build_parser()
    for word in command:
        [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        parser = subs.choices[word]
    return {a.dest: a for a in parser._actions}


def typed_options(check):
    """(command, option) for every declared option whose action passes ``check``."""
    return [(command, dest) for command, options in declared_options().items()
            for dest, action in sorted(leaf_actions(command).items()) if dest in options and check(action)]


class TestConfigValuesAreChecked:
    """A --config value passes its option's declared type and choices, as a flag does, and a flag beats it."""

    def run_config(self, tmp_path, capsys, command, config, argv=()):
        out = tmp_path / "out.json"
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**config, "out": str(out)}))
        code, _, err = run_cli([*command, "--config", config_path, *argv], capsys)
        return code, err, out

    @pytest.mark.parametrize("command, dest", typed_options(lambda a: a.type is int))
    @pytest.mark.parametrize("bad", [2.5, "2", True])
    def test_an_int_option_rejects_what_is_no_whole_number(self, tmp_path, capsys, command, dest, bad):
        option = leaf_actions(command)[dest].option_strings[0]
        code, err, out = self.run_config(tmp_path, capsys, command, {**option_values(tmp_path)[command], dest: bad})
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"{option} must be a whole number, got {bad!r}"}
        assert not out.exists()
        assert not (tmp_path / "traj.csv").exists() and not (tmp_path / "dumps").exists()

    @pytest.mark.parametrize("command, dest", typed_options(lambda a: a.choices is not None))
    def test_a_choices_option_rejects_an_unlisted_value(self, tmp_path, capsys, command, dest):
        action = leaf_actions(command)[dest]
        bad = action.choices[0].capitalize()
        code, err, out = self.run_config(tmp_path, capsys, command, {**option_values(tmp_path)[command], dest: bad})
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message":
                                   f"{action.option_strings[0]} must be one of {', '.join(action.choices)}, got {bad!r}"}
        assert not out.exists()

    @pytest.mark.parametrize("command, dest, bad, expected", [
        (("detect",), "alpha", "0.05", "a number"),
        (("detect",), "threshold", True, "a number"),
        (("detect",), "reset_on_alarm", "false", "true or false"),
        (("detect",), "reset_on_alarm", 1, "true or false"),
        (("detect",), "trajectory", 3.5, "a string"),
        (("evaluate",), "scenario", ["sc.json"], "a string"),
        (("fit",), "label", 7, "a string")])
    def test_other_options_take_their_json_type(self, tmp_path, capsys, command, dest, bad, expected):
        option = leaf_actions(command)[dest].option_strings[0]
        code, err, out = self.run_config(tmp_path, capsys, command, {**option_values(tmp_path)[command], dest: bad})
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"{option} must be {expected}, got {bad!r}"}
        assert not out.exists()

    def test_each_option_takes_its_flag_else_its_config_value(self, tmp_path, capsys):
        for command, options in declared_options().items():
            actions, values = leaf_actions(command), option_values(tmp_path)[command]
            flagged = list(values)[::2]

            def config_value(key, value):
                action = actions[key]
                if key not in flagged:
                    return float(value) if action.type is int else value
                if action.choices is not None:
                    return next(c for c in action.choices if c != value)
                if action.type in (int, float):
                    return value + 1
                return False if value is True else value + ".unused"

            argv = []
            for key in flagged:
                argv += [actions[key].option_strings[0]] + ([] if values[key] is True else [str(values[key])])
            code, err, out = self.run_config(tmp_path, capsys, command,
                                             {key: config_value(key, value) for key, value in values.items()}, argv)
            assert code == 0, (command, err)
            written = tmp_path / "summary.json" if command == ("simulate",) else out
            embedded = json.loads(written.read_text())["config"]
            assert {key: embedded[key] for key in values} == values, command
            assert all(type(embedded[key]) is type(value) for key, value in values.items()), command
