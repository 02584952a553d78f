import json
import subprocess
import sys

import numpy as np
import pytest

from periodetect.cli import main, read_observations_csv, write_observations_csv
from periodetect.densities import Gaussian
from periodetect.model import IpidLaw


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
