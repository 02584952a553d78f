"""Command-line front end.

Subcommands: ``fit`` (train a model from cycle data), ``detect`` (stream a
CSV through a detector), ``simulate`` (realize a scenario), ``evaluate``
(Monte Carlo performance report), ``info`` (information numbers), and
``lfl`` (validate or select a least favorable law).

Flag precedence is flags > ``--config`` file > defaults, and every output
embeds the resolved configuration for provenance.  Errors leave a
machine-readable JSON object on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import detectors, information, robust, simulate
from .fit import CycleSet, fit_gaussian, fit_poisson, median_smooth, read_cycles_csv, read_long_csv
from .model import (
    ClassBank,
    IpidLaw,
    MultislotFamily,
    MultistreamConfig,
    post_change_law,
    prior_from_dict,
)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def read_observations_csv(path) -> np.ndarray:
    """Load an observation stream: header ``time,value`` or ``time,value_0..value_{L-1}``.

    Returns a 1-D array for a single stream, or an (n, L) matrix.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty observation file: missing header") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "time":
            raise ValueError("expected header 'time,value' or 'time,value_0..value_{L-1}'")
        value_cols = header[1:]
        if value_cols != ["value"] and value_cols != [f"value_{i}" for i in range(len(value_cols))]:
            raise ValueError(f"unexpected value columns {value_cols}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(c.strip() == "" for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(c) for c in row[1:]]
            except ValueError:
                raise ValueError(f"line {lineno}: cannot parse observation values") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"line {lineno}: observation values must be finite")
            rows.append(values)
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        return np.empty(0) if value_cols == ["value"] else np.empty((0, len(value_cols)))
    return data[:, 0] if value_cols == ["value"] else data


def write_observations_csv(path, obs: np.ndarray) -> None:
    obs = np.asarray(obs, dtype=float)
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


def _resolved(args: argparse.Namespace, config: dict, keys: dict) -> dict:
    """Merge flag values over config-file values over defaults."""
    out = {}
    for key, default in keys.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in config:
            out[key] = config[key]
        else:
            out[key] = default
    return out


def _build_detector(kind: str, opts: dict, *, pre=None, post=None, family=None, bank=None):
    """Assemble a detector from resolved options plus whichever models apply."""
    rho = opts.get("prior_rho")
    threshold = opts.get("threshold")
    alpha = opts.get("alpha")
    beta = opts.get("beta")
    window = opts.get("window")
    reset = bool(opts.get("reset_on_alarm", False))
    if kind == "shiryaev":
        if pre is None or post is None:
            raise ValueError("shiryaev needs --model (pre) and --model2 (post)")
        if rho is None:
            raise ValueError("shiryaev needs --prior-rho")
        if threshold is None:
            if alpha is None:
                raise ValueError("give --threshold or --alpha")
            threshold = information.threshold(information.DetectorKind.SHIRYAEV, alpha)
        return detectors.ShiryaevDetector(pre, post, rho, threshold, reset_on_alarm=reset)
    if kind == "cusum":
        if pre is None or post is None:
            raise ValueError("cusum needs --model (baseline) and --model2 (alternative)")
        if threshold is None:
            if beta is None:
                raise ValueError("give --threshold or --beta")
            threshold = information.threshold(information.DetectorKind.CUSUM, beta)
        return detectors.CusumDetector(pre, post, threshold, reset_on_alarm=reset)
    if kind == "mixture":
        if family is None:
            raise ValueError("mixture needs --family (multislot family JSON)")
        if rho is None:
            raise ValueError("mixture needs --prior-rho")
        if threshold is None:
            if alpha is None:
                raise ValueError("give --threshold or --alpha")
            threshold = information.threshold(information.DetectorKind.MIXTURE, alpha)
        return detectors.MixtureShiryaev(family, rho, threshold, reset_on_alarm=reset)
    if kind == "multistream":
        if family is None:
            raise ValueError("multistream needs --family (multistream config JSON)")
        if rho is None:
            raise ValueError("multistream needs --prior-rho")
        if threshold is None:
            if alpha is None:
                raise ValueError("give --threshold or --alpha")
            threshold = information.threshold(information.DetectorKind.MULTISTREAM, alpha)
        return detectors.MultistreamMixture(family, rho, threshold, reset_on_alarm=reset)
    if kind == "classifier":
        if bank is None:
            raise ValueError("classifier needs --bank")
        if threshold is None:
            if beta is None:
                raise ValueError("give --threshold or --beta")
            threshold = information.threshold(
                information.DetectorKind.CLASSIFIER, beta, num_classes=bank.num_classes
            )
        return detectors.ClassifierBankDetector(
            bank, threshold, window=window, reset_on_alarm=reset
        )
    raise ValueError(f"unknown detector kind {kind!r}")


def _cmd_fit(args) -> int:
    config = _load_json(args.config) if args.config else {}
    opts = _resolved(args, config, {
        "input": None, "format": "long", "period": None, "family": "gaussian",
        "smooth_window": None, "label": "", "out": None,
    })
    if opts["input"] is None or opts["out"] is None:
        raise ValueError("fit needs --input and --out")
    if opts["format"] == "long":
        if opts["period"] is None:
            raise ValueError("long-format input needs --period")
        cycles = read_long_csv(opts["input"], int(opts["period"]))
    elif opts["format"] == "cycles":
        cycles = read_cycles_csv(opts["input"], opts["period"])
    else:
        raise ValueError(f"unknown input format {opts['format']!r}")
    if opts["smooth_window"]:
        smoothed = tuple(tuple(median_smooth(c, int(opts["smooth_window"]))) for c in cycles.cycles)
        cycles = CycleSet(cycles=smoothed, target_period=cycles.target_period, label=opts["label"])
    else:
        cycles = CycleSet(cycles=cycles.cycles, target_period=cycles.target_period, label=opts["label"])
    law = fit_gaussian(cycles) if opts["family"] == "gaussian" else fit_poisson(cycles)
    payload = law.to_dict()
    payload["config"] = {**opts, "cycles_used": len(cycles.cycles)}
    _write_json(opts["out"], payload)
    return 0


def _cmd_detect(args) -> int:
    config = _load_json(args.config) if args.config else {}
    opts = _resolved(args, config, {
        "detector": None, "model": None, "model2": None, "family": None, "bank": None,
        "prior_rho": None, "alpha": None, "beta": None, "threshold": None, "window": None,
        "reset_on_alarm": False, "input": None, "out": None, "trajectory": None,
    })
    if opts["detector"] is None or opts["input"] is None or opts["out"] is None:
        raise ValueError("detect needs --detector, --input, and --out")
    pre = IpidLaw.from_dict(_load_json(opts["model"])) if opts["model"] else None
    post = IpidLaw.from_dict(_load_json(opts["model2"])) if opts["model2"] else None
    family = None
    if opts["family"]:
        raw = _load_json(opts["family"])
        family = MultistreamConfig.from_dict(raw) if "streams" in raw else MultislotFamily.from_dict(raw)
    bank = ClassBank.from_dict(_load_json(opts["bank"])) if opts["bank"] else None
    detector = _build_detector(opts["detector"], opts, pre=pre, post=post, family=family, bank=bank)
    obs = read_observations_csv(opts["input"])
    if isinstance(detector, detectors.MultistreamMixture):
        if obs.ndim != 2:
            raise ValueError("multistream detection needs a multi-column observation file")
        stream = [row for row in obs]
    else:
        if obs.ndim != 1:
            raise ValueError("this detector consumes a single-column observation file")
        stream = [float(v) for v in obs]
    trajectory = detectors.run(detector, stream, stop_on_alarm=False)
    traj_path = opts["trajectory"] or (str(opts["out"]) + ".trajectory.csv")
    detectors.write_trajectory_csv(traj_path, trajectory, stream, detector.period)
    alarms = [r for r in trajectory if r.alarm]
    first = alarms[0] if alarms else None
    summary = {
        "config": {**opts, "threshold_used": detector.threshold},
        "n_observations": len(trajectory),
        "alarm_count": len(alarms),
        "first_alarm": None if first is None else {
            "time_index": first.time_index,
            "statistic": first.statistic,
            "decided_class": first.decided_class,
        },
        "final_statistic": trajectory[-1].statistic if trajectory else None,
        "trajectory_csv": traj_path,
    }
    _write_json(opts["out"], summary)
    return 0


def _scenario_models(scenario: dict):
    """Resolve (pre, post, family, bank, true_class) from a scenario description."""
    family = MultislotFamily.from_dict(scenario["family"]) if "family" in scenario else None
    bank = ClassBank.from_dict(scenario["bank"]) if "bank" in scenario else None
    true_class = scenario.get("true_class")
    pre = IpidLaw.from_dict(scenario["pre"]) if "pre" in scenario else None
    post = IpidLaw.from_dict(scenario["post"]) if "post" in scenario else None
    if pre is None and family is not None:
        pre = family.base_pre
    if pre is None and bank is not None:
        pre = bank.laws[0]
    if post is None and family is not None and "true_slots" in scenario:
        post = post_change_law(family, scenario["true_slots"])
    if post is None and bank is not None and true_class is not None:
        post = bank.laws[true_class]
    return pre, post, family, bank, true_class


def _cmd_simulate(args) -> int:
    config = _load_json(args.config) if args.config else {}
    opts = _resolved(args, config, {
        "scenario": None, "horizon": None, "seed": None, "out": None, "summary": None,
    })
    if opts["scenario"] is None or opts["out"] is None:
        raise ValueError("simulate needs --scenario and --out")
    scenario = _load_json(opts["scenario"])
    horizon = int(opts["horizon"] if opts["horizon"] is not None else scenario["horizon"])
    seed = int(opts["seed"] if opts["seed"] is not None else scenario.get("seed", 0))
    change = simulate.change_from_dict(scenario.get("change", {"type": "nochange"}))
    if "streams" in scenario:
        cfg = MultistreamConfig.from_dict(scenario["streams"])
        obs, nu = simulate.generate_multistream(
            cfg, scenario.get("changed_streams"), change, horizon, seed
        )
    else:
        pre, post, _, _, _ = _scenario_models(scenario)
        if pre is None:
            raise ValueError("scenario needs a 'pre' law (or a family/bank that implies one)")
        spec = simulate.ScenarioSpec(pre=pre, post=post, change=change, horizon=horizon, seed=seed)
        obs, nu = simulate.generate(spec)
    write_observations_csv(opts["out"], obs)
    summary = {
        "config": opts,
        "horizon": horizon,
        "seed": seed,
        "realized_change_point": None if nu == float("inf") else int(nu),
        "observations_csv": opts["out"],
    }
    _write_json(opts["summary"], summary) if opts["summary"] else print(json.dumps(summary))
    return 0


def _predicted_for(metric: str, kind: str, scenario: dict, opts: dict,
                   pre, post, family, bank, prior) -> float | None:
    """First-order theory prediction matching the requested metric, when computable."""
    alpha, beta = opts.get("alpha"), opts.get("beta")
    try:
        if metric == "pfa":
            return float(alpha) if alpha is not None else None
        if metric == "arl":
            return float(beta) if beta is not None else None
        if metric == "add":
            d = prior.tail_exponent if prior is not None else 0.0
            if kind == "mixture" and family is not None and "true_slots" in scenario:
                info = information.info_multislot(family, scenario["true_slots"])
                return information.asymptotic_delay(information.DetectorKind.MIXTURE, alpha, info, d)
            if kind == "shiryaev" and pre is not None and post is not None and alpha is not None:
                info = information.info_number(pre, post)
                return information.asymptotic_delay(information.DetectorKind.SHIRYAEV, alpha, info, d)
            if kind == "cusum" and pre is not None and post is not None and beta is not None:
                info = information.info_number(pre, post)
                return information.asymptotic_delay(information.DetectorKind.CUSUM, beta, info)
            if kind == "classifier" and bank is not None and beta is not None:
                _, min_info = information.info_matrix(bank)
                return information.asymptotic_delay(information.DetectorKind.CLASSIFIER, beta, min_info)
        if metric == "misclass" and beta is not None:
            return 1.0 / float(beta)
    except ValueError:
        return None
    return None


def _cmd_evaluate(args) -> int:
    config = _load_json(args.config) if args.config else {}
    opts = _resolved(args, config, {
        "scenario": None, "trials": None, "horizon": None, "seed": None,
        "workers": 1, "out": None, "dump_trials": 0, "dump_dir": None,
    })
    if opts["scenario"] is None:
        raise ValueError("evaluate needs --scenario")
    scenario = _load_json(opts["scenario"])
    metric = scenario.get("metric")
    if metric not in ("pfa", "add", "arl", "misclass", "worst_case"):
        raise ValueError(f"unknown metric {metric!r}")
    det_spec = dict(scenario.get("detector", {}))
    kind = det_spec.get("kind")
    trials = int(opts["trials"] if opts["trials"] is not None else scenario["trials"])
    if trials < 1:
        raise ValueError("trials must be >= 1")
    horizon = int(opts["horizon"] if opts["horizon"] is not None else scenario["horizon"])
    seed = int(opts["seed"] if opts["seed"] is not None else scenario.get("seed", 0))
    workers = int(opts["workers"] or 1)
    pre, post, family, bank, true_class = _scenario_models(scenario)
    prior = prior_from_dict(scenario["prior"]) if "prior" in scenario else None
    det_opts = {
        "prior_rho": det_spec.get("rho", getattr(prior, "rho", None)),
        "alpha": det_spec.get("alpha"),
        "beta": det_spec.get("beta"),
        "threshold": det_spec.get("threshold"),
        "window": det_spec.get("window"),
        "reset_on_alarm": det_spec.get("reset_on_alarm", False),
    }
    detector = _build_detector(kind, det_opts, pre=pre, post=post, family=family, bank=bank)
    budget = det_opts["alpha"] if det_opts["alpha"] is not None else det_opts["beta"]
    predicted = _predicted_for(metric, kind, scenario, det_opts, pre, post, family, bank, prior)
    if metric == "pfa":
        if prior is None:
            raise ValueError("pfa estimation needs a prior")
        report = simulate.estimate_pfa(detector, pre, prior, trials, horizon, seed,
                                       workers=workers, predicted=predicted, budget=budget)
        payload = report.to_dict()
    elif metric == "add":
        change = simulate.change_from_dict(scenario["change"])
        report = simulate.estimate_add(detector, pre, post, change, trials, horizon, seed,
                                       workers=workers, predicted=predicted, budget=budget)
        payload = report.to_dict()
    elif metric == "arl":
        report = simulate.estimate_arl(detector, pre, trials, horizon, seed,
                                       workers=workers, predicted=predicted, budget=budget)
        payload = report.to_dict()
    elif metric == "misclass":
        if true_class is None:
            raise ValueError("misclass estimation needs 'true_class'")
        report = simulate.estimate_misclass(detector, int(true_class), trials, horizon, seed,
                                            workers=workers, predicted=predicted, budget=budget)
        payload = report.to_dict()
    else:
        report = simulate.worst_case_delay(detector, pre, post, trials, horizon, seed,
                                           change_points=scenario.get("change_points"),
                                           workers=workers)
        payload = report.to_dict()
    payload["config"] = {**opts, "metric": metric, "detector": det_spec,
                         "trials": trials, "horizon": horizon, "seed": seed}
    if opts["dump_trials"] and opts["dump_dir"]:
        _dump_trials(int(opts["dump_trials"]), opts["dump_dir"], metric, detector, pre, post,
                     prior, scenario, horizon, seed)
    _write_json(opts["out"], payload)
    return 0


def _dump_trials(count, dump_dir, metric, detector, pre, post, prior, scenario, horizon, seed) -> None:
    """Write observation + trajectory CSVs for the first few trials of a run."""
    import os

    os.makedirs(dump_dir, exist_ok=True)
    for i in range(count):
        rng = simulate.trial_rng(seed, i)
        if metric == "pfa":
            nu = prior.sample(rng)
            obs = simulate.sample_law(rng, pre, min(nu - 1, horizon))
        elif metric == "arl":
            obs = simulate.sample_law(rng, pre, horizon)
        elif metric == "misclass":
            obs = simulate.sample_law(rng, detector.bank.laws[scenario["true_class"]], horizon)
        else:
            change = simulate.change_from_dict(scenario.get("change", {"type": "nochange"}))
            nu = simulate._draw_nu(rng, change)
            obs = simulate.sample_with_change(rng, pre, post, nu, horizon)
        stream = [float(v) for v in obs]
        trajectory = detectors.run(detector.fresh(), stream, stop_on_alarm=True)
        detectors.write_trajectory_csv(
            f"{dump_dir}/trial_{i:04d}.csv", trajectory, stream[:len(trajectory)], detector.period
        )


def _cmd_info(args) -> int:
    config = _load_json(args.config) if args.config else {}
    opts = _resolved(args, config, {"model": None, "model2": None, "family": None,
                                    "bank": None, "out": None})
    payload: dict = {"config": opts}
    if opts["model"] and opts["model2"]:
        pre = IpidLaw.from_dict(_load_json(opts["model"]))
        post = IpidLaw.from_dict(_load_json(opts["model2"]))
        payload.update(information.info_report(pre, post).to_dict())
    if opts["family"]:
        family = MultislotFamily.from_dict(_load_json(opts["family"]))
        payload["multislot"] = [
            {"slots": sorted(s), "info": information.info_multislot(family, s)}
            for s in family.candidates
        ]
    if opts["bank"]:
        bank = ClassBank.from_dict(_load_json(opts["bank"]))
        matrix, min_info = information.info_matrix(bank)
        payload["bank"] = {
            "matrix": [[None if np.isnan(v) else float(v) for v in row] for row in matrix],
            "min_pairwise_info": min_info,
        }
    if len(payload) == 1:
        raise ValueError("info needs --model/--model2, --family, or --bank")
    _write_json(opts["out"], payload)
    return 0


def _cmd_lfl(args) -> int:
    config = _load_json(args.config) if args.config else {}
    opts = _resolved(args, config, {"model": None, "model2": None, "family": None,
                                    "samples": 100_000, "seed": 0, "out": None})
    if opts["model"] is None or opts["family"] is None:
        raise ValueError("lfl needs --model (pre-change law) and --family")
    pre = IpidLaw.from_dict(_load_json(opts["model"]))
    family = robust.UncertaintyFamily.from_dict(_load_json(opts["family"]))
    if args.lfl_action == "validate":
        if opts["model2"] is None:
            raise ValueError("lfl validate needs --model2 (the proposed law)")
        proposed = IpidLaw.from_dict(_load_json(opts["model2"]))
        report = robust.validate_lfl(pre, proposed, family,
                                     samples=int(opts["samples"]), seed=int(opts["seed"]))
        payload = report.to_dict()
    else:
        law = robust.select_lfl(pre, family, samples=int(opts["samples"]), seed=int(opts["seed"]))
        payload = law.to_dict()
    payload["config"] = opts
    _write_json(opts["out"], payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="periodetect",
        description="Quickest change detection for statistically periodic streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of default option values")
        p.add_argument("--out", help="output path (JSON); '-' for stdout")

    p_fit = sub.add_parser("fit", help="fit a periodic model from cycle data")
    add_common(p_fit)
    p_fit.add_argument("--input", help="input CSV")
    p_fit.add_argument("--format", choices=["long", "cycles"], default=None,
                       help="'long' = time,value rows; 'cycles' = one cycle per row")
    p_fit.add_argument("--period", type=int)
    p_fit.add_argument("--family", choices=["gaussian", "poisson"], default=None)
    p_fit.add_argument("--smooth-window", dest="smooth_window", type=int)
    p_fit.add_argument("--label", default=None)

    p_det = sub.add_parser("detect", help="run a detector over an observation CSV")
    add_common(p_det)
    p_det.add_argument("--detector", choices=["shiryaev", "cusum", "mixture", "multistream", "classifier"])
    p_det.add_argument("--model", help="pre-change (or baseline) law JSON")
    p_det.add_argument("--model2", help="post-change (or alternative / least favorable) law JSON")
    p_det.add_argument("--family", help="multislot family or multistream config JSON")
    p_det.add_argument("--bank", help="class bank JSON")
    p_det.add_argument("--prior-rho", dest="prior_rho", type=float)
    p_det.add_argument("--alpha", type=float)
    p_det.add_argument("--beta", type=float)
    p_det.add_argument("--threshold", type=float)
    p_det.add_argument("--window", type=int)
    p_det.add_argument("--reset-on-alarm", dest="reset_on_alarm", action="store_const", const=True)
    p_det.add_argument("--input", help="observation CSV")
    p_det.add_argument("--trajectory", help="trajectory CSV path")

    p_sim = sub.add_parser("simulate", help="realize a scenario into an observation CSV")
    add_common(p_sim)
    p_sim.add_argument("--scenario", help="scenario JSON")
    p_sim.add_argument("--horizon", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--summary", help="summary JSON path")

    p_eval = sub.add_parser("evaluate", help="Monte Carlo performance report")
    add_common(p_eval)
    p_eval.add_argument("--scenario", help="evaluation scenario JSON")
    p_eval.add_argument("--trials", type=int)
    p_eval.add_argument("--horizon", type=int)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--workers", type=int)
    p_eval.add_argument("--dump-trials", dest="dump_trials", type=int)
    p_eval.add_argument("--dump-dir", dest="dump_dir")

    p_info = sub.add_parser("info", help="information numbers and delay predictions")
    add_common(p_info)
    p_info.add_argument("--model")
    p_info.add_argument("--model2")
    p_info.add_argument("--family")
    p_info.add_argument("--bank")

    p_lfl = sub.add_parser("lfl", help="least favorable law tools")
    lfl_sub = p_lfl.add_subparsers(dest="lfl_action", required=True)
    for action in ("validate", "select"):
        p = lfl_sub.add_parser(action)
        add_common(p)
        p.add_argument("--model")
        p.add_argument("--model2")
        p.add_argument("--family")
        p.add_argument("--samples", type=int)
        p.add_argument("--seed", type=int)
    return parser


_COMMANDS = {
    "fit": _cmd_fit,
    "detect": _cmd_detect,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "info": _cmd_info,
    "lfl": _cmd_lfl,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # argparse errors exit on their own
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
