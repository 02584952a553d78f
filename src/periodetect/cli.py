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
import itertools
import json
import math
import operator
import os
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

# Data rows that read_observations_csv converts at a time.
_READ_BLOCK = 4096


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

    Returns a 1-D array for a single stream, or an (n, L) matrix.  Rows are
    converted ``_READ_BLOCK`` at a time; a block that holds a blank row or
    fails a check is read again row by row, which skips the blank rows and
    names the line of the first bad one.
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
        blocks = []
        lineno = 2
        while rows := list(itertools.islice(reader, _READ_BLOCK)):
            blocks.append(_block_values(rows, lineno, len(header)))
            lineno += len(rows)
    data = np.concatenate(blocks) if blocks else np.empty(0)
    return data if value_cols == ["value"] else data.reshape(-1, len(value_cols))


def _block_values(rows: list[list[str]], first_line: int, width: int) -> np.ndarray:
    """The values of a block of CSV rows, row after row; ``first_line`` is the line of ``rows[0]``."""
    if set(map(len, rows)) == {width}:
        try:
            values = np.array(list(map(float, itertools.chain.from_iterable(
                map(operator.itemgetter(slice(1, None)), rows)))))
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    kept = []
    for lineno, row in enumerate(rows, start=first_line):
        if not row or all(c.strip() == "" for c in row):
            continue
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            values = [float(c) for c in row[1:]]
        except ValueError:
            raise ValueError(f"line {lineno}: cannot parse observation values") from None
        if not all(map(math.isfinite, values)):
            raise ValueError(f"line {lineno}: observation values must be finite")
        kept.extend(values)
    return np.array(kept, dtype=float)


def write_observations_csv(path, obs: np.ndarray) -> None:
    obs = np.asarray(obs, dtype=float)
    names = ["value"] if obs.ndim == 1 else [f"value_{j}" for j in range(obs.shape[1])]

    def lines():
        for lo in range(0, len(obs), detectors._ROW_BLOCK):
            fields = detectors._value_fields(obs[lo:lo + detectors._ROW_BLOCK], ",")
            yield "".join([f"{i},{values}\r\n" for i, values in enumerate(fields, start=lo + 1)])

    detectors._write_csv_blocks(path, ["time", *names], lines())


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


# kind: (models, their flags, needs rho, budget, constructor of (models, rho, threshold, window, reset))
_DETECTORS = {
    "shiryaev": (("pre", "post"), "--model (pre) and --model2 (post)", True, "alpha",
                 lambda m, rho, h, w, r: detectors.ShiryaevDetector(*m, rho, h, reset_on_alarm=r)),
    "cusum": (("pre", "post"), "--model (baseline) and --model2 (alternative)", False, "beta",
              lambda m, rho, h, w, r: detectors.CusumDetector(*m, h, reset_on_alarm=r)),
    "mixture": (("family",), "--family (multislot family JSON)", True, "alpha",
                lambda m, rho, h, w, r: detectors.MixtureShiryaev(*m, rho, h, reset_on_alarm=r)),
    "multistream": (("family",), "--family (multistream config JSON)", True, "alpha",
                    lambda m, rho, h, w, r: detectors.MultistreamMixture(*m, rho, h, reset_on_alarm=r)),
    "classifier": (("bank",), "--bank", False, "beta",
                   lambda m, rho, h, w, r: detectors.ClassifierBankDetector(*m, h, window=w, reset_on_alarm=r)),
}


def _build_detector(kind: str, opts: dict, *, pre=None, post=None, family=None, bank=None):
    """Assemble a detector from resolved options plus whichever models apply.

    A missing threshold comes from the kind's budget (``alpha`` or ``beta``)
    through ``information.threshold``.
    """
    if not isinstance(kind, str) or kind not in _DETECTORS:
        raise ValueError(f"unknown detector kind {kind!r}")
    needs, flags, needs_rho, budget, make = _DETECTORS[kind]
    models = [{"pre": pre, "post": post, "family": family, "bank": bank}[name] for name in needs]
    if any(m is None for m in models):
        raise ValueError(f"{kind} needs {flags}")
    rho = opts.get("prior_rho")
    if needs_rho and rho is None:
        raise ValueError(f"{kind} needs --prior-rho")
    threshold = opts.get("threshold")
    if threshold is None:
        if opts.get(budget) is None:
            raise ValueError(f"give --threshold or --{budget}")
        threshold = information.threshold(information.DetectorKind(kind), opts[budget],
                                          num_classes=getattr(bank, "num_classes", None))
    return make(models, rho, threshold, opts.get("window"), bool(opts.get("reset_on_alarm", False)))


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
    elif obs.ndim != 1:
        raise ValueError("this detector consumes a single-column observation file")
    # every row is scored here, so an invalid one raises before any file is opened
    blocks = detectors._walk_blocks(detector, obs)
    traj_path = opts["trajectory"] or (str(opts["out"]) + ".trajectory.csv")
    tally = {"n_observations": 0, "alarm_count": 0, "first_alarm": None, "final_statistic": None}

    def tallied():
        for times, rows, stats, alarms, decided in blocks:
            if tally["first_alarm"] is None and True in alarms:
                k = alarms.index(True)
                tally["first_alarm"] = {"time_index": times[k], "statistic": stats[k], "decided_class": decided[k]}
            tally["n_observations"] += len(stats)
            tally["alarm_count"] += alarms.count(True)
            tally["final_statistic"] = stats[-1]
            yield times, rows, stats, alarms, decided

    detectors._write_trajectory(traj_path, tallied(), detector.period)
    _write_json(opts["out"], {"config": {**opts, "threshold_used": detector.threshold}, **tally,
                              "trajectory_csv": traj_path})
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
            if kind == "mixture" and family is not None and "true_slots" in scenario and alpha is not None:
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
    if opts["dump_trials"] and not opts["dump_dir"]:
        raise ValueError("--dump-trials needs --dump-dir")
    scenario = _load_json(opts["scenario"])
    metric = scenario.get("metric")
    if metric not in ("pfa", "add", "arl", "misclass", "worst_case"):
        raise ValueError(f"unknown metric {metric!r}")
    det_spec = dict(scenario.get("detector", {}))
    kind = det_spec.get("kind")
    if kind == "multistream":
        raise ValueError("evaluate draws one stream per trial, so the multistream detector is not supported")
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
    change = simulate.change_from_dict(scenario["change"]) if metric == "add" else None
    change_points = scenario.get("change_points")
    mc = {"workers": workers, "predicted": predicted, "budget": budget}
    if metric == "pfa":
        if prior is None:
            raise ValueError("pfa estimation needs a prior")
        report = simulate.estimate_pfa(detector, pre, prior, trials, horizon, seed, **mc)
    elif metric == "add":
        report = simulate.estimate_add(detector, pre, post, change, trials, horizon, seed, **mc)
    elif metric == "arl":
        report = simulate.estimate_arl(detector, pre, trials, horizon, seed, **mc)
    elif metric == "misclass":
        if true_class is None:
            raise ValueError("misclass estimation needs 'true_class'")
        report = simulate.estimate_misclass(detector, int(true_class), trials, horizon, seed, **mc)
    else:
        report = simulate.worst_case_delay(detector, pre, post, trials, horizon, seed,
                                           change_points=change_points, workers=workers)
    payload = report.to_dict()
    payload["config"] = {**opts, "metric": metric, "detector": det_spec,
                         "trials": trials, "horizon": horizon, "seed": seed}
    if opts["dump_trials"]:
        plans = simulate.trial_plans(metric, detector, pre, post, horizon, change=change, prior=prior,
                                     true_class=true_class, change_points=change_points)
        _dump_trials(int(opts["dump_trials"]), opts["dump_dir"], plans, detector, seed)
    _write_json(opts["out"], payload)
    return 0


def _dump_trials(count, dump_dir, plans, detector, seed) -> None:
    """Write observation + trajectory CSVs for the first trials of each plan a run counted."""
    os.makedirs(dump_dir, exist_ok=True)
    for label, plan in plans:
        for i in range(count):
            _, obs = plan.draw(seed, i)
            blocks = detectors._walk_blocks(detector.fresh(start_time=plan.start_time), obs, stop_on_alarm=True)
            detectors._write_trajectory(f"{dump_dir}/{label}trial_{i:04d}.csv", blocks, detector.period)


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
    p_det.add_argument("--detector", choices=list(_DETECTORS))
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
