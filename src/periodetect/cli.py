"""Command-line front end.

Subcommands: ``fit`` (train a model from cycle data), ``detect`` (stream a
CSV through a detector), ``simulate`` (realize a scenario), ``evaluate``
(Monte Carlo performance report), ``info`` (information numbers), and
``lfl`` (validate or select a least favorable law).

Each option's type, choices and default are declared once, in ``build_parser``;
a ``--config`` value is checked against that declaration and becomes the default,
so a flag beats it.  Every output embeds the resolved options.  Errors leave a
machine-readable JSON object on stderr and a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import numbers
import operator
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import detectors, information, robust, simulate
from .fit import CycleSet, _trailing_median, fit_gaussian, fit_poisson, read_cycles_csv, read_long_csv
from .model import (
    ClassBank,
    IpidLaw,
    MultislotFamily,
    MultistreamConfig,
    _whole_number,
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


class _Kind(NamedTuple):
    models: tuple[str, ...]  # the models it is built from, named as _load_models names them
    flags: str               # the flags that give them
    needs_rho: bool
    budget: str              # the option that sets its threshold and predicts its delay
    make: Callable           # (models, rho, threshold, window, reset) -> detector


_DETECTORS = {
    "shiryaev": _Kind(("pre", "post"), "--model (pre) and --model2 (post)", True, "alpha",
                      lambda m, rho, h, w, r: detectors.ShiryaevDetector(*m, rho, h, reset_on_alarm=r)),
    "cusum": _Kind(("pre", "post"), "--model (baseline) and --model2 (alternative)", False, "beta",
                   lambda m, rho, h, w, r: detectors.CusumDetector(*m, h, reset_on_alarm=r)),
    "mixture": _Kind(("family",), "--family (multislot family JSON)", True, "alpha",
                     lambda m, rho, h, w, r: detectors.MixtureShiryaev(*m, rho, h, reset_on_alarm=r)),
    "multistream": _Kind(("streams",), "--family (multistream config JSON)", True, "alpha",
                         lambda m, rho, h, w, r: detectors.MultistreamMixture(*m, rho, h, reset_on_alarm=r)),
    "classifier": _Kind(("bank",), "--bank", False, "beta",
                        lambda m, rho, h, w, r: detectors.ClassifierBankDetector(*m, h, window=w, reset_on_alarm=r)),
}

# a scenario's detector spec key -> the dest of the detect option whose declaration checks its value
_SPEC_OPTIONS = {"threshold": "threshold", "alpha": "alpha", "beta": "beta", "rho": "prior_rho",
                 "window": "window", "reset_on_alarm": "reset_on_alarm"}

_MODEL_PARSERS = {"pre": IpidLaw.from_dict, "post": IpidLaw.from_dict, "family": MultislotFamily.from_dict,
                  "streams": MultistreamConfig.from_dict, "bank": ClassBank.from_dict}


def _load_models(raw: dict) -> dict:
    """Parse the model JSON objects of ``raw`` that ``_MODEL_PARSERS`` names.

    A ``family`` that holds ``"streams"`` is a multistream config, named ``streams``.
    """
    models = {}
    for name, obj in raw.items():
        if name == "family" and "streams" in obj:
            name = "streams"
        if name in _MODEL_PARSERS:
            models[name] = _MODEL_PARSERS[name](obj)
    return models


def _model_files(opts: dict) -> dict:
    """The models named by ``--model``, ``--model2``, ``--family`` and ``--bank``."""
    files = {"pre": opts["model"], "post": opts["model2"], "family": opts["family"], "bank": opts["bank"]}
    return _load_models({name: _load_json(path) for name, path in files.items() if path})


def _build_detector(kind: str, opts: dict, models: dict):
    """Assemble a detector from resolved options and the models its kind takes.

    A missing threshold comes from the kind's budget (``alpha`` or ``beta``)
    through ``information.threshold``.
    """
    if not isinstance(kind, str) or kind not in _DETECTORS:
        raise ValueError(f"unknown detector kind {kind!r}")
    spec = _DETECTORS[kind]
    if any(name not in models for name in spec.models):
        raise ValueError(f"{kind} needs {spec.flags}")
    rho = opts.get("prior_rho")
    if spec.needs_rho and rho is None:
        raise ValueError(f"{kind} needs --prior-rho")
    threshold = opts.get("threshold")
    if threshold is None:
        if opts.get(spec.budget) is None:
            raise ValueError(f"give --threshold or --{spec.budget}")
        threshold = information.threshold(information.DetectorKind(kind), opts[spec.budget],
                                          num_classes=getattr(models.get("bank"), "num_classes", None))
    return spec.make([models[name] for name in spec.models], rho, threshold, opts.get("window"),
                     bool(opts.get("reset_on_alarm", False)))


def _cmd_fit(opts) -> int:
    if opts["input"] is None or opts["out"] is None:
        raise ValueError("fit needs --input and --out")
    if opts["format"] == "long" and opts["period"] is None:
        raise ValueError("long-format input needs --period")
    cycles = (read_long_csv if opts["format"] == "long" else read_cycles_csv)(opts["input"], opts["period"])
    rows = cycles.cycles
    if opts["smooth_window"] is not None:
        lower = opts["family"] == "poisson"  # a count's smoothed value must stay a count
        rows = tuple(tuple(_trailing_median(c, opts["smooth_window"], lower)) for c in rows)
    cycles = CycleSet(cycles=rows, target_period=cycles.target_period, label=opts["label"])
    law = fit_gaussian(cycles) if opts["family"] == "gaussian" else fit_poisson(cycles)
    payload = law.to_dict()
    payload["config"] = {**opts, "cycles_used": len(cycles.cycles)}
    _write_json(opts["out"], payload)
    return 0


def _cmd_detect(opts) -> int:
    if opts["detector"] is None or opts["input"] is None or opts["out"] is None:
        raise ValueError("detect needs --detector, --input, and --out")
    detector = _build_detector(opts["detector"], opts, _model_files(opts))
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


def _scenario_models(scenario: dict) -> dict:
    """The models of a scenario description, with ``pre`` and ``post`` implied by a family or bank."""
    models = _load_models(scenario)
    family, bank, true_class = models.get("family"), models.get("bank"), scenario.get("true_class")
    if "pre" not in models and family is not None:
        models["pre"] = family.base_pre
    if "pre" not in models and bank is not None:
        models["pre"] = bank.laws[0]
    if "post" not in models and family is not None and "true_slots" in scenario:
        models["post"] = post_change_law(family, scenario["true_slots"])
    if "post" not in models and bank is not None and true_class is not None:
        models["post"] = bank.class_law(true_class)
    return models


def _flag_or_key(opts: dict, scenario: dict, key: str, default=None) -> int:
    """The whole number ``--key`` gives, else the scenario's ``key``, else ``default``, else a ValueError."""
    if opts[key] is None and key not in scenario and default is None:
        raise ValueError(f"scenario needs '{key}' (or --{key})")
    return _whole_number(opts[key] if opts[key] is not None else scenario.get(key, default), key)


def _cmd_simulate(opts) -> int:
    if opts["scenario"] is None or opts["out"] is None:
        raise ValueError("simulate needs --scenario and --out")
    scenario = _load_json(opts["scenario"])
    horizon, seed = _flag_or_key(opts, scenario, "horizon"), _flag_or_key(opts, scenario, "seed", 0)
    change = simulate.change_from_dict(scenario.get("change", {"type": "nochange"}))
    models = _scenario_models(scenario)
    if "streams" in models:
        obs, nu = simulate.generate_multistream(
            models["streams"], scenario.get("changed_streams"), change, horizon, seed
        )
    else:
        if "pre" not in models:
            raise ValueError("scenario needs a 'pre' law (or a family/bank that implies one)")
        spec = simulate.ScenarioSpec(pre=models["pre"], post=models.get("post"), change=change,
                                     horizon=horizon, seed=seed)
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
    """First-order theory prediction matching the requested metric, when computable.

    A delay is predicted from the kind's own budget and the information
    number of the change the scenario draws.
    """
    alpha, beta = opts.get("alpha"), opts.get("beta")
    try:
        if metric == "pfa":
            return float(alpha) if alpha is not None else None
        if metric == "arl":
            return float(beta) if beta is not None else None
        if metric == "misclass":
            return 1.0 / float(beta) if beta is not None else None
        budget = opts.get(_DETECTORS[kind].budget) if metric == "add" else None
        if budget is None:
            return None
        if kind == "mixture" and family is not None and "true_slots" in scenario:
            info = information.info_multislot(family, scenario["true_slots"])
        elif kind in ("shiryaev", "cusum") and pre is not None and post is not None:
            info = information.info_number(pre, post)
        elif kind == "classifier" and bank is not None:
            info = information.info_matrix(bank)[1]
        else:
            return None
        d = prior.tail_exponent if prior is not None else 0.0
        return information.asymptotic_delay(information.DetectorKind(kind), budget, info, d)
    except ValueError:
        return None


def _cmd_evaluate(opts) -> int:
    if opts["scenario"] is None:
        raise ValueError("evaluate needs --scenario")
    if opts["dump_trials"] < 0:
        raise ValueError("--dump-trials must be >= 0")
    if opts["dump_trials"] and not opts["dump_dir"]:
        raise ValueError("--dump-trials needs --dump-dir")
    scenario = _load_json(opts["scenario"])
    metric = scenario.get("metric")
    det_spec = dict(scenario.get("detector", {}))
    kind = det_spec.get("kind")
    detect = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["detect"]
    declared = {a.dest: a for a in detect._actions}
    # the spec as the options it stands for, nulls left out
    det_opts = {dest: _config_value(declared[dest], det_spec[key], f"detector {key}")
                for key, dest in _SPEC_OPTIONS.items() if det_spec.get(key) is not None}
    trials, horizon = _flag_or_key(opts, scenario, "trials"), _flag_or_key(opts, scenario, "horizon")
    seed = _flag_or_key(opts, scenario, "seed", 0)
    models = _scenario_models(scenario)
    pre, post, family, bank = (models.get(name) for name in ("pre", "post", "family", "bank"))
    true_class = scenario.get("true_class")
    prior = prior_from_dict(scenario["prior"]) if "prior" in scenario else None
    det_opts.setdefault("prior_rho", getattr(prior, "rho", None))
    detector = _build_detector(kind, det_opts, models)
    budget = det_opts.get(_DETECTORS[kind].budget)
    predicted = _predicted_for(metric, kind, scenario, det_opts, pre, post, family, bank, prior)
    if metric == "add" and "change" not in scenario:
        raise ValueError("an add scenario needs 'change' (no flag sets it)")
    change = simulate.change_from_dict(scenario["change"]) if metric == "add" else None
    change_points = scenario.get("change_points")
    plans = simulate.trial_plans(metric, detector, pre, post, horizon, change=change, prior=prior,
                                 true_class=true_class, change_points=change_points)
    mc = {"workers": opts["workers"], "predicted": predicted, "budget": budget}
    if metric == "pfa":
        report = simulate.estimate_pfa(detector, pre, prior, trials, horizon, seed, **mc)
    elif metric == "add":
        report = simulate.estimate_add(detector, pre, post, change, trials, horizon, seed, **mc)
    elif metric == "arl":
        report = simulate.estimate_arl(detector, pre, trials, horizon, seed, **mc)
    elif metric == "misclass":
        report = simulate.estimate_misclass(detector, true_class, trials, horizon, seed, **mc)
    else:
        report = simulate.worst_case_delay(detector, pre, post, trials, horizon, seed,
                                           change_points=change_points, workers=opts["workers"])
    payload = report.to_dict()
    payload["config"] = {**opts, "metric": metric, "detector": det_spec,
                         "trials": trials, "horizon": horizon, "seed": seed}
    if opts["dump_trials"]:
        _dump_trials(min(opts["dump_trials"], trials), opts["dump_dir"], plans, detector, seed)
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


def _cmd_info(opts) -> int:
    models = _model_files(opts)
    payload: dict = {"config": opts}
    if opts["model"] and opts["model2"]:
        payload.update(information.info_report(models["pre"], models["post"]).to_dict())
    for name, label, unit, info in (("family", "multislot", "slots", information.info_multislot),
                                    ("streams", "multistream", "streams", information.info_multistream)):
        if name in models:
            payload[label] = [{unit: sorted(c), "info": info(models[name], c)} for c in models[name].candidates]
    if "bank" in models:
        matrix, min_info = information.info_matrix(models["bank"])
        payload["bank"] = {
            "matrix": [[None if np.isnan(v) else float(v) for v in row] for row in matrix],
            "min_pairwise_info": min_info,
        }
    if len(payload) == 1:
        raise ValueError("info needs --model/--model2, --family, or --bank")
    _write_json(opts["out"], payload)
    return 0


def _cmd_lfl(opts, action) -> int:
    if opts["model"] is None or opts["family"] is None:
        raise ValueError("lfl needs --model (pre-change law) and --family")
    pre = IpidLaw.from_dict(_load_json(opts["model"]))
    family = robust.UncertaintyFamily.from_dict(_load_json(opts["family"]))
    if action == "validate":
        if opts["model2"] is None:
            raise ValueError("lfl validate needs --model2 (the proposed law)")
        proposed = IpidLaw.from_dict(_load_json(opts["model2"]))
        payload = robust.validate_lfl(pre, proposed, family, samples=opts["samples"], seed=opts["seed"]).to_dict()
    else:
        payload = robust.select_lfl(pre, family, samples=opts["samples"], seed=opts["seed"]).to_dict()
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
    p_fit.add_argument("--format", choices=["long", "cycles"], default="long",
                       help="'long' = time,value rows; 'cycles' = one cycle per row (default: %(default)s)")
    p_fit.add_argument("--period", type=int)
    p_fit.add_argument("--family", choices=["gaussian", "poisson"], default="gaussian",
                       help="(default: %(default)s)")
    p_fit.add_argument("--smooth-window", dest="smooth_window", type=int)
    p_fit.add_argument("--label", default="", help="(default: empty)")

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
    p_det.add_argument("--reset-on-alarm", dest="reset_on_alarm", action="store_true", help="(default: off)")
    p_det.add_argument("--input", help="observation CSV")
    p_det.add_argument("--trajectory", help="trajectory CSV path")

    p_sim = sub.add_parser("simulate", help="realize a scenario into an observation CSV")
    p_sim.add_argument("--scenario", help="scenario JSON")
    p_sim.add_argument("--horizon", type=int)
    p_sim.add_argument("--seed", type=int)
    add_common(p_sim)  # after --seed: the summary printed to stdout keeps its key order
    p_sim.add_argument("--summary", help="summary JSON path")

    p_eval = sub.add_parser("evaluate", help="Monte Carlo performance report")
    add_common(p_eval)
    p_eval.add_argument("--scenario", help="evaluation scenario JSON")
    p_eval.add_argument("--trials", type=int)
    p_eval.add_argument("--horizon", type=int)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--workers", type=int, default=1, help="worker processes (default: %(default)s)")
    p_eval.add_argument("--dump-trials", dest="dump_trials", type=int, default=0, help="(default: %(default)s)")
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
        p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples (default: %(default)s)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default: %(default)s)")
    return parser


_COMMANDS = {
    "fit": _cmd_fit,
    "detect": _cmd_detect,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "info": _cmd_info,
    "lfl": _cmd_lfl,
}


def _config_value(action: argparse.Action, value, name: str | None = None):
    """A ``--config`` value as its option declares it: a whole number (``2`` or ``2.0``) for an int
    option, a number for a float option, true or false for a switch, else a string among its choices.
    Errors name ``name``, by default the option's flag."""
    name = name or action.option_strings[0]
    if action.type is int:
        return _whole_number(value, name)
    kind, what = ((bool, "true or false") if action.nargs == 0 else (numbers.Real, "a number")
                  if action.type is float else (str, "a string"))
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):  # true is no number
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{name} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            leaf = parser  # the subparser that parsed args: the command's, or for lfl its action's
            while subs := [a for a in leaf._actions if isinstance(a, argparse._SubParsersAction)]:
                leaf = subs[0].choices[getattr(args, subs[0].dest)]
            # each checked --config value becomes its option's default, so that parsing again gives every
            # option its flag, else its --config value, else its declared default
            config = _load_json(args.config)
            leaf.set_defaults(**{a.dest: _config_value(a, config[a.dest]) for a in leaf._actions
                                 if a.dest not in ("help", "config") and config.get(a.dest) is not None})
            args = parser.parse_args(argv)
        opts = {key: value for key, value in vars(args).items() if key not in ("command", "lfl_action", "config")}
        handler = _COMMANDS[args.command]
        return handler(opts, args.lfl_action) if args.command == "lfl" else handler(opts)
    except Exception as exc:  # argparse errors exit on their own
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
