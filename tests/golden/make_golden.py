"""Write ``reports.json``: exact Monte Carlo reports at pinned seeds.

Run from the repository root, at a commit whose reports are known to be right:

    PYTHONPATH=src python tests/golden/make_golden.py

The grid is each metric (pfa, add, arl, misclass, worst_case) times each
single-stream detector kind that takes it, times a Gaussian, a Poisson and a
mixed Gaussian/Poisson law, at ``TRIALS`` trials each, through the public
estimators.  It also holds one ``evaluate`` scenario per metric, run through
``cli.main`` with ``--dump-trials 2``: its report without the config, and the
sha256 of each dumped trajectory.  Then, through ``cli.main`` again: the
sha256 of each ``simulate`` CSV with its summary, the outputs of ``lfl
validate`` and ``lfl select`` on two families, for each class of observation file that
``read_observations_csv`` reads its own way, the sha256 of the ``detect``
trajectory with the summary, and the model ``fit`` writes from a long file
and from a cycles file.  Outputs are kept without the ``config`` they
embed and without the temporary paths they name.  Floats are kept as
``repr`` strings, so the file compares exactly.  ``tests/test_golden.py``
recomputes every entry, the Monte Carlo ones at one and at two workers.

    PYTHONPATH=src python tests/golden/make_golden.py --check

recomputes every entry at one worker and prints each one that differs from
the file, with the first key path that differs and both values; it writes
nothing and exits 1 if any entry moved.

numpy does not promise that a ``Generator`` stream stays the same across
releases (NEP 19), so the file records the numpy version it was written with.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from periodetect import cli
from periodetect.densities import Gaussian, Poisson
from periodetect.detectors import ClassifierBankDetector, CusumDetector, MixtureShiryaev, ShiryaevDetector
from periodetect.information import DetectorKind, threshold
from periodetect.model import ClassBank, GeometricPrior, IpidLaw, MultislotFamily, post_change_law
from periodetect.simulate import (
    DrawnChange,
    FixedChange,
    estimate_add,
    estimate_arl,
    estimate_misclass,
    estimate_pfa,
    worst_case_delay,
)

GOLDEN = Path(__file__).with_name("reports.json")
REGENERATE = "PYTHONPATH=src python tests/golden/make_golden.py"
TRIALS = 200
HORIZON = 150
RHO = 0.05
ALPHA, BETA = 0.05, 50.0
PRIOR = GeometricPrior(RHO)
PFA_PRIOR = GeometricPrior(0.01)  # change points often past the horizon, so pfa trials are censored


def _law(kinds: str, values) -> IpidLaw:
    """A law whose slot ``i`` is Gaussian (unit variance) with mean ``values[i]`` where ``kinds[i]``
    is ``g``, and Poisson with rate ``values[i]`` where it is ``p``."""
    return IpidLaw(len(values), tuple(Gaussian(v, 1.0) if k == "g" else Poisson(v) for k, v in zip(kinds, values)))


# each law: (pre, post, a second post-change law for the classifier's bank)
LAWS = {
    "gaussian": ("gggg", [0.0, 0.5, 1.0, 0.5], [1.0, 1.5, 2.0, 1.5], [1.0, 0.5, 2.0, 0.5]),
    "poisson": ("pppp", [2.0, 4.0, 6.0, 4.0], [4.0, 7.0, 9.0, 7.0], [4.0, 4.0, 9.0, 4.0]),
    "mixed": ("gpgp", [0.0, 3.0, 1.0, 5.0], [1.0, 6.0, 2.0, 8.0], [1.0, 3.0, 2.0, 5.0]),
}

# the single-stream detector kinds that each metric takes
KINDS = {
    "pfa": ("shiryaev", "cusum", "mixture", "classifier"),
    "add": ("shiryaev", "cusum", "mixture", "classifier"),
    "arl": ("shiryaev", "cusum", "mixture", "classifier"),
    "misclass": ("classifier",),
    "worst_case": ("shiryaev", "cusum", "mixture", "classifier"),
}
CLI_METRICS = tuple(KINDS)  # one evaluate scenario each


def _setup(law: str, kind: str):
    """The detector of ``kind`` on ``law`` and the pre- and post-change laws its trials draw."""
    kinds, *laws = LAWS[law]
    pre, post, other = (_law(kinds, values) for values in laws)
    if kind == "shiryaev":
        return ShiryaevDetector(pre, post, RHO, threshold(DetectorKind.SHIRYAEV, ALPHA)), pre, post
    if kind == "cusum":
        return CusumDetector(pre, post, threshold(DetectorKind.CUSUM, BETA)), pre, post
    if kind == "mixture":
        family = MultislotFamily(4, pre, post, (frozenset({0, 1}), frozenset({2, 3})), (0.5, 0.5))
        return (MixtureShiryaev(family, RHO, threshold(DetectorKind.MIXTURE, ALPHA)), pre,
                post_change_law(family, [0, 1]))
    bank = ClassBank(4, (pre, post, other))
    return ClassifierBankDetector(bank, threshold(DetectorKind.CLASSIFIER, BETA, 2), window=20), pre, post


def _reprs(obj):
    """``obj`` with every float as its ``repr``, so that equal files mean bit-identical reports."""
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {key: _reprs(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reprs(value) for value in obj]
    return obj


def library_entry(name: str, workers: int) -> dict:
    """The report of grid entry ``metric/kind/law``, run with ``workers`` worker processes."""
    metric, kind, law = name.split("/")
    seed = 1000 + sorted(library_names()).index(name)
    det, pre, post = _setup(law, kind)
    mc = {"workers": workers, "predicted": 0.5, "budget": BETA}
    if metric == "pfa":
        report = estimate_pfa(det, pre, PFA_PRIOR, TRIALS, HORIZON, seed, **mc)
    elif metric == "add":
        # a fixed change point on the Gaussian law, a drawn one on the others
        change = FixedChange(7) if law == "gaussian" else DrawnChange(PRIOR)
        report = estimate_add(det, pre, post, change, TRIALS, HORIZON, seed, **mc)
    elif metric == "arl":
        report = estimate_arl(det, pre, TRIALS, 2 * HORIZON, seed, **mc)
    elif metric == "misclass":
        report = estimate_misclass(det, 1 if law == "gaussian" else 2, TRIALS, HORIZON, seed, **mc)
    else:
        report = worst_case_delay(det, pre, post, TRIALS, HORIZON, seed, workers=workers,
                                  change_points=None if law == "gaussian" else (2, 3))
    return _reprs(report.to_dict())


def library_names() -> list[str]:
    return [f"{metric}/{kind}/{law}" for metric, kinds in KINDS.items() for kind in kinds for law in LAWS]


def _scenario(metric: str) -> dict:
    """An ``evaluate`` scenario of ``metric``: the CUSUM on the Poisson law, the classifier for misclass."""
    kinds, pre, post, other = LAWS["poisson"] if metric != "misclass" else LAWS["mixed"]
    laws = {"pre": _law(kinds, pre).to_dict(), "post": _law(kinds, post).to_dict()}
    scenario = {"metric": metric, "detector": {"kind": "cusum", "beta": BETA}, **laws,
                "prior": PRIOR.to_dict(), "change": {"type": "fixed", "nu": 9}, "change_points": [1, 4],
                "trials": 60, "horizon": 120, "seed": 77}
    if metric == "misclass":
        scenario.update(detector={"kind": "classifier", "beta": BETA, "window": 20}, true_class=2,
                        bank={"period": 4, "laws": [laws["pre"], laws["post"], _law(kinds, other).to_dict()]})
    return scenario


def cli_entry(metric: str, workers: int) -> dict:
    """``evaluate``'s report of ``metric``'s scenario without its config, and the sha256 of each file
    ``--dump-trials 2`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_text(json.dumps(_scenario(metric)))
        code = cli.main(["evaluate", "--scenario", str(tmp / "scenario.json"), "--out", str(tmp / "report.json"),
                         "--workers", str(workers), "--dump-trials", "2", "--dump-dir", str(tmp / "dump")])
        if code != 0:
            raise RuntimeError(f"evaluate {metric} exited {code}")
        report = json.loads((tmp / "report.json").read_text())
        del report["config"]
        dumps = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((tmp / "dump").iterdir())}
    return {"report": _reprs(report), "dumps": dumps}


def _run(argv: list[str]) -> None:
    if (code := cli.main(argv)) != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {code}")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _law_dict(law: str, which: int = 1) -> dict:
    """``LAWS[law]``'s pre-change law (``which`` 1), post-change law (2) or other law (3) as JSON."""
    return _law(LAWS[law][0], LAWS[law][which]).to_dict()


# the simulate scenarios: one per single-stream law, a multistream one and a bank one
SIMULATIONS = {
    "gaussian": {"pre": _law_dict("gaussian"), "post": _law_dict("gaussian", 2),
                 "change": {"type": "fixed", "nu": 40}},
    "poisson": {"pre": _law_dict("poisson"), "post": _law_dict("poisson", 2),
                "change": {"type": "drawn", "prior": PRIOR.to_dict()}},
    "mixed": {"pre": _law_dict("mixed"), "post": _law_dict("mixed", 2)},  # no change
    "multistream": {"family": {"streams": [{"pre": _law_dict("gaussian"), "post": _law_dict("gaussian", 2)},
                                           {"pre": _law_dict("mixed"), "post": _law_dict("mixed", 2)}],
                               "candidates": [[0], [1], [0, 1]], "weights": [0.25, 0.25, 0.5]},
                    "changed_streams": [1], "change": {"type": "fixed", "nu": 30}},
    "bank": {"bank": {"period": 4, "laws": [_law_dict("mixed", which) for which in (1, 2, 3)]}, "true_class": 2,
             "change": {"type": "fixed", "nu": 25}},
}


def simulate_entry(name: str) -> dict:
    """The sha256 of the CSV ``simulate`` writes for scenario ``name``, and its summary without its
    config and the CSV's path."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "scenario.json").write_text(json.dumps({**SIMULATIONS[name], "horizon": 120, "seed": 7}))
        _run(["simulate", "--scenario", str(tmp / "scenario.json"), "--out", str(tmp / "obs.csv"),
              "--summary", str(tmp / "summary.json")])
        summary = json.loads((tmp / "summary.json").read_text())
        del summary["config"], summary["observations_csv"]
        return {"csv": _digest(tmp / "obs.csv"), "summary": _reprs(summary)}


# each lfl case: the pre-change law, the law that ``lfl validate`` audits and the family.  The first has a Gaussian
# slot with an interval family of the pre-change variance (Z is linear) and a Poisson slot with a finite one; the
# second has two Gaussian intervals wider than their pre-change slots (Z is quadratic).  In each, one slot of the
# audited law fails: past the nearest rate, 4.0, in the first; in the second, inside its interval and farther
# from x0 = -1.5 than the boundary
LFL_CASES = {
    "": (IpidLaw(2, (Gaussian(0.0, 1.0), Poisson(3.0))), IpidLaw(2, (Gaussian(0.6, 1.0), Poisson(5.0))),
         {"period": 2, "slots": [
             {"type": "interval", "boundary": {"type": "gaussian", "mean": 0.6, "variance": 1.0}, "direction": "ge"},
             {"type": "finite", "candidates": [{"type": "poisson", "rate": r} for r in (5.0, 4.0, 6.5)]}]}),
    "unequal_variance": (
        IpidLaw(2, (Gaussian(0.0, 1.0), Gaussian(1.0, 0.5))), IpidLaw(2, (Gaussian(1.5, 2.0), Gaussian(0.6, 1.5))),
        {"period": 2, "slots": [
            {"type": "interval", "boundary": {"type": "gaussian", "mean": 0.8, "variance": 2.0}, "direction": "ge"},
            {"type": "interval", "boundary": {"type": "gaussian", "mean": 0.6, "variance": 1.5}, "direction": "le"}]}),
}
LFL_ENTRIES = tuple(f"{action}_{case}" if case else action for case in LFL_CASES for action in ("validate", "select"))


def lfl_entry(name: str) -> dict:
    """The output of ``lfl validate`` or ``lfl select`` on an lfl case, without its config: entry ``name`` is
    the action, then ``_`` and the case unless it is the first."""
    action, _, case = name.partition("_")
    pre, proposed, family = LFL_CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for stem, obj in (("pre", pre.to_dict()), ("proposed", proposed.to_dict()), ("family", family)):
            (tmp / f"{stem}.json").write_text(json.dumps(obj))
        _run(["lfl", action, "--model", str(tmp / "pre.json"), "--model2", str(tmp / "proposed.json"),
              "--family", str(tmp / "family.json"), "--out", str(tmp / "out.json")])
        out = json.loads((tmp / "out.json").read_text())
    del out["config"]
    return _reprs(out)


DETECT_ROWS = 300


def _observation_text(name: str) -> str:
    """An observation file of ``DETECT_ROWS`` rows of class ``name``: each class is read its own way, and
    all but ``underscore`` and ``three_streams`` hold the same values."""
    rng = np.random.default_rng(24)
    streams = 3 if name == "three_streams" else 1
    values = rng.normal(0.0, 1.0, (DETECT_ROWS, streams)) + (np.arange(DETECT_ROWS) >= 150)[:, None]
    if name == "three_streams":
        fields = [",".join(repr(float(v)) for v in row) for row in values]
    else:
        fields = [f"{v:.4f}" for v in values[:, 0]]
    times = [str(i) for i in range(1, DETECT_ROWS + 1)]
    if name == "iso_time":
        times = [f"2024-03-01T{i // 60:02d}:{i % 60:02d}:00" for i in range(DETECT_ROWS)]
    if name == "quoted":
        fields = [f'"{f}"' if i % 3 == 0 else f for i, f in enumerate(fields)]
    if name == "underscore":
        fields[100] = "1_000"
    rows = [f"{t},{f}" for t, f in zip(times, fields)]
    if name == "whitespace_row":
        rows.insert(120, "   ")
    header = "time,value_0,value_1,value_2" if streams == 3 else "time,value"
    ending = "\r\n" if name == "crlf" else "\n"
    return ending.join([header, *rows]) + ending


DETECT_INPUTS = ("plain", "iso_time", "quoted", "whitespace_row", "underscore", "three_streams", "crlf")


def detect_entry(name: str) -> dict:
    """The sha256 of ``detect``'s trajectory for input class ``name``, and its summary without its config
    and the trajectory's path: a CUSUM with reset on one stream, the multistream mixture on three."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        pre, post = IpidLaw(4, (Gaussian(0.0, 1.0),) * 4), IpidLaw(4, (Gaussian(1.0, 1.0),) * 4)
        if name == "three_streams":
            config = {"streams": [{"pre": pre.to_dict(), "post": post.to_dict()}] * 3,
                      "candidates": [[0], [1, 2], [0, 1, 2]], "weights": [0.3, 0.3, 0.4]}
            (tmp / "family.json").write_text(json.dumps(config))
            flags = ["--detector", "multistream", "--family", str(tmp / "family.json"), "--prior-rho", "0.02",
                     "--threshold", "50"]
        else:
            (tmp / "pre.json").write_text(json.dumps(pre.to_dict()))
            (tmp / "post.json").write_text(json.dumps(post.to_dict()))
            flags = ["--detector", "cusum", "--model", str(tmp / "pre.json"), "--model2", str(tmp / "post.json"),
                     "--threshold", "4"]
        (tmp / "obs.csv").write_bytes(_observation_text(name).encode())
        _run(["detect", *flags, "--reset-on-alarm", "--input", str(tmp / "obs.csv"), "--out", str(tmp / "out.json"),
              "--trajectory", str(tmp / "traj.csv")])
        summary = json.loads((tmp / "out.json").read_text())
        del summary["config"], summary["trajectory_csv"]
        return {"trajectory": _digest(tmp / "traj.csv"), "summary": _reprs(summary)}


def _fit_text(name: str) -> str:
    """The training file of ``fit`` entry ``name``: a long file of Gaussian values or of counts, or cycles of
    unequal lengths; each holds a blank row, and the Gaussian one a quoted value."""
    rng = np.random.default_rng(25)
    if name == "cycles_ragged":
        rows = [",".join(f"{v:.3f}" for v in rng.normal(np.sin(np.arange(n)), 0.5)) for n in (6, 5, 7, 6, 4, 6)]
        rows[2] += ",,"
        return "\n".join(rows[:4] + [""] + rows[4:]) + "\n"
    slots = np.tile([1.0, 4.0, 2.5, 6.0], 12)
    if name == "long_poisson":
        fields = [str(v) for v in rng.poisson(slots)]
    else:
        fields = [f"{v:.4f}" for v in rng.normal(slots, 1.0)]
        fields[5] = f'"{fields[5]}"'
    rows = [f"{i},{f}" for i, f in enumerate(fields, start=1)]
    return "\n".join(["time,value", *rows[:20], "", *rows[20:]]) + "\n"


# each fit entry: its flags besides --input and --out
FITS = {
    "long_gaussian": ["--format", "long", "--period", "4", "--family", "gaussian"],
    "long_poisson": ["--format", "long", "--period", "4", "--family", "poisson", "--smooth-window", "3"],
    "cycles_ragged": ["--format", "cycles"],
}


def fit_entry(name: str) -> dict:
    """The model ``fit`` writes for entry ``name``, without its config."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "train.csv").write_text(_fit_text(name))
        _run(["fit", *FITS[name], "--input", str(tmp / "train.csv"), "--out", str(tmp / "model.json")])
        model = json.loads((tmp / "model.json").read_text())
    del model["config"]
    return _reprs(model)


def compute(workers: int) -> dict:
    """Every entry of the file, the Monte Carlo ones run with ``workers`` worker processes."""
    return {
        "numpy": np.__version__,
        "regenerate": REGENERATE,
        "trials": TRIALS,
        "library": {name: library_entry(name, workers) for name in library_names()},
        "cli": {metric: cli_entry(metric, workers) for metric in CLI_METRICS},
        "simulate": {name: simulate_entry(name) for name in SIMULATIONS},
        "lfl": {name: lfl_entry(name) for name in LFL_ENTRIES},
        "detect": {name: detect_entry(name) for name in DETECT_INPUTS},
        "fit": {name: fit_entry(name) for name in FITS},
    }


def first_difference(old, new, path: str = ""):
    """``(key path, old value, new value)`` at the first place ``new`` differs from ``old``, or None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys(), key=str):
            if key not in old or key not in new:
                return f"{path}.{key}".lstrip("."), old.get(key, "<absent>"), new.get(key, "<absent>")
            if (found := first_difference(old[key], new[key], f"{path}.{key}")) is not None:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return next(filter(None, (first_difference(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new)))),
                    None)
    return None if old == new else (path.lstrip(".") or "<top>", old, new)


def moved_entries(golden: dict, fresh: dict) -> list[tuple[str, str, object, object]]:
    """``(entry, key path, old value, new value)`` for each entry of ``fresh`` that differs from ``golden``'s:
    an entry is a top-level value, or one report of a section."""
    moved = []
    for key in sorted(golden.keys() | fresh.keys()):
        old, new = golden.get(key, {}), fresh.get(key, {})
        entries = ({f"{key}/{name}": (old.get(name), new.get(name)) for name in sorted(old.keys() | new.keys())}
                   if isinstance(old, dict) and isinstance(new, dict) else {key: (old, new)})
        for entry, (a, b) in entries.items():
            if (found := first_difference(a, b)) is not None:
                moved.append((entry, *found))
    return moved


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print(f"usage: {REGENERATE} [--check]", file=sys.stderr)
        return 2
    golden = compute(workers=1)
    if argv == ["--check"]:
        moved = moved_entries(json.loads(GOLDEN.read_text()), golden)
        for entry, path, old, new in moved:
            print(f"{entry}: {path}: {old!r} -> {new!r}")
        print(f"{len(moved)} entries moved" if moved else f"every entry of {GOLDEN.name} holds")
        return 1 if moved else 0
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    sections = ("library", "cli", "simulate", "lfl", "detect", "fit")
    print(f"wrote {', '.join(f'{len(golden[s])} {s}' for s in sections)} entries to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
