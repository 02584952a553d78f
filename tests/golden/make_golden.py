"""Write ``reports.json``: exact Monte Carlo reports at pinned seeds.

Run from the repository root, at a commit whose reports are known to be right:

    PYTHONPATH=src python tests/golden/make_golden.py

The grid is each metric (pfa, add, arl, misclass, worst_case) times each
single-stream detector kind that takes it, times a Gaussian, a Poisson and a
mixed Gaussian/Poisson law, at ``TRIALS`` trials each, through the public
estimators.  It also holds one ``evaluate`` scenario per metric, run through
``cli.main`` with ``--dump-trials 2``: its report without the config, and the
sha256 of each dumped trajectory.  Floats are kept as ``repr`` strings, so the
file compares exactly.  ``tests/test_golden.py`` recomputes every entry at one
and at two workers.

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


def main() -> int:
    golden = {
        "numpy": np.__version__,
        "regenerate": REGENERATE,
        "trials": TRIALS,
        "library": {name: library_entry(name, 1) for name in library_names()},
        "cli": {metric: cli_entry(metric, 1) for metric in CLI_METRICS},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['library'])} library and {len(golden['cli'])} CLI entries to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
