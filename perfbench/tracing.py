"""Span tracing of periodetect's layers from outside the package.

The tracer wraps public functions of ``periodetect.cli``,
``periodetect.simulate`` and ``periodetect.detectors`` for the duration of one
traced operation and restores them afterwards; nothing under ``src/``
changes.  Each wrapped call records a span (id, parent id, name, start, end)
in memory, and counts are taken at the same boundaries.  A call nested inside
a span of the same name (``sample_with_change`` delegating to
``sample_law``) is not recorded again.

The private scoring layer (``_SlotLlr``) runs inside the ``run_to_alarm`` and
``step`` spans and is not split out.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

DETECTOR_CLASSES = ("ShiryaevDetector", "CusumDetector", "MixtureShiryaev",
                    "MultistreamMixture", "ClassifierBankDetector")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []

    def wrap(self, fn, name: str, on_return=None, before=None):
        """Wrap ``fn`` so each call records a span.

        ``on_return(args, result, state)`` adds counts, where ``state`` is what
        ``before(args)`` returned ahead of the call.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((sid, name))
            state = before(args) if before is not None else None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            counts[calls] += 1
            if on_return is not None:
                on_return(args, result, state)
            return result

        return wrapper

    # ------------------------------------------------------------ reading

    def durations(self, name: str) -> list[int]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def self_seconds(self, name: str) -> float:
        """Total time of ``name`` spans not covered by their direct children."""
        own = {sid: end - start for sid, _, n, start, end in self.spans if n == name}
        child = sum(end - start for _, parent, _, start, end in self.spans if parent in own)
        return (sum(own.values()) - child) / 1e9

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_ns", "end_ns"])
            writer.writerows(self.spans)


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on periodetect for the duration of the block."""
    from periodetect import cli, detectors, simulate

    counts = tracer.counts

    def count_samples(args, result, _):
        counts["simulate.sampling.samples"] += len(result)

    def clock(args):
        return args[0].time

    def count_scan(args, result, start_time):
        counts["detectors.run_to_alarm.samples"] += args[0].time - start_time
        counts["detectors.run_to_alarm.alarms"] += result is not None

    def count_read(args, result, _):
        counts["cli.read_observations_csv.rows"] += len(result)

    def count_written(args, result, _):
        counts["detectors.write_trajectory_csv.rows"] += len(args[1])

    # (owner, attribute, span name, on_return, before)
    targets = [
        (cli, "main", "cli.main", None, None),
        (cli, "read_observations_csv", "cli.read_observations_csv", count_read, None),
        (simulate, "trial_rng", "simulate.trial_rng", None, None),
        (simulate, "sample_law", "simulate.sampling", count_samples, None),
        (simulate, "sample_with_change", "simulate.sampling", count_samples, None),
        (detectors, "run", "detectors.run", None, None),
        (detectors, "write_trajectory_csv", "detectors.write_trajectory_csv", count_written, None),
    ]
    targets += [(simulate, fn, "simulate.harness", None, None)
                for fn in ("estimate_pfa", "estimate_add", "estimate_arl", "estimate_misclass",
                           "worst_case_delay")]
    for cls_name in DETECTOR_CLASSES:
        cls = getattr(detectors, cls_name)
        targets += [(cls, "fresh", "detectors.fresh", None, None),
                    (cls, "run_to_alarm", "detectors.run_to_alarm", count_scan, clock),
                    (cls, "step", "detectors.step", None, None)]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]
    try:
        for owner, attr, name, on_return, before in targets:
            setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name, on_return, before))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _per_call(total_ns: float, calls: int, scale: float) -> float:
    return total_ns / calls / scale if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced operation (0 for a layer it never entered)."""
    c = tracer.counts

    def total(name):
        return sum(tracer.durations(name))

    steps = tracer.durations("detectors.step")
    p50, p99 = np.percentile(steps, [50, 99]).tolist() if steps else (0.0, 0.0)
    return {
        "simulate.trial_rng.calls": c["simulate.trial_rng.calls"],
        "simulate.trial_rng.us_per_call":
            _per_call(total("simulate.trial_rng"), c["simulate.trial_rng.calls"], 1e3),
        "simulate.sampling.samples": c["simulate.sampling.samples"],
        "simulate.sampling.ns_per_sample":
            _per_call(total("simulate.sampling"), c["simulate.sampling.samples"], 1.0),
        "simulate.harness.self_s": tracer.self_seconds("simulate.harness"),
        "detectors.fresh.calls": c["detectors.fresh.calls"],
        "detectors.fresh.us_per_call":
            _per_call(total("detectors.fresh"), c["detectors.fresh.calls"], 1e3),
        "detectors.run_to_alarm.calls": c["detectors.run_to_alarm.calls"],
        "detectors.run_to_alarm.samples": c["detectors.run_to_alarm.samples"],
        "detectors.run_to_alarm.alarms": c["detectors.run_to_alarm.alarms"],
        "detectors.run_to_alarm.ns_per_sample":
            _per_call(total("detectors.run_to_alarm"), c["detectors.run_to_alarm.samples"], 1.0),
        "detectors.run_to_alarm.us_per_call":
            _per_call(total("detectors.run_to_alarm"), c["detectors.run_to_alarm.calls"], 1e3),
        "detectors.step.calls": c["detectors.step.calls"],
        "detectors.step.ns_p50": p50,
        "detectors.step.ns_p99": p99,
        "detectors.run.s": total("detectors.run") / 1e9,
        "cli.read_observations_csv.s": total("cli.read_observations_csv") / 1e9,
        "cli.read_observations_csv.rows": c["cli.read_observations_csv.rows"],
        "detectors.write_trajectory_csv.s": total("detectors.write_trajectory_csv") / 1e9,
        "detectors.write_trajectory_csv.rows": c["detectors.write_trajectory_csv.rows"],
        "cli.self_s": tracer.self_seconds("cli.main"),
    }
