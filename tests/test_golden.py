"""Pinned-seed reports stay bit-identical to ``tests/golden/reports.json``.

Each entry is recomputed at one and at two workers and compared with the
file exactly (floats as ``repr``).  A change that moves an entry on purpose
regenerates the file (``tests/golden/make_golden.py``) and says which entry
moved and why.
"""

import json

import numpy as np
import pytest

from golden import make_golden

GOLDEN = json.loads(make_golden.GOLDEN.read_text())


def test_the_file_was_written_with_this_numpy():
    # numpy does not promise the same Generator streams across releases (NEP 19): on another numpy the
    # entries may move for that reason alone, so this fails rather than skips, naming what to do
    assert GOLDEN["numpy"] == np.__version__, (
        f"{make_golden.GOLDEN.name} was written with numpy {GOLDEN['numpy']} and this is numpy "
        f"{np.__version__}; if its entries fail below, check that the trial streams moved with numpy, "
        f"then regenerate with `{make_golden.REGENERATE}`")


def test_the_grid_is_the_file():
    assert sorted(make_golden.library_names()) == sorted(GOLDEN["library"])
    assert sorted(make_golden.CLI_METRICS) == sorted(GOLDEN["cli"])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", make_golden.library_names())
def test_library_report(name, workers):
    assert make_golden.library_entry(name, workers) == GOLDEN["library"][name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("metric", make_golden.CLI_METRICS)
def test_evaluate_report_and_dumps(metric, workers):
    assert make_golden.cli_entry(metric, workers) == GOLDEN["cli"][metric]
