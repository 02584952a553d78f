"""Pinned-seed reports stay bit-identical to ``tests/golden/reports.json``.

Each entry is recomputed, the Monte Carlo ones at one and at two workers,
and compared with the file exactly (floats as ``repr``).  A change that moves an entry on purpose
regenerates the file (``tests/golden/make_golden.py``) and says which entry
moved and why.
"""

import copy
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
    assert sorted(make_golden.SIMULATIONS) == sorted(GOLDEN["simulate"])
    assert sorted(make_golden.LFL_ENTRIES) == sorted(GOLDEN["lfl"])
    assert sorted(make_golden.DETECT_INPUTS) == sorted(GOLDEN["detect"])
    assert sorted(make_golden.FITS) == sorted(GOLDEN["fit"])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", make_golden.library_names())
def test_library_report(name, workers):
    assert make_golden.library_entry(name, workers) == GOLDEN["library"][name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("metric", make_golden.CLI_METRICS)
def test_evaluate_report_and_dumps(metric, workers):
    assert make_golden.cli_entry(metric, workers) == GOLDEN["cli"][metric]


@pytest.mark.parametrize("name", list(make_golden.SIMULATIONS))
def test_simulate_csv_and_summary(name):
    assert make_golden.simulate_entry(name) == GOLDEN["simulate"][name]


@pytest.mark.parametrize("name", make_golden.LFL_ENTRIES)
def test_lfl_output(name):
    assert make_golden.lfl_entry(name) == GOLDEN["lfl"][name]


@pytest.mark.parametrize("name", make_golden.DETECT_INPUTS)
def test_detect_trajectory_and_summary(name):
    assert make_golden.detect_entry(name) == GOLDEN["detect"][name]


@pytest.mark.parametrize("name", list(make_golden.FITS))
def test_fit_model(name):
    assert make_golden.fit_entry(name) == GOLDEN["fit"][name]


def test_check_names_each_moved_entry_with_its_first_differing_key():
    fresh = copy.deepcopy(GOLDEN)
    assert make_golden.moved_entries(GOLDEN, fresh) == []
    fresh["numpy"] = "0.0"
    fresh["detect"]["crlf"]["summary"]["first_alarm"]["statistic"] = "1.5"
    fresh["detect"]["crlf"]["summary"]["alarm_count"] += 1  # sorts first, so it is the one named
    fresh["cli"]["pfa"]["dumps"]["trial_0000.csv"] = "0" * 64
    del fresh["lfl"]["select"]["slots"][1]["rate"]
    fresh["simulate"]["extra"] = {"csv": "1"}
    assert make_golden.moved_entries(GOLDEN, fresh) == [
        ("cli/pfa", "dumps.trial_0000.csv", GOLDEN["cli"]["pfa"]["dumps"]["trial_0000.csv"], "0" * 64),
        ("detect/crlf", "summary.alarm_count", GOLDEN["detect"]["crlf"]["summary"]["alarm_count"],
         GOLDEN["detect"]["crlf"]["summary"]["alarm_count"] + 1),
        ("lfl/select", "slots[1].rate", GOLDEN["lfl"]["select"]["slots"][1]["rate"], "<absent>"),
        ("numpy", "<top>", GOLDEN["numpy"], "0.0"),
        ("simulate/extra", "<top>", None, {"csv": "1"}),
    ]


def test_check_prints_each_moved_entry_writes_nothing_and_exits_1(monkeypatch, capsys):
    fresh = copy.deepcopy(GOLDEN)
    fresh["lfl"]["validate"]["checked"] += 1
    before = make_golden.GOLDEN.read_bytes()
    monkeypatch.setattr(make_golden, "compute", lambda workers: fresh)
    assert make_golden.main(["--check"]) == 1
    checked = GOLDEN["lfl"]["validate"]["checked"]
    assert capsys.readouterr().out == f"lfl/validate: checked: {checked!r} -> {checked + 1!r}\n1 entries moved\n"
    monkeypatch.setattr(make_golden, "compute", lambda workers: GOLDEN)
    assert make_golden.main(["--check"]) == 0
    assert make_golden.GOLDEN.read_bytes() == before
