"""The example scripts run end to end on the public API and write their outputs."""

import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"

# per script: its output option, and the files it writes when that option names ``out``
OUTPUTS = {
    "multislot_sinusoid.py": ("--out-dir", [f"out/window_{5 * j}_{5 * j + 4}.csv" for j in range(5)]),
    "robust_square_wave.py": ("--out", ["out"]),
    "traffic_poisson_cusum.py": ("--out", ["out"]),
}


def test_every_script_is_covered():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(OUTPUTS)


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_script_runs_and_writes_its_trajectories(tmp_path, monkeypatch, capsys, name):
    flag, files = OUTPUTS[name]
    monkeypatch.setattr(sys, "argv", [name, flag, str(tmp_path / "out")])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert capsys.readouterr().out
    for file in files:
        lines = (tmp_path / file).read_text().splitlines()
        assert lines[0] == "time_index,slot,observation,statistic,alarm,decided_class"
        assert len(lines) > 1


def test_the_readme_python_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 2  # the scenario and detector, then the false-alarm estimate
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    change, estimate = capsys.readouterr().out.splitlines()
    assert change.startswith("change at 40 alarm at ")
    assert estimate.startswith(f"{namespace['report'].estimate} <= 0.01 +- ")
