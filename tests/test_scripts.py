"""The checked-in scripts run as documented."""

import runpy
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_orbit_census_counts_every_cube_once(monkeypatch, capsys):
    def no_subprocess(*args, **kwargs):
        raise AssertionError("the census starts no subprocess")

    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    monkeypatch.setattr(sys, "argv", ["orbit_census.py", "--cubes", "200", "--seed", "1"])
    runpy.run_path(str(SCRIPTS / "orbit_census.py"), run_name="__main__")
    table, samples = capsys.readouterr().out.split("\n\n")
    counts = {}
    for line in table.splitlines():
        label, count, share = line.split()
        counts[label] = int(count)
        assert share == f"{int(count) / 200:.2%}"
    assert set(counts) == {"origin", "O1", "O2", "O3", "O4"}
    assert sum(counts.values()) == 200
    # up to two sample cubes per class, each as the eight entries of to_text
    assert {line.split()[0] for line in samples.splitlines()} == set(counts)
    assert all(len(line.split()) == 9 for line in samples.splitlines())
