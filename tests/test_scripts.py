"""The checked-in scripts run as documented."""

import runpy
import subprocess
import sys
import textwrap
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


def test_reach_counts_each_statement_by_its_own_lines():
    reach = runpy.run_path(str(SCRIPTS / "reach.py"), run_name="reach")
    source = textwrap.dedent('''\
        """Module docstring."""
        import os
        X = 1

        def f(a):
            """Docstring."""
            global X
            if a: b = (1,
                       2)
            for i in range(
                    3):
                pass
            return a


        class C:
            y = 2


        if __name__ == "__main__":
            f(1)
        ''')
    # def, class, imports, global, docstrings and the __main__ block are not
    # counted; a compound statement is its lines before its body
    assert [tuple(lines) for lines in reach["statements"](source)] == [
        (3,), (8,), (8, 9), (10, 11), (12,), (13,), (17,)]
