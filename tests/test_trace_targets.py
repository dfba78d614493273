"""The span tracer of ``perfbench/`` still finds and wraps every target.

The tracer rebinds each traced function by name, so renaming one of them
or keeping one in a container (a dispatch table, say) would silently
break only the traced benchmark run.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import cubicjordan.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    leftovers = tracer.leftover_references()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["hilbert"])
    tracer.uninstall()
    print(json.dumps({"missing": tracer.missing, "leftovers": leftovers,
                      "exit": code,
                      "hilbert_spans": tracer.totals()["cli.suite_hilbert"]["calls"]}))
""")


def test_tracer_wraps_every_target_in_a_fresh_interpreter():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result == {"missing": [], "leftovers": [], "exit": 0, "hilbert_spans": 1}
