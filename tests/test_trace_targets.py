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
    from cubicjordan import jordan
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    leftovers = tracer.leftover_references()
    traced = jordan.verify_sharp_conditions
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["hilbert"])
    # a defect wraps the traced certificate and hands the traced one back
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        defect_code = cli.run(["verify-axioms", "--defect", "tampered-sharp"])
    defect_leftovers = tracer.leftover_references()
    restored = jordan.verify_sharp_conditions is traced
    tracer.uninstall()
    totals = tracer.totals()
    print(json.dumps({"missing": tracer.missing, "leftovers": leftovers,
                      "exit": code, "hilbert_spans": totals["cli.suite_hilbert"]["calls"],
                      "defect_exit": defect_code, "defect_leftovers": defect_leftovers,
                      "restored": restored and traced.__name__ == "traced",
                      "sharp_spans": totals["jordan.verify_sharp_conditions"]["calls"]}))
""")


def test_tracer_wraps_every_target_in_a_fresh_interpreter():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout)
    assert result == {"missing": [], "leftovers": [], "exit": 0, "hilbert_spans": 1,
                      "defect_exit": 1, "defect_leftovers": [], "restored": True,
                      "sharp_spans": 1}
