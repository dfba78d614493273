#!/usr/bin/env python3
"""Self-test of the benchmark and its correctness gate.

    python3 perfbench/selftest.py

Checks, on the short ``certify-symbolic`` workload:

1. a run with ``--defect tampered-sharp`` exits non-zero and reports
   failed claims (``failed_frac`` > 0);
2. a clean run exits 0 with no failed claims, and prints exactly the
   end-to-end metrics of ``BENCHMARK.json``, with their units;
3. a clean traced run prints exactly the per-layer metrics, its report
   digest equals the untraced one, its suite spans cover at least 95% of
   the traced wall time and ``jordan.radical_membership`` is never called;
4. in a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "certify-symbolic"


def run(root: Path, *extra: str, trace: int = 0, seconds: int = 1):
    proc = subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", WORKLOAD,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, check=False, timeout=180)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    digest = next((w for line in lines for w in line.split()
                   if w.startswith("report_sha256=")), None)
    return proc.returncode, result, digest


def declared_units(key: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[key]}


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def main() -> int:
    checks = []

    code, result, _ = run(ROOT, "--defect", "tampered-sharp")
    checks.append(("defect run exits non-zero", code != 0))
    checks.append(("defect run reports failed_frac > 0",
                   result is not None and result["failed"] > 0
                   and not result["correct"]))

    code, result, plain_digest = run(ROOT)
    checks.append(("clean run exits 0 with failed_frac 0",
                   code == 0 and result["correct"] and result["failed"] == 0))
    checks.append(("clean run prints the end-to-end metrics",
                   units(result) == declared_units("end_to_end")))

    code, result, traced_digest = run(ROOT, trace=1, seconds=2)
    metrics = result["metrics"]
    checks.append(("traced run exits 0 with failed_frac 0",
                   code == 0 and result["correct"] and result["failed"] == 0))
    checks.append(("traced run prints the per-layer metrics",
                   units(result) == declared_units("per_layer")))
    checks.append(("traced report digest equals the untraced one",
                   traced_digest == plain_digest))
    checks.append(("suite spans cover >= 95% of the traced wall time",
                   metrics["cli.suite_cover_frac"]["value"] >= 0.95))
    checks.append(("no radical membership test on certify-symbolic",
                   metrics["jordan.radical_membership.calls"]["value"] == 0))

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(bare)
    checks.append(("bare benchmark directory exits non-zero without a result",
                   code != 0 and result is None))

    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
