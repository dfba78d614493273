#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 7 0
    python3 perfbench/sweep.py --seeds 7 --trace 1

Each (workload, seed) is one ``run.py`` process of ``run_seconds``, run
one after another over every workload of ``BENCHMARK.json``.
Per run it prints the report digest, ``failed_frac`` and every metric by
name with its unit.  Per workload it then prints each metric's median and
its spread, the distance between the first and third quartile as a share
of the median, next to the bound that ``BENCHMARK.json`` fixes; a spread
is marked ``ok`` below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    digest = next((w.split("=", 1)[1] for line in lines for w in line.split()
                   if w.startswith("report_sha256=")), "?")
    return {"code": proc.returncode, "digest": digest, **result}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[7, 0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(r)
            ok &= r["code"] == 0 and r["correct"]
            print(f"{workload} seed={seed} exit={r['code']} correct={r['correct']} "
                  f"report_sha256={r['digest']}")
            print(f"  failed_frac = {r['failed'] / r['attempted']} ratio "
                  f"({r['failed']}/{r['attempted']} claims)")
            for name, m in r["metrics"].items():
                print(f"  {name} = {m['value']} {m['unit']}")
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs")
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            bound = bounds.get(name)
            s = spread(values)
            verdict = "" if bound is None else (
                "  ok" if s < bound / 3 else "  WIDE")
            print(f"  {name}: median {statistics.median(values):.6g} {m['unit']}, "
                  f"spread {s:.4f}" + ("" if bound is None else
                                       f" (bound {bound}){verdict}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
