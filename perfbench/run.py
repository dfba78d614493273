#!/usr/bin/env python3
"""Benchmark of the cubicjordan verifier, run from the root of a checkout.

    python3 perfbench/run.py --workload verify-all --seed 7 --seconds 15 --trace 0

One single-threaded process drives ``cubicjordan.cli.run`` in a closed
loop: each command of the workload runs after the previous one returned,
and the whole command list (one *pass*) repeats until ``--seconds`` have
elapsed.  Every pass is gated: each command must exit 0 with every claim
passing, and the sha256 of its ``--json`` reports must equal that of one
untimed pass run first in a fresh interpreter, which has its own string
hash seed.  A failing pass counts all of its claims as failed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
per pass), ``setup_s`` (median seconds from spawning a fresh interpreter
until ``cubicjordan.cli`` is imported) and ``peak_rss_mb``.  ``--trace 1``
spends half of the time on untraced passes and half on passes traced by
``tracing.Tracer``, and reports the per-layer metrics, per pass, plus the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--defect NAME`` passes a fault to every command, so that the gate can be
seen to fail (see ``selftest.py``); the exit status is then 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Commands of one pass; each also gets --seed, --json and any --defect.
WORKLOADS = {
    "verify-all": [["all", "--samples", "30"]],
    "certify-symbolic": [[c] for c in ("verify-axioms", "classify", "fiber", "chart",
                                       "specialize", "weights", "hilbert")],
    "sample-heavy": [["all", "--samples", "300"]],
}

# setup_s is the median of at least SETUP_SPAWNS spawns: half of them before
# the first pass, SETUP_PER_PASS after each pass and any rest after the last,
# so that the samples span the run, not one slow or fast moment of the machine.
SETUP_SPAWNS = 48
SETUP_PER_PASS = 4
SETUP_CODE = "import cubicjordan.cli; print('ready', flush=True)"

SUITES = ("axioms", "classify", "fiber", "chart", "radicals", "specialize",
          "embeddings", "weights", "hilbert")

# One pass in a fresh interpreter; prints the digest of its reports.
FRESH_CODE = """\
import sys
from pathlib import Path
import run, cubicjordan.cli as cli
workload, seed, defect, workdir = sys.argv[1:]
print(run.run_pass(cli, run.WORKLOADS[workload], int(seed), defect or None,
                   Path(workdir))["digest"])
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defect", default=None,
                        help="fault passed to every command (gate self-test)")
    return parser.parse_args(argv)


def stamp() -> dict:
    """Python version, CPU count, git revision and src/ line count."""
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open("rb") as fh:
            lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "git_revision": revision, "src_lines": lines}


def spawn_ready(count: int) -> list[float]:
    """Seconds from spawning an interpreter until the package is ready.

    Bytecode caching is switched on and kept in the checkout, as in an
    installed package, whatever the caller's environment says.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    times = []
    for _ in range(count):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            took = perf_counter() - start
            proc.communicate()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("the package failed to import in a fresh interpreter")
        times.append(took)
    return times


def fresh_digest(workload: str, seed: int, defect, workdir: Path) -> str:
    """Report digest of one pass in a fresh interpreter.

    The interpreter draws its own string-hash seed, so report bytes that
    depend on set or dict order differ from those of this process.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]),
               PYTHONHASHSEED="random")
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CODE, workload, str(seed), defect or "",
         str(workdir)], env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"fresh interpreter pass: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return "no digest"
    return lines[-1]


def run_pass(cli, commands, seed, defect, workdir: Path) -> dict:
    """Run each command of the workload once and gate its report."""
    wall = 0.0
    claims = failed = 0
    digest = hashlib.sha256()
    for i, command in enumerate(commands):
        report = workdir / f"report{i}.json"
        report.unlink(missing_ok=True)
        argv = [*command, "--seed", str(seed), "--json", str(report)]
        if defect:
            argv += ["--defect", defect]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            code = cli.run(argv)
            wall += perf_counter() - start
        if not report.exists():
            print(f"{' '.join(command)}: exit {code}, no report\n{sink.getvalue()}",
                  file=sys.stderr)
            claims, failed = claims + 1, failed + 1
            digest.update(b"no report")
            continue
        data = report.read_bytes()
        digest.update(data)
        summary = json.loads(data)["summary"]
        claims += summary["total"]
        failed += summary["total"] if code != 0 else summary["failed"]
        if code != 0:
            last = (sink.getvalue().splitlines() or [""])[-1]
            print(f"{' '.join(command)}: exit {code}: {last}", file=sys.stderr)
    return {"wall_s": wall, "claims": claims, "failed": failed,
            "digest": digest.hexdigest()}


def measure(cli, commands, seed, defect, workdir, seconds, reference,
            after_pass=None):
    """Passes until ``seconds`` elapse (at least one), gated on the digest.

    ``after_pass`` is called after each pass, outside the timed region."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        result = run_pass(cli, commands, seed, defect, workdir)
        if result["digest"] != reference:
            print(f"pass report_sha256={result['digest']} differs", file=sys.stderr)
            result["failed"] = result["claims"]
        passes.append(result)
        if after_pass:
            after_pass()
    return passes


def _per_pass(value, passes: int):
    share = value / passes
    return int(share) if isinstance(value, int) and value % passes == 0 else share


def layer_metrics(tracer, traced: list[dict], plain: list[dict]) -> dict:
    """The ``per_layer`` metrics of BENCHMARK.json, each given per pass.

    A name ``<span or kernel>.<field>`` reads that field of the tracer's
    totals; the other names are derived below.
    """
    totals = tracer.totals()
    n = len(traced)
    none = {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0}

    derived = {}
    suite_s = 0.0
    for suite in SUITES:
        s = totals.get(f"cli.suite_{suite}", none)["s"]
        if suite == "weights":
            s += totals.get("cli.suite_toric_matrices", none)["s"]
        suite_s += s
        derived[f"cli.suite_{suite}.s"] = s / n
    derived["cli.suite_cover_frac"] = suite_s / sum(p["wall_s"] for p in traced)
    rm = totals.get("jordan.radical_membership", none)
    derived["jordan.radical_membership.ms_per_call"] = (
        1000 * rm["s"] / rm["calls"] if rm["calls"] else 0.0)
    sweep = "hvariety.nondegenerate_sweep"
    tried = tracer.child_count(sweep, "hvariety.hyperdeterminant")
    accepted = tracer.child_count(sweep, "coord8.presentation")
    derived[f"{sweep}.cube_accept_ratio"] = accepted / tried if tried else 0.0
    derived["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))

    metrics = {}
    for declared in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = declared["name"]
        if name not in derived:
            base, field = name.rsplit(".", 1)
            if base not in NAMES or field not in none:
                raise ValueError(f"per-layer metric {name} is not measured")
            derived[name] = _per_pass(totals.get(base, none)[field], n)
        metrics[name] = {"value": derived[name], "unit": declared["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cubicjordan" / "cli.py").is_file():
        print(f"no cubicjordan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cubicjordan.cli as cli

    info = stamp()
    commands = WORKLOADS[args.workload]
    setup_times: list[float] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        # Every timed pass must reproduce the reports of a fresh interpreter.
        reference = fresh_digest(args.workload, args.seed, args.defect, workdir)
        if args.trace:
            plain = measure(cli, commands, args.seed, args.defect, workdir,
                            args.seconds / 2, reference)
            tracer = Tracer()
            tracer.install()
            try:
                leftovers = tracer.leftover_references()
                traced = measure(cli, commands, args.seed, args.defect, workdir,
                                 args.seconds / 2, reference)
            finally:
                tracer.uninstall()
            missing = tracer.missing
            for leftover in leftovers:
                print(f"unwrapped binding: {leftover}", file=sys.stderr)
            for target in missing:
                print(f"trace target not found: {target}", file=sys.stderr)
        else:
            spawn_ready(1)  # writes the bytecode cache; not counted
            setup_times += spawn_ready(SETUP_SPAWNS // 2)
            plain = measure(
                cli, commands, args.seed, args.defect, workdir, args.seconds,
                reference,
                after_pass=lambda: setup_times.extend(spawn_ready(SETUP_PER_PASS)))
            setup_times += spawn_ready(max(0, SETUP_SPAWNS - len(setup_times)))
            traced, leftovers, missing = [], [], []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = plain + traced
    attempted = sum(p["claims"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not leftovers and not missing
    if args.trace:
        metrics = layer_metrics(tracer, traced, plain)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in plain),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    print("stamp: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} passes={len(plain)}"
          f"+{len(traced)} traced report_sha256={reference}")
    print("pass walls (s): " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    print(f"failed_frac = {failed / attempted} ratio ({failed}/{attempted} claims)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
