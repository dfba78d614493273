"""Command-line verification front end.

Every claim is a row of ``CLAIMS``: (suite, guard, claim id, description,
call).  ``claims_of(suite, opts)`` walks the rows of one suite in table
order, skips a row whose guard, a predicate on ``Options``, refuses the
options (None admits any), and calls the rest with the options.  A call
returns an ``exactcore.Report``, whose ``ok`` and ``data`` become the
claim's status and data unchanged, or a dict of them, in claim order: then
``{}`` in the claim id takes each key in turn, and a description may be a
dict by the same keys.  The keys of a named case are read off its table
(``hvariety.REPRESENTATIVES``, ``relatives.DICTIONARIES`` and
``EMBEDDINGS``, ``grading.TORIC_ROWS``); no row names one.  Guards select
the ``--hypermatrix`` and ``--weights`` variants.  ``READERS`` names the
commands that read each input option; any other command, ``all``
included, refuses the option.

A call reaches its certificate as ``module.attr`` in its body, read when
the row runs, never as a function object stored in the table: so a
certificate wrapped in place after import, by ``--defect``, by a test or
by the tracer of ``perfbench/``, is the one that runs.  For the same
reason ``COMMANDS`` maps each subcommand to suite names, and suite ``x``
is the module global ``suite_x``, built from the table and looked up when
it runs.  ``run`` prints a pass/fail line per claim, sorted by id.

Reports are deterministic: identical inputs and seed produce
byte-identical JSON.  Exit status is 0 when every claim passes, 1 when
any claim fails, 2 on malformed input (a file that does not parse, a
``--samples`` count below one, an input option the command does not read,
a ``--defect`` that does not reach the command, or an ``InputError`` a
certificate raises on its inputs), and 3 on any other error inside a
suite, which is a fault of the program: it prints one ``internal error:``
line instead of a traceback.

The ``--defect`` flag exercises the detection machinery end to end.
A row of ``DEFECTS`` names a command, a library certificate by module and
attribute, and a tamper of the certificate's input.  ``run`` wraps the
certificate while the suites run, so that its input goes through the
tamper, and restores it afterwards.  Only the row's command (and ``all``)
reaches the certificate, so only it fails; no suite knows of defects.
Any other command refuses the defect as malformed input, with exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import coord8, grading, hvariety, jordan, relatives
from .coord8 import Hypermatrix
from .errors import InputError
from .exactcore import Report

SCHEMA_VERSION = 1

# defect: (command, module, certificate, tamper of the certificate's input)
DEFECTS = {
    "tampered-sharp": (
        "verify-axioms", "jordan", "verify_sharp_conditions",
        lambda p: jordan.JordanPresentation(p.ring, p.coords, p.unit, p.cubic,
                                            (p.sharp[0] + p.ring.var("x11") ** 2, *p.sharp[1:]))),
    "skip-chart-substitution": (
        "chart", "hvariety", "chart_reduce_u1",
        lambda sub: {k: v for k, v in sub.items() if k != "u3"}),
    "perturbed-dictionary": (
        "specialize", "relatives", "verify_specialization",
        lambda d: d if d.name != "c2" else d._replace(
            mapping={**d.mapping, "x22": d.target.var("th1") + d.target.var("A12")})),
}


class Claim(NamedTuple):
    claim_id: str
    description: str
    status: str
    data: dict


class Options(NamedTuple):
    """What a suite reads: the common flags and the parsed input files."""

    seed: int
    samples: int
    cube: Hypermatrix | None = None
    weights: grading.WeightSystem | tuple[grading.WeightSystem, ...] | None = None
    sections: int = 9


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------


def _no_data(rep: Report) -> Report:
    """The verdict of ``rep`` alone, for a claim that reports no data."""
    return Report(rep.ok, {})


def _announce(rep: Report) -> Report:
    """Print the orbit of the ``--hypermatrix`` cube ahead of the claim lines."""
    d = rep.data
    print(f"{d['label']}, D_H = {d['hyperdet']}, flattening ranks {tuple(d['ranks'])}")
    return rep


# (suite, guard, claim id, description, call); see the module docstring
CLAIMS = (
    ("axioms", None, "axioms/{}", "defining condition of the sharp map holds as an exact "
     "identity with symbolic coordinates and parameters",
     lambda o: jordan.verify_sharp_conditions(coord8.presentation(None))),
    ("axioms", None, "axioms/{}", {
        "table-vs-map": "product-table quadratic map equals the closed-form sharp map",
        "idempotent-traces": "each idempotent has trace one",
        "triple-product": "iterated product against an adjacent off-diagonal element "
                          "reduces to the negated quadratic spur",
        "rep-matrices": "displayed 2x2 representation matrices are reproduced",
        "rep-product": "opposite representation matrices multiply to the negated spur",
        "rep-det": "determinant normalization of the representation matrices"},
     lambda o: coord8.verify_peirce_identities(coord8.presentation(None))),
    ("axioms", None, "axioms/cubic-display-{}",
     "specialized cubic form matches its closed display",
     lambda o: {n: hvariety.cubic_display_certificate(n)
                for n, row in hvariety.REPRESENTATIVES.items() if row.display}),
    ("axioms", None, "axioms/cubic-integer-coefficients", "fully symbolic cubic form has "
     "integer coefficients",
     lambda o: coord8.integer_cubic_certificate(coord8.presentation(None))),
    ("axioms", None, "axioms/unit-and-idempotents", "unit decomposition, unit operator, "
     "idempotent facts, square and spur identities all hold symbolically",
     lambda o: coord8.verify_unit_identities(coord8.presentation(None))),

    ("classify", lambda o: o.cube is not None, "classify/input",
     "orbit classification of the given cube",
     lambda o: _announce(hvariety.orbit_certificate(o.cube))),
    ("classify", lambda o: o.cube is None, "classify/rep-{}",
     "representative cube lands in its orbit class",
     lambda o: {n: hvariety.orbit_certificate(hvariety.representative(n), row.orbit)
                for n, row in hvariety.REPRESENTATIVES.items()}),
    ("classify", lambda o: o.cube is None, "classify/translate-invariance",
     "classification is constant on sampled group translates",
     lambda o: hvariety.translate_invariance(o.seed)),
    ("classify", lambda o: o.cube is None, "classify/equivariance-factor{}",
     "stated generator transformation law holds with a symbolic 2x2 factor",
     lambda o: {r: hvariety.factor_equivariance_certificate(r) for r in (1, 2, 3)}),
    ("classify", lambda o: o.cube is None, "classify/equivariance-perm-{}",
     "index permutation maps the generator set to itself up to signs",
     lambda o: {"".join(map(str, perm)): hvariety.permutation_certificate(perm)
                for perm in ((2, 3, 1), (2, 1, 3))}),
    ("classify", lambda o: o.cube is None, "classify/equivariance-swap",
     "triple antidiagonal swap exchanges pair rows and keeps the span",
     lambda o: hvariety.swap_all_factors_certificate()),
    ("classify", lambda o: o.cube is None, "classify/hyperdet-covariance",
     "hyperdeterminant transforms by the squared determinant of each symbolic factor "
     "(exponent computed, not assumed)", lambda o: hvariety.hyperdet_covariance_certificate()),

    ("fiber", None, "fiber/p4-minors", "generic fiber system span-equals the nine 2x2 minors "
     "of the coordinate 3x3 matrix", lambda o: hvariety.fiber_certificate_p4()),
    ("fiber", None, "fiber/p3-degenerate", "degenerate fiber system span-equals the symmetric "
     "rank-one-plus-kernel system", lambda o: hvariety.fiber_certificate_p3()),
    ("fiber", None, "fiber/{}-components", "every generator vanishes on sampled points of "
     "each listed fiber component",
     lambda o: {n: hvariety.fiber_component_sampling(n, o.seed, o.samples)
                for n, row in hvariety.REPRESENTATIVES.items() if row.components}),

    ("chart", None, "chart/reduction", "chart elimination zeroes all nine generators "
     "symbolically in the twelve free coordinates",
     lambda o: hvariety.chart_reduce_u1(hvariety.chart_substitution())),
    ("chart", None, "chart/det-identity", "on the chart the first difference determinant is "
     "minus the product of the other two", lambda o: hvariety.chart_det_identity()),
    ("chart", None, "chart/pfaffians", "all five signed 4x4 Pfaffians of the skew chart "
     "matrix vanish on rescaled sample points",
     lambda o: hvariety.pfaffian_vanishing_on_samples(o.seed, o.samples)),

    ("radicals", None, "radicals/{}", "sampled membership matches the stated locus, the two "
     "membership tests agree, and the specialized cubic form matches its display",
     lambda o: {n: hvariety.radical_locus_check(n, o.seed, o.samples)
                for n in hvariety.REPRESENTATIVES}),
    ("radicals", None, "radicals/generic-nondegenerate", "at cubes with nonvanishing "
     "hyperdeterminant no nonzero element is an absolute zero divisor",
     lambda o: hvariety.nondegenerate_sweep(o.seed)),

    ("specialize", None, "specialize/{}", {
        n: "dictionary specialization span-equals the target equation system"
        if target else "partial specialization emits its generator set"
        for n, (_, _, target) in relatives.DICTIONARIES.items()},
     lambda o: {n: relatives.verify_specialization(relatives.dictionary(n))
                for n in relatives.DICTIONARIES}),
    ("specialize", None, "specialize/composed", "freezing the remaining cluster parameters "
     "inside the first partial specialization reproduces the cluster span",
     lambda o: relatives.composed_specialization_check()),
    ("specialize", None, "specialize/m8-action", "two-factor action maps the ten generators "
     "into their own span with symbolic factors", lambda o: relatives.m8_action_certificate()),
    ("specialize", None, "specialize/s6-action", "3x3 frame action maps the nine generators "
     "into their own span with a symbolic frame", lambda o: relatives.s6_action_certificate()),
    ("specialize", None, "specialize/m8-trace", "sandwich block is trace-free, matching its "
     "trace-free target shape", lambda o: relatives.m8_trace_consistency()),

    ("embeddings", None, "prop76/part-{}", "sampled cluster-slice points satisfy every target "
     "generator exactly and the transported weight relations hold on the solved lattice",
     lambda o: {part.lower(): relatives.verify_cluster_embedding(part, o.seed, o.samples)
                for part in relatives.EMBEDDINGS}),

    ("weights", lambda o: o.weights is None, "weights/lattice", "homogeneity constraints "
     "solve to an affine lattice containing the standard positive grading",
     lambda o: grading.lattice_certificate(hvariety.equations())),
    ("weights", lambda o: isinstance(o.weights, tuple), "weights/bigraded",
     "equations are homogeneous under both grading rows",
     lambda o: grading.check_bigraded(hvariety.equations(), *o.weights)),
    ("weights", lambda o: isinstance(o.weights, dict), "weights/{}", {
        "homogeneous": "equations are homogeneous under the given weights",
        "canonical": "weight sums satisfy the dualizing consistency identity"},
     lambda o: grading.weight_certificates(hvariety.equations(), o.weights)),

    ("toric_matrices", None, "weights/bigraded-{}", "equations are homogeneous under both "
     "rows of the two-row weight matrix",
     lambda o: {k: _no_data(grading.check_bigraded(hvariety.equations(),
                                                   *grading.toric_weight_matrix(k)))
                for k in grading.TORIC_ROWS}),
    ("toric_matrices", None, "weights/row-operations", "derived weight matrices are the "
     "stated row operations of the base matrix",
     lambda o: grading.toric_matrices_row_equivalent()),
    ("toric_matrices", None, "weights/published-example", "published weight system keeps "
     "the partial specialization homogeneous",
     lambda o: _no_data(grading.check_homogeneous(relatives.dictionary("h12").specialize(),
                                                  grading.example_5052_weights()))),

    ("hilbert", None, "hilbert/{}", {
        "canonical": "generator-weight arithmetic and dualizing twists",
        "numerator": "alternating shift sum of the resolution",
        "palindromy": "numerator is palindromic of top degree delta",
        "pairing": "resolution shifts pair to the top shift",
        "invariants": "exact anticanonical degree and genus of the section"},
     lambda o: grading.hilbert_certificates(o.weights, o.sections)),
)


def claims_of(suite: str, opts: Options) -> list[Claim]:
    """The claims of the rows of ``suite`` whose guard admits ``opts``."""
    claims = []
    for row_suite, guard, claim_id, description, call in CLAIMS:
        if row_suite != suite or guard is not None and not guard(opts):
            continue
        result = call(opts)
        reports = result if isinstance(result, dict) else {None: result}
        for key, (ok, data) in reports.items():
            text = description if isinstance(description, str) else description[key]
            claims.append(Claim(claim_id.format(key), text, "pass" if ok else "fail", data))
    return claims


suite_axioms, suite_classify, suite_fiber, suite_chart, suite_radicals, suite_specialize, \
    suite_embeddings, suite_weights, suite_toric_matrices, suite_hilbert = (
        partial(claims_of, name) for name in ("axioms", "classify", "fiber", "chart",
                                              "radicals", "specialize", "embeddings",
                                              "weights", "toric_matrices", "hilbert"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

COMMANDS = {
    "verify-axioms": ("axioms",),
    "classify": ("classify",),
    "fiber": ("fiber",),
    "chart": ("chart",),
    "radicals": ("radicals",),
    "specialize": ("specialize",),
    "prop76": ("embeddings",),
    "weights": ("weights", "toric_matrices"),
    "hilbert": ("hilbert",),
}

# input option: the commands that read it; every other command refuses it
READERS = {"hypermatrix": ("classify",), "weights": ("weights", "hilbert"),
           "sections": ("hilbert",)}


PARSER = argparse.ArgumentParser(
    prog="cubicjordan",
    description="exact verification suites for the sharp-map variety and its relatives")
PARSER.add_argument("command", choices=[*COMMANDS, "all"])
PARSER.add_argument("--hypermatrix", type=Path, default=None,
                    help="cube file: 8 rationals or a JSON object")
PARSER.add_argument("--weights", type=Path, default=None,
                    help="JSON weight file, scalar or two-element entries")
PARSER.add_argument("--seed", type=int, default=0)
PARSER.add_argument("--samples", type=int, default=30)
PARSER.add_argument("--sections", type=int, default=None)
PARSER.add_argument("--json", type=Path, default=None,
                    help="write the machine-readable report here")
PARSER.add_argument("--defect", choices=DEFECTS, default=None,
                    help="inject a deliberate fault (self-test)")


def run(argv: list[str] | None = None) -> int:
    args = PARSER.parse_args(argv)

    cube = None
    weights = None
    try:
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        for option, readers in READERS.items():
            if getattr(args, option) is not None and args.command not in readers:
                raise ValueError(f"--{option} is not read by {args.command}")
        if args.defect and args.command not in (DEFECTS[args.defect][0], "all"):
            raise ValueError(f"--defect {args.defect} does not reach {args.command}")
        if args.hypermatrix is not None:
            cube = Hypermatrix.parse(args.hypermatrix.read_text())
        if args.weights is not None:
            weights = grading.parse_weight_file(args.weights.read_text())
        if args.json is not None and (args.json.is_dir() or not args.json.parent.is_dir()):
            raise ValueError(f"--json {args.json} is not a file in an existing directory")
    except (OSError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    suites = ([name for row in COMMANDS.values() for name in row] if args.command == "all"
              else COMMANDS[args.command])
    opts = Options(args.seed, args.samples, cube, weights,
                   Options._field_defaults["sections"] if args.sections is None
                   else args.sections)
    if args.defect:
        _, module, attr, tamper = DEFECTS[args.defect]
        owner = globals()[module]
        certificate = getattr(owner, attr)
        setattr(owner, attr, lambda arg: certificate(tamper(arg)))
    claims: list[Claim] = []
    try:
        for name in suites:
            claims += globals()[f"suite_{name}"](opts)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if args.defect:
            setattr(owner, attr, certificate)

    claims.sort(key=lambda c: c.claim_id)
    for c in claims:
        print(f"[{c.status.upper()}] {c.claim_id}")

    failed = [c for c in claims if c.status == "fail"]
    summary = {"total": len(claims), "passed": len(claims) - len(failed),
               "failed": len(failed)}
    print(f"{summary['passed']}/{summary['total']} claims passed")

    if args.json is not None:
        report = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "seed": args.seed,
            "samples": args.samples,
            "claims": [c._asdict() for c in claims],
            "summary": summary,
        }
        try:
            args.json.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
        except OSError as exc:
            print(f"input error: cannot write the report: {exc}", file=sys.stderr)
            return 2

    if failed:
        def witness(c: Claim):
            return c.data.get("residual") or c.data.get("failures")

        first = next((c for c in failed if witness(c)), failed[0])
        print(f"first failing claim: {first.claim_id}"
              + (f": {witness(first)}" if witness(first) else ""), file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
