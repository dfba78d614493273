"""Command-line verification front end.

``COMMANDS`` maps each subcommand to the names of its suites; suite ``x``
is the function ``suite_x``, looked up when it runs, so a suite wrapped in
place after import (as by the tracer of ``perfbench/``) is the one run.
``all`` runs every row in table order and ignores ``--hypermatrix``,
``--weights`` and ``--sections``.  Every suite takes one ``Options`` and
returns claims; a certificate behind one claim returns an
``exactcore.Report``, whose ``ok`` and ``data`` go to ``claim`` unchanged.
``run`` prints a pass/fail line per claim.

Reports are deterministic: identical inputs and seed produce
byte-identical JSON.  Exit status is 0 when every claim passes, 1 when
any claim fails, 2 on malformed input (a file that does not parse, a
``--samples`` count below one, or an ``InputError`` a suite raises on its
inputs), and 3 on any other error inside a suite, which is a fault of the
program: it prints one ``internal error:`` line instead of a traceback.

The ``--defect`` flag exercises the detection machinery end to end.
A row of ``DEFECTS`` names a command, a library certificate by module and
attribute, and a tamper of the certificate's input.  ``run`` wraps the
certificate while the suites run, so that its input goes through the
tamper, and restores it afterwards.  Only the row's command (and ``all``)
reaches the certificate, so only it fails; no suite knows of defects.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import coord8, grading, hvariety, jordan, relatives
from .coord8 import Hypermatrix
from .errors import InputError, NumeratorNotDivisible
from .exactcore import Poly

SCHEMA_VERSION = 1

# The paper's degree and genus of the threefold cut by the standard sections.
STANDARD_FANO = (Fraction(11, 2), 3)

# defect: (command, module, certificate, tamper of the certificate's input)
DEFECTS = {
    "tampered-sharp": (
        "verify-axioms", "jordan", "verify_sharp_conditions",
        lambda p: dataclasses.replace(
            p, sharp=(p.sharp[0] + p.ring.var("x11") ** 2, *p.sharp[1:]))),
    "skip-chart-substitution": (
        "chart", "hvariety", "chart_reduce_u1",
        lambda sub: {k: v for k, v in sub.items() if k != "u3"}),
    "perturbed-dictionary": (
        "specialize", "relatives", "verify_specialization",
        lambda d: d if isinstance(d, str) or d.name != "c2" else dataclasses.replace(
            d, mapping={**d.mapping, "x22": d.target.var("th1") + d.target.var("A12")})),
}


@dataclasses.dataclass
class Claim:
    claim_id: str
    description: str
    status: str
    data: dict

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclasses.dataclass(frozen=True)
class Options:
    """What a suite reads: the common flags and the parsed input files."""

    seed: int
    samples: int
    cube: Hypermatrix | None = None
    weights: grading.WeightSystem | tuple[grading.WeightSystem, ...] | None = None
    sections: int = 9


def claim(claim_id: str, description: str, ok: bool, data: dict | None = None) -> Claim:
    return Claim(claim_id, description, "pass" if ok else "fail", data or {})


def _jsonable(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Poly):
        return value.to_str()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_axioms(opts: Options) -> list[Claim]:
    claims: list[Claim] = []
    pres = coord8.presentation(None)
    rep = jordan.verify_sharp_conditions(pres)
    for tag, key, ok in (("sharp1", "s1", rep.s1), ("sharp2", "s2", rep.s2),
                         ("sharp3", "s3", rep.s3)):
        residual = next((r.to_str() for r in rep.residuals.get(key, [])), None)
        claims.append(claim(
            f"axioms/{tag}",
            "defining condition of the sharp map holds as an exact identity "
            "with symbolic coordinates and parameters",
            ok, {"residual": residual}))

    table_rep = coord8.verify_peirce_identities(pres)
    claims.append(claim("axioms/table-vs-map",
                        "product-table quadratic map equals the closed-form sharp map",
                        table_rep.table_matches_sharp_map, {}))
    claims.append(claim("axioms/idempotent-traces",
                        "each idempotent has trace one",
                        table_rep.idempotent_traces_ok, {}))
    claims.append(claim("axioms/triple-product",
                        "iterated product against an adjacent off-diagonal element "
                        "reduces to the negated quadratic spur",
                        table_rep.triple_product_ok, {}))
    claims.append(claim("axioms/rep-matrices",
                        "displayed 2x2 representation matrices are reproduced",
                        table_rep.rep_matrix_displays_ok, {}))
    claims.append(claim("axioms/rep-product",
                        "opposite representation matrices multiply to the negated spur",
                        table_rep.rep_product_ok, {}))
    claims.append(claim("axioms/rep-det",
                        "determinant normalization of the representation matrices",
                        table_rep.rep_det_ok, {}))

    for name in ("origin", "p1", "p2", "p3"):
        P = hvariety.representative(name)
        got = coord8.cubic_form(P).to_str()
        want = hvariety._NP_DISPLAYS[name]
        claims.append(claim(f"axioms/cubic-display-{name}",
                            "specialized cubic form matches its closed display",
                            got == want, {"computed": got, "expected": want}))
    claims.append(claim("axioms/cubic-integer-coefficients",
                        "fully symbolic cubic form has integer coefficients",
                        all(c.denominator == 1 for c in pres.cubic.coefficients()),
                        {"terms": len(pres.cubic.terms)}))

    claims.append(claim("axioms/unit-and-idempotents",
                        "unit decomposition, unit operator, idempotent facts, "
                        "square and spur identities all hold symbolically",
                        *coord8.verify_unit_identities(pres)))
    return claims


def suite_classify(opts: Options) -> list[Claim]:
    if opts.cube is not None:
        label = hvariety.classify_orbit(opts.cube)
        print(f"{label.label}, D_H = {label.hyperdet}, "
              f"flattening ranks {label.flattening_ranks}")
        data = {"label": label.label, "hyperdet": label.hyperdet,
                "ranks": list(label.flattening_ranks)}
        residual = hvariety.orbit_label_residual(opts.cube, label)
        if residual is not None:
            data["residual"] = residual
        return [claim("classify/input", "orbit classification of the given cube",
                      residual is None, data)]

    claims: list[Claim] = []
    expected = {"origin": "origin", "p1": "O1", "p2": "O2", "p3": "O3", "p4": "O4"}
    for name, want in expected.items():
        got = hvariety.classify_orbit(hvariety.representative(name))
        claims.append(claim(f"classify/rep-{name}",
                            "representative cube lands in its orbit class",
                            got.label == want,
                            {"label": got.label, "hyperdet": got.hyperdet,
                             "ranks": list(got.flattening_ranks)}))

    claims.append(claim("classify/translate-invariance",
                        "classification is constant on sampled group translates",
                        *hvariety.translate_invariance(opts.seed)))

    for r in (1, 2, 3):
        claims.append(claim(f"classify/equivariance-factor{r}",
                            "stated generator transformation law holds with a "
                            "symbolic 2x2 factor",
                            *hvariety.factor_equivariance_certificate(r)))
    for perm in ((2, 3, 1), (2, 1, 3)):
        claims.append(claim(f"classify/equivariance-perm-{''.join(map(str, perm))}",
                            "index permutation maps the generator set to itself "
                            "up to signs", *hvariety.permutation_certificate(perm)))
    claims.append(claim("classify/equivariance-swap",
                        "triple antidiagonal swap exchanges pair rows and keeps "
                        "the span", *hvariety.swap_all_factors_certificate()))

    exponents = {r: hvariety.hyperdet_covariance_exponent(r) for r in (1, 2, 3)}
    claims.append(claim("classify/hyperdet-covariance",
                        "hyperdeterminant transforms by the squared determinant "
                        "of each symbolic factor (exponent computed, not assumed)",
                        all(e == 2 for e in exponents.values()),
                        {"exponents": {str(k): v for k, v in exponents.items()}}))
    return claims


def suite_fiber(opts: Options) -> list[Claim]:
    claims = [claim("fiber/p4-minors",
                    "generic fiber system span-equals the nine 2x2 minors "
                    "of the coordinate 3x3 matrix", *hvariety.fiber_certificate_p4()),
              claim("fiber/p3-degenerate",
                    "degenerate fiber system span-equals the symmetric "
                    "rank-one-plus-kernel system", *hvariety.fiber_certificate_p3())]
    for name in ("origin", "p1", "p2"):
        claims.append(claim(f"fiber/{name}-components",
                            "every generator vanishes on sampled points of each "
                            "listed fiber component",
                            *hvariety.fiber_component_sampling(name, opts.seed,
                                                               opts.samples)))
    return claims


def suite_chart(opts: Options) -> list[Claim]:
    return [claim("chart/reduction",
                  "chart elimination zeroes all nine generators "
                  "symbolically in the twelve free coordinates",
                  *hvariety.chart_reduce_u1(hvariety.chart_substitution())),
            claim("chart/det-identity",
                  "on the chart the first difference determinant is minus "
                  "the product of the other two",
                  hvariety.chart_det_identity(), {}),
            claim("chart/pfaffians",
                  "all five signed 4x4 Pfaffians of the skew chart matrix "
                  "vanish on rescaled sample points",
                  *hvariety.pfaffian_vanishing_on_samples(opts.seed, opts.samples))]


def suite_radicals(opts: Options) -> list[Claim]:
    claims = [claim(f"radicals/{name}",
                    "sampled membership matches the stated locus, the "
                    "two membership tests agree, and the specialized "
                    "cubic form matches its display",
                    *hvariety.radical_locus_check(name, opts.seed, opts.samples))
              for name in ("origin", "p1", "p2", "p3", "p4")]
    claims.append(claim("radicals/generic-nondegenerate",
                        "at cubes with nonvanishing hyperdeterminant no nonzero "
                        "element is an absolute zero divisor",
                        *hvariety.nondegenerate_sweep(opts.seed, cubes=50,
                                                      sigmas_per_cube=2)))
    return claims


def suite_specialize(opts: Options) -> list[Claim]:
    claims = []
    for name in ("c2", "m8", "s6"):
        rep = relatives.verify_specialization(relatives.dictionary(name))
        data = {"relation": rep.span.relation}
        if not rep.ok:
            data["residual"] = next(
                (str(g) for g, w in zip(rep.specialized.gens, rep.span.a_in_b)
                 if w is None), None)
        claims.append(claim(f"specialize/{name}",
                            "dictionary specialization span-equals the target "
                            "equation system", rep.ok, data))
    for name in ("h12", "h11"):
        rep = relatives.verify_specialization(name)
        claims.append(claim(f"specialize/{name}",
                            "partial specialization emits its generator set",
                            rep.ok, {"generators": len(rep.specialized)}))
    claims.append(claim("specialize/composed",
                        "freezing the remaining cluster parameters inside the "
                        "first partial specialization reproduces the cluster span",
                        relatives.composed_specialization_check(), {}))
    claims.append(claim("specialize/m8-action",
                        "two-factor action maps the ten generators into their "
                        "own span with symbolic factors",
                        *relatives.m8_action_certificate()))
    claims.append(claim("specialize/s6-action",
                        "3x3 frame action maps the nine generators into their "
                        "own span with a symbolic frame",
                        *relatives.s6_action_certificate()))
    claims.append(claim("specialize/m8-trace",
                        "sandwich block is trace-free, matching its trace-free "
                        "target shape", relatives.m8_trace_consistency(), {}))
    return claims


def suite_embeddings(opts: Options) -> list[Claim]:
    return [claim(cid,
                  "sampled cluster-slice points satisfy every target "
                  "generator exactly and the transported weight "
                  "relations hold on the solved lattice",
                  *relatives.verify_cluster_embedding(part, opts.seed, opts.samples))
            for part, cid in (("I", "prop76/part-i"), ("II", "prop76/part-ii"))]


def suite_weights(opts: Options) -> list[Claim]:
    claims = []
    weights_arg = opts.weights
    eqs = hvariety.equations()
    if weights_arg is None:
        lattice = grading.solve_weight_constraints(eqs)
        std = grading.standard_weights()
        claims.append(claim("weights/lattice",
                            "homogeneity constraints solve to an affine lattice "
                            "containing the standard positive grading",
                            lattice.contains(std),
                            {"dimension": lattice.dimension}))
        return claims
    if isinstance(weights_arg, tuple):
        rep1, rep2 = grading.check_bigraded(eqs, *weights_arg)
        data = {"row1": [str(x.weight) for x in rep1.per_generator],
                "row2": [str(x.weight) for x in rep2.per_generator]}
        if not (rep1.ok and rep2.ok):
            data["failures"] = [f"row{n} {f}" for n, r in ((1, rep1), (2, rep2))
                                for f in r.failures()]
        claims.append(claim("weights/bigraded",
                            "equations are homogeneous under both grading rows",
                            rep1.ok and rep2.ok, data))
        return claims
    rep = grading.check_homogeneous(eqs, weights_arg)
    data = {"weights": [str(x.weight) for x in rep.per_generator]}
    if not rep.ok:
        data["failures"] = rep.failures()
    claims.append(claim("weights/homogeneous",
                        "equations are homogeneous under the given weights",
                        rep.ok, data))
    if rep.ok and all(n in weights_arg for n in coord8.ALL_VARS) \
            and all(Fraction(weights_arg[n]) > 0 for n in coord8.ALL_VARS):
        can = grading.canonical_arithmetic(weights_arg)
        claims.append(claim("weights/canonical",
                            "weight sums satisfy the dualizing consistency "
                            "identity", can.consistent,
                            {"c": can.c, "d": can.d, "delta": can.delta,
                             "sum": can.weight_sum,
                             "variety_twist": can.variety_dualizing_twist}))
    return claims


def suite_hilbert(opts: Options) -> list[Claim]:
    if isinstance(opts.weights, tuple):
        raise InputError("hilbert needs a single grading")
    claims = []
    w = opts.weights if opts.weights is not None else grading.standard_weights()
    can = grading.canonical_arithmetic(w)
    claims.append(claim("hilbert/canonical",
                        "generator-weight arithmetic and dualizing twists",
                        can.consistent,
                        {"c": can.c, "d": can.d, "delta": can.delta,
                         "sum": can.weight_sum,
                         "ambient_twist": can.ambient_dualizing_twist,
                         "variety_twist": can.variety_dualizing_twist}))
    num = grading.hilbert_numerator(w)
    delta = int(can.delta)
    claims.append(claim("hilbert/numerator",
                        "alternating shift sum of the resolution",
                        bool(num), {"numerator": grading.poly1_str(num)}))
    claims.append(claim("hilbert/palindromy",
                        "numerator is palindromic of top degree delta",
                        grading.numerator_is_palindromic(num, delta),
                        {"delta": delta}))
    claims.append(claim("hilbert/pairing",
                        "resolution shifts pair to the top shift",
                        grading.shift_pairing_holds(w), {}))
    try:
        fano = grading.fano_invariants(w, sections=opts.sections)
    except NumeratorNotDivisible as exc:
        ok, data = False, {"residual": str(exc)}
    else:
        data = {"degree": fano.degree, "h0": fano.h0,
                "genus": fano.genus, "dimension": fano.dimension}
        # the standard grading must give the paper's values; other weights
        # or section counts only report theirs
        standard = w == grading.standard_weights() and opts.sections == Options.sections
        ok = not standard or (fano.degree, fano.genus) == STANDARD_FANO
        if not ok:
            data["residual"] = (f"degree {fano.degree}, genus {fano.genus}; expected "
                                "degree {}, genus {}".format(*STANDARD_FANO))
    claims.append(claim("hilbert/invariants",
                        "exact anticanonical degree and genus of the section",
                        ok, data))
    return claims


def suite_toric_matrices(opts: Options) -> list[Claim]:
    claims = []
    eqs = hvariety.equations()
    for kind in ("base", "shifted", "swapped"):
        r1, r2 = grading.toric_weight_matrix(kind)
        h1, h2 = grading.check_bigraded(eqs, r1, r2)
        claims.append(claim(f"weights/bigraded-{kind}",
                            "equations are homogeneous under both rows of the "
                            "two-row weight matrix", h1.ok and h2.ok, {}))
    claims.append(claim("weights/row-operations",
                        "derived weight matrices are the stated row operations "
                        "of the base matrix",
                        grading.toric_matrices_row_equivalent(), {}))
    h12 = relatives.verify_specialization("h12").specialized
    rep = grading.check_homogeneous(h12, grading.example_5052_weights())
    claims.append(claim("weights/published-example",
                        "published weight system keeps the partial "
                        "specialization homogeneous", rep.ok, {}))
    return claims


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicjordan",
        description="exact verification suites for the sharp-map variety "
                    "and its relatives")
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    parser.add_argument("--hypermatrix", type=Path, default=None,
                        help="cube file: 8 rationals or a JSON object")
    parser.add_argument("--weights", type=Path, default=None,
                        help="JSON weight file, scalar or two-element entries")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=30)
    parser.add_argument("--sections", type=int, default=Options.sections)
    parser.add_argument("--json", type=Path, default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--defect", choices=DEFECTS, default=None,
                        help="inject a deliberate fault (self-test)")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    cube = None
    weights = None
    try:
        if args.samples < 1:
            raise ValueError("--samples must be at least 1")
        if args.hypermatrix is not None:
            cube = Hypermatrix.parse(args.hypermatrix.read_text())
        if args.weights is not None:
            weights = grading.parse_weight_file(args.weights.read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    if args.command == "all":
        suites = [name for row in COMMANDS.values() for name in row]
        opts = Options(args.seed, args.samples)
    else:
        suites = COMMANDS[args.command]
        opts = Options(args.seed, args.samples, cube, weights, args.sections)
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
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.claim_id}")

    failed = [c for c in claims if not c.passed]
    summary = {"total": len(claims), "passed": len(claims) - len(failed),
               "failed": len(failed)}
    print(f"{summary['passed']}/{summary['total']} claims passed")

    if args.json is not None:
        report = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "seed": args.seed,
            "samples": args.samples,
            "claims": [{
                "claim_id": c.claim_id,
                "description": c.description,
                "status": c.status,
                "data": _jsonable(c.data),
            } for c in claims],
            "summary": summary,
        }
        args.json.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if failed:
        def witness(c: Claim):
            return c.data.get("residual") or c.data.get("failures")

        first = next((c for c in failed if witness(c)), failed[0])
        print(f"first failing claim: {first.claim_id}: {witness(first)}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
