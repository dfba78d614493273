"""Command-line verification front end.

``COMMANDS`` maps each subcommand to the names of its suites; suite ``x``
is the function ``suite_x``, looked up when it runs, so a suite wrapped in
place after import (as by the tracer of ``perfbench/``) is the one run.
``all`` runs every row in table order and ignores ``--hypermatrix``,
``--weights`` and ``--sections``.  Every suite takes one ``Options`` and
returns claims, and ``run`` prints a pass/fail line per claim.

Reports are deterministic: identical inputs and seed produce
byte-identical JSON.  Exit status is 0 when every claim passes, 1 when
any claim fails, 2 on malformed input.

The ``--defect`` flag exercises the detection machinery end to end.
``DEFECTS`` maps each defect to the command whose suite it tampers with
(under ``all`` too): that suite hands a tampered copy of one input object
(a sharp component, the chart substitution, a c2 dictionary entry) to the
unchanged library certificate, which must then fail.
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
from .errors import NumeratorNotDivisible
from .exactcore import Poly

SCHEMA_VERSION = 1

DEFECTS = {
    "tampered-sharp": "verify-axioms",
    "skip-chart-substitution": "chart",
    "perturbed-dictionary": "specialize",
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
    defect: str | None = None
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


def _tampered_sharp(pres: jordan.JordanPresentation) -> jordan.JordanPresentation:
    """The presentation with x11^2 added to its first sharp component."""
    x11 = pres.ring.var("x11")
    return dataclasses.replace(pres, sharp=(pres.sharp[0] + x11 * x11,) + pres.sharp[1:])


def _perturbed_dictionary(d: relatives.Dictionary) -> relatives.Dictionary:
    """The dictionary with th1 + A12 as the image of x22."""
    ring = d.target
    return dataclasses.replace(
        d, mapping={**d.mapping, "x22": ring.var("th1") + ring.var("A12")})


def suite_axioms(opts: Options) -> list[Claim]:
    claims: list[Claim] = []
    pres = coord8.presentation(None)
    checked = _tampered_sharp(pres) if opts.defect == "tampered-sharp" else pres

    rep = jordan.verify_sharp_conditions(checked)
    for tag, key, ok in (("sharp1", "s1", rep.s1), ("sharp2", "s2", rep.s2),
                         ("sharp3", "s3", rep.s3)):
        residual = next((r.to_str() for r in rep.residuals.get(key, [])), None)
        claims.append(claim(
            f"axioms/{tag}",
            "defining condition of the sharp map holds as an exact identity "
            "with symbolic coordinates and parameters",
            ok, {"residual": residual}))

    table_rep = coord8.verify_peirce_identities(None)
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

    unit_ok = coord8.verify_unit_identities(pres)
    claims.append(claim("axioms/unit-and-idempotents",
                        "unit decomposition, unit operator, idempotent facts, "
                        "square and spur identities all hold symbolically",
                        all(unit_ok), {"checks": len(unit_ok)}))
    return claims


def suite_classify(opts: Options) -> list[Claim]:
    if opts.cube is not None:
        label = hvariety.classify_orbit(opts.cube)
        print(f"{label.label}, D_H = {label.hyperdet}, "
              f"flattening ranks {label.flattening_ranks}")
        return [claim("classify/input", "orbit classification of the given cube",
                      True, {"label": label.label, "hyperdet": label.hyperdet,
                             "ranks": list(label.flattening_ranks)})]

    claims: list[Claim] = []
    expected = {"origin": "origin", "p1": "O1", "p2": "O2", "p3": "O3", "p4": "O4"}
    for name, want in expected.items():
        got = hvariety.classify_orbit(hvariety.representative(name))
        claims.append(claim(f"classify/rep-{name}",
                            "representative cube lands in its orbit class",
                            got.label == want,
                            {"label": got.label, "hyperdet": got.hyperdet,
                             "ranks": list(got.flattening_ranks)}))

    inv = hvariety.translate_invariance(opts.seed)
    claims.append(claim("classify/translate-invariance",
                        "classification is constant on sampled group translates",
                        inv["unstable"] == 0, {"translates": inv["translates"]}))

    for r in (1, 2, 3):
        rep = hvariety.factor_equivariance_certificate(r)
        claims.append(claim(f"classify/equivariance-factor{r}",
                            "stated generator transformation law holds with a "
                            "symbolic 2x2 factor", rep.ok,
                            {"failures": rep.failures}))
    for perm in ((2, 3, 1), (2, 1, 3)):
        rep = hvariety.permutation_certificate(perm)
        claims.append(claim(f"classify/equivariance-perm-{''.join(map(str, perm))}",
                            "index permutation maps the generator set to itself "
                            "up to signs", rep.ok, {"failures": rep.failures}))
    rep = hvariety.swap_all_factors_certificate()
    claims.append(claim("classify/equivariance-swap",
                        "triple antidiagonal swap exchanges pair rows and keeps "
                        "the span", rep.ok, {"failures": rep.failures}))

    exponents = {r: hvariety.hyperdet_covariance_exponent(r) for r in (1, 2, 3)}
    claims.append(claim("classify/hyperdet-covariance",
                        "hyperdeterminant transforms by the squared determinant "
                        "of each symbolic factor (exponent computed, not assumed)",
                        all(e == 2 for e in exponents.values()),
                        {"exponents": {str(k): v for k, v in exponents.items()}}))
    return claims


def suite_fiber(opts: Options) -> list[Claim]:
    claims = []
    rep = hvariety.fiber_certificate_p4()
    claims.append(claim("fiber/p4-minors",
                        "generic fiber system span-equals the nine 2x2 minors "
                        "of the coordinate 3x3 matrix", rep.ok, rep.detail))
    rep = hvariety.fiber_certificate_p3()
    claims.append(claim("fiber/p3-degenerate",
                        "degenerate fiber system span-equals the symmetric "
                        "rank-one-plus-kernel system", rep.ok, rep.detail))
    for name in ("origin", "p1", "p2"):
        rep = hvariety.fiber_component_sampling(name, opts.seed, max(opts.samples, 20))
        claims.append(claim(f"fiber/{name}-components",
                            "every generator vanishes on sampled points of each "
                            "listed fiber component", rep.ok,
                            {**rep.detail, "failures": rep.failures}))
    return claims


def suite_chart(opts: Options) -> list[Claim]:
    claims = []
    sub = hvariety.chart_substitution()
    if opts.defect == "skip-chart-substitution":
        del sub["u3"]
    rep = hvariety.chart_reduce_u1(sub)
    nonzero = [lbl for lbl, r in zip(hvariety.GEN_LABELS, rep.residuals)
               if not r.is_zero()]
    first_bad = next((r.to_str() for r in rep.residuals if not r.is_zero()), None)
    claims.append(claim("chart/reduction",
                        "chart elimination zeroes all nine generators "
                        "symbolically in the twelve free coordinates",
                        rep.ok, {"nonzero": nonzero, "residual": first_bad,
                                 "dimension": rep.chart_dimension}))
    claims.append(claim("chart/det-identity",
                        "on the chart the first difference determinant is minus "
                        "the product of the other two",
                        hvariety.chart_det_identity(), {}))
    pf = hvariety.pfaffian_vanishing_on_samples(opts.seed, max(opts.samples, 30))
    claims.append(claim("chart/pfaffians",
                        "all five signed 4x4 Pfaffians of the skew chart matrix "
                        "vanish on rescaled sample points", pf["ok"], pf))
    return claims


def suite_radicals(opts: Options) -> list[Claim]:
    claims = []
    for name in ("origin", "p1", "p2", "p3", "p4"):
        rep = hvariety.radical_locus_check(name, opts.seed, max(opts.samples, 20))
        claims.append(claim(f"radicals/{name}",
                            "sampled membership matches the stated locus, the "
                            "two membership tests agree, and the specialized "
                            "cubic form matches its display",
                            rep.ok, {**rep.detail, "failures": rep.failures}))
    sweep = hvariety.nondegenerate_sweep(opts.seed, cubes=50, sigmas_per_cube=2)
    claims.append(claim("radicals/generic-nondegenerate",
                        "at cubes with nonvanishing hyperdeterminant no nonzero "
                        "element is an absolute zero divisor", sweep["ok"], sweep))
    return claims


def suite_specialize(opts: Options) -> list[Claim]:
    claims = []
    for name in ("c2", "m8", "s6"):
        d = relatives.dictionary(name)
        if opts.defect == "perturbed-dictionary" and name == "c2":
            d = _perturbed_dictionary(d)
        rep = relatives.verify_specialization(d)
        data = {"relation": rep.relation}
        if not rep.ok:
            data["residual"] = next(
                (str(g) for g, w in zip(rep.specialized.gens,
                                        rep.witness["specialized_in_target"])
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
    failures = relatives.m8_action_certificate()
    claims.append(claim("specialize/m8-action",
                        "two-factor action maps the ten generators into their "
                        "own span with symbolic factors", not failures,
                        {"failures": failures}))
    failures = relatives.s6_action_certificate()
    claims.append(claim("specialize/s6-action",
                        "3x3 frame action maps the nine generators into their "
                        "own span with a symbolic frame", not failures,
                        {"failures": failures}))
    claims.append(claim("specialize/m8-trace",
                        "sandwich block is trace-free, matching its trace-free "
                        "target shape", relatives.m8_trace_consistency(), {}))
    return claims


def suite_embeddings(opts: Options) -> list[Claim]:
    claims = []
    for part, cid in (("I", "prop76/part-i"), ("II", "prop76/part-ii")):
        rep = relatives.verify_cluster_embedding(part, opts.seed, max(opts.samples, 30))
        claims.append(claim(cid,
                            "sampled cluster-slice points satisfy every target "
                            "generator exactly and the transported weight "
                            "relations hold on the solved lattice",
                            rep.ok, {"samples": rep.samples,
                                     "weight_relations": rep.weight_relations,
                                     "failures": rep.failures}))
    return claims


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
        raise ValueError("hilbert needs a single grading")
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
        ok, data = True, {"degree": fano.degree, "h0": fano.h0,
                          "genus": fano.genus, "dimension": fano.dimension}
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
        if args.hypermatrix is not None:
            cube = Hypermatrix.parse(args.hypermatrix.read_text())
        if args.weights is not None:
            weights = grading.parse_weight_file(args.weights.read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

    if args.command == "all":
        suites = [name for row in COMMANDS.values() for name in row]
        opts = Options(args.seed, args.samples, args.defect)
    else:
        suites = COMMANDS[args.command]
        opts = Options(args.seed, args.samples, args.defect, cube, weights,
                       args.sections)
    claims: list[Claim] = []
    try:
        for name in suites:
            claims += globals()[f"suite_{name}"](opts)
    except (ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2

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
        first = failed[0]
        residual = first.data.get("residual") or first.data.get("failures")
        print(f"first failing claim: {first.claim_id}: {residual}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
