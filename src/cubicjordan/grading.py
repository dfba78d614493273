"""Weight systems, homogeneity, and graded-ring numerology.

A weight system is a map from variable names to rationals (a pair of maps
for a bigrading).  Homogeneity of an equation set is checked monomial by
monomial; conversely the solver recovers the full affine lattice of weight
assignments making a set homogeneous, so displayed weight relations can be
certified against the whole solution set instead of a single point.

The graded shift data of the minimal free resolution of the nine-generator
ideal is recorded parametrically: every shift is a word in the coordinate
weights, the total generator weights

    c = w(x11) + w(x21) + w(u1),   d = w(u1) + w(u2) + w(u3),

and their sum.  Each number is computed by its definition at a concrete
weight system: the Hilbert numerator counts the shifts of each degree with
the sign of their term; the anticanonical degree of a three-dimensional
weight-one linear section is the fourth Taylor coefficient of the
numerator at t = 1 over the product of the remaining weights; and its
genus is h0 - 2, with h0 the t coefficient of the numerator divided by
one factor 1 - t^a per remaining weight a.  Every certificate returns a
``Report`` whose data is what its claim reports.  All of it is rational
arithmetic, never floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .coord8 import ALL_VARS, PARAM_VARS, U_VARS, X_VARS
from .errors import InfeasibleWeights, InputError, NumeratorNotDivisible
from .exactcore import (EquationSet, Rational, Report, _frac, json_rational, parse_json,
                        rref, rref_kernel, rref_solution, signed_sum, solve_linear)

WeightSystem = dict[str, Fraction]

# The paper's degree and genus of the threefold cut from the standard
# grading by nine weight-one sections.
STANDARD_FANO = (Fraction(11, 2), 3)


def weight_system(values: Mapping[str, Rational]) -> WeightSystem:
    return {name: _frac(v) for name, v in values.items()}


def standard_weights() -> WeightSystem:
    """Positive grading with unit pair and cube weights and idempotent
    weight two."""
    w = {name: Fraction(1) for name in X_VARS + PARAM_VARS}
    w.update({name: Fraction(2) for name in U_VARS})
    return w


def parse_weight_file(text: str) -> "WeightSystem | tuple[WeightSystem, WeightSystem]":
    """JSON weight file keyed by ambient variables: scalar entries give one
    grading, two-element list entries give a bigrading."""
    data = parse_json(text)
    if not isinstance(data, dict):
        raise ValueError("weight file must hold a JSON object")
    unknown = sorted(set(data) - set(ALL_VARS))
    if unknown:
        raise ValueError(f"unknown variables: {unknown}")
    bigraded = any(isinstance(v, list) for v in data.values())
    if not bigraded:
        return weight_system({k: json_rational(v) for k, v in data.items()})
    w1: WeightSystem = {}
    w2: WeightSystem = {}
    for k, v in data.items():
        if isinstance(v, list):
            if len(v) != 2:
                raise ValueError(f"bigraded entry for {k} must have two weights")
            w1[k] = json_rational(v[0])
            w2[k] = json_rational(v[1])
        else:
            w1[k] = w2[k] = json_rational(v)
    return w1, w2


# ---------------------------------------------------------------------------
# Homogeneity checking and solving
# ---------------------------------------------------------------------------


def check_homogeneous(eqs: EquationSet, w: Mapping[str, Rational]) -> Report:
    """Whether every generator is homogeneous under ``w``.  The data lists
    each generator's weight as a string ("None" when it has no single
    weight) and, when some generator is not homogeneous, its label with
    the clashing monomial weights under ``failures``.  A monomial weighs
    in integers, with the weights of the used variables over their lcm
    denominator q; only the strings divide by q."""
    ws = weight_system(w)
    names, unpack = eqs.ring.names, eqs.ring.unpack
    monos = [unpack(m) for g in eqs.gens for m in g.terms]
    used = [i for i, top in enumerate(map(max, zip(*monos))) if top]
    if any(names[i] not in ws for i in used):
        name = next(names[i] for m in monos for i, e in enumerate(m) if e and names[i] not in ws)
        raise InputError(f"no weight assigned to {name!r}")
    q = lcm(*(ws[names[i]].denominator for i in used))
    vec = [int(ws[n] * q) if i in used else 0 for i, n in enumerate(names)]
    weights, failures = [], []
    for i, g in enumerate(eqs.gens):
        seen = sorted({sum(map(mul, unpack(m), vec)) for m in g.terms})
        seen = [str(Fraction(v, q)) for v in seen]
        weights.append(seen[0] if len(seen) == 1 else "None")
        if len(seen) > 1:
            failures.append(f"{eqs.labels[i]}: monomial weights {', '.join(seen)}")
    data = {"weights": weights}
    if failures:
        data["failures"] = failures
    return Report(not failures, data)


def check_bigraded(eqs: EquationSet, w1: Mapping[str, Rational],
                   w2: Mapping[str, Rational]) -> Report:
    """Bigraded homogeneity is homogeneity under each row separately: the
    generator weights per row, and the failures of both rows, each marked
    with its row."""
    rows = check_homogeneous(eqs, w1), check_homogeneous(eqs, w2)
    data = {"row1": rows[0].data["weights"], "row2": rows[1].data["weights"]}
    failures = [f"row{n} {f}" for n, r in enumerate(rows, 1) for f in r.data.get("failures", [])]
    if failures:
        data["failures"] = failures
    return Report(not failures, data)


class WeightLattice(NamedTuple):
    """Affine solution set of the homogeneity constraints.

    ``particular + span(basis)`` over the listed variables.  A linear
    relation holds on the lattice iff it holds at the particular solution
    and annihilates every basis vector.
    """

    variables: tuple[str, ...]
    particular: list[Fraction]
    basis: list[list[Fraction]]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, w: Mapping[str, Rational]) -> bool:
        target = [_frac(w[name]) for name in self.variables]
        shifted = [t - p for t, p in zip(target, self.particular)]
        cols = [[vec[i] for vec in self.basis] for i in range(len(self.variables))]
        return solve_linear(cols, shifted, len(self.basis)) is not None

    def relation_holds(self, coefficients: Mapping[str, Rational]) -> bool:
        """Does sum(c_v * w(v)) = 0 hold for every lattice point?"""
        coeff = [Fraction(0)] * len(self.variables)
        for name, c in coefficients.items():
            coeff[self.variables.index(name)] = _frac(c)
        return all(sum(c * b for c, b in zip(coeff, vec)) == 0
                   for vec in (self.particular, *self.basis))


def solve_weight_constraints(eqs: EquationSet,
                             fixed: Mapping[str, Rational] | None = None) -> WeightLattice:
    """Solve "all monomials within each generator share one weight" as an
    exact linear system over the variables of the equation set."""
    fixed = fixed or {}
    names = eqs.ring.names
    used: set[str] = set()
    for g in eqs.gens:
        used |= g.variables()
    variables = tuple(n for n in names if n in used or n in fixed)
    index = {n: i for i, n in enumerate(variables)}

    # one sparse row per constraint, its right-hand side in column n; a
    # generator of fewer than two terms constrains nothing
    n = len(variables)
    rows: list[dict[int, Rational]] = []
    for g in eqs.gens:
        base, *others = map(eqs.ring.unpack, g.terms or (0,))
        rows += ({index[names[i]]: e - b for i, (e, b) in enumerate(zip(m, base)) if e != b}
                 for m in others)
    rows += ({index[name]: 1, n: _frac(value)} for name, value in fixed.items())

    reduced, pivots = rref(rows, n)
    particular = rref_solution(reduced, pivots, n, n)
    if particular is None:
        raise InfeasibleWeights("homogeneity constraints are inconsistent")
    basis = rref_kernel(reduced, pivots, n)
    return WeightLattice(variables, particular, basis)


def lattice_certificate(eqs: EquationSet) -> Report:
    """The homogeneity constraints of ``eqs`` solve to an affine lattice
    that contains the standard grading; the report gives its dimension."""
    lattice = solve_weight_constraints(eqs)
    return Report(lattice.contains(standard_weights()), {"dimension": lattice.dimension})


# ---------------------------------------------------------------------------
# Canonical-class arithmetic and resolution shifts
# ---------------------------------------------------------------------------


def canonical_arithmetic(w: Mapping[str, Rational]) -> Report:
    """Generator-weight arithmetic for a positive weight system: c, d, their
    sum delta, the sum of all seventeen weights and the ambient and variety
    dualizing twists.  It holds when that sum equals 4d - c, which is the
    ambient dualizing twist condition."""
    ws = weight_system(w)
    for name in ALL_VARS:
        if name not in ws:
            raise InputError(f"no weight for {name!r}")
        if ws[name] <= 0:
            raise InputError("canonical arithmetic expects positive weights")
    c = ws["x11"] + ws["x21"] + ws["u1"]
    d = ws["u1"] + ws["u2"] + ws["u3"]
    total = sum(ws[name] for name in ALL_VARS)
    return Report(total == 4 * d - c, {
        "c": c, "d": d, "delta": c + d, "sum": total,
        "ambient_twist": c - 4 * d, "variety_twist": 2 * c - 3 * d})


def weight_certificates(eqs: EquationSet, w: Mapping[str, Rational]) -> dict[str, Report]:
    """``homogeneous``, the report of ``check_homogeneous``, and, when it
    holds and all seventeen weights are positive, ``canonical``: the report
    of ``canonical_arithmetic`` without the ambient twist."""
    reports = {"homogeneous": check_homogeneous(eqs, w)}
    if reports["homogeneous"].ok and all(n in w and Fraction(w[n]) > 0 for n in ALL_VARS):
        ok, data = canonical_arithmetic(w)
        del data["ambient_twist"]
        reports["canonical"] = Report(ok, data)
    return reports


def resolution_shifts(w: Mapping[str, Rational]) -> list[list[Fraction]]:
    """Shift degrees of the five terms of the graded minimal free
    resolution, instantiated at a weight system.

    These are recorded data, not recomputed: the module certifies their
    internal consistency (pairing, palindromy, vanishing order) rather
    than deriving the resolution.
    """
    ws = weight_system(w)
    c = ws["x11"] + ws["x21"] + ws["u1"]
    d = ws["u1"] + ws["u2"] + ws["u3"]
    delta = c + d

    p1 = [c - ws[x] for x in X_VARS] + [d - ws[u] for u in U_VARS]
    p2 = [c, c, d, d]
    p2 += [ws["u1"] + ws["u2"] + ws["x11"], ws["u1"] + ws["u2"] + ws["x21"],
           ws["u1"] + ws["u3"] + ws["x11"], ws["u1"] + ws["u3"] + ws["x21"],
           ws["u1"] + ws["u2"] + ws["x12"], ws["u1"] + ws["u2"] + ws["x22"],
           ws["u2"] + ws["u3"] + ws["x12"], ws["u2"] + ws["u3"] + ws["x22"],
           ws["u1"] + ws["u3"] + ws["x13"], ws["u1"] + ws["u3"] + ws["x23"],
           ws["u2"] + ws["u3"] + ws["x13"], ws["u2"] + ws["u3"] + ws["x23"]]
    p3 = [d + ws[x] for x in X_VARS] + [c + ws[u] for u in U_VARS]
    return [[Fraction(0)], p1, p2, p3, [delta]]


def shift_pairing_holds(shifts: Sequence[Sequence[Fraction]]) -> bool:
    """Every first-term shift pairs with a third-term shift summing to the
    top shift, and the middle term pairs with itself."""
    _, first, middle, third, (delta,) = shifts
    return all(sorted(delta - s for s in a) == sorted(b)
               for a, b in ((first, third), (middle, middle)))


# ---------------------------------------------------------------------------
# Hilbert series arithmetic (univariate, exact)
# ---------------------------------------------------------------------------

Poly1 = dict[int, Fraction]


def poly1_str(a: Poly1) -> str:
    """Ascending powers of t, written by ``signed_sum`` as every polynomial."""
    return signed_sum((a[e], [] if e == 0 else ["t"] if e == 1 else [f"t^{e}"])
                      for e in sorted(a))


def hilbert_numerator(shifts: Sequence[Sequence[Fraction]]) -> Poly1:
    """Alternating sum of shift monomials of the resolution, from
    ``resolution_shifts`` at a positive integer weight system."""
    counts: dict[int, int] = {}
    for i, term in enumerate(shifts):
        for s in term:
            if s.denominator != 1:
                raise InputError("numerator requires integer weights")
            counts[int(s)] = counts.get(int(s), 0) + (-1) ** i
    return {e: Fraction(c) for e, c in counts.items() if c}


def numerator_is_palindromic(num: Poly1, delta: int) -> bool:
    """t^delta * Num(1/t) == Num(t), compared in the degrees 0 to delta."""
    return all(num.get(delta - e) == c for e, c in num.items() if 0 <= e <= delta)


def _binomial(e: int, k: int) -> int:
    """C(e, k) for any integer e: the t^k coefficient of (1 + t)^e."""
    return comb(e, k) if e >= 0 else (-1) ** k * comb(k - e - 1, k)


def _order_four_residue(num: Poly1) -> Fraction:
    """q(1) for num = (1 - t)^4 q; raises when (1 - t)^4 does not divide.

    The k-th Taylor coefficient of num at t = 1 is the sum of c_e C(e, k)
    over the terms c_e t^e.  Order at least four means the first four
    vanish, and q(1) is then the fourth, since (1 - t)^4 = (t - 1)^4.
    Each costs one pass over the terms, whatever the degrees.
    """
    taylor = [sum((c * _binomial(e, k) for e, c in num.items()), Fraction(0))
              for k in range(5)]
    if any(taylor[:4]):
        raise NumeratorNotDivisible(
            "numerator lacks vanishing order 4 at t = 1; wrong weights")
    return taylor[4]


def series_coefficients(num: Poly1, denominator_weights: Sequence[int],
                        order: int) -> list[Fraction]:
    """First coefficients of Num(t) / prod(1 - t^a): dividing a series f
    by 1 - t^a gives g with g_e = f_e + g_(e-a), computed in place."""
    coeffs = [num.get(e, Fraction(0)) for e in range(order + 1)]
    for a in denominator_weights:
        for e in range(a, order + 1):
            coeffs[e] += coeffs[e - a]
    return coeffs


def fano_invariants(w: Mapping[str, Rational], num: Poly1, sections: int) -> dict:
    """Degree, h0, genus and dimension of the section of the 13-dimensional
    cone by at most 12 weight-one forms, with Hilbert numerator ``num``.

    The Hilbert series is the numerator over one cyclotomic-type factor
    per remaining coordinate; the degree is the exact limit of the series
    times (1 - t)^4 at t = 1, read off the numerator's Taylor coefficients
    there (``_order_four_residue``).
    """
    if sections < 0:
        raise InputError("the number of sections must not be negative")
    ws = weight_system(w)
    for name in ALL_VARS:
        if name not in ws or ws[name] <= 0 or ws[name].denominator != 1:
            raise InputError("positive integer weights required")
    weights = sorted(int(ws[name]) for name in ALL_VARS)
    for _ in range(sections):
        if 1 not in weights:
            raise InputError("not enough coordinates of the section weight")
        weights.remove(1)
    if sections > 12:
        raise InputError("the number of sections must be at most 12")
    h0 = series_coefficients(num, weights, 1)[1]
    # pole order at t = 1 is (#factors - 4); the section is projective of
    # dimension one less
    return {"degree": _order_four_residue(num) / prod(weights), "h0": h0,
            "genus": h0 - 2, "dimension": len(weights) - 4 - 1}


def hilbert_certificates(w: Mapping[str, Rational] | None, sections: int) -> dict[str, Report]:
    """The graded-ring claims of one grading (the standard one when ``w``
    is None), in claim order: ``canonical``, ``numerator``, ``palindromy``,
    ``pairing`` and ``invariants``, the degree and genus of the section by
    ``sections`` weight-one forms.  The standard grading with nine sections
    must give ``STANDARD_FANO``; other weights or section counts only
    report theirs.  A bigrading is an ``InputError``."""
    if isinstance(w, tuple):
        raise InputError("hilbert needs a single grading")
    w = standard_weights() if w is None else w
    canonical = canonical_arithmetic(w)
    shifts = resolution_shifts(w)
    num = hilbert_numerator(shifts)
    delta = int(canonical.data["delta"])
    reports = {
        "canonical": canonical,
        "numerator": Report(bool(num), {"numerator": poly1_str(num)}),
        "palindromy": Report(numerator_is_palindromic(num, delta), {"delta": delta}),
        "pairing": Report(shift_pairing_holds(shifts), {}),
    }
    try:
        data = fano_invariants(w, num, sections)
    except NumeratorNotDivisible as exc:
        reports["invariants"] = Report(False, {"residual": str(exc)})
        return reports
    found = data["degree"], data["genus"]
    ok = found == STANDARD_FANO or w != standard_weights() or sections != 9
    if not ok:
        data["residual"] = ("degree {}, genus {}; expected degree {}, genus {}"
                            .format(*found, *STANDARD_FANO))
    reports["invariants"] = Report(ok, data)
    return reports


# ---------------------------------------------------------------------------
# Two-row weight matrices of the toric construction
# ---------------------------------------------------------------------------

def _row(v: Rational, u1: Rational, x2: Rational, x3: Rational, p: Rational,
         u2: Rational, u3: Rational, x1: Rational) -> WeightSystem:
    w: WeightSystem = {"v": _frac(v), "u1": _frac(u1), "u2": _frac(u2),
                       "u3": _frac(u3)}
    for name in ("x12", "x22"):
        w[name] = _frac(x2)
    for name in ("x13", "x23"):
        w[name] = _frac(x3)
    for name in ("x11", "x21"):
        w[name] = _frac(x1)
    for name in PARAM_VARS:
        w[name] = _frac(p)
    return w


# the arguments of ``_row`` for each row of each matrix
_TORIC_ROWS = {
    "base": ((0, 2, 1, 1, 1, 2, 2, 1), (-1, -1, 0, 0, 0, 1, 1, 1)),
    "shifted": ((2, 4, 1, 1, 1, 0, 0, -1), (-1, -1, 0, 0, 0, 1, 1, 1)),
    "swapped": ((-1, -1, 0, 0, 0, 1, 1, 1), (1, 3, 1, 1, 1, 1, 1, 0)),
}


def toric_weight_matrix(kind: str) -> tuple[WeightSystem, WeightSystem]:
    """The three two-row weight matrices of the birational bookkeeping,
    written out entry by entry.

    ``base`` is the original pair; ``shifted`` is stated to subtract twice
    the second row from the first, and ``swapped`` to subtract the second
    row once and then swap the rows: ``toric_matrices_row_equivalent``
    checks both against ``base``.
    """
    return tuple(_row(*entries) for entries in _TORIC_ROWS[kind])


def toric_matrices_row_equivalent() -> Report:
    """The shifted and swapped matrices are the stated row operations of
    the base matrix; the claim reports no data."""
    base1, base2 = toric_weight_matrix("base")
    s1, s2 = toric_weight_matrix("shifted")
    ok = all(s1[k] == base1[k] - 2 * base2[k] for k in base1) and s2 == base2
    w1, w2 = toric_weight_matrix("swapped")
    ok = ok and all(w2[k] == base1[k] - base2[k] for k in base1) and w1 == base2
    return Report(ok, {})


def example_5052_weights() -> WeightSystem:
    """Published weight system for the partial specialization with the
    leading cube entry frozen; the frozen variable is absent."""
    w: WeightSystem = {}
    for name in ("x11", "x12", "x13"):
        w[name] = Fraction(3)
    for name in ("x21", "x22", "x23"):
        w[name] = Fraction(4)
    for name in U_VARS:
        w[name] = Fraction(5)
    for name in ("p112", "p121", "p211"):
        w[name] = Fraction(1)
    for name in ("p122", "p212", "p221"):
        w[name] = Fraction(2)
    w["p222"] = Fraction(3)
    return w
