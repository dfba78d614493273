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

and their sum.  Instantiating the shifts at a concrete weight system gives
the Hilbert numerator, and exact division by powers of (1 - t) produces
the anticanonical degree and genus of a three-dimensional weight-one
linear section.  All of it is rational arithmetic, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence

from .coord8 import ALL_VARS, PARAM_VARS, U_VARS, X_VARS
from .errors import InfeasibleWeights, InputError, NumeratorNotDivisible
from .exactcore import (EquationSet, Rational, Report, _frac, json_rational, parse_json,
                        rref, rref_kernel, rref_solution, solve_linear)

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
    """JSON weight file: scalar entries give one grading, two-element list
    entries give a bigrading."""
    data = parse_json(text)
    if not isinstance(data, dict):
        raise ValueError("weight file must hold a JSON object")
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


def _monomial_weight(ring_names: Sequence[str], mono: tuple, w: WeightSystem) -> Fraction:
    total = Fraction(0)
    for i, e in enumerate(mono):
        if e:
            name = ring_names[i]
            if name not in w:
                raise InputError(f"no weight assigned to {name!r}")
            total += e * w[name]
    return total


def check_homogeneous(eqs: EquationSet, w: Mapping[str, Rational]) -> Report:
    """Whether every generator is homogeneous under ``w``.  The data lists
    each generator's weight as a string ("None" when it has no single
    weight) and, when some generator is not homogeneous, its label with
    the clashing monomial weights under ``failures``."""
    ws = weight_system(w)
    names = eqs.ring.names
    weights, failures = [], []
    for i, g in enumerate(eqs.gens):
        seen = sorted({_monomial_weight(names, m, ws) for m in g.terms})
        weights.append(str(seen[0]) if len(seen) == 1 else "None")
        if len(seen) > 1:
            label = eqs.labels[i] if eqs.labels else str(i)
            failures.append(f"{label}: monomial weights {', '.join(map(str, seen))}")
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


@dataclass
class WeightLattice:
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
        at_particular = sum(c * p for c, p in zip(coeff, self.particular))
        if at_particular != 0:
            return False
        return all(sum(c * b for c, b in zip(coeff, vec)) == 0 for vec in self.basis)


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

    # one row per constraint, its right-hand side in the last column
    n = len(variables)
    rows: list[list[Fraction]] = []
    for g in eqs.gens:
        monos = list(g.terms)
        if len(monos) < 2:
            continue
        base = monos[0]
        for m in monos[1:]:
            row = [Fraction(0)] * (n + 1)
            for i, e in enumerate(m):
                if e:
                    row[index[names[i]]] += e
            for i, e in enumerate(base):
                if e:
                    row[index[names[i]]] -= e
            rows.append(row)
    for name, value in fixed.items():
        row = [Fraction(0)] * (n + 1)
        row[index[name]] = Fraction(1)
        row[n] = _frac(value)
        rows.append(row)

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


@dataclass
class CanonicalReport:
    c: Fraction
    d: Fraction
    delta: Fraction
    weight_sum: Fraction
    consistent: bool
    ambient_dualizing_twist: Fraction
    variety_dualizing_twist: Fraction


def canonical_arithmetic(w: Mapping[str, Rational]) -> CanonicalReport:
    """Generator-weight arithmetic for a positive weight system.

    The consistency identity equates the sum of all seventeen weights with
    4d - c, which is the ambient dualizing twist condition."""
    ws = weight_system(w)
    for name in ALL_VARS:
        if name not in ws:
            raise InputError(f"no weight for {name!r}")
        if ws[name] <= 0:
            raise InputError("canonical arithmetic expects positive weights")
    c = ws["x11"] + ws["x21"] + ws["u1"]
    d = ws["u1"] + ws["u2"] + ws["u3"]
    delta = c + d
    total = sum(ws[name] for name in ALL_VARS)
    return CanonicalReport(
        c=c, d=d, delta=delta, weight_sum=total,
        consistent=(total == 4 * d - c),
        ambient_dualizing_twist=c - 4 * d,
        variety_dualizing_twist=2 * c - 3 * d,
    )


def weight_certificates(eqs: EquationSet, w: Mapping[str, Rational]) -> dict[str, Report]:
    """``homogeneous``, the report of ``check_homogeneous``, and, when it
    holds and all seventeen weights are positive, ``canonical``: the
    dualizing consistency identity of ``canonical_arithmetic``."""
    reports = {"homogeneous": check_homogeneous(eqs, w)}
    if reports["homogeneous"].ok and all(n in w and Fraction(w[n]) > 0 for n in ALL_VARS):
        can = canonical_arithmetic(w)
        reports["canonical"] = Report(can.consistent, {
            "c": can.c, "d": can.d, "delta": can.delta, "sum": can.weight_sum,
            "variety_twist": can.variety_dualizing_twist})
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


def shift_pairing_holds(w: Mapping[str, Rational]) -> bool:
    """Every first-term shift pairs with a third-term shift summing to the
    top shift, and the middle term pairs with itself."""
    shifts = resolution_shifts(w)
    delta = shifts[4][0]

    def pairs(a: list[Fraction], b: list[Fraction]) -> bool:
        remaining = list(b)
        for s in a:
            t = delta - s
            if t not in remaining:
                return False
            remaining.remove(t)
        return not remaining

    return pairs(shifts[1], shifts[3]) and pairs(shifts[2], shifts[2])


# ---------------------------------------------------------------------------
# Hilbert series arithmetic (univariate, exact)
# ---------------------------------------------------------------------------

Poly1 = dict[int, Fraction]


def poly1_add(a: Poly1, b: Poly1) -> Poly1:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly1_str(a: Poly1) -> str:
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
        if e == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def hilbert_numerator(w: Mapping[str, Rational]) -> Poly1:
    """Alternating sum of shift monomials of the resolution, instantiated
    at a positive integer weight system."""
    shifts = resolution_shifts(w)
    out: Poly1 = {}
    sign = 1
    for term in shifts:
        for s in term:
            if s.denominator != 1:
                raise InputError("numerator requires integer weights")
            out = poly1_add(out, {int(s): Fraction(sign)})
        sign = -sign
    return out


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


@dataclass
class FanoReport:
    degree: Fraction
    h0: Fraction
    genus: Fraction
    dimension: int
    numerator: Poly1


def series_coefficients(num: Poly1, denominator_weights: Sequence[int],
                        order: int) -> list[Fraction]:
    """First coefficients of Num(t) / prod(1 - t^a)."""
    coeffs = [num.get(e, Fraction(0)) for e in range(order + 1)]
    for a in denominator_weights:
        # multiply by the series 1 + t^a + t^{2a} + ...
        out = [Fraction(0)] * (order + 1)
        for e in range(order + 1):
            total = Fraction(0)
            k = e
            while k >= 0:
                total += coeffs[k]
                k -= a
            out[e] = total
        coeffs = out
    return coeffs


def fano_invariants(w: Mapping[str, Rational], sections: int = 9) -> FanoReport:
    """Degree and genus of the threefold cut by weight-one sections.

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

    num = hilbert_numerator(ws)
    # pole order at t = 1 is (#factors - 4); the section is projective of
    # dimension one less
    expected_dim = len(weights) - 4 - 1
    residue = _order_four_residue(num)
    denom_product = 1
    for a in weights:
        denom_product *= a
    degree = residue / denom_product

    h_series = series_coefficients(num, weights, 1)
    h0 = h_series[1]
    return FanoReport(degree=degree, h0=h0, genus=h0 - 2,
                      dimension=expected_dim, numerator=num)


def hilbert_certificates(w: Mapping[str, Rational] | None = None,
                         sections: int = 9) -> dict[str, Report]:
    """The graded-ring claims of one grading (the standard one when ``w``
    is None), in claim order: ``canonical``, ``numerator``, ``palindromy``,
    ``pairing`` and ``invariants``, the degree and genus of the section by
    ``sections`` weight-one forms.  The standard grading with nine sections
    must give ``STANDARD_FANO``; other weights or section counts only
    report theirs.  A bigrading is an ``InputError``."""
    if isinstance(w, tuple):
        raise InputError("hilbert needs a single grading")
    w = standard_weights() if w is None else w
    can = canonical_arithmetic(w)
    num = hilbert_numerator(w)
    delta = int(can.delta)
    reports = {
        "canonical": Report(can.consistent, {
            "c": can.c, "d": can.d, "delta": can.delta, "sum": can.weight_sum,
            "ambient_twist": can.ambient_dualizing_twist,
            "variety_twist": can.variety_dualizing_twist}),
        "numerator": Report(bool(num), {"numerator": poly1_str(num)}),
        "palindromy": Report(numerator_is_palindromic(num, delta), {"delta": delta}),
        "pairing": Report(shift_pairing_holds(w), {}),
    }
    try:
        fano = fano_invariants(w, sections=sections)
    except NumeratorNotDivisible as exc:
        reports["invariants"] = Report(False, {"residual": str(exc)})
        return reports
    data = {"degree": fano.degree, "h0": fano.h0, "genus": fano.genus,
            "dimension": fano.dimension}
    ok = (fano.degree, fano.genus) == STANDARD_FANO \
        or w != standard_weights() or sections != 9
    if not ok:
        data["residual"] = (f"degree {fano.degree}, genus {fano.genus}; expected "
                            "degree {}, genus {}".format(*STANDARD_FANO))
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


def toric_weight_matrix(kind: str = "base") -> tuple[WeightSystem, WeightSystem]:
    """The three two-row weight matrices of the birational bookkeeping,
    written out entry by entry.

    ``base`` is the original pair; ``shifted`` is stated to subtract twice
    the second row from the first, and ``swapped`` to subtract the second
    row once and then swap the rows: ``toric_matrices_row_equivalent``
    checks both against ``base``.
    """
    row1 = _row(0, 2, 1, 1, 1, 2, 2, 1)
    row2 = _row(-1, -1, 0, 0, 0, 1, 1, 1)
    if kind == "base":
        return row1, row2
    if kind == "shifted":
        return _row(2, 4, 1, 1, 1, 0, 0, -1), row2
    if kind == "swapped":
        return row2, _row(1, 3, 1, 1, 1, 1, 1, 0)
    raise KeyError(f"unknown weight matrix {kind!r}")


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
