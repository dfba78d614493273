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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .coord8 import ALL_VARS, PARAM_VARS, U_VARS, X_VARS
from .errors import InfeasibleWeights, NumeratorNotDivisible
from .exactcore import (EquationSet, Rational, _frac, parse_rational,
                        rref, rref_kernel, rref_solution, solve_linear)

WeightSystem = dict[str, Fraction]


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
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("weight file must hold a JSON object")
    bigraded = any(isinstance(v, list) for v in data.values())
    if not bigraded:
        return weight_system({k: parse_rational(str(v)) for k, v in data.items()})
    w1: WeightSystem = {}
    w2: WeightSystem = {}
    for k, v in data.items():
        if isinstance(v, list):
            if len(v) != 2:
                raise ValueError(f"bigraded entry for {k} must have two weights")
            w1[k] = parse_rational(str(v[0]))
            w2[k] = parse_rational(str(v[1]))
        else:
            w1[k] = w2[k] = parse_rational(str(v))
    return w1, w2


# ---------------------------------------------------------------------------
# Homogeneity checking and solving
# ---------------------------------------------------------------------------


@dataclass
class GeneratorHomogeneity:
    label: str
    homogeneous: bool
    weight: Fraction | None
    clashes: list[Fraction] = field(default_factory=list)


@dataclass
class HomogeneityReport:
    per_generator: list[GeneratorHomogeneity]

    @property
    def ok(self) -> bool:
        return all(g.homogeneous for g in self.per_generator)

    def failures(self) -> list[str]:
        """Label and clashing monomial weights of each generator that is
        not homogeneous."""
        return [f"{g.label}: monomial weights {', '.join(map(str, g.clashes))}"
                for g in self.per_generator if not g.homogeneous]


def _monomial_weight(ring_names: Sequence[str], mono: tuple, w: WeightSystem) -> Fraction:
    total = Fraction(0)
    for i, e in enumerate(mono):
        if e:
            name = ring_names[i]
            if name not in w:
                raise KeyError(f"no weight assigned to {name!r}")
            total += e * w[name]
    return total


def check_homogeneous(eqs: EquationSet, w: Mapping[str, Rational]) -> HomogeneityReport:
    """Per-generator uniform weight, or the list of clashing monomial
    weights."""
    ws = weight_system(w)
    out = []
    names = eqs.ring.names
    for i, g in enumerate(eqs.gens):
        label = eqs.labels[i] if eqs.labels else str(i)
        seen = sorted({_monomial_weight(names, m, ws) for m in g.terms})
        if len(seen) <= 1:
            out.append(GeneratorHomogeneity(label, True, seen[0] if seen else None))
        else:
            out.append(GeneratorHomogeneity(label, False, None, seen))
    return HomogeneityReport(out)


def check_bigraded(eqs: EquationSet, w1: Mapping[str, Rational],
                   w2: Mapping[str, Rational]) -> tuple[HomogeneityReport, HomogeneityReport]:
    """Bigraded homogeneity is homogeneity under each row separately."""
    return check_homogeneous(eqs, w1), check_homogeneous(eqs, w2)


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
        return solve_linear(cols, shifted) is not None

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
            raise KeyError(f"no weight for {name!r}")
        if ws[name] <= 0:
            raise ValueError("canonical arithmetic expects positive weights")
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


def poly1_eval(a: Poly1, t: Rational) -> Fraction:
    t = _frac(t)
    return sum((c * t ** e for e, c in a.items()), Fraction(0))


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


def divide_by_one_minus_t(a: Poly1) -> Poly1:
    """Exact quotient a / (1 - t); raises when (1 - t) does not divide."""
    if not a:
        return {}
    degree = max(a)
    out: Poly1 = {}
    carry = Fraction(0)
    # synthetic division at the root t = 1; dividing by (1 - t) negates the
    # quotient of division by (t - 1)
    for e in range(degree, -1, -1):
        carry += a.get(e, Fraction(0))
        if e == 0:
            if carry != 0:
                raise NumeratorNotDivisible("numerator does not vanish at t = 1")
        else:
            if carry:
                out[e - 1] = -carry
    return out


def vanishing_order_at_one(a: Poly1) -> int:
    order = 0
    work = dict(a)
    while work and poly1_eval(work, 1) == 0:
        work = divide_by_one_minus_t(work)
        order += 1
    return order


def hilbert_numerator(w: Mapping[str, Rational]) -> Poly1:
    """Alternating sum of shift monomials of the resolution, instantiated
    at a positive integer weight system."""
    shifts = resolution_shifts(w)
    out: Poly1 = {}
    sign = 1
    for term in shifts:
        for s in term:
            if s.denominator != 1:
                raise ValueError("numerator requires integer weights")
            out = poly1_add(out, {int(s): Fraction(sign)})
        sign = -sign
    return out


def numerator_is_palindromic(num: Poly1, delta: int) -> bool:
    """t^delta * Num(1/t) == Num(t)."""
    return all(num.get(e) == num.get(delta - e) for e in range(delta + 1))


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
    times (1 - t)^4 at t = 1, obtained by synthetic division.
    """
    ws = weight_system(w)
    for name in ALL_VARS:
        if name not in ws or ws[name] <= 0 or ws[name].denominator != 1:
            raise ValueError("positive integer weights required")
    weights = sorted(int(ws[name]) for name in ALL_VARS)
    for _ in range(sections):
        if 1 not in weights:
            raise ValueError("not enough coordinates of the section weight")
        weights.remove(1)

    num = hilbert_numerator(ws)
    # pole order at t = 1 is (#factors - 4); the section is projective of
    # dimension one less
    expected_dim = len(weights) - 4 - 1
    quotient = dict(num)
    try:
        for _ in range(4):
            quotient = divide_by_one_minus_t(quotient)
    except NumeratorNotDivisible:
        raise NumeratorNotDivisible(
            "numerator lacks vanishing order 4 at t = 1; wrong weights") from None

    residue = poly1_eval(quotient, 1)
    denom_product = 1
    for a in weights:
        denom_product *= a
    degree = residue / denom_product

    h_series = series_coefficients(num, weights, 1)
    h0 = h_series[1]
    return FanoReport(degree=degree, h0=h0, genus=h0 - 2,
                      dimension=expected_dim, numerator=num)


# ---------------------------------------------------------------------------
# Two-row weight matrices of the toric construction
# ---------------------------------------------------------------------------

WTMAT_VARS = ("v",) + ALL_VARS


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
    """The three two-row weight matrices of the birational bookkeeping.

    ``base`` is the original pair; ``shifted`` subtracts twice the second
    row from the first; ``swapped`` subtracts the second row once and then
    swaps the rows.
    """
    row1 = _row(0, 2, 1, 1, 1, 2, 2, 1)
    row2 = _row(-1, -1, 0, 0, 0, 1, 1, 1)
    if kind == "base":
        return row1, row2
    if kind == "shifted":
        top = {k: row1[k] - 2 * row2[k] for k in row1}
        return top, dict(row2)
    if kind == "swapped":
        top = {k: row1[k] - row2[k] for k in row1}
        return dict(row2), top
    raise KeyError(f"unknown weight matrix {kind!r}")


def toric_matrices_row_equivalent() -> bool:
    """The shifted and swapped matrices are the stated row operations of
    the base matrix."""
    base1, base2 = toric_weight_matrix("base")
    s1, s2 = toric_weight_matrix("shifted")
    ok = all(s1[k] == base1[k] - 2 * base2[k] for k in base1) and s2 == base2
    w1, w2 = toric_weight_matrix("swapped")
    ok = ok and all(w2[k] == base1[k] - base2[k] for k in base1) and w1 == base2
    return ok


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
