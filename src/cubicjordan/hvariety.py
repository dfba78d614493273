"""The 13-dimensional variety cut out by the vanishing sharp map.

Over the 17-variable ring (nine algebra coordinates plus the eight cube
parameters) the nine components of the sharp map generate the defining
ideal.  This module fixes their canonical order, certifies the group
action on them with symbolic group entries, classifies parameter cubes
into the five orbit types, verifies the fiber descriptions over the orbit
representatives, reduces the equations on the first idempotent chart, and
samples exact rational points.

Generator order (labels used everywhere):

    g1a, g1b   components of the first coordinate pair
    g2a, g2b   second pair
    g3a, g3b   third pair
    g4, g5, g6 idempotent components

Sampling uses explicitly seeded generators passed by the caller; there is
no hidden global randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from typing import Mapping

from . import coord8, jordan
from .coord8 import (ALL_VARS, COORD_VARS, PARAM_VARS, X_VARS, U_VARS,
                     Hypermatrix, coord_ring, d_entry, d_matrix, p_name, x_name)
from .errors import InternalError, ShapeError, SingularGroupElement
from .exactcore import (EquationSet, Poly, PolyMatrix, Rational, Ring, _frac,
                        rank, span_compare)

GEN_LABELS = ("g1a", "g1b", "g2a", "g2b", "g3a", "g3b", "g4", "g5", "g6")


def equations(ring: Ring | None = None) -> EquationSet:
    """The nine defining generators over the 17-variable ring."""
    if ring is None:
        ring = coord_ring(True)
    sigma = tuple(ring.var(n) for n in COORD_VARS)
    gens = coord8.sharp_map(None, sigma)
    return EquationSet(ring, tuple(gens), GEN_LABELS)


# ---------------------------------------------------------------------------
# Orbit representatives
# ---------------------------------------------------------------------------

_REPRESENTATIVES = {
    "origin": {},
    "p1": {(1, 1, 1): 1},
    "p2": {(1, 1, 1): 1, (2, 2, 1): 1},
    "p3": {(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1},
    "p4": {(1, 1, 1): 1, (2, 2, 2): 1},
}


def representative(name: str) -> Hypermatrix:
    try:
        return Hypermatrix(_REPRESENTATIVES[name])
    except KeyError:
        raise KeyError(f"unknown representative {name!r}") from None


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Three 2x2 factors and a permutation of the indices 1, 2, 3.

    ``perm[i-1]`` is the image of index i.  Factor entries may be rational
    or symbolic; rational factors must be invertible.
    """

    g1: PolyMatrix | None = None
    g2: PolyMatrix | None = None
    g3: PolyMatrix | None = None
    perm: tuple[int, int, int] = (1, 2, 3)

    def factors(self) -> tuple[PolyMatrix | None, ...]:
        return (self.g1, self.g2, self.g3)

    def validate(self) -> None:
        for g in self.factors():
            if g is None:
                continue
            if (g.rows, g.cols) != (2, 2):
                raise ShapeError("group factors must be 2x2")
            d = g.det()
            if not d.variables() and d.constant_value() == 0:
                raise SingularGroupElement("rational factor with zero determinant")


def _perm_substitution(ring: Ring, perm: tuple[int, int, int]) -> dict[str, Poly]:
    """Variable images under the index permutation.

    Indices permute by ``perm`` on the idempotent and pair blocks, and the
    cube entry with index word A maps to the entry with word A composed
    with the inverse permutation.
    """
    inv = {perm[i]: i + 1 for i in range(3)}
    sub: dict[str, Poly] = {}
    for i in (1, 2, 3):
        sub[f"u{i}"] = ring.var(f"u{perm[i - 1]}")
        for a in (1, 2):
            sub[x_name(a, i)] = ring.var(x_name(a, perm[i - 1]))
    for (i, j, k) in coord8.INDEX_TRIPLES:
        word = (i, j, k)
        image = tuple(word[inv[m] - 1] for m in (1, 2, 3))
        sub[p_name(*word)] = ring.var(p_name(*image))
    return sub


def _factor_substitution(ring: Ring, r: int, g: PolyMatrix) -> dict[str, Poly]:
    """Variable images under one 2x2 factor acting on slot r."""
    a = g.get(0, 0).convert(ring)
    b = g.get(0, 1).convert(ring)
    c = g.get(1, 0).convert(ring)
    d = g.get(1, 1).convert(ring)
    det = a * d - b * c
    sub: dict[str, Poly] = {}
    sub[x_name(1, r)] = a * ring.var(x_name(1, r)) + b * ring.var(x_name(2, r))
    sub[x_name(2, r)] = c * ring.var(x_name(1, r)) + d * ring.var(x_name(2, r))
    for i in (1, 2, 3):
        if i != r:
            sub[f"u{i}"] = det * ring.var(f"u{i}")
    for (i, j, k) in coord8.INDEX_TRIPLES:
        word = [i, j, k]
        if word[r - 1] != 1:
            continue
        lo = tuple(word)
        word[r - 1] = 2
        hi = tuple(word)
        sub[p_name(*lo)] = a * ring.var(p_name(*lo)) + b * ring.var(p_name(*hi))
        sub[p_name(*hi)] = c * ring.var(p_name(*lo)) + d * ring.var(p_name(*hi))
    return sub


def substitution_of(g: GroupElement, ring: Ring) -> dict[str, Poly]:
    """Composite variable substitution: permutation after the GL factors."""
    g.validate()
    sub: dict[str, Poly] = {n: ring.var(n) for n in ALL_VARS}
    for r, factor in enumerate(g.factors(), start=1):
        if factor is None:
            continue
        step = _factor_substitution(ring, r, factor)
        sub = {n: img.substitute(step, ring) for n, img in sub.items()}
    if g.perm != (1, 2, 3):
        step = _perm_substitution(ring, g.perm)
        sub = {n: img.substitute(step, ring) for n, img in sub.items()}
    return sub


def apply_group_to_point(g: GroupElement, point: Mapping[str, Rational]) -> dict[str, Fraction]:
    """Image of a rational 17-coordinate point under the group element."""
    ring = coord_ring(True)
    sub = substitution_of(g, ring)
    vals = {n: _frac(point.get(n, 0)) for n in ALL_VARS}
    return {n: sub[n].evaluate(vals) for n in ALL_VARS}


def apply_group_to_cube(g: GroupElement, P: Hypermatrix) -> Hypermatrix:
    point = {p_name(*t): v for t, v in P.as_fractions().items()}
    image = apply_group_to_point(g, point)
    return Hypermatrix.from_named(image)


def apply_group_to_equations(g: GroupElement, eqs: EquationSet) -> EquationSet:
    sub = substitution_of(g, eqs.ring)
    return eqs.substitute(sub, eqs.ring)


@dataclass
class EquivarianceReport:
    rule: str
    ok: bool
    failures: list[str]


def factor_equivariance_certificate(r: int) -> EquivarianceReport:
    """Exact transformation law of the nine generators under one symbolic
    2x2 factor: the r-th pair transforms by the matrix itself, the r-th
    idempotent generator picks up the squared determinant, and every other
    generator is scaled by the determinant."""
    ring = coord_ring(True, ("ga", "gb", "gc", "gd"))
    g = PolyMatrix.from_rows(ring, [[ring.var("ga"), ring.var("gb")],
                                    [ring.var("gc"), ring.var("gd")]])
    det = g.det()
    element = GroupElement(**{f"g{r}": g})
    base = equations(ring)
    transformed = apply_group_to_equations(element, base)

    failures: list[str] = []
    pair = base.gens[2 * (r - 1):2 * r]
    expect: list[Poly] = []
    for idx, gen in enumerate(base.gens):
        block = idx // 2 if idx < 6 else None
        if block == r - 1:
            row = idx % 2
            m = (g.get(row, 0), g.get(row, 1))
            expect.append(m[0] * pair[0] + m[1] * pair[1])
        elif idx == 5 + r:
            expect.append(det * det * gen)
        else:
            expect.append(det * gen)
    for lbl, got, want in zip(GEN_LABELS, transformed.gens, expect):
        if got != want:
            failures.append(f"factor {r}: generator {lbl} transforms incorrectly")
    return EquivarianceReport(f"factor{r}", not failures, failures)


def permutation_certificate(perm: tuple[int, int, int]) -> EquivarianceReport:
    """The permuted generator set equals the original up to signs and
    relabeling, and spans the same space."""
    base = equations()
    element = GroupElement(perm=perm)
    transformed = apply_group_to_equations(element, base)
    failures: list[str] = []
    originals = list(base.gens)
    for lbl, got in zip(GEN_LABELS, transformed.gens):
        if not any(got == h or got == -h for h in originals):
            failures.append(f"perm {perm}: image of {lbl} is not a signed generator")
    result = span_compare(base.gens, transformed.gens)
    if not result.equal:
        failures.append(f"perm {perm}: span changed ({result.relation})")
    return EquivarianceReport(f"perm{perm}", not failures, failures)


def swap_all_factors_certificate() -> EquivarianceReport:
    """The antidiagonal swap in all three factors exchanges the two rows of
    every coordinate pair and preserves the span of the generators."""
    ring = coord_ring(True)
    swap = PolyMatrix.from_rows(ring, [[0, 1], [1, 0]])
    element = GroupElement(g1=swap, g2=swap, g3=swap)
    base = equations()
    transformed = apply_group_to_equations(element, base)
    failures = []
    result = span_compare(base.gens, transformed.gens)
    if not result.equal:
        failures.append(f"triple swap: span changed ({result.relation})")
    sub = substitution_of(element, base.ring)
    for i in (1, 2, 3):
        if sub[x_name(1, i)] != base.ring.var(x_name(2, i)):
            failures.append(f"triple swap: pair {i} rows not exchanged")
    return EquivarianceReport("swap-all", not failures, failures)


# ---------------------------------------------------------------------------
# Hyperdeterminant and orbit classification
# ---------------------------------------------------------------------------


def hyperdeterminant(P: Hypermatrix, ring: Ring | None = None) -> "Poly | Fraction":
    """Degree-four invariant of the 2x2x2 cube (Cayley's form)."""
    if ring is None and P.is_rational():
        p = P.as_fractions()
    else:
        if ring is None:
            ring = coord_ring(True)
        p = P.in_ring(ring)

    def sq(t):
        return p[t] * p[t]

    squares = (sq((1, 1, 1)) * sq((2, 2, 2)) + sq((1, 1, 2)) * sq((2, 2, 1))
               + sq((1, 2, 1)) * sq((2, 1, 2)) + sq((1, 2, 2)) * sq((2, 1, 1)))
    cross = (p[(1, 1, 1)] * p[(1, 2, 2)] * p[(2, 1, 1)] * p[(2, 2, 2)]
             + p[(1, 1, 1)] * p[(1, 2, 1)] * p[(2, 1, 2)] * p[(2, 2, 2)]
             + p[(1, 1, 1)] * p[(1, 1, 2)] * p[(2, 2, 1)] * p[(2, 2, 2)]
             + p[(1, 2, 1)] * p[(1, 2, 2)] * p[(2, 1, 1)] * p[(2, 1, 2)]
             + p[(1, 1, 2)] * p[(1, 2, 2)] * p[(2, 1, 1)] * p[(2, 2, 1)]
             + p[(1, 1, 2)] * p[(1, 2, 1)] * p[(2, 1, 2)] * p[(2, 2, 1)])
    diag = (p[(1, 1, 1)] * p[(1, 2, 2)] * p[(2, 1, 2)] * p[(2, 2, 1)]
            + p[(1, 1, 2)] * p[(1, 2, 1)] * p[(2, 1, 1)] * p[(2, 2, 2)])
    return squares - 2 * cross + 4 * diag


def flattening(P: Hypermatrix, axis: int) -> list[list[Fraction]]:
    """2x4 matrix reshaping the cube along one index slot."""
    vals = P.as_fractions()
    rows = []
    for m in (1, 2):
        row = []
        for (i, j, k) in coord8.INDEX_TRIPLES:
            word = (i, j, k)
            if word[axis - 1] != m:
                continue
            row.append(vals[word])
        rows.append(row)
    return rows


@dataclass
class OrbitLabel:
    label: str
    hyperdet: Fraction
    flattening_ranks: tuple[int, int, int]


def classify_orbit(P: Hypermatrix) -> OrbitLabel:
    """Orbit type of a rational cube.

    The zero cube is its own orbit; a nonvanishing hyperdeterminant marks
    the open orbit; otherwise the three flattening ranks separate the cone
    over the triple Segre product (all ranks one), the three rank-one
    cones (some rank one), and the generic degenerate orbit.
    """
    vals = P.as_fractions()
    ranks = tuple(rank(flattening(P, axis)) for axis in (1, 2, 3))
    det = hyperdeterminant(P)
    if all(v == 0 for v in vals.values()):
        return OrbitLabel("origin", det, ranks)
    if det != 0:
        return OrbitLabel("O4", det, ranks)
    if all(r <= 1 for r in ranks):
        return OrbitLabel("O1", det, ranks)
    if any(r <= 1 for r in ranks):
        return OrbitLabel("O2", det, ranks)
    return OrbitLabel("O3", det, ranks)


_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))


def _random_invertible(rng: random.Random) -> PolyMatrix:
    """Random invertible 2x2 factor with small rational entries."""
    ring = coord_ring(True)
    while True:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
             for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return PolyMatrix.from_rows(ring, m)


def translate_invariance(seed: int) -> dict:
    """Classify 20 random group translates of each nonzero representative.

    A translate is unstable when its orbit label differs from the label of
    the representative itself.  Draws come from the ``"{seed}:classify"``
    stream.
    """
    rng = random.Random(f"{seed}:classify")
    translates = unstable = 0
    for name in ("p1", "p2", "p3", "p4"):
        P = representative(name)
        want = classify_orbit(P).label
        for _ in range(20):
            g = GroupElement(g1=_random_invertible(rng), g2=_random_invertible(rng),
                             g3=_random_invertible(rng), perm=rng.choice(_PERMUTATIONS))
            translates += 1
            if classify_orbit(apply_group_to_cube(g, P)).label != want:
                unstable += 1
    return {"translates": translates, "unstable": unstable}


def hyperdet_covariance_exponent(r: int) -> int | None:
    """Exponent e <= 4 with hyperdet(g . P) = (det g)^e hyperdet(P) for a
    symbolic factor in slot r; computed, not assumed."""
    ring = coord_ring(True, ("ga", "gb", "gc", "gd"))
    g = PolyMatrix.from_rows(ring, [[ring.var("ga"), ring.var("gb")],
                                    [ring.var("gc"), ring.var("gd")]])
    det = g.det()
    sub = substitution_of(GroupElement(**{f"g{r}": g}), ring)
    sym = Hypermatrix.symbolic(ring)
    base = hyperdeterminant(sym, ring)
    transformed = base.substitute(sub, ring)
    power = ring.one()
    for e in range(5):
        if transformed == power * base:
            return e
        power = power * det
    return None


# ---------------------------------------------------------------------------
# Fibers over the orbit representatives
# ---------------------------------------------------------------------------


def fiber_equations(P: Hypermatrix) -> EquationSet:
    """The nine generators with the cube frozen at rational values."""
    ring = coord_ring(False)
    sigma = tuple(ring.var(n) for n in COORD_VARS)
    gens = coord8.sharp_map(P, sigma)
    return EquationSet(ring, tuple(gens), GEN_LABELS)


def _matrix_minors(m: PolyMatrix) -> list[Poly]:
    out = []
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            for c1 in range(3):
                for c2 in range(c1 + 1, 3):
                    out.append(m.get(r1, c1) * m.get(r2, c2)
                               - m.get(r1, c2) * m.get(r2, c1))
    return out


def open_fiber_matrix(ring: Ring) -> PolyMatrix:
    """3x3 coordinate matrix whose rank-one locus is the generic fiber."""
    v = ring.var
    return PolyMatrix.from_rows(ring, [
        [v("u1"), v("x13"), v("x22")],
        [v("x23"), v("u2"), v("x11")],
        [v("x12"), v("x21"), v("u3")],
    ])


def degenerate_fiber_system(ring: Ring) -> tuple[PolyMatrix, tuple[Poly, ...]]:
    """Symmetric 3x3 matrix and kernel vector of the degenerate fiber."""
    v = ring.var
    sym = PolyMatrix.from_rows(ring, [
        [v("u1"), v("x13"), v("x22")],
        [v("x13"), v("u2"), -v("x21")],
        [v("x22"), -v("x21"), -v("u3")],
    ])
    vec = (-v("x11"), v("x12"), v("x23"))
    return sym, vec


@dataclass
class FiberReport:
    name: str
    ok: bool
    detail: dict
    failures: list[str] = field(default_factory=list)


def fiber_certificate_p4() -> FiberReport:
    """Span equality of the generic fiber with the nine 2x2 minors."""
    eqs = fiber_equations(representative("p4"))
    minors = _matrix_minors(open_fiber_matrix(eqs.ring))
    result = span_compare(eqs.gens, minors)
    ok = result.equal
    return FiberReport("p4", ok, {"relation": result.relation},
                       [] if ok else ["fiber does not match the minor system"])


def fiber_certificate_p3() -> FiberReport:
    """Span equality of the degenerate fiber with the rank-one-plus-kernel
    system of the symmetric matrix."""
    eqs = fiber_equations(representative("p3"))
    sym, vec = degenerate_fiber_system(eqs.ring)
    system = _matrix_minors(sym) + list(sym.apply(vec))
    result = span_compare(eqs.gens, system)
    ok = result.equal
    return FiberReport("p3", ok, {"relation": result.relation},
                       [] if ok else ["fiber does not match the degenerate system"])


# Component parametrizations of the reducible fibers.  Each component maps
# an RNG to a 9-coordinate point lying on a dense open part.

def _rand(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _rand_nonzero(rng: random.Random) -> Fraction:
    while True:
        v = _rand(rng)
        if v != 0:
            return v


def _component_points(name: str, rng: random.Random) -> dict[str, Fraction]:
    point = {n: Fraction(0) for n in COORD_VARS}
    if name == "origin/all-x":
        for n in X_VARS:
            point[n] = _rand(rng)
    elif name.startswith("origin/pair"):
        # one coordinate pair zero together with two idempotent coords
        i = int(name[-1])
        others = [m for m in (1, 2, 3) if m != i]
        point[f"u{i}"] = _rand(rng)
        for m in others:
            point[x_name(1, m)] = _rand(rng)
            point[x_name(2, m)] = _rand(rng)
    elif name.startswith("p1/quadric"):
        # component i: the other idempotent coords and the second row of
        # pair i vanish; u_i is solved from the displayed quadric
        i = int(name[-1])
        others = [m for m in (1, 2, 3) if m != i]
        for m in others:
            point[x_name(1, m)] = _rand(rng)
            point[x_name(2, m)] = _rand(rng)
        point[x_name(1, i)] = _rand_nonzero(rng)
        point[f"u{i}"] = (point[x_name(2, others[0])]
                          * point[x_name(2, others[1])]) / point[x_name(1, i)]
    elif name == "p2/quadric":
        for n in ("x11", "x21", "x12", "x22"):
            point[n] = _rand(rng)
        point["x13"] = _rand_nonzero(rng)
        point["u3"] = (point["x11"] * point["x12"]
                       + point["x21"] * point["x22"]) / point["x13"]
    elif name == "p2/cone":
        lam = _rand_nonzero(rng)
        point["x23"] = _rand(rng)
        point["x11"] = _rand(rng)
        point["x21"] = _rand(rng)
        point["x13"] = _rand(rng)
        point["u1"] = lam * point["x23"]
        point["u2"] = -point["x23"] / lam
        point["x22"] = lam * point["x11"]
        point["x12"] = -lam * point["x21"]
    else:
        raise KeyError(f"unknown fiber component {name!r}")
    return point


FIBER_COMPONENTS = {
    "origin": ("origin/all-x", "origin/pair1", "origin/pair2", "origin/pair3"),
    "p1": ("p1/quadric1", "p1/quadric2", "p1/quadric3"),
    "p2": ("p2/quadric", "p2/cone"),
}


def fiber_component_sampling(name: str, seed: int, samples: int = 20) -> FiberReport:
    """Every generator of the fiber system vanishes on sampled points of
    each listed component of a reducible fiber."""
    eqs = fiber_equations(representative(name))
    failures: list[str] = []
    counts = {}
    for comp in FIBER_COMPONENTS[name]:
        rng = random.Random(f"{seed}:{comp}")
        good = 0
        for _ in range(samples):
            point = _component_points(comp, rng)
            if all(g.evaluate(point) == 0 for g in eqs.gens):
                good += 1
            else:
                failures.append(f"component {comp}: generator fails to vanish")
                break
        counts[comp] = good
    # component quadrics occur among the generators where displayed
    contain_ok = True
    if name == "p1":
        ring = eqs.ring
        v = ring.var
        quadrics = [v("u3") * v("x13") - v("x21") * v("x22"),
                    v("u2") * v("x12") - v("x21") * v("x23"),
                    v("u1") * v("x11") - v("x22") * v("x23")]
        res = span_compare(eqs.gens, quadrics)
        contain_ok = res.relation in ("equal", "a_contains_b")
    elif name == "p2":
        ring = eqs.ring
        v = ring.var
        quadric = [v("u3") * v("x13") - v("x11") * v("x12") - v("x21") * v("x22")]
        res = span_compare(eqs.gens, quadric)
        contain_ok = res.relation in ("equal", "a_contains_b")
    if not contain_ok:
        failures.append(f"{name}: displayed component equation not in the span")
    return FiberReport(name, not failures, {"samples": counts}, failures)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


@dataclass
class ChartReport:
    residuals: list[Poly]
    free_variables: tuple[str, ...]
    chart_dimension: int

    @property
    def ok(self) -> bool:
        return all(r.is_zero() for r in self.residuals)


def chart_substitution() -> dict[str, Poly]:
    """Triangular elimination on the chart where the first idempotent
    coordinate is set to one, over the 17-variable ring.

    The first pair is solved from its own generator block; the remaining
    idempotent coordinates are the negated determinants of the second and
    third difference matrices (the third one evaluated on the substituted
    first pair column).
    """
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    x = tuple(ring.var(n) for n in X_VARS)
    d3 = d_matrix(p, x, 3)
    e11, e21 = d3.apply((ring.var("x12"), ring.var("x22")))
    d2 = d_matrix(p, x, 2)
    return {"u1": ring.one(), "x11": e11, "x21": e21,
            "u2": -d3.det(), "u3": -d2.det()}


def chart_reduce_u1(sub: Mapping[str, Poly]) -> ChartReport:
    """Substitute a chart elimination, normally ``chart_substitution()``,
    into all nine generators; every residual must vanish identically in the
    twelve free coordinates."""
    eqs = equations()
    residuals = [g.substitute(sub, eqs.ring) for g in eqs.gens]
    free = tuple(n for n in ("x12", "x22", "x13", "x23") + PARAM_VARS)
    return ChartReport(residuals, free, len(free) + 1)


def chart_det_identity() -> bool:
    """On the chart, the first difference determinant factors as minus the
    product of the other two."""
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    x = tuple(ring.var(n) for n in X_VARS)
    d3 = d_matrix(p, x, 3)
    e11, e21 = d3.apply((ring.var("x12"), ring.var("x22")))
    xs = (e11, e21) + x[2:]
    d1_sub = d_matrix(p, xs, 1)
    d2 = d_matrix(p, x, 2)
    return d1_sub.det() == -(d2.det() * d3.det())


def skew_chart_matrix(ring: Ring) -> PolyMatrix:
    """5x5 skew matrix whose 4x4 Pfaffians cut out the chart where the
    first pair's leading coordinate is normalized to one."""
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    one = ring.one()
    x = (one, ring.var("x21"), ring.var("x12"), ring.var("x22"),
         ring.var("x13"), ring.var("x23"))
    d11 = d_entry(p, x, 1, 1, 1)
    d21 = d_entry(p, x, 1, 2, 1)
    d12 = d_entry(p, x, 1, 1, 2)
    d22 = d_entry(p, x, 1, 2, 2)
    v = ring.var
    z = ring.zero()
    rows = [
        [z, v("x13"), v("x23"), -v("x22"), v("x12")],
        [-v("x13"), z, -v("u2"), d21, -d11],
        [-v("x23"), v("u2"), z, d22, -d12],
        [v("x22"), -d21, -d22, z, v("u3")],
        [-v("x12"), d11, d12, -v("u3"), z],
    ]
    return PolyMatrix.from_rows(ring, rows)


def pfaffian_vanishing_on_samples(seed: int, samples: int = 30) -> dict:
    """All five signed Pfaffians of the skew chart matrix vanish on sampled
    variety points rescaled so the leading pair coordinate is one."""
    ring = coord_ring(True)
    skew = skew_chart_matrix(ring)
    pfs = skew.sub_pfaffians()
    rng = random.Random(f"{seed}:pfaffians")
    checked = 0
    failures = 0
    while checked < samples:
        point = sample_point(rng)
        if point["x11"] == 0:
            continue
        scale = point["x11"]
        rescaled = dict(point)
        for n in COORD_VARS:
            rescaled[n] = point[n] / scale
        checked += 1
        if any(pf.evaluate(rescaled) != 0 for pf in pfs):
            failures += 1
    return {"checked": checked, "failures": failures, "ok": failures == 0}


# ---------------------------------------------------------------------------
# Point sampling
# ---------------------------------------------------------------------------

CHART_FREE_VARS = ("x12", "x22", "x13", "x23") + PARAM_VARS


@cache
def _sampling_tables() -> tuple[tuple[tuple[str, Poly], ...], tuple[Poly, ...]]:
    """Chart images of the solved coordinates and the nine generators."""
    sub = chart_substitution()
    return tuple((n, sub[n]) for n in ("x11", "x21", "u2", "u3")), equations().gens


def sample_point(rng: random.Random | int,
                 constraints: Mapping[str, Rational] | None = None) -> dict[str, Fraction]:
    """Exact rational point of the variety via the first idempotent chart.

    Free chart coordinates are drawn from the RNG unless pinned by
    ``constraints``; the whole algebra part is then rescaled by a random
    nonzero factor.  Every returned point is re-verified against the nine
    generators.  Only the locus where the first idempotent coordinate is
    nonzero is reachable; use the index permutation action to relocate.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    constraints = dict(constraints or {})
    unknown = set(constraints) - set(CHART_FREE_VARS)
    if unknown:
        raise ValueError(f"constraints outside the free chart coordinates: {sorted(unknown)}")
    solved, gens = _sampling_tables()
    values: dict[str, Fraction] = {}
    for n in CHART_FREE_VARS:
        values[n] = _frac(constraints[n]) if n in constraints else _rand(rng)
    for n, image in solved:
        values[n] = image.evaluate(values)
    values["u1"] = Fraction(1)
    t = _rand_nonzero(rng)
    for n in COORD_VARS:
        values[n] = values[n] * t
    for g in gens:
        if g.evaluate(values) != 0:
            raise InternalError("constructed point violates the equations")
    return values


# ---------------------------------------------------------------------------
# Radical loci of the degenerate algebras
# ---------------------------------------------------------------------------

_NP_DISPLAYS = {
    "origin": "u1*u2*u3",
    "p1": "u1*u2*u3",
    "p2": "x23^2*u3 + u1*u2*u3",
    "p3": "x21^2*u1 + 2*x21*x22*x13 + x22^2*u2 - x13^2*u3 + u1*u2*u3",
}


def radical_point(name: str, rng: random.Random) -> dict[str, Fraction]:
    """A sampled point of the stated radical locus for one representative."""
    point = {n: Fraction(0) for n in COORD_VARS}
    if name == "origin":
        for n in X_VARS:
            point[n] = _rand(rng)
    elif name == "p1":
        for n in ("x11", "x12", "x13"):
            point[n] = _rand(rng)
        survivor = rng.choice(("x21", "x22", "x23"))
        point[survivor] = _rand(rng)
    elif name == "p2":
        point["x13"] = _rand(rng)
        point["x11"] = _rand_nonzero(rng)
        point["x21"] = _rand(rng)
        point["x22"] = _rand(rng)
        point["x12"] = -point["x21"] * point["x22"] / point["x11"]
    elif name == "p3":
        for n in ("x11", "x12", "x23"):
            point[n] = _rand(rng)
    elif name == "p4":
        pass  # the radical is trivial
    else:
        raise KeyError(f"unknown representative {name!r}")
    return point


def off_radical_point(name: str, rng: random.Random) -> dict[str, Fraction]:
    """A random nonzero point verified to lie off the radical locus."""
    while True:
        point = {n: _rand(rng) for n in COORD_VARS}
        if all(v == 0 for v in point.values()):
            continue
        if not _on_radical_locus(name, point):
            return point


def _on_radical_locus(name: str, point: Mapping[str, Fraction]) -> bool:
    u_zero = all(point[n] == 0 for n in U_VARS)
    if name == "origin":
        return u_zero
    if name == "p1":
        pairs = (point["x22"] * point["x23"], point["x21"] * point["x23"],
                 point["x21"] * point["x22"])
        return u_zero and all(v == 0 for v in pairs)
    if name == "p2":
        return (u_zero and point["x23"] == 0
                and point["x11"] * point["x12"] + point["x21"] * point["x22"] == 0)
    if name == "p3":
        return u_zero and all(point[n] == 0 for n in ("x21", "x22", "x13"))
    if name == "p4":
        return all(v == 0 for v in point.values())
    raise KeyError(name)


@dataclass
class RadicalReport:
    name: str
    ok: bool
    detail: dict
    failures: list[str] = field(default_factory=list)


def radical_locus_check(name: str, seed: int, samples: int = 20) -> RadicalReport:
    """Sampled membership on the stated radical locus, sampled failure off
    it, agreement of the two nondegeneracy tests, and exact match of the
    specialized cubic form with its stated display."""
    P = representative(name)
    pres = coord8.presentation(P)
    failures: list[str] = []
    rng_on = random.Random(f"{seed}:{name}:on")
    rng_off = random.Random(f"{seed}:{name}:off")

    on_count = 0
    if name != "p4":
        for _ in range(samples):
            point = radical_point(name, rng_on)
            sigma = pres.element([point[n] for n in COORD_VARS])
            tests = jordan.nondegeneracy_test_equiv(pres, sigma)
            if not tests["viaU"]:
                failures.append(f"{name}: locus point rejected by the U-operator test")
                break
            if tests["viaU"] != tests["viaTN"]:
                failures.append(f"{name}: the two membership tests disagree on a locus point")
                break
            on_count += 1

    off_count = 0
    n_off = 100 if name == "p4" else samples
    for _ in range(n_off):
        point = off_radical_point(name, rng_off)
        sigma = pres.element([point[n] for n in COORD_VARS])
        tests = jordan.nondegeneracy_test_equiv(pres, sigma)
        if tests["viaU"]:
            failures.append(f"{name}: off-locus point accepted by the U-operator test")
            break
        if tests["viaU"] != tests["viaTN"]:
            failures.append(f"{name}: the two membership tests disagree off the locus")
            break
        off_count += 1

    display_ok = True
    if name in _NP_DISPLAYS:
        display_ok = coord8.cubic_form(P).to_str() == _NP_DISPLAYS[name]
        if not display_ok:
            failures.append(f"{name}: specialized cubic form differs from its display")

    return RadicalReport(name, not failures,
                         {"on_locus": on_count, "off_locus": off_count,
                          "display_ok": display_ok}, failures)


def nondegenerate_sweep(seed: int, cubes: int = 50, sigmas_per_cube: int = 2) -> dict:
    """At random cubes with nonvanishing hyperdeterminant, random nonzero
    elements never lie in the radical."""
    rng = random.Random(f"{seed}:nondegenerate")
    tried = 0
    failures = 0
    while tried < cubes:
        P = Hypermatrix({t: _rand(rng) for t in coord8.INDEX_TRIPLES})
        if hyperdeterminant(P) == 0:
            continue
        tried += 1
        pres = coord8.presentation(P)
        for _ in range(sigmas_per_cube):
            while True:
                vals = [_rand(rng) for _ in COORD_VARS]
                if any(v != 0 for v in vals):
                    break
            if jordan.radical_membership(pres, pres.element(vals)):
                failures += 1
    return {"cubes": tried, "sigmas": tried * sigmas_per_cube,
            "failures": failures, "ok": failures == 0}
