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

Rational cubes are moved under the group, and their hyperdeterminant is
taken, in integers over one common denominator, which is divided out once
at the end.

Sampling uses explicitly seeded generators passed by the caller; there is
no hidden global randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Mapping

from . import coord8, jordan
from .coord8 import (ALL_VARS, COORD_VARS, INDEX_TRIPLES, PARAM_VARS, X_VARS, U_VARS,
                     Hypermatrix, coord_ring, d_entry, d_matrix, p_name, x_name)
from .errors import InternalError, ShapeError, SingularGroupElement
from .exactcore import (Batch, EquationSet, Poly, PolyMatrix, Rational, Report, Ring,
                        _frac, compile_batch, over_common_denominator, rank,
                        span_compare, substitute_all)

GEN_LABELS = ("g1a", "g1b", "g2a", "g2b", "g3a", "g3b", "g4", "g5", "g6")


def equations(ring: Ring | None = None) -> EquationSet:
    """The nine defining generators over the 17-variable ring, or over a
    ring extending it: the symbolic sharp components, expanded once."""
    gens = coord8._symbolic_forms()[1]
    if ring is None:
        ring = gens[0].ring
    return EquationSet(ring, tuple(g.convert(ring) for g in gens), GEN_LABELS)


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


def _perm_images(perm: tuple[int, int, int], value) -> dict:
    """Variable images under the index permutation, with ``value(name)``
    the image carrier of a variable (a Poly, a rational or an integer).

    Indices permute by ``perm`` on the idempotent and pair blocks, and the
    cube entry with index word A maps to the entry with word A composed
    with the inverse permutation.
    """
    inv = {perm[i]: i + 1 for i in range(3)}
    images = {}
    for i in (1, 2, 3):
        images[f"u{i}"] = value(f"u{perm[i - 1]}")
        for a in (1, 2):
            images[x_name(a, i)] = value(x_name(a, perm[i - 1]))
    for word in coord8.INDEX_TRIPLES:
        image = tuple(word[inv[m] - 1] for m in (1, 2, 3))
        images[p_name(*word)] = value(p_name(*image))
    return images


def _factor_images(r: int, entries, value) -> dict:
    """Images of the variables moved by one 2x2 factor acting on slot r.

    ``entries`` are the factor's a, b, c, d in row order and ``value(name)``
    is the image carrier of a variable; they may be Polys, rationals or
    integers.
    """
    a, b, c, d = entries
    det = a * d - b * c
    lo_x, hi_x = x_name(1, r), x_name(2, r)
    images = {lo_x: a * value(lo_x) + b * value(hi_x),
              hi_x: c * value(lo_x) + d * value(hi_x)}
    for i in (1, 2, 3):
        if i != r:
            images[f"u{i}"] = det * value(f"u{i}")
    for word in coord8.INDEX_TRIPLES:
        if word[r - 1] != 1:
            continue
        hi = list(word)
        hi[r - 1] = 2
        lo_p, hi_p = p_name(*word), p_name(*hi)
        images[lo_p] = a * value(lo_p) + b * value(hi_p)
        images[hi_p] = c * value(lo_p) + d * value(hi_p)
    return images


def substitution_of(g: GroupElement, ring: Ring) -> dict[str, Poly]:
    """Composite variable substitution of the group element.

    The substitutions compose in the order factor 1, 2, 3, then the
    permutation: the image of a variable under factor 1 has the images of
    factor 2 substituted into it, and so on.  A point therefore moves the
    opposite way (see ``apply_group_to_cube``).
    """
    g.validate()
    sub: dict[str, Poly] = {n: ring.var(n) for n in ALL_VARS}
    steps = [_factor_images(r, [e.convert(ring) for e in factor.entries], ring.var)
             for r, factor in enumerate(g.factors(), start=1) if factor is not None]
    if g.perm != (1, 2, 3):
        steps.append(_perm_images(g.perm, ring.var))
    for step in steps:
        sub = dict(zip(sub, substitute_all(tuple(sub.values()), step, ring)))
    return sub


def _integer_factor(factor: PolyMatrix) -> tuple[list[int], int]:
    """The entries a, b, c, d of a rational 2x2 factor as integers over
    their common denominator s, with the guards of ``GroupElement.validate``:
    a factor that is not 2x2 or has zero determinant is rejected."""
    if (factor.rows, factor.cols) != (2, 2):
        raise ShapeError("group factors must be 2x2")
    (a, b, c, d), s = over_common_denominator([e.constant_value() for e in factor.entries])
    if a * d == b * c:
        raise SingularGroupElement("rational factor with zero determinant")
    return [a, b, c, d], s


def apply_group_to_cube(g: GroupElement, P: Hypermatrix) -> Hypermatrix:
    """Image of a rational cube under a group element with rational factors.

    The value of ``substitution_of(g)`` at the cube, moving only the eight
    cube entries: the cube is permuted first, then factors 3, 2 and 1 act.
    They act by g1 (x) g2 (x) g3, so one denominator carries through: the
    entries are integers over the cube's common denominator q, each factor
    mixes them by its integer entries over its own denominator s, and the
    images are divided by q times the product of the s once at the end.
    """
    factors = [(r, _integer_factor(factor))
               for r, factor in enumerate(g.factors(), start=1) if factor is not None]
    nums, den = over_common_denominator(P.as_fractions().values())
    vals = dict.fromkeys(ALL_VARS, 0)
    vals.update(zip(PARAM_VARS, nums))
    if g.perm != (1, 2, 3):
        vals.update(_perm_images(g.perm, vals.__getitem__))
    for r, (entries, s) in reversed(factors):
        vals.update(_factor_images(r, entries, vals.__getitem__))
        den *= s
    return Hypermatrix({t: Fraction(vals[n], den) for t, n in zip(INDEX_TRIPLES, PARAM_VARS)})


def apply_group_to_equations(g: GroupElement, eqs: EquationSet) -> EquationSet:
    sub = substitution_of(g, eqs.ring)
    return eqs.substitute(sub, eqs.ring)


def factor_equivariance_certificate(r: int) -> Report:
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
    return Report(not failures, {"failures": failures})


def permutation_certificate(perm: tuple[int, int, int]) -> Report:
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
    return Report(not failures, {"failures": failures})


def swap_all_factors_certificate() -> Report:
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
    return Report(not failures, {"failures": failures})


# ---------------------------------------------------------------------------
# Hyperdeterminant and orbit classification
# ---------------------------------------------------------------------------


def hyperdeterminant(P: Hypermatrix, ring: Ring | None = None) -> "Poly | Fraction":
    """Degree-four invariant of the 2x2x2 cube (Cayley's form).

    A rational cube without a ring is evaluated on the integer numerators
    of its entries over their common denominator q, and the value is
    divided by q^4 once; otherwise the form is expanded over the ring.
    """
    scale = None
    if ring is None and P.is_rational():
        nums, q = over_common_denominator(P.entries.values())
        p = dict(zip(INDEX_TRIPLES, nums))
        scale = q ** 4
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
    value = squares - 2 * cross + 4 * diag
    return value if scale is None else Fraction(value, scale)


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


def _flattening_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a 2x4 flattening: 0 if every entry is zero, 1 if its six
    2x2 minors vanish, 2 otherwise."""
    top, bottom = rows
    if not any(top) and not any(bottom):
        return 0
    if all(top[i] * bottom[j] == top[j] * bottom[i] for i in range(4) for j in range(i + 1, 4)):
        return 1
    return 2


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
    ranks = tuple(_flattening_rank(flattening(P, axis)) for axis in (1, 2, 3))
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


def orbit_label_residual(P: Hypermatrix, label: OrbitLabel) -> str | None:
    """The first invariant of ``label`` that an independent route at the
    rational cube contradicts, or None.

    The hyperdeterminant is checked against the symbolic Cayley form
    evaluated at the cube, and each flattening rank against the rank that
    exact elimination gives.
    """
    ring = coord_ring(True)
    form = hyperdeterminant(Hypermatrix.symbolic(ring), ring)
    value = form.evaluate(dict(zip(PARAM_VARS, P.as_fractions().values())))
    if value != label.hyperdet:
        return f"D_H = {label.hyperdet}, but the Cayley form at the cube is {value}"
    for axis, r in zip((1, 2, 3), label.flattening_ranks):
        exact = rank(flattening(P, axis))
        if r != exact:
            return f"flattening {axis} has rank {r}, but elimination gives rank {exact}"
    return None


_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))


# every value a/b of a factor entry, in rows a = -5..5 of columns b = 1..3
_FACTOR_VALUES = tuple(tuple(Fraction(a, b) for b in range(1, 4)) for a in range(-5, 6))


def _random_invertible(rng: random.Random, ring: Ring) -> PolyMatrix:
    """Random invertible 2x2 factor over ``ring`` with small rational entries."""
    while True:
        m = [[rng.choice(rng.choice(_FACTOR_VALUES)) for _ in range(2)] for _ in range(2)]
        if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            return PolyMatrix.from_rows(ring, m)


def translate_invariance(seed: int) -> Report:
    """Classify 20 random group translates of each nonzero representative.

    A translate is unstable when its orbit label differs from the label of
    the representative itself; the report holds when none is, and counts
    the translates.  Draws come from the ``"{seed}:classify"`` stream.
    """
    rng = random.Random(f"{seed}:classify")
    ring = coord_ring(True)
    translates = unstable = 0
    for name in ("p1", "p2", "p3", "p4"):
        P = representative(name)
        want = classify_orbit(P).label
        for _ in range(20):
            g = GroupElement(_random_invertible(rng, ring), _random_invertible(rng, ring),
                             _random_invertible(rng, ring), rng.choice(_PERMUTATIONS))
            translates += 1
            if classify_orbit(apply_group_to_cube(g, P)).label != want:
                unstable += 1
    return Report(unstable == 0, {"translates": translates})


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
    return EquationSet(coord_ring(False), coord8.presentation(P).sharp, GEN_LABELS)


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


def fiber_certificate_p4() -> Report:
    """Span equality of the generic fiber with the nine 2x2 minors."""
    eqs = fiber_equations(representative("p4"))
    minors = _matrix_minors(open_fiber_matrix(eqs.ring))
    result = span_compare(eqs.gens, minors)
    return Report(result.equal, {"relation": result.relation})


def fiber_certificate_p3() -> Report:
    """Span equality of the degenerate fiber with the rank-one-plus-kernel
    system of the symmetric matrix."""
    eqs = fiber_equations(representative("p3"))
    sym, vec = degenerate_fiber_system(eqs.ring)
    system = _matrix_minors(sym) + list(sym.apply(vec))
    result = span_compare(eqs.gens, system)
    return Report(result.equal, {"relation": result.relation})


# Component parametrizations of the reducible fibers.  Each component maps
# an RNG to a 9-coordinate point lying on a dense open part.

_ZERO = Fraction(0)  # the unset coordinates of every sampled point

# every value a/b of ``_rand``, in rows a = -9..9 of columns b = 1..4
_RAND_VALUES = tuple(tuple(Fraction(a, b) for b in range(1, 5)) for a in range(-9, 10))


def _rand(rng: random.Random) -> Fraction:
    """a/b with a uniform in -9..9, then b uniform in 1..4: one
    ``Random._randbelow`` call each, as ``randint`` would make."""
    return rng.choice(rng.choice(_RAND_VALUES))


def _rand_nonzero(rng: random.Random) -> Fraction:
    while True:
        v = _rand(rng)
        if v != 0:
            return v


def _component_points(name: str, rng: random.Random) -> dict[str, Fraction]:
    point = dict.fromkeys(COORD_VARS, _ZERO)
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


@cache
def _fiber_system(name: str) -> tuple[EquationSet, Batch]:
    """The fiber system at a representative and its compiled evaluation."""
    eqs = fiber_equations(representative(name))
    return eqs, compile_batch(eqs.gens)


def fiber_component_sampling(name: str, seed: int, samples: int = 20) -> Report:
    """Every generator of the fiber system vanishes on sampled points of
    each listed component of a reducible fiber."""
    eqs, evaluate = _fiber_system(name)
    failures: list[str] = []
    counts = {}
    for comp in FIBER_COMPONENTS[name]:
        rng = random.Random(f"{seed}:{comp}")
        good = 0
        for _ in range(samples):
            point = _component_points(comp, rng)
            if all(v == 0 for v in evaluate(point)):
                good += 1
            else:
                failures.append(f"component {comp}: generator fails to vanish")
                break
        counts[comp] = good
    # component quadrics occur among the generators where displayed
    v = eqs.ring.var
    displayed = {"p1": [v("u3") * v("x13") - v("x21") * v("x22"),
                        v("u2") * v("x12") - v("x21") * v("x23"),
                        v("u1") * v("x11") - v("x22") * v("x23")],
                 "p2": [v("u3") * v("x13") - v("x11") * v("x12") - v("x21") * v("x22")]}
    if name in displayed and span_compare(eqs.gens, displayed[name]).relation not in (
            "equal", "a_contains_b"):
        failures.append(f"{name}: displayed component equation not in the span")
    return Report(not failures, {"samples": counts, "failures": failures})


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------


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


def chart_reduce_u1(sub: Mapping[str, Poly]) -> Report:
    """Substitute a chart elimination, normally ``chart_substitution()``,
    into all nine generators; every residual must vanish identically in the
    twelve free coordinates.  The report names the generators left nonzero,
    the first such residual and the chart dimension."""
    eqs = equations()
    residuals = substitute_all(eqs.gens, sub, eqs.ring)
    bad = [(lbl, r) for lbl, r in zip(GEN_LABELS, residuals) if not r.is_zero()]
    return Report(not bad, {"nonzero": [lbl for lbl, _ in bad],
                            "residual": bad[0][1].to_str() if bad else None,
                            "dimension": len(CHART_FREE_VARS) + 1})


def chart_det_identity() -> bool:
    """On the chart, the first difference determinant factors as minus the
    product of the other two."""
    sub = chart_substitution()
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    x = tuple(ring.var(n) for n in X_VARS)
    return d_matrix(p, (sub["x11"], sub["x21"]) + x[2:], 1).det() == -(sub["u2"] * sub["u3"])


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


@cache
def _chart_pfaffians() -> Batch:
    """The five signed Pfaffians of the skew chart matrix, compiled."""
    return compile_batch(skew_chart_matrix(coord_ring(True)).sub_pfaffians())


def pfaffian_vanishing_on_samples(seed: int, samples: int = 30) -> Report:
    """All five signed Pfaffians of the skew chart matrix vanish on sampled
    variety points rescaled so the leading pair coordinate is one."""
    pfaffians = _chart_pfaffians()
    rng = random.Random(f"{seed}:pfaffians")
    checked = 0
    failures = 0
    while checked < samples:
        point = sample_point(rng)
        if point["x11"] == 0:
            continue
        rescaled = {**point, **{n: point[n] / point["x11"] for n in COORD_VARS}}
        checked += 1
        if any(v != 0 for v in pfaffians(rescaled)):
            failures += 1
    return Report(failures == 0, {"checked": checked, "failures": failures,
                                  "ok": failures == 0})


# ---------------------------------------------------------------------------
# Point sampling
# ---------------------------------------------------------------------------

CHART_FREE_VARS = ("x12", "x22", "x13", "x23") + PARAM_VARS


@cache
def _sampling_tables() -> tuple[tuple[str, ...], Batch, Batch]:
    """The solved coordinates, their chart images (in the free chart
    coordinates alone) and the nine generators, the last two compiled."""
    sub = chart_substitution()
    solved = ("x11", "x21", "u2", "u3")
    return solved, compile_batch([sub[n] for n in solved]), compile_batch(equations().gens)


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
    solved, images, gens = _sampling_tables()
    values: dict[str, Fraction] = {}
    for n in CHART_FREE_VARS:
        values[n] = _frac(constraints[n]) if n in constraints else _rand(rng)
    values.update(zip(solved, images(values)))
    values["u1"] = Fraction(1)
    t = _rand_nonzero(rng)
    for n in COORD_VARS:
        values[n] = values[n] * t
    if any(v != 0 for v in gens(values)):
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
    point = dict.fromkeys(COORD_VARS, _ZERO)
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


def radical_locus_check(name: str, seed: int, samples: int = 20) -> Report:
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
            tests = jordan.nondegeneracy_test_equiv(pres, [point[n] for n in COORD_VARS])
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
        tests = jordan.nondegeneracy_test_equiv(pres, [point[n] for n in COORD_VARS])
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

    return Report(not failures, {"on_locus": on_count, "off_locus": off_count,
                                 "display_ok": display_ok, "failures": failures})


def nondegenerate_sweep(seed: int, cubes: int = 50, sigmas_per_cube: int = 2) -> Report:
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
            if jordan.radical_membership(pres, vals):
                failures += 1
    return Report(failures == 0, {"cubes": tried, "sigmas": tried * sigmas_per_cube,
                                  "failures": failures, "ok": failures == 0})
