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
no hidden global randomness.  A sampled point stays an integer ``Point``
from the draw to the check; ``sample_point`` makes ``Fraction``s to return.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from . import coord8, jordan
from .coord8 import (ALL_VARS, COORD_VARS, INDEX_TRIPLES, PARAM_VARS, X_VARS,
                     Hypermatrix, coord_ring, d_entry, d_matrix, p_name, x_name)
from .errors import InternalError, ShapeError, SingularGroupElement
from .exactcore import (Batch, EquationSet, Point, Poly, PolyMatrix, Rational, Report, Ring,
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


def orbit_certificate(P: Hypermatrix, want: str | None = None) -> Report:
    """The orbit label, hyperdeterminant and flattening ranks of a rational
    cube, as ``classify_orbit`` gives them.

    With ``want``, the claim is that the label is ``want``.  Without, it is
    that no independent route at the cube contradicts the label's
    invariants: the hyperdeterminant is checked against the symbolic
    Cayley form evaluated at the cube, and each flattening rank against
    the rank that exact elimination gives; the first contradiction is the
    ``residual``.
    """
    label = classify_orbit(P)
    data = {"label": label.label, "hyperdet": label.hyperdet,
            "ranks": list(label.flattening_ranks)}
    if want is not None:
        return Report(label.label == want, data)
    ring = coord_ring(True)
    form = hyperdeterminant(Hypermatrix.symbolic(ring), ring)
    value = form.evaluate(dict(zip(PARAM_VARS, P.as_fractions().values())))
    if value != label.hyperdet:
        data["residual"] = f"D_H = {label.hyperdet}, but the Cayley form at the cube is {value}"
    for axis, r in zip((1, 2, 3), label.flattening_ranks):
        if "residual" not in data and r != (exact := rank(flattening(P, axis))):
            data["residual"] = (f"flattening {axis} has rank {r}, "
                                f"but elimination gives rank {exact}")
    return Report("residual" not in data, data)


_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))


def _draw(rng: random.Random, top: int = 9, cols: int = 4) -> tuple[int, int]:
    """a and b of a/b: the draws of ``randint(-top, top)``, then of
    ``randint(1, cols)``, each by the ``getrandbits`` rejection loop that
    ``Random._randbelow`` runs inside ``choice`` and ``randint``."""
    bits = rng.getrandbits
    n = 2 * top + 1
    k = n.bit_length()
    a = bits(k)
    while a >= n:
        a = bits(k)
    k = cols.bit_length()
    b = bits(k)
    while b >= cols:
        b = bits(k)
    return a - top, b + 1


def _random_invertible(rng: random.Random, ring: Ring) -> PolyMatrix:
    """Random invertible 2x2 factor over ``ring`` with small rational entries."""
    while True:
        m = [[Fraction(*_draw(rng, 5, 3)) for _ in range(2)] for _ in range(2)]
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


def hyperdet_covariance_certificate() -> Report:
    """The hyperdeterminant transforms by the squared determinant of a
    symbolic factor in each of the three slots; the data holds the three
    exponents that ``hyperdet_covariance_exponent`` computes."""
    exponents = {r: hyperdet_covariance_exponent(r) for r in (1, 2, 3)}
    return Report(all(e == 2 for e in exponents.values()), {"exponents": exponents})


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
# an RNG to a point over the nine coordinates lying on a dense open part,
# built from pairs (a, b) of a/b, b nonzero, that ``_point`` puts over one
# denominator.  ``_AT`` gives positions in a point over ALL_VARS, which are
# those over COORD_VARS for the coordinates; ``_SLOTS`` those of x1i, x2i, ui.
_AT = {n: k for k, n in enumerate(ALL_VARS)}
_SLOTS = tuple((_AT[x_name(1, i)], _AT[x_name(2, i)], _AT[f"u{i}"]) for i in (1, 2, 3))

# every value a/b of ``_draw``, in rows a = -9..9 of columns b = 1..4
_RAND_VALUES = tuple(tuple(Fraction(a, b) for b in range(1, 5)) for a in range(-9, 10))


def _rand(rng: random.Random) -> Fraction:
    """The rational a/b of one ``_draw``."""
    a, b = _draw(rng)
    return _RAND_VALUES[a + 9][b - 1]


def _draw_nonzero(rng: random.Random) -> tuple[int, int]:
    while True:
        a, b = _draw(rng)
        if a:
            return a, b


def _point(pairs: Sequence[tuple[int, int]]) -> Point:
    """The rationals a/b as integer numerators over the lcm of the b."""
    den = lcm(*[b for _, b in pairs])
    return [a * (den // b) for a, b in pairs], den


def _component_points(name: str, rng: random.Random) -> Point:
    pt = [(0, 1)] * len(COORD_VARS)
    if name == "origin/all-x":
        pt[:len(X_VARS)] = [_draw(rng) for _ in X_VARS]  # COORD_VARS starts with X_VARS
    elif name[:-1] in ("origin/pair", "p1/quadric"):
        # origin: one coordinate pair zero together with two idempotent
        # coords; p1 component i: the other idempotent coords and the second
        # row of pair i vanish, and u_i is solved from the displayed quadric
        i = int(name[-1]) - 1
        lo, _, u = _SLOTS[i]
        others = _SLOTS[:i] + _SLOTS[i + 1:]
        if name.startswith("origin"):
            pt[u] = _draw(rng)
        for x1, x2, _ in others:
            pt[x1] = _draw(rng)
            pt[x2] = _draw(rng)
        if name.startswith("p1"):
            a, b = pt[lo] = _draw_nonzero(rng)
            (c, d), (e, f) = (pt[x2] for _, x2, _ in others)
            pt[u] = (c * e * b, d * f * a)
    elif name == "p2/quadric":
        # x11, x21, x12, x22 (the first four coordinates), x13, then
        # u3 = (x11 x12 + x21 x22) / x13
        (a11, b11), (a21, b21), (a12, b12), (a22, b22) = pt[:4] = [_draw(rng) for _ in range(4)]
        a, b = pt[_AT["x13"]] = _draw_nonzero(rng)
        pt[_AT["u3"]] = ((a11 * a12 * b21 * b22 + a21 * a22 * b11 * b12) * b,
                         b11 * b12 * b21 * b22 * a)
    elif name == "p2/cone":
        lam, mu = _draw_nonzero(rng)  # lambda = lam / mu
        a, b = pt[_AT["x23"]] = _draw(rng)
        c, d = pt[_AT["x11"]] = _draw(rng)
        e, f = pt[_AT["x21"]] = _draw(rng)
        pt[_AT["x13"]] = _draw(rng)
        # u1, u2 = lambda x23, -x23 / lambda and x22, x12 = lambda x11, -lambda x21
        pt[_AT["u1"]], pt[_AT["u2"]] = (lam * a, mu * b), (-a * mu, b * lam)
        pt[_AT["x22"]], pt[_AT["x12"]] = (lam * c, mu * d), (-lam * e, mu * f)
    else:
        raise KeyError(f"unknown fiber component {name!r}")
    return _point(pt)


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
            if not any(evaluate(*_component_points(comp, rng))[0]):
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


def chart_det_identity() -> Report:
    """On the chart, the first difference determinant factors as minus the
    product of the other two; the claim reports no data."""
    sub = chart_substitution()
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    x = tuple(ring.var(n) for n in X_VARS)
    det = d_matrix(p, (sub["x11"], sub["x21"]) + x[2:], 1).det()
    return Report(det == -(sub["u2"] * sub["u3"]), {})


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
    n = len(COORD_VARS)
    checked = failures = 0
    while checked < samples:
        nums, den = _sample(rng, {})
        x11 = nums[_AT["x11"]]
        if x11 == 0:
            continue
        # the coordinates over x11 and the cube over den, both over den |x11|
        c, h = (den if x11 > 0 else -den), abs(x11)
        checked += 1
        if any(pfaffians([v * c for v in nums[:n]] + [v * h for v in nums[n:]], den * h)[0]):
            failures += 1
    return Report(failures == 0, {"checked": checked, "failures": failures,
                                  "ok": failures == 0})


# ---------------------------------------------------------------------------
# Point sampling
# ---------------------------------------------------------------------------

CHART_FREE_VARS = ("x12", "x22", "x13", "x23") + PARAM_VARS
_SOLVED = ("x11", "x21", "u2", "u3")


@cache
def _sampling_tables() -> tuple[Batch, Batch]:
    """The chart images of the solved coordinates, over the free chart
    coordinates alone, and the nine generators, compiled."""
    sub, free = chart_substitution(), Ring(CHART_FREE_VARS)
    return compile_batch([sub[n].convert(free) for n in _SOLVED]), compile_batch(equations().gens)


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
    nums, den = _sample(rng, {n: _frac(v).as_integer_ratio() for n, v in constraints.items()})
    return {n: Fraction(nums[_AT[n]], den) for n in CHART_FREE_VARS + _SOLVED + ("u1",)}


def _sample(rng: random.Random, pinned: Mapping[str, tuple[int, int]]) -> Point:
    """The point of ``sample_point`` over ``ALL_VARS``; constraints are pairs (a, b) of a/b."""
    images, gens = _sampling_tables()
    free, q = _point([pinned.get(n) or _draw(rng) for n in CHART_FREE_VARS])
    (x11, x21, u2, u3), den = images(free, q)
    # over den b in the order of ALL_VARS (x11, x21, the four free coordinates,
    # u1 = 1, u2, u3, the cube), with the algebra part times t = a/b
    a, b = _draw_nonzero(rng)
    scale = den // q
    nums = [v * a for v in (x11, x21, *(v * scale for v in free[:4]), den, u2, u3)]
    nums += [v * scale * b for v in free[4:]]
    den *= b
    if any(gens(nums, den)[0]):
        raise InternalError("constructed point violates the equations")
    return nums, den


# ---------------------------------------------------------------------------
# Radical loci of the degenerate algebras
# ---------------------------------------------------------------------------

_NP_DISPLAYS = {
    "origin": "u1*u2*u3",
    "p1": "u1*u2*u3",
    "p2": "x23^2*u3 + u1*u2*u3",
    "p3": "x21^2*u1 + 2*x21*x22*x13 + x22^2*u2 - x13^2*u3 + u1*u2*u3",
}


def cubic_display_certificate(name: str) -> Report:
    """The cubic form specialized at a degenerate representative prints as
    its closed display in ``_NP_DISPLAYS``; the data holds both strings."""
    got = coord8.cubic_form(representative(name)).to_str()
    want = _NP_DISPLAYS[name]
    return Report(got == want, {"computed": got, "expected": want})


def radical_point(name: str, rng: random.Random) -> Point:
    """A sampled point over ``COORD_VARS`` of the stated radical locus of a representative."""
    pt = [(0, 1)] * len(COORD_VARS)
    if name == "origin":
        pt[:len(X_VARS)] = [_draw(rng) for _ in X_VARS]  # COORD_VARS starts with X_VARS
    elif name == "p1":
        for n in ("x11", "x12", "x13"):
            pt[_AT[n]] = _draw(rng)
        survivor = rng.choice(("x21", "x22", "x23"))
        pt[_AT[survivor]] = _draw(rng)
    elif name == "p2":
        pt[_AT["x13"]] = _draw(rng)
        a, b = pt[_AT["x11"]] = _draw_nonzero(rng)
        c, d = pt[_AT["x21"]] = _draw(rng)
        e, f = pt[_AT["x22"]] = _draw(rng)
        pt[_AT["x12"]] = (-c * e * b, d * f * a)  # -x21 x22 / x11
    elif name == "p3":
        for n in ("x11", "x12", "x23"):
            pt[_AT[n]] = _draw(rng)
    elif name != "p4":  # the radical of p4 is trivial
        raise KeyError(f"unknown representative {name!r}")
    return _point(pt)


def off_radical_point(name: str, rng: random.Random) -> Point:
    """A random nonzero point over ``COORD_VARS`` verified to lie off the radical locus."""
    while True:
        nums, den = _point([_draw(rng) for _ in COORD_VARS])
        if any(nums) and not _on_radical_locus(name, nums):
            return nums, den


def _on_radical_locus(name: str, nums: Sequence[int]) -> bool:
    """Whether a point over ``COORD_VARS`` lies on the stated radical locus,
    read off its numerators: every condition is homogeneous."""
    x11, x21, x12, x22, x13, x23, u1, u2, u3 = nums
    u_zero = not (u1 or u2 or u3)
    if name == "origin":
        return u_zero
    if name == "p1":
        return u_zero and not (x22 * x23 or x21 * x23 or x21 * x22)
    if name == "p2":
        return u_zero and x23 == 0 and x11 * x12 + x21 * x22 == 0
    if name == "p3":
        return u_zero and not (x21 or x22 or x13)
    if name == "p4":
        return not any(nums)
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
            tests = jordan.nondegeneracy_test_equiv(pres, radical_point(name, rng_on)[0])
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
        tests = jordan.nondegeneracy_test_equiv(pres, off_radical_point(name, rng_off)[0])
        if tests["viaU"]:
            failures.append(f"{name}: off-locus point accepted by the U-operator test")
            break
        if tests["viaU"] != tests["viaTN"]:
            failures.append(f"{name}: the two membership tests disagree off the locus")
            break
        off_count += 1

    display_ok = name not in _NP_DISPLAYS or cubic_display_certificate(name).ok
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
