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

A rational cube is read as its integer point ``P.point()``: it is moved
under the group, classified, and its hyperdeterminant taken on the
numerators, and the one common denominator is divided out at the end.  The
symbolic cube is ``coord8.symbolic_cube(ring)``.  The radical tests at a
cube read integer tables over one denominator off one call of the symbolic
presentation's compiled batch (``coord8.rational_tables``).

Every sampled claim draws through ``sampled`` on its stream ``"{seed}:<name>"``;
there is no hidden global randomness.  A sampled point, and each cube and
element of the nondegenerate sweep, stays an integer ``Point`` from the
draw to the check; ``sample_point`` makes ``Fraction``s to return.
"""

from __future__ import annotations

import random
from functools import cache
from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import coord8, jordan
from .coord8 import (ALL_VARS, COORD_VARS, INDEX_TRIPLES, PARAM_VARS, X_VARS, Hypermatrix,
                     coord_ring, d_entry, d_matrix, p_name, symbolic_cube, x_name)
from .errors import InternalError, ShapeError, SingularGroupElement
from .exactcore import (A_CONTAINS_B, EQUAL, Batch, EquationSet, Point, Poly, PolyMatrix,
                        Rational, Report, Ring, _frac, compile_batch, over_common_denominator,
                        rank, span_compare, substitute_all)

GEN_LABELS = ("g1a", "g1b", "g2a", "g2b", "g3a", "g3b", "g4", "g5", "g6")


def equations(ring: Ring | None = None) -> EquationSet:
    """The nine defining generators over the 17-variable ring, or over a ring
    extending it: the sharps of ``coord8._symbolic_presentation()``, untraced."""
    gens = coord8._symbolic_presentation().sharp
    return EquationSet(gens[0].ring, gens, GEN_LABELS).substitute({}, ring)


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
    return Hypermatrix(_REPRESENTATIVES[name])


# ---------------------------------------------------------------------------
# Group action
# ---------------------------------------------------------------------------


class GroupElement(NamedTuple):
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


def _perm_images(perm: tuple[int, int, int], ring: Ring) -> dict[str, Poly]:
    """Variable images under the index permutation, as variables of ``ring``.

    Indices permute by ``perm`` on the idempotent and pair blocks, and the
    cube entry with index word A maps to the entry with word A composed
    with the inverse permutation.
    """
    inv = {perm[i]: i + 1 for i in range(3)}
    images = {}
    for i in (1, 2, 3):
        images[f"u{i}"] = ring.var(f"u{perm[i - 1]}")
        for a in (1, 2):
            images[x_name(a, i)] = ring.var(x_name(a, perm[i - 1]))
    for word in coord8.INDEX_TRIPLES:
        image = tuple(word[inv[m] - 1] for m in (1, 2, 3))
        images[p_name(*word)] = ring.var(p_name(*image))
    return images


def _factor_images(r: int, factor: PolyMatrix, ring: Ring) -> dict[str, Poly]:
    """Images of the variables moved by one 2x2 factor acting on slot r,
    over ``ring``, with the factor's a, b, c, d in row order read in place: a
    factor over another ring raises ``ContextError``."""
    a, b, c, d = factor.entries
    var = ring.var
    det = a * d - b * c
    lo_x, hi_x = x_name(1, r), x_name(2, r)
    images = {lo_x: a * var(lo_x) + b * var(hi_x),
              hi_x: c * var(lo_x) + d * var(hi_x)}
    for i in (1, 2, 3):
        if i != r:
            images[f"u{i}"] = det * var(f"u{i}")
    for word in coord8.INDEX_TRIPLES:
        if word[r - 1] != 1:
            continue
        hi = list(word)
        hi[r - 1] = 2
        lo_p, hi_p = p_name(*word), p_name(*hi)
        images[lo_p] = a * var(lo_p) + b * var(hi_p)
        images[hi_p] = c * var(lo_p) + d * var(hi_p)
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
    steps = [_factor_images(r, factor, ring)
             for r, factor in enumerate(g.factors(), start=1) if factor is not None]
    if g.perm != (1, 2, 3):
        steps.append(_perm_images(g.perm, ring))
    for step in steps:
        sub = dict(zip(sub, substitute_all(tuple(sub.values()), step, ring)))
    return sub


def apply_group_to_cube(g: GroupElement, P: Hypermatrix) -> Hypermatrix:
    """Image of a rational cube under a group element with rational factors:
    ``_move_cube`` on the cube's entries over their common denominator, and
    on each factor's entries over theirs, once ``g.validate()`` holds."""
    g.validate()
    factors = [(r, over_common_denominator([e.constant_value() for e in factor.entries]))
               for r, factor in enumerate(g.factors(), start=1) if factor is not None]
    nums, den = _move_cube(factors, g.perm, P.point())
    return Hypermatrix({t: Fraction(v, den) for t, v in zip(INDEX_TRIPLES, nums)})


def _move_cube(factors: Sequence[tuple[int, tuple[list[int], int]]],
               perm: tuple[int, int, int], cube: Point) -> Point:
    """The value of ``substitution_of`` at a cube, on the eight cube entries
    alone, in integers: the entries n over q in ``INDEX_TRIPLES`` order, and
    each factor r as its entries a, b, c, d over s.  The cube is permuted
    first, then factors 3, 2 and 1 act by g1 (x) g2 (x) g3: factor r mixes
    each pair of entries that differ in slot r only (index 1, then 2) by
    its integer entries, so one denominator carries through, q times the
    product of the s."""
    nums, den = cube
    inv = {perm[i]: i + 1 for i in range(3)}
    nums = [nums[INDEX_TRIPLES.index(tuple(w[inv[m] - 1] for m in (1, 2, 3)))]
            for w in INDEX_TRIPLES]
    for r, ((a, b, c, d), s) in reversed(factors):
        bit = 1 << (r - 1)  # the entries with index 2 in slot r
        for lo in (k for k in range(8) if not k & bit):
            x, y = nums[lo], nums[lo | bit]
            nums[lo], nums[lo | bit] = a * x + b * y, c * x + d * y
        den *= s
    return nums, den


def _symbolic_factor() -> tuple[Ring, PolyMatrix, Poly]:
    """The 2x2 factor [[ga, gb], [gc, gd]] of four symbols, over the
    17-variable ring extended by them, and its determinant."""
    ring = coord_ring(True, ("ga", "gb", "gc", "gd"))
    g = PolyMatrix(ring, 2, 2, [ring.var(n) for n in ring.names[-4:]])
    return ring, g, g.det()


def factor_equivariance_certificate(r: int) -> Report:
    """Exact transformation law of the nine generators under one symbolic
    2x2 factor: the r-th pair transforms by the matrix itself, the r-th
    idempotent generator picks up the squared determinant, and every other
    generator is scaled by the determinant."""
    ring, g, det = _symbolic_factor()
    base = equations(ring)
    transformed = base.substitute(substitution_of(GroupElement(**{f"g{r}": g}), ring), ring)

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
    transformed = base.substitute(substitution_of(GroupElement(perm=perm), base.ring), base.ring)
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
    sub = substitution_of(element, base.ring)
    failures = []
    result = span_compare(base.gens, base.substitute(sub, base.ring).gens)
    if not result.equal:
        failures.append(f"triple swap: span changed ({result.relation})")
    failures += [f"triple swap: pair {i} rows not exchanged" for i in (1, 2, 3)
                 if sub[x_name(1, i)] != base.ring.var(x_name(2, i))]
    return Report(not failures, {"failures": failures})


# ---------------------------------------------------------------------------
# Hyperdeterminant and orbit classification
# ---------------------------------------------------------------------------


def hyperdeterminant(P: Hypermatrix) -> Fraction:
    """Degree-four invariant of the 2x2x2 cube (Cayley's form), evaluated on
    the integer numerators of ``P.point()`` and divided by q^4 once for
    their denominator q; the symbolic form is ``_cayley`` of
    ``symbolic_cube(ring).values()``."""
    nums, q = P.point()
    return Fraction(_cayley(nums), q ** 4)


def _cayley(p: Sequence) -> "Poly | int":
    """Cayley's form of the entries p111, p211, ..., p222 (``INDEX_TRIPLES`` order)."""
    p111, p211, p121, p221, p112, p212, p122, p222 = p
    squares = (p111 * p111 * p222 * p222 + p112 * p112 * p221 * p221
               + p121 * p121 * p212 * p212 + p122 * p122 * p211 * p211)
    cross = (p111 * p122 * p211 * p222 + p111 * p121 * p212 * p222
             + p111 * p112 * p221 * p222 + p121 * p122 * p211 * p212
             + p112 * p122 * p211 * p221 + p112 * p121 * p212 * p221)
    diag = p111 * p122 * p212 * p221 + p112 * p121 * p211 * p222
    return squares - 2 * cross + 4 * diag


def flattening(P: Hypermatrix, axis: int) -> list[list[Fraction]]:
    """2x4 matrix reshaping the cube along one index slot."""
    return _reshape(P.entries.values(), axis)


def _reshape(vals: Iterable[Rational], axis: int) -> list[list]:
    """The 2x4 flattening of cube entries given in ``INDEX_TRIPLES`` order."""
    return [[v for t, v in zip(INDEX_TRIPLES, vals) if t[axis - 1] == m] for m in (1, 2)]


def _flattening_rank(rows: list[list[Rational]]) -> int:
    """Rank of a 2x4 flattening: 0 if every entry is zero, 1 if its six
    2x2 minors vanish, 2 otherwise."""
    top, bottom = rows
    if not any(top) and not any(bottom):
        return 0
    if all(top[i] * bottom[j] == top[j] * bottom[i] for i in range(4) for j in range(i + 1, 4)):
        return 1
    return 2


class OrbitLabel(NamedTuple):
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
    # the zero test and the ranks read numerators: scaling keeps both
    nums, _ = P.point()
    return OrbitLabel(*_orbit_type(nums, hyperdeterminant(P)))


def _orbit_type(nums: Sequence[int], det: Rational) -> tuple[str, Rational, tuple[int, int, int]]:
    """The label, ``det`` and the flattening ranks of a cube with integer
    entries ``nums`` and hyperdeterminant ``det``, each up to a nonzero
    factor, which changes neither the label nor the ranks."""
    ranks = tuple(_flattening_rank(_reshape(nums, axis)) for axis in (1, 2, 3))
    label = ("origin" if not any(nums) else "O4" if det else "O1" if max(ranks) <= 1
             else "O2" if min(ranks) <= 1 else "O3")
    return label, det, ranks


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
    form = _cayley(list(symbolic_cube(coord_ring(True)).values()))
    value = form.evaluate(dict(zip(PARAM_VARS, P.entries.values())))
    if value != label.hyperdet:
        data["residual"] = f"D_H = {label.hyperdet}, but the Cayley form at the cube is {value}"
    for axis, r in zip((1, 2, 3), label.flattening_ranks):
        if "residual" not in data and r != (exact := rank(flattening(P, axis))):
            data["residual"] = (f"flattening {axis} has rank {r}, "
                                f"but elimination gives rank {exact}")
    return Report("residual" not in data, data)


_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1))


def sampled(stream: str, count: int, check: Callable[..., str | None]) -> tuple[int, str | None]:
    """Run ``check(rng, k)`` for k < ``count`` on ``random.Random(stream)`` and stop
    at the first failure text it returns: (draws passed, text or None).  Streams
    are ``"{seed}:<name>"`` for ``classify``, each fiber component, ``pfaffians``,
    ``<representative>:on`` and ``:off``, ``nondegenerate`` and ``embedding:<part>``."""
    rng = random.Random(stream)
    for k, failure in enumerate(map(check, repeat(rng), range(count))):
        if failure is not None:
            return k, failure
    return count, None


def _with_residual(data: dict, failure: str | None) -> Report:
    """The report of a sampled claim: ``data``, and the failure text that
    ``sampled`` returned as ``residual`` when there is one."""
    if failure is not None:
        data["residual"] = failure
    return Report(failure is None, data)


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


def _random_invertible(rng: random.Random) -> Point:
    """Random invertible 2x2 factor with small rational entries, drawn in
    row order, as its entries a, b, c, d over their common denominator."""
    while True:
        (a, b, c, d), s = factor = _point([_draw(rng, 5, 3) for _ in range(4)])
        if a * d != b * c:
            return factor


def translate_invariance(seed: int) -> Report:
    """Classify 20 random group translates of each nonzero representative
    (draw k moves representative k // 20); the report holds when each keeps
    its representative's orbit label, and counts the translates that passed."""
    reps = [representative(name).point() for name in ("p1", "p2", "p3", "p4")]
    wants = [_orbit_type(nums, _cayley(nums))[0] for nums, _ in reps]
    def check(rng: random.Random, k: int) -> str | None:
        factors = [(r, _random_invertible(rng)) for r in (1, 2, 3)]
        moved, _ = _move_cube(factors, rng.choice(_PERMUTATIONS), reps[k // 20])
        if _orbit_type(moved, _cayley(moved))[0] != wants[k // 20]:
            return f"translate {k} leaves orbit {wants[k // 20]}"

    translates, failure = sampled(f"{seed}:classify", 80, check)
    return _with_residual({"translates": translates}, failure)


def hyperdet_covariance_exponent(r: int) -> int | None:
    """Exponent e <= 4 with hyperdet(g . P) = (det g)^e hyperdet(P) for a
    symbolic factor in slot r; computed, not assumed."""
    ring, g, det = _symbolic_factor()
    sub = substitution_of(GroupElement(**{f"g{r}": g}), ring)
    base = _cayley(list(symbolic_cube(ring).values()))
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
    """Span equality of the generic fiber with the nine 2x2 minors (adjugate entries)."""
    eqs = fiber_equations(representative("p4"))
    minors = open_fiber_matrix(eqs.ring).adjugate().entries
    result = span_compare(eqs.gens, minors)
    return Report(result.equal, {"relation": result.relation})


def fiber_certificate_p3() -> Report:
    """Span equality of the degenerate fiber with the rank-one-plus-kernel
    system of the symmetric matrix."""
    eqs = fiber_equations(representative("p3"))
    sym, vec = degenerate_fiber_system(eqs.ring)
    system = sym.adjugate().entries + list(sym.apply(vec))
    result = span_compare(eqs.gens, system)
    return Report(result.equal, {"relation": result.relation})


# Component parametrizations of the reducible fibers.  Each component maps
# an RNG to a point over the nine coordinates lying on a dense open part,
# built from pairs (a, b) of a/b, b nonzero, that ``_point`` puts over one
# denominator.  ``_AT`` gives positions in a point over ALL_VARS, which are
# those over COORD_VARS for the coordinates; ``_SLOTS`` those of x1i, x2i, ui.
_AT = {n: k for k, n in enumerate(ALL_VARS)}
_SLOTS = tuple((_AT[x_name(1, i)], _AT[x_name(2, i)], _AT[f"u{i}"]) for i in (1, 2, 3))


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


def fiber_component_sampling(name: str, seed: int, samples: int) -> Report:
    """Every generator of the fiber system vanishes on sampled points of
    each listed component of a reducible fiber."""
    eqs, evaluate = _fiber_system(name)
    failures: list[str] = []
    counts = {}
    for comp in FIBER_COMPONENTS[name]:
        counts[comp], failure = sampled(f"{seed}:{comp}", samples, lambda rng, k: (
            f"component {comp}: generator fails to vanish"
            if any(evaluate(*_component_points(comp, rng))[0]) else None))
        failures += [failure] if failure else []
    # component quadrics occur among the generators where displayed
    v = eqs.ring.var
    displayed = {"p1": [v("u3") * v("x13") - v("x21") * v("x22"),
                        v("u2") * v("x12") - v("x21") * v("x23"),
                        v("u1") * v("x11") - v("x22") * v("x23")],
                 "p2": [v("u3") * v("x13") - v("x11") * v("x12") - v("x21") * v("x22")]}
    if name in displayed and span_compare(eqs.gens, displayed[name]).relation not in (
            EQUAL, A_CONTAINS_B):
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
    p = symbolic_cube(ring)
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
    p = symbolic_cube(ring)
    x = tuple(ring.var(n) for n in X_VARS)
    det = d_matrix(p, (sub["x11"], sub["x21"]) + x[2:], 1).det()
    return Report(det == -(sub["u2"] * sub["u3"]), {})


def skew_chart_matrix(ring: Ring) -> PolyMatrix:
    """5x5 skew matrix whose 4x4 Pfaffians cut out the chart where the
    first pair's leading coordinate is normalized to one."""
    p = symbolic_cube(ring)
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


def pfaffian_vanishing_on_samples(seed: int, samples: int) -> Report:
    """All five signed Pfaffians of the skew chart matrix vanish on sampled
    variety points rescaled so the leading pair coordinate is one."""
    pfaffians = _chart_pfaffians()
    n = len(COORD_VARS)
    def check(rng: random.Random, k: int) -> str | None:
        x11 = 0
        while x11 == 0:
            nums, den = _sample(rng, {})
            x11 = nums[_AT["x11"]]
        # the coordinates over x11 and the cube over den, both over den |x11|
        c, h = (den if x11 > 0 else -den), abs(x11)
        if any(pfaffians([v * c for v in nums[:n]] + [v * h for v in nums[n:]], den * h)[0]):
            return f"a Pfaffian fails to vanish on sample {k}"

    checked, failure = sampled(f"{seed}:pfaffians", samples, check)
    return _with_residual({"checked": checked, "failures": int(failure is not None),
                           "ok": failure is None}, failure)


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


def radical_locus_check(name: str, seed: int, samples: int) -> Report:
    """Sampled membership on the stated radical locus, sampled failure off
    it, agreement of the two nondegeneracy tests, and exact match of the
    specialized cubic form with its stated display."""
    tables = coord8.rational_tables(representative(name).point())
    failures: list[str] = []
    counts: dict[str, int] = {}
    for side, draw, draws, on, wrong, disagree in (
            ("on", radical_point, 0 if name == "p4" else samples, True,
             "locus point rejected", "on a locus point"),
            ("off", off_radical_point, 100 if name == "p4" else samples, False,
             "off-locus point accepted", "off the locus")):
        def check(rng: random.Random, k: int) -> str | None:
            tests = jordan.nondegeneracy_test_equiv(tables, draw(name, rng)[0])
            if tests["viaU"] != on:
                return f"{name}: {wrong} by the U-operator test"
            if tests["viaU"] != tests["viaTN"]:
                return f"{name}: the two membership tests disagree {disagree}"

        counts[side], failure = sampled(f"{seed}:{name}:{side}", draws, check)
        failures += [failure] if failure else []

    display_ok = name not in _NP_DISPLAYS or cubic_display_certificate(name).ok
    if not display_ok:
        failures.append(f"{name}: specialized cubic form differs from its display")

    return Report(not failures, {"on_locus": counts["on"], "off_locus": counts["off"],
                                 "display_ok": display_ok, "failures": failures})


def nondegenerate_sweep(seed: int) -> Report:
    """At 50 random cubes with nonvanishing hyperdeterminant, two random
    nonzero elements each never lie in the radical."""
    def check(rng: random.Random, k: int) -> str | None:
        while True:
            cube = _point([_draw(rng) for _ in INDEX_TRIPLES])
            if _cayley(cube[0]):
                break
        tables = coord8.rational_tables(cube)
        for _ in range(2):
            sigma = [0]
            while not any(sigma):
                sigma = _point([_draw(rng) for _ in COORD_VARS])[0]
            if jordan.radical_membership(tables, sigma):
                return f"cube {k}: a nonzero element lies in the radical"

    cubes, failure = sampled(f"{seed}:nondegenerate", 50, check)
    return _with_residual({"cubes": cubes, "sigmas": 2 * cubes,
                           "failures": int(failure is not None), "ok": failure is None}, failure)
