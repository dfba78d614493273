"""The 9-dimensional algebra coordinatized by a 2x2x2 parameter cube.

Coordinates are registered in the fixed order

    x11, x21, x12, x22, x13, x23, u1, u2, u3

followed, when the parameters are symbolic, by the eight cube entries in
the order p111, p211, p121, p221, p112, p212, p122, p222 (first index
fastest).  The basis vector behind coordinate ``u_i`` is the i-th
idempotent; the pair behind ``x1i, x2i`` spans the off-diagonal Peirce
space complementary to index i.

Two independent routes to the sharp map live here: the explicit closed
form assembled from the 2x2 difference matrices, and the quadratic map
induced by the symmetric Peirce product table.  Their agreement on fully
symbolic input is one of the package's core certificates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from typing import Mapping, Sequence

from . import jordan
from .errors import ContextError, ShapeError
from .exactcore import (Point, Poly, PolyMatrix, Rational, Report, Ring, _frac, add_product,
                        json_rational, over_common_denominator, parse_json, parse_rational,
                        substitute_all)
from .jordan import Element, JordanPresentation

X_VARS = ("x11", "x21", "x12", "x22", "x13", "x23")
U_VARS = ("u1", "u2", "u3")
COORD_VARS = X_VARS + U_VARS
PARAM_VARS = ("p111", "p211", "p121", "p221", "p112", "p212", "p122", "p222")
ALL_VARS = COORD_VARS + PARAM_VARS

INDEX_TRIPLES = tuple((i, j, k) for k in (1, 2) for j in (1, 2) for i in (1, 2))
_UNIT = tuple(Fraction(int(n in U_VARS)) for n in COORD_VARS)  # the sum of the idempotents


def coord_ring(with_params: bool = True, extra: Sequence[str] = ()) -> Ring:
    names = ALL_VARS if with_params else COORD_VARS
    return Ring(names + tuple(extra))


def x_name(a: int, i: int) -> str:
    return f"x{a}{i}"


def p_name(i: int, j: int, k: int) -> str:
    return f"p{i}{j}{k}"


class Hypermatrix:
    """The eight rational cube entries p_ijk; ``symbolic_cube`` gives symbolic ones."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, int, int], Rational]):
        self.entries = {t: _frac(entries.get(t, 0)) for t in INDEX_TRIPLES}

    @classmethod
    def from_named(cls, values: Mapping[str, Rational]) -> Hypermatrix:
        return cls({t: values.get(p_name(*t), 0) for t in INDEX_TRIPLES})

    @classmethod
    def parse(cls, text: str) -> Hypermatrix:
        """Accepts either eight whitespace-separated rationals in the order
        p111 p211 p121 p221 p112 p212 p122 p222, or a JSON object keyed by
        the parameter names with number or "a/b" string values."""
        text = text.strip()
        if text.startswith("{"):
            data = parse_json(text)
            unknown = sorted(set(data) - set(PARAM_VARS))
            if unknown:
                raise ValueError(f"unknown cube entries: {unknown}")
            return cls.from_named({k: json_rational(v) for k, v in data.items()})
        parts = text.split()
        if len(parts) != 8:
            raise ShapeError(f"expected 8 rationals, got {len(parts)}")
        values = dict(zip(PARAM_VARS, (parse_rational(p) for p in parts)))
        return cls.from_named(values)

    def to_text(self) -> str:
        return " ".join(map(str, self.entries.values()))

    def point(self) -> Point:
        """The entries as integer numerators over their lcm, in ``INDEX_TRIPLES`` order."""
        return over_common_denominator(self.entries.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypermatrix) and self.entries == other.entries


def symbolic_cube(ring: Ring) -> dict[tuple[int, int, int], Poly]:
    """The cube entries p_ijk as variables of ``ring``."""
    return {t: ring.var(p_name(*t)) for t in INDEX_TRIPLES}


# ---------------------------------------------------------------------------
# Difference matrices and the closed-form sharp map
# ---------------------------------------------------------------------------


def d_entry(p: Mapping, x: Sequence[Poly], k: int, i: int, j: int) -> Poly:
    """The 2x2 determinant pairing the (i, j) parameter column of factor k
    against the k-th coordinate pair."""
    if k == 1:
        a, b = p[(1, i, j)], p[(2, i, j)]
        v, w = x[0], x[1]          # x11, x21
    elif k == 2:
        a, b = p[(i, 1, j)], p[(i, 2, j)]
        v, w = x[2], x[3]          # x12, x22
    elif k == 3:
        a, b = p[(i, j, 1)], p[(i, j, 2)]
        v, w = x[4], x[5]          # x13, x23
    return a * w - b * v


def d_matrix(p: Mapping, x: Sequence[Poly], k: int) -> PolyMatrix:
    """D^(k) built from the difference determinants."""
    d11, d21, d12, d22 = (d_entry(p, x, k, i, j)
                          for i, j in ((1, 1), (2, 1), (1, 2), (2, 2)))
    return PolyMatrix.from_rows(x[0].ring, [[-d12, d11], [-d22, d21]])


def sharp_map(p: Mapping, sigma: Element) -> Element:
    """Closed-form sharp image of a 9-coordinate element, with the cube
    entries ``p`` given in the ring of ``sigma``."""
    x = sigma[:6]
    u1, u2, u3 = sigma[6], sigma[7], sigma[8]
    d1 = d_matrix(p, x, 1)
    d2 = d_matrix(p, x, 2)
    d3 = d_matrix(p, x, 3)
    x1 = (x[0], x[1])
    x2 = (x[2], x[3])
    x3 = (x[4], x[5])
    s1 = d3.apply(x2)
    s2 = d1.apply(x3)
    s3 = d2.adjugate().apply(x1)
    return (
        -u1 * x1[0] + s1[0], -u1 * x1[1] + s1[1],
        -u2 * x2[0] + s2[0], -u2 * x2[1] + s2[1],
        -u3 * x3[0] - s3[0], -u3 * x3[1] - s3[1],
        u2 * u3 + d1.det(),
        u3 * u1 + d2.det(),
        u1 * u2 + d3.det(),
    )


@cache
def _symbolic_presentation() -> JordanPresentation:
    """The presentation with symbolic cube entries, its cubic form and nine
    sharp components expanded once: one shared instance, read only.

    For each factor k the cubic subtracts from u_k u_k# the two mixed
    determinants of D^(k): its right resp. left column taken at the sharp
    coordinates.  The assembled combination has a global factor of three
    which cancels exactly, so the expansion has integer coefficients.
    """
    ring = coord_ring(True)
    p = symbolic_cube(ring)
    sigma = tuple(ring.var(n) for n in COORD_VARS)
    sharp = sharp_map(p, sigma)
    total = ring.zero()
    for k in (1, 2, 3):
        a, b, c, d = d_matrix(p, sigma[:6], k).entries
        sa, sb, sc, sd = d_matrix(p, sharp[:6], k).entries
        mixed = (a * sd - sb * c) + (sa * d - b * sc)
        total = total + sigma[5 + k] * sharp[5 + k] - mixed
    return JordanPresentation(ring, COORD_VARS, _UNIT, Fraction(1, 3) * total, sharp)


def rational_tables(point: Point) -> jordan._Tables:
    """The tables of ``presentation(P)`` at the cube ``point = P.point()``,
    read off the symbolic presentation's compiled batch, with no
    presentation built: the checks of ``presentation(None)`` (homogeneous
    forms, cubic 1 at the unit, identically in the parameters) hold at
    every cube."""
    return jordan.rational_tables(_symbolic_presentation(), point)


def _specialize(P: Hypermatrix, forms: Sequence[Poly]) -> list[Poly]:
    """``forms`` with the cube entries set to those of P, over the nine coordinates."""
    return substitute_all(forms, dict(zip(PARAM_VARS, P.entries.values())),
                          coord_ring(False))


def cubic_form(P: Hypermatrix) -> Poly:
    """The cubic form of a rational cube, its entries substituted into the
    cubic of ``_symbolic_presentation()`` alone, over the nine coordinates."""
    return _specialize(P, [_symbolic_presentation().cubic])[0]


def presentation(P: Hypermatrix | None = None) -> JordanPresentation:
    """Jordan presentation of the coordinatized algebra.

    ``P=None`` keeps the eight parameters symbolic (one shared presentation,
    read only); a rational cube substitutes its entries into the symbolic
    cubic and the nine sharps, over the nine coordinates alone.
    """
    symbolic = _symbolic_presentation()
    if P is None:
        return symbolic
    cubic, *sharp = _specialize(P, (symbolic.cubic, *symbolic.sharp))
    return JordanPresentation(cubic.ring, COORD_VARS, _UNIT, cubic, tuple(sharp))


# ---------------------------------------------------------------------------
# Peirce product table
# ---------------------------------------------------------------------------

# Basis labels are the coordinate names themselves: coordinate x_{a,i}
# corresponds to the a-th basis vector of the off-diagonal space
# complementary to index i, and u_i to the i-th idempotent.


def _pair_index(i: int, j: int) -> int:
    """Complementary index of an unordered distinct pair."""
    return ({1, 2, 3} - {i, j}).pop()


def build_peirce_table() -> dict[tuple[str, str], dict[str, Poly]]:
    """Symmetric table of the nonzero pairwise sharp products of the nine
    basis vectors.

    Keys are ordered pairs of coordinate names, each product stored under
    both orders of its pair; a value maps the name of each nonzero
    coordinate of the product to its entry, a polynomial in the symbolic
    cube parameters.  A pair that is not a key multiplies to zero.
    """
    ring = coord_ring(True)
    p = symbolic_cube(ring)
    table: dict[tuple[str, str], dict[str, Poly]] = {}

    def put(a: str, b: str, cell: dict[str, Poly]) -> None:
        table[(a, b)] = table[(b, a)] = cell

    def entry(slots: Mapping[int, int]) -> Poly:
        """The cube entry with slot n at ``slots[n]``."""
        return p[(slots[1], slots[2], slots[3])]

    def slab(i: int, m: int) -> list[list[Poly]]:
        """2x2 slab of the cube with slot i frozen at m."""
        j, k = (n for n in (1, 2, 3) if n != i)
        return [[entry({i: m, j: r, k: s}) for s in (1, 2)] for r in (1, 2)]

    # idempotent against idempotent
    for i, j in combinations((1, 2, 3), 2):
        put(f"u{i}", f"u{j}", {f"u{_pair_index(i, j)}": ring.one()})

    # u_i against the off-diagonal space complementary to i
    for i, a in product((1, 2, 3), (1, 2)):
        put(f"u{i}", x_name(a, i), {x_name(a, i): ring.const(-1)})

    # off-diagonal pairs from distinct spaces
    for (i, j), a, b in product(permutations((1, 2, 3), 2), (1, 2), (1, 2)):
        k = _pair_index(i, j)
        put(x_name(a, i), x_name(b, j),
            {x_name(c, k): (-1) ** (a + b) * entry({i: 3 - a, j: 3 - b, k: c}) for c in (1, 2)})

    # off-diagonal pairs within one space: the polarized determinant of two slabs
    for i, a, b in product((1, 2, 3), (1, 2), (1, 2)):
        (m11, m12), (m21, m22) = slab(i, 3 - a)
        (n11, n12), (n21, n22) = slab(i, 3 - b)
        put(x_name(a, i), x_name(b, i),
            {f"u{i}": (-1) ** (a + b) * (m11 * n22 + n11 * m22 - m12 * n21 - n12 * m21)})

    return table


def sharp_from_table(table: Mapping[tuple[str, str], Mapping[str, Poly]],
                     sigma: Element) -> Element:
    """Quadratic map induced by the symmetric table: half of sigma # sigma,
    the sum over the table's pairs (a, b) of sigma_a sigma_b times the cell
    (a, b), accumulated into one term dict per component."""
    ring = sigma[0].ring
    values = dict(zip(COORD_VARS, sigma))
    acc: dict[str, dict] = {n: {} for n in COORD_VARS}
    for (a, b), cell in table.items():
        if values[a].terms and values[b].terms:
            for name, comp in cell.items():
                if comp.ring != ring:
                    raise ContextError("table cell outside the ring of sigma")
                add_product(acc[name], comp, values[a], values[b])
    return tuple(Poly.collect(ring, {m: Fraction(c, 2) for m, c in terms.items()})
                 for terms in acc.values())


def representation_matrix(table: Mapping[tuple[str, str], Mapping[str, Poly]],
                          i: int, j: int, sigma_pair: tuple[Poly, Poly]) -> PolyMatrix:
    """Matrix of multiplication by an element of the (i, j) off-diagonal
    space, as a map from the (i, k) space to the (j, k) space; the table's
    cells are read in place and must be over the ring of ``sigma_pair``."""
    ring = sigma_pair[0].ring
    k = _pair_index(i, j)
    src = _pair_index(i, k)   # basis pair spanning the (i, k) space
    dst = _pair_index(j, k)
    acc: list[dict] = [{} for _ in range(4)]  # row c, column b
    for (a, coeff), b, c in product(zip((1, 2), sigma_pair), (1, 2), (1, 2)):
        comp = table.get((x_name(a, k), x_name(b, src)), {}).get(x_name(c, dst), ring.zero())
        if comp.ring != ring:
            raise ContextError("table cell outside the ring of the coefficients")
        add_product(acc[2 * c + b - 3], ring.one(), coeff, comp)
    return PolyMatrix(ring, 2, 2, [Poly.collect(ring, t) for t in acc])


def verify_peirce_identities(pres: JordanPresentation) -> dict[str, Report]:
    """Certify, with symbolic cube entries, the identity suite linking the
    product table, the closed-form sharp map of ``pres`` (normally
    ``presentation(None)``), and the 2x2 representation matrices of
    off-diagonal multiplication: one report, with no data, per identity
    (``table-vs-map``, ``idempotent-traces``, ``triple-product``,
    ``rep-matrices``, ``rep-product``, ``rep-det``)."""
    ring = pres.ring
    table = build_peirce_table()

    sigma = pres.generic_element()
    via_table = sharp_from_table(table, sigma)
    table_ok = all((a - b).is_zero() for a, b in zip(via_table, pres.sharp))

    traces_ok = all(jordan.trace_linear(pres, pres.basis_element(6 + i)) == ring.one()
                    for i in range(3))

    # x # (x # y) = -S(x) y for x, y in adjacent off-diagonal spaces
    ext = ring.extend(("sa1", "sa2", "sb1", "sb2"))
    triple_ok = True
    for m, n in permutations((1, 2, 3), 2):
        sa = _basis_combination(ext, m, ("sa1", "sa2"))
        sb = _basis_combination(ext, n, ("sb1", "sb2"))
        inner = jordan.sharp_product(pres, sa, sb)
        lhs = jordan.sharp_product(pres, sa, inner)
        s = jordan.spur_quadratic(pres, sa)
        triple_ok &= all((l + s * c).is_zero() for l, c in zip(lhs, sb))

    # displayed representation matrices of the two basis vectors of the
    # (2, 3) space, as maps from the (3, 1) to the (2, 1) space
    p = symbolic_cube(ring)
    m1 = representation_matrix(table, 3, 2, (ring.one(), ring.zero()))
    expect1 = PolyMatrix.from_rows(ring, [[p[(2, 2, 1)], -p[(2, 1, 1)]],
                                          [p[(2, 2, 2)], -p[(2, 1, 2)]]])
    m2 = representation_matrix(table, 3, 2, (ring.zero(), ring.one()))
    expect2 = PolyMatrix.from_rows(ring, [[-p[(1, 2, 1)], p[(1, 1, 1)]],
                                          [-p[(1, 2, 2)], p[(1, 1, 2)]]])
    disp_ok = m1.entries == expect1.entries and m2.entries == expect2.entries

    # P_ij P_ji = -S E and det normalizations, symbolically in each space
    # each matrix once, read off the table moved into ext in one batch
    prod_ok = det_ok = True
    # each product once, stored under both orders of its pair as in the table
    cells = [(pair, name, comp) for pair, cell in table.items() if pair <= pair[::-1]
             for name, comp in cell.items()]
    ext_table: dict[tuple[str, str], dict[str, Poly]] = {}
    for (pair, name, _), comp in zip(cells, substitute_all([c for *_, c in cells], {}, ext)):
        ext_table[pair[::-1]] = cell = ext_table.setdefault(pair, {})
        cell[name] = comp
    coeffs = (ext.var("sa1"), ext.var("sa2"))
    reps = {(i, j): representation_matrix(ext_table, i, j, coeffs)
            for i, j in permutations((1, 2, 3), 2)}
    for i, j in reps:
        sigma_el = _basis_combination(ext, _pair_index(i, j), ("sa1", "sa2"))
        s = jordan.spur_quadratic(pres, sigma_el)
        prod = reps[(i, j)] * reps[(j, i)]
        expected = PolyMatrix.identity(ext, 2).scale(-s)
        prod_ok &= prod.entries == expected.entries
        if (i, j) in ((1, 3), (2, 3)):
            det_ok &= reps[(i, j)].det() == s

    return {key: Report(ok, {}) for key, ok in (
        ("table-vs-map", table_ok), ("idempotent-traces", traces_ok),
        ("triple-product", triple_ok), ("rep-matrices", disp_ok),
        ("rep-product", prod_ok), ("rep-det", det_ok))}


def verify_unit_identities(pres: JordanPresentation) -> Report:
    """Certify symbolically the facts around the unit; the report counts
    the checks.

    The unit is the sum of the three idempotents and has cubic value one;
    its U-operator is the identity; each idempotent is bullet-idempotent
    with vanishing sharp; the bullet square of the generic element equals
    x# + T(x) x - S(x) unit; and S(x, y) = T(x) T(y) - T(x, y) with fresh y.
    """
    idempotents = [pres.basis_element(COORD_VARS.index(n)) for n in U_VARS]
    unit = pres.unit_element()
    gen = pres.generic_element()
    idem_sum = tuple(sum((e[k] for e in idempotents), pres.ring.zero())
                     for k in range(pres.dim()))
    checks = [unit == idem_sum,
              jordan.cubic_of(pres, unit) == 1,
              jordan.u_operator(pres, unit, gen) == gen]
    for e in idempotents:
        checks.append(jordan.bullet_product(pres, e, e) == e)
        checks.append(all(c.is_zero() for c in jordan.sharp_of(pres, e)))
    checks.append(jordan.bullet_product(pres, gen, gen)
                  == jordan.square_via_sharp(pres, gen))
    ext, y = pres.fresh_symbols()
    x = pres.generic_element(ext)
    checks.append(jordan.spur_bilinear(pres, x, y)
                  == jordan.trace_linear(pres, x) * jordan.trace_linear(pres, y)
                  - jordan.trace_bilinear(pres, x, y))
    return Report(all(checks), {"checks": len(checks)})


def integer_cubic_certificate(pres: JordanPresentation) -> Report:
    """The cubic form of ``pres`` has integer coefficients; the report
    counts its terms."""
    cubic = pres.cubic
    return Report(all(c.denominator == 1 for c in cubic.coefficients()),
                  {"terms": len(cubic.terms)})


def _basis_combination(ring: Ring, pair_complement: int,
                       coeff_names: tuple[str, str]) -> Element:
    """c1 * x_{1,m} + c2 * x_{2,m} as an element over ``ring``."""
    coeffs = {x_name(a, pair_complement): c for a, c in zip((1, 2), coeff_names)}
    return tuple(ring.var(coeffs[n]) if n in coeffs else ring.zero() for n in COORD_VARS)
