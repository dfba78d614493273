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
from typing import Mapping, Sequence

from . import jordan
from .errors import ShapeError
from .exactcore import (Batch, Poly, PolyMatrix, Rational, Report, Ring, _frac,
                        compile_batch, json_rational, over_common_denominator, parse_json,
                        parse_rational, substitute_all)
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
    """The eight cube entries p_ijk, rational or symbolic."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, int, int], "Poly | Rational"]):
        self.entries = {}
        for (i, j, k) in INDEX_TRIPLES:
            v = entries.get((i, j, k), 0)
            self.entries[(i, j, k)] = v if isinstance(v, Poly) else _frac(v)

    @classmethod
    def symbolic(cls, ring: Ring) -> Hypermatrix:
        return cls({t: ring.var(p_name(*t)) for t in INDEX_TRIPLES})

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

    def get(self, i: int, j: int, k: int) -> "Poly | Fraction":
        return self.entries[(i, j, k)]

    def is_rational(self) -> bool:
        return all(not isinstance(v, Poly) for v in self.entries.values())

    def as_fractions(self) -> dict[tuple[int, int, int], Fraction]:
        if not self.is_rational():
            raise ValueError("hypermatrix carries symbolic entries")
        return dict(self.entries)

    def in_ring(self, ring: Ring) -> dict[tuple[int, int, int], Poly]:
        out = {}
        for t, v in self.entries.items():
            out[t] = v.convert(ring) if isinstance(v, Poly) else ring.const(v)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Hypermatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"Hypermatrix({self.to_text()})"


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
    else:
        raise ValueError("factor index must be 1, 2 or 3")
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
def _symbolic_forms() -> tuple[Poly, tuple[Poly, ...]]:
    """The cubic form and the nine sharp components with symbolic cube
    entries, expanded once; callers only read them.

    For each factor k the cubic subtracts from u_k u_k# the two mixed
    determinants of D^(k): its right resp. left column taken at the sharp
    coordinates.  The assembled combination has a global factor of three
    which cancels exactly, so the expansion has integer coefficients.
    """
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    sigma = tuple(ring.var(n) for n in COORD_VARS)
    sharp = sharp_map(p, sigma)
    total = ring.zero()
    for k in (1, 2, 3):
        a, b, c, d = d_matrix(p, sigma[:6], k).entries
        sa, sb, sc, sd = d_matrix(p, sharp[:6], k).entries
        mixed = (a * sd - sb * c) + (sa * d - b * sc)
        total = total + sigma[5 + k] * sharp[5 + k] - mixed
    return Fraction(1, 3) * total, sharp


@cache
def _cube_batch() -> tuple[tuple[tuple[int, tuple], ...], tuple[tuple[int, int], ...], Batch]:
    """The coefficients of the nine symbolic sharps, and the trace table,
    compiled once for ``rational_tables``.

    Each term of the k-th sharp splits as (polynomial in the eight
    parameters) x (coordinate monomial).  The keys list (k, coordinate
    monomial) in the order the terms first meet them, the trace keys the
    (i, j) of the nonzero T(e_i, e_j) of ``presentation(None)``; the batch
    returns, over the ring of the eight parameters, each key's coefficient,
    then each trace entry.
    """
    _, sharp = _symbolic_forms()
    n = len(COORD_VARS)
    coeffs: dict[tuple[int, tuple], dict] = {}
    for k, form in enumerate(sharp):
        for m, c in form.terms.items():
            coeffs.setdefault((k, m[:n]), {})[m[n:]] = c
    trace = presentation(None)._trace_form[1]
    params = Ring(PARAM_VARS)
    batch = compile_batch([Poly(params, t) for t in coeffs.values()]
                          + [Poly(params, {m[n:]: c for m, c in t.terms.items()})
                             for t in trace.values()])
    return tuple(coeffs), tuple(trace), batch


def rational_tables(P: Hypermatrix) -> jordan._Tables:
    """The tables of ``presentation(P)._rational_tables`` from one call of
    ``_cube_batch``, with no presentation built: the checks of
    ``presentation(None)`` (homogeneous forms, cubic 1 at the unit,
    identically in the parameters) hold at every cube."""
    keys, trace, batch = _cube_batch()
    values, den = batch(*over_common_denominator(P.as_fractions().values()))
    gram = [(key, v) for key, v in zip(trace, values[len(keys):]) if v]
    sharp = [(key, v) for key, v in zip(keys, values) if v]
    return jordan._Tables.assemble(len(COORD_VARS), gram, den, sharp, den)


def _specialize(P: Hypermatrix, forms: Sequence[Poly]) -> list[Poly]:
    """``forms`` with the cube entries set to those of P, over the nine coordinates."""
    return substitute_all(forms, dict(zip(PARAM_VARS, P.as_fractions().values())),
                          coord_ring(False))


def cubic_form(P: Hypermatrix | None = None) -> Poly:
    """The cubic form attached to the cube, fully expanded.

    ``P=None`` keeps the eight parameters symbolic; a rational cube
    substitutes its entries into the symbolic cubic alone, over the nine
    coordinates.
    """
    cubic = _symbolic_forms()[0]
    return cubic if P is None else _specialize(P, [cubic])[0]


def presentation(P: Hypermatrix | None = None) -> JordanPresentation:
    """Jordan presentation of the coordinatized algebra.

    ``P=None`` keeps the eight parameters symbolic (one shared presentation,
    read only); a rational cube substitutes its entries into the symbolic
    cubic and the nine sharps, over the nine coordinates alone.
    """
    if P is None:
        return _symbolic_presentation()
    cubic, sharp = _symbolic_forms()
    cubic, *sharp = _specialize(P, (cubic, *sharp))
    return JordanPresentation(cubic.ring, COORD_VARS, _UNIT, cubic, tuple(sharp))


@cache
def _symbolic_presentation() -> JordanPresentation:
    cubic, sharp = _symbolic_forms()
    return JordanPresentation(cubic.ring, COORD_VARS, _UNIT, cubic, sharp)


# ---------------------------------------------------------------------------
# Peirce product table
# ---------------------------------------------------------------------------

# Basis labels are the coordinate names themselves: coordinate x_{a,i}
# corresponds to the a-th basis vector of the off-diagonal space
# complementary to index i, and u_i to the i-th idempotent.

_COMPLEMENT = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def _pair_index(i: int, j: int) -> int:
    """Complementary index of an unordered distinct pair."""
    return ({1, 2, 3} - {i, j}).pop()


def _slot_fill(positions: dict[int, int]) -> tuple[int, int, int]:
    return (positions[1], positions[2], positions[3])


def build_peirce_table() -> dict[tuple[str, str], Element]:
    """Symmetric table of pairwise sharp products of the nine basis vectors.

    Keys are ordered pairs of coordinate names; values are coordinate
    vectors with entries polynomial in the symbolic cube parameters.
    """
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)

    zero = tuple(ring.zero() for _ in COORD_VARS)
    pos = {n: i for i, n in enumerate(COORD_VARS)}

    def vec(**coeffs) -> Element:
        out = list(zero)
        for name, c in coeffs.items():
            out[pos[name]] = c if isinstance(c, Poly) else ring.const(c)
        return tuple(out)

    def m_slab(i: int, m: int) -> PolyMatrix:
        """2x2 slab of the cube with slot i frozen at m."""
        def entry(a: int, b: int) -> Poly:
            positions = {i: m}
            j, k = _COMPLEMENT[i]
            positions[j], positions[k] = a, b
            return p[_slot_fill(positions)]
        return PolyMatrix.from_rows(ring, [[entry(1, 1), entry(1, 2)],
                                           [entry(2, 1), entry(2, 2)]])

    def mixed_det(m: PolyMatrix, n: PolyMatrix) -> Poly:
        """Bilinear polarization of det on 2x2 matrices."""
        return (m.get(0, 0) * n.get(1, 1) + n.get(0, 0) * m.get(1, 1)
                - m.get(0, 1) * n.get(1, 0) - n.get(0, 1) * m.get(1, 0))

    table: dict[tuple[str, str], Element] = {}

    def put(a: str, b: str, value: Element) -> None:
        table[(a, b)] = value
        table[(b, a)] = value

    # idempotent against idempotent
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                put(f"u{i}", f"u{j}", zero)
            else:
                put(f"u{i}", f"u{j}", vec(**{f"u{_pair_index(i, j)}": 1}))

    # idempotent against off-diagonal basis vector
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for a in (1, 2):
                if n == m:
                    put(f"u{n}", x_name(a, m), vec(**{x_name(a, m): -1}))
                else:
                    put(f"u{n}", x_name(a, m), zero)

    # off-diagonal pairs from distinct spaces
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            k = _pair_index(i, j)
            for a in (1, 2):
                for b in (1, 2):
                    sign = 1 if (a + b) % 2 == 0 else -1
                    comps = {}
                    for c in (1, 2):
                        positions = {i: 3 - a, j: 3 - b, k: c}
                        comps[x_name(c, k)] = sign * p[_slot_fill(positions)]
                    put(x_name(a, i), x_name(b, j), vec(**comps))

    # off-diagonal pairs within one space
    for i in (1, 2, 3):
        slabs = {m: m_slab(i, m) for m in (1, 2)}
        for a in (1, 2):
            for b in (1, 2):
                sign = 1 if (a + b) % 2 == 0 else -1
                coeff = sign * mixed_det(slabs[3 - a], slabs[3 - b])
                put(x_name(a, i), x_name(b, i), vec(**{f"u{i}": coeff}))

    return table


def sharp_from_table(table: Mapping[tuple[str, str], Element],
                     sigma: Element) -> Element:
    """Quadratic map induced by the symmetric table: half of sigma # sigma."""
    ring = sigma[0].ring
    coords = dict(zip(COORD_VARS, sigma))
    out = [ring.zero() for _ in COORD_VARS]
    half = Fraction(1, 2)
    names = list(COORD_VARS)
    for ia, a in enumerate(names):
        for b in names[ia:]:
            weight = 1 if a == b else 2
            prod = coords[a] * coords[b]
            if prod.is_zero():
                continue
            cell = table[(a, b)]
            for t in range(9):
                comp = cell[t]
                if isinstance(comp, Poly) and comp.is_zero():
                    continue
                conv = comp.convert(ring) if isinstance(comp, Poly) else ring.const(comp)
                out[t] = out[t] + half * weight * prod * conv
    return tuple(out)


def representation_matrix(table: Mapping[tuple[str, str], Element],
                          i: int, j: int, sigma_pair: tuple[Poly, Poly],
                          ring: Ring) -> PolyMatrix:
    """Matrix of multiplication by an element of the (i, j) off-diagonal
    space, as a map from the (i, k) space to the (j, k) space."""
    k = _pair_index(i, j)
    src = _pair_index(i, k)   # basis pair spanning the (i, k) space
    dst = _pair_index(j, k)
    pos = {n: t for t, n in enumerate(COORD_VARS)}
    span = _pair_index(i, j)
    cols = []
    for b in (1, 2):
        acc = [ring.zero(), ring.zero()]
        for a, coeff in zip((1, 2), sigma_pair):
            cell = table[(x_name(a, span), x_name(b, src))]
            for c in (1, 2):
                comp = cell[pos[x_name(c, dst)]]
                conv = comp.convert(ring) if isinstance(comp, Poly) else ring.const(comp)
                acc[c - 1] = acc[c - 1] + coeff * conv
        cols.append(acc)
    return PolyMatrix.from_rows(ring, [[cols[0][0], cols[1][0]],
                                       [cols[0][1], cols[1][1]]])


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
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)):
        a_pair = _pair_index(i, j)
        b_pair = _pair_index(j, k)
        sa = _basis_combination(pres, ext, a_pair, ("sa1", "sa2"))
        sb = _basis_combination(pres, ext, b_pair, ("sb1", "sb2"))
        inner = jordan.sharp_product(pres, sa, sb)
        lhs = jordan.sharp_product(pres, sa, inner)
        s = jordan.spur_quadratic(pres, sa)
        triple_ok &= all((l + s * c).is_zero() for l, c in zip(lhs, sb))

    # displayed representation matrices of the two basis vectors of the
    # (2, 3) space, as maps from the (3, 1) to the (2, 1) space
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    m1 = representation_matrix(table, 3, 2, (ring.one(), ring.zero()), ring)
    expect1 = PolyMatrix.from_rows(ring, [[p[(2, 2, 1)], -p[(2, 1, 1)]],
                                          [p[(2, 2, 2)], -p[(2, 1, 2)]]])
    m2 = representation_matrix(table, 3, 2, (ring.zero(), ring.one()), ring)
    expect2 = PolyMatrix.from_rows(ring, [[-p[(1, 2, 1)], p[(1, 1, 1)]],
                                          [-p[(1, 2, 2)], p[(1, 1, 2)]]])
    disp_ok = m1.entries == expect1.entries and m2.entries == expect2.entries

    # P_ij P_ji = -S E and det normalizations, symbolically in each space
    prod_ok = det_ok = True
    for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        pair = _pair_index(i, j)
        coeffs = (ext.var("sa1"), ext.var("sa2"))
        sigma_el = _basis_combination(pres, ext, pair, ("sa1", "sa2"))
        pij = representation_matrix(table, i, j, coeffs, ext)
        pji = representation_matrix(table, j, i, coeffs, ext)
        s = jordan.spur_quadratic(pres, sigma_el)
        prod = pij * pji
        expected = PolyMatrix.identity(ext, 2).scale(-s)
        prod_ok &= prod.entries == expected.entries
        if (i, j) in ((1, 3), (2, 3)):
            det_ok &= pij.det() == s

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


def _basis_combination(pres: JordanPresentation, ring: Ring, pair_complement: int,
                       coeff_names: tuple[str, str]) -> Element:
    """c1 * x_{1,m} + c2 * x_{2,m} as an element over ``ring``."""
    out = [ring.zero() for _ in COORD_VARS]
    pos = {n: i for i, n in enumerate(COORD_VARS)}
    out[pos[x_name(1, pair_complement)]] = ring.var(coeff_names[0])
    out[pos[x_name(2, pair_complement)]] = ring.var(coeff_names[1])
    return tuple(out)
