"""Quadratic Jordan algebras attached to a cubic form.

A presentation consists of coordinates on a finite-dimensional space, a
distinguished unit vector, a cubic form N, and a quadratic sharp map given
componentwise.  All derived structure (trace and spur forms, the sharp
product, the U-operator, the usual bilinear product) is computed from
these data, and the defining sharp conditions

    (1)  T(x#, y) = directional derivative of N at x in direction y,
    (2)  x## = N(x) x,
    (3)  unit # y = T(y) unit - y,

are certified as exact polynomial identities with fully symbolic
arguments.  Universal statements are always checked by expansion with one
fresh symbol per coordinate, never by sampling; a statement linear in an
argument, such as U_x y = 0 for all y, is checked exactly on the basis
vectors.

The sharp product x # y = (x+y)# - x# - y# (McCrimmon, A Taste of Jordan
Algebras, 2004) is read off the polar table of the sharp's quadrics in one
pass, and the trace forms off the trace table, each into one term dict
per result; the identities themselves are still expanded on every call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from .exactcore import (Batch, Point, Poly, Rational, Report, Ring, add_product, compile_batch,
                        directional_derivative, substitute_all)

Element = tuple[Poly, ...]


class _Tables(NamedTuple):
    """Integer tables of ``rational_tables``."""

    gram: list[list[tuple[int, int]]]
    sharp: list[list[tuple[int, int, int]]]
    polar: list[list[list[tuple[int, int]]]]
    den: int


class JordanPresentation:
    """Coordinates, unit, cubic form and sharp map of one algebra.

    ``ring`` may carry extra parameter variables beyond ``coords``; the
    cubic and the sharp components are then polynomial families in those
    parameters.  The constructor checks the shapes, the degrees and the
    unit; the cached properties below need the instance ``__dict__``.
    """

    def __init__(self, ring: Ring, coords: tuple[str, ...], unit: tuple[Fraction, ...],
                 cubic: Poly, sharp: tuple[Poly, ...]):
        self.ring, self.coords, self.unit, self.cubic, self.sharp = ring, coords, unit, cubic, sharp
        n = len(coords)
        if len(unit) != n or len(sharp) != n:
            raise ValueError("unit and sharp must have one entry per coordinate")
        if not cubic.is_homogeneous_in(coords, 3):
            raise ValueError("cubic form must be homogeneous of degree 3")
        for s in sharp:
            if not s.is_homogeneous_in(coords, 2):
                raise ValueError("sharp components must be homogeneous of degree 2")
        if cubic.substitute(self.unit_values()) != 1:
            raise ValueError("cubic form must take value 1 at the unit")

    def unit_values(self) -> dict[str, Fraction]:
        return dict(zip(self.coords, self.unit))

    def dim(self) -> int:
        return len(self.coords)

    # -- elements ---------------------------------------------------------

    def generic_element(self, ring: Ring | None = None) -> Element:
        """The element whose coordinates are the coordinate variables."""
        r = ring if ring is not None else self.ring
        return tuple(r.var(n) for n in self.coords)

    def element(self, values: Sequence[Rational], ring: Ring | None = None) -> Element:
        r = ring if ring is not None else self.ring
        if len(values) != self.dim():
            raise ValueError("wrong number of coordinates")
        return tuple(r.const(v) for v in values)

    def unit_element(self, ring: Ring | None = None) -> Element:
        return self.element(self.unit, ring)

    def basis_element(self, i: int) -> Element:
        vals = [0] * self.dim()
        vals[i] = 1
        return self.element(vals)

    def fresh_symbols(self) -> tuple[Ring, Element]:
        """Extension ring with one fresh symbol ``y1, y2, ...`` per coordinate."""
        names = self.ring.fresh_names("y", self.dim())
        ext = self.ring.extend(names)
        return ext, tuple(ext.var(n) for n in names)

    # -- derived data, computed once per presentation ---------------------

    @cached_property
    def _trace_form(self) -> tuple[list[Poly], dict[tuple[int, int], Poly]]:
        """The trace T(e_i) of each basis vector, and the nonzero T(e_i, e_j)
        keyed by (i, j) in row-major order, by their definition at the unit
        u: T(x) = dN(u)[x] and T(x, y) = T(x) T(y) - d2N(u)[x, y] (McCrimmon,
        A Taste of Jordan Algebras, 2004), polynomials in the parameters.
        ``trace_bilinear``, ``trace_linear`` and ``_table_batch`` read it.
        """
        n = self.dim()
        unit = self.unit_values()
        firsts = [self.cubic.derivative(name) for name in self.coords]
        trace = substitute_all(firsts, unit)
        hess = substitute_all([d.derivative(name) for d in firsts for name in self.coords], unit)
        table = {(i, j): t for i in range(n) for j in range(n)
                 if (t := trace[i] * trace[j] - hess[n * i + j]).terms}
        return trace, table

    @cached_property
    def _polar(self) -> dict[Ring, dict[tuple[int, int, int], Poly]]:
        """The polar table of the sharp: the coefficient c of x_i x_j in x#_k,
        i <= j, keyed (k, i, j), a polynomial in the parameters (a constant
        when there are none).  Keyed by the ring of the c, as
        ``sharp_product`` moves them into each ring it meets in one batch."""
        pos = [self.ring.index(name) for name in self.coords]
        keep = self.ring.mask(set(self.ring.names) - set(self.coords))
        table: dict[tuple[int, int, int], dict] = {}
        for k, q in enumerate(self.sharp):
            for m, c in q.terms.items():
                e = [*map(self.ring.unpack(m).__getitem__, pos)]
                i = e.index(2) if 2 in e else e.index(1)
                j = i if e[i] == 2 else e.index(1, i + 1)
                table.setdefault((k, i, j), {})[m & keep] = c
        return {self.ring: {key: Poly(self.ring, t) for key, t in table.items()}}

    @cached_property
    def _table_batch(self) -> tuple[tuple, tuple, Batch]:
        """The keys (k, i, j) of ``_polar``, the keys (i, j) of the trace
        table, and one batch of the polar coefficients, then the trace
        entries, compiled over the parameter ring: the ring's names that
        are not coordinates, none for a plain algebra."""
        params = Ring(n for n in self.ring.names if n not in self.coords)
        sharp, trace = self._polar[self.ring], self._trace_form[1]
        batch = compile_batch(substitute_all([*sharp.values(), *trace.values()], {}, params))
        return tuple(sharp), tuple(trace), batch


def rational_tables(p: JordanPresentation, point: Point) -> _Tables:
    """The trace form and the sharp map of ``p`` at a point of its
    parameters, as integer tables over one denominator ``den``, read off
    one call of ``p._table_batch``; ``point`` holds the parameters as numerators
    in ring order over one positive integer, ``((), 1)`` when there are none.

    ``gram[j]`` lists ``(i, c)`` with T(x, e_j) = sum of c x_i / den;
    ``sharp[k]`` lists ``(i, j, c)`` with x#_k = sum of c x_i x_j / den;
    and ``polar[m][k]`` lists ``(i, c)`` with (a # e_m)_k = sum of
    c a_i / den, the k-th sharp quadric polarized against the basis
    vector e_m, which has the coefficients of ``sharp``.
    """
    n = p.dim()
    if len(point[0]) != len(p.ring.names) - n:
        raise ValueError("rational tables need a point of the parameters "
                         "or a presentation without parameters")
    keys, trace, batch = p._table_batch
    values, den = batch(*point)
    gram, quads = [[] for _ in range(n)], [[] for _ in range(n)]
    polar = [[[] for _ in range(n)] for _ in range(n)]
    for (i, j), c in zip(trace, values[len(keys):]):
        if c:
            gram[j].append((i, c))
    for (k, i, j), c in zip(keys, values):
        if c:
            quads[k].append((i, j, c))
            polar[i][k].append((j, c))
            polar[j][k].append((i, c))
    return _Tables(gram, quads, polar, den)


def sharp_of(p: JordanPresentation, x: Element) -> Element:
    """The sharp image of x, by substitution into the sharp components."""
    ring = x[0].ring
    mapping = dict(zip(p.coords, x))
    return tuple(substitute_all(p.sharp, mapping, ring))


def sharp_product(p: JordanPresentation, x: Element, y: Element) -> Element:
    """Symmetric bilinearization (x+y)# - x# - y#, read off the polar table
    in one pass: each term c x_i x_j of x#_k adds c (x_i y_j + x_j y_i),
    which is 2c x_i y_i for a square."""
    ring = x[0].ring
    tables = p._polar
    if ring not in tables:
        base = tables[p.ring]
        tables[ring] = dict(zip(base, substitute_all([*base.values()], {}, ring)))
    acc: list[dict] = [{} for _ in x]
    for (k, i, j), c in tables[ring].items():
        add_product(acc[k], c, x[i], y[j])
        add_product(acc[k], c, x[j], y[i])
    return tuple(Poly.collect(ring, terms) for terms in acc)


def cubic_of(p: JordanPresentation, x: Element) -> Poly:
    ring = x[0].ring
    return p.cubic.substitute(dict(zip(p.coords, x)), ring)


def trace_bilinear(p: JordanPresentation, x: Element, y: Element) -> Poly:
    """Bilinear trace form T(x, y) = sum of T(e_i, e_j) x_i y_j."""
    ring = x[0].ring
    table = p._trace_form[1]
    acc: dict = {}
    for (i, j), t in zip(table, substitute_all([*table.values()], {}, ring)):
        if x[i].terms and y[j].terms:
            add_product(acc, t, x[i], y[j])
    return Poly.collect(ring, acc)


def trace_linear(p: JordanPresentation, x: Element) -> Poly:
    """Linear trace form T(x) = T(x, unit)."""
    ring = x[0].ring
    acc: dict = {}
    for t, comp in zip(substitute_all(p._trace_form[0], {}, ring), x):
        if t.terms:
            add_product(acc, t, comp, ring.one())
    return Poly.collect(ring, acc)


def spur_quadratic(p: JordanPresentation, x: Element) -> Poly:
    """S(x) = T(x#)."""
    return trace_linear(p, sharp_of(p, x))


def spur_bilinear(p: JordanPresentation, x: Element, y: Element) -> Poly:
    """S(x, y) = T(x # y)."""
    return trace_linear(p, sharp_product(p, x, y))


def u_operator(p: JordanPresentation, x: Element, y: Element) -> Element:
    """U_x y = T(x, y) x - x# # y; quadratic in x, linear in y."""
    t = trace_bilinear(p, x, y)
    sharp_term = sharp_product(p, sharp_of(p, x), y)
    return tuple(t * xc - sc for xc, sc in zip(x, sharp_term))


def bullet_product(p: JordanPresentation, x: Element, y: Element) -> Element:
    """The usual bilinear Jordan product (characteristic zero)."""
    ring = x[0].ring
    half = Fraction(1, 2)
    sp = sharp_product(p, x, y)
    tx, ty = trace_linear(p, x), trace_linear(p, y)
    s = spur_bilinear(p, x, y)
    unit = p.unit_element(ring)
    return tuple(half * (sp[i] + tx * y[i] + ty * x[i] - s * unit[i])
                 for i in range(p.dim()))


def square_via_sharp(p: JordanPresentation, x: Element) -> Element:
    """x squared as x# + T(x) x - S(x) unit (valid in any characteristic)."""
    ring = x[0].ring
    sx = sharp_of(p, x)
    tx = trace_linear(p, x)
    s = spur_quadratic(p, x)
    unit = p.unit_element(ring)
    return tuple(sx[i] + tx * x[i] - s * unit[i] for i in range(p.dim()))


def verify_sharp_conditions(p: JordanPresentation) -> dict[str, Report]:
    """Certify the three sharp conditions with fully symbolic arguments:
    one report per condition, ``sharp1`` to ``sharp3``.

    Failure is data: each report carries the first nonzero residual
    polynomial (None when the condition holds).
    """
    # (1) T(x#, y) = dN/dy at x, with x the generic element and fresh y.
    ext, y = p.fresh_symbols()
    x = p.generic_element(ext)
    r1 = [trace_bilinear(p, sharp_of(p, x), y)
          - directional_derivative(p.cubic, dict(zip(p.coords, y)))]

    # (2) x## = N(x) x on the generic element.
    xg = p.generic_element()
    r2 = [d - p.cubic * c for d, c in zip(sharp_of(p, sharp_of(p, xg)), xg)]

    # (3) unit # y = T(y) unit - y on the generic element.
    unit = p.unit_element()
    ty = trace_linear(p, xg)
    r3 = [s - (ty * e - c) for s, e, c in zip(sharp_product(p, unit, xg), unit, xg)]

    reports = {}
    for key, residuals in (("sharp1", r1), ("sharp2", r2), ("sharp3", r3)):
        residual = next((r for r in residuals if not r.is_zero()), None)
        reports[key] = Report(residual is None, {"residual": residual})
    return reports


def _rational_parts(tables: _Tables,
                    s: Sequence[Rational]) -> tuple[list[Rational], list[Rational]]:
    """s# and the row T(s, e_j) over ``tables.den``, read off ``tables`` at
    s = sigma as given: integers when s is, as both callers give it."""
    sharp = []
    for q in tables.sharp:
        acc = 0
        for i, j, c in q:
            acc += c * s[i] * s[j]
        sharp.append(acc)
    trace = []
    for col in tables.gram:
        acc = 0
        for i, c in col:
            acc += c * s[i]
        trace.append(acc)
    return sharp, trace


def radical_membership(tables: _Tables, sigma: Sequence[Rational]) -> bool:
    """True iff U_sigma vanishes: sigma is an absolute zero divisor.

    The radical tests take sigma by its rational coordinates, and the
    algebra as its integer tables (``rational_tables``, or
    ``coord8.rational_tables`` at a cube).  U_sigma y = T(sigma, y) sigma -
    sigma# # y is linear in y, so it vanishes for a fully symbolic y
    exactly when every column U_sigma e_j = T(sigma, e_j) sigma - sigma# # e_j
    does.  The columns form a rational matrix, compared in cross-multiplied
    form from the integer tables, with sigma read as given.
    """
    return _u_vanishes(tables, sigma, *_rational_parts(tables, sigma))


def _u_vanishes(tables: _Tables, s: Sequence[Rational], sharp: list[Rational],
                trace: list[Rational]) -> bool:
    """The U-test of ``radical_membership`` on s and ``_rational_parts(tables, s)``."""
    # T(s, e_m) s_k = (s# # e_m)_k, both sides times den^2
    for m, row in enumerate(tables.polar):
        t = tables.den * trace[m]
        for k, col in enumerate(row):
            acc = 0
            for i, c in col:
                acc += c * sharp[i]
            if t * s[k] != acc:
                return False
    return True


def nondegeneracy_test_equiv(tables: _Tables, sigma: Sequence[Rational]) -> dict[str, bool]:
    """Radical membership via the U-operator and via sharp/trace vanishing.

    The second route asks that sigma# = 0 and that sigma is orthogonal to
    the whole algebra under the trace form.  Both together give U_sigma = 0,
    and N(sigma) = 0 follows from sigma## = N(sigma) sigma.  Asking instead
    that N(sigma) = 0 and sigma# be trace-orthogonal to the algebra is
    weaker when the trace form is degenerate: it accepts elements with
    T(sigma, -) = 0 and sigma# != 0 in its kernel, where U_sigma y =
    -sigma# # y does not vanish.
    """
    sharp, trace = _rational_parts(tables, sigma)
    return {"viaU": _u_vanishes(tables, sigma, sharp, trace), "viaTN": not any(sharp + trace)}
