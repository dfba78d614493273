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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .exactcore import (Poly, Rational, Ring, directional_derivative, over_common_denominator,
                        substitute_all)

Element = tuple[Poly, ...]


class _Tables(NamedTuple):
    """Integer tables of ``JordanPresentation._rational_tables``."""

    gram: list[list[tuple[int, int]]]
    gram_den: int
    sharp: list[list[tuple[int, int, int]]]
    polar: list[list[list[tuple[int, int]]]]
    sharp_den: int


@dataclass(frozen=True)
class JordanPresentation:
    """Coordinates, unit, cubic form and sharp map of one algebra.

    ``ring`` may carry extra parameter variables beyond ``coords``; the
    cubic and the sharp components are then polynomial families in those
    parameters.
    """

    ring: Ring
    coords: tuple[str, ...]
    unit: tuple[Fraction, ...]
    cubic: Poly
    sharp: tuple[Poly, ...]

    def __post_init__(self):
        n = len(self.coords)
        if len(self.unit) != n or len(self.sharp) != n:
            raise ValueError("unit and sharp must have one entry per coordinate")
        if not self.cubic.is_homogeneous_in(self.coords, 3):
            raise ValueError("cubic form must be homogeneous of degree 3")
        for s in self.sharp:
            if not s.is_homogeneous_in(self.coords, 2):
                raise ValueError("sharp components must be homogeneous of degree 2")
        if self.cubic.substitute(self.unit_values()) != 1:
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

    def element(self, values: Sequence[Rational] | Mapping[str, Rational],
                ring: Ring | None = None) -> Element:
        r = ring if ring is not None else self.ring
        if isinstance(values, Mapping):
            vals = [values.get(n, 0) for n in self.coords]
        else:
            vals = list(values)
        if len(vals) != self.dim():
            raise ValueError("wrong number of coordinates")
        return tuple(r.const(v) for v in vals)

    def unit_element(self, ring: Ring | None = None) -> Element:
        return self.element(self.unit, ring)

    def basis_element(self, i: int, ring: Ring | None = None) -> Element:
        vals = [0] * self.dim()
        vals[i] = 1
        return self.element(vals, ring)

    def fresh_symbols(self) -> tuple[Ring, Element]:
        """Extension ring with one fresh symbol ``y1, y2, ...`` per coordinate."""
        names = self.ring.fresh_names("y", self.dim())
        ext = self.ring.extend(names)
        return ext, tuple(ext.var(n) for n in names)

    # -- derived data, computed once per presentation ---------------------

    @cached_property
    def _trace_form(self) -> tuple[list[Poly], dict[tuple[int, int], Poly]]:
        """The trace T(e_i) of each basis vector, and the nonzero T(e_i, e_j)
        keyed by (i, j) in row-major order.

        At the unit u, T(x) = dN(u)[x] and T(x, y) = T(x) T(y) - d2N(u)[x, y]
        (McCrimmon, A Taste of Jordan Algebras, 2004).  Entries are
        polynomials in the parameter variables (constants when the
        presentation carries none).  Both partials are read off the terms:
        write a term as c x_k1 x_k2 x_k3 (rest); each cyclic ordering
        (a, b, r) of its three factors adds c u_kb u_kr to the first partial
        at k_a, and c u_kr to the second partials at (k_a, k_b) and
        (k_b, k_a); one with u_kr = 0 adds nothing.  ``trace_bilinear``,
        ``trace_linear`` and ``_rational_tables`` all read this table.
        """
        n = self.dim()
        pos = [self.ring.index(name) for name in self.coords]
        keep = [int(k not in pos) for k in range(self.ring.nvars)]  # 0 on the coordinates
        # integral unit coordinates as ints, so that integer terms stay ints
        unit = [int(u) if u.denominator == 1 else u for u in self.unit]
        grad: list[dict] = [{} for _ in range(n)]
        form: dict[tuple[int, int], dict] = {}  # minus the second partials, then T
        for m, c in self.cubic.terms.items():
            rest = tuple(map(mul, m, keep))
            k1, k2, k3 = [k for k, v in enumerate(pos) if m[v] for _ in range(m[v])]
            for a, b, r in ((k1, k2, k3), (k2, k3, k1), (k3, k1, k2)):
                if unit[r]:
                    cr = c * unit[r]
                    if unit[b]:
                        grad[a][rest] = grad[a].get(rest, 0) + cr * unit[b]
                    for key in ((a, b), (b, a)):
                        acc = form.setdefault(key, {})
                        acc[rest] = acc.get(rest, 0) - cr
        trace = [Poly.collect(self.ring, g) for g in grad]
        live = [i for i in range(n) if trace[i].terms]
        for i in live:
            for j in live:
                acc = form.setdefault((i, j), {})
                for m, c in (trace[i] * trace[j]).terms.items():
                    acc[m] = acc.get(m, 0) + c
        table = {key: t for key in sorted(form)
                 if (t := Poly.collect(self.ring, form[key])).terms}
        return trace, table

    @cached_property
    def _rational_tables(self) -> _Tables:
        """The trace form and the sharp map as integer coefficient tables
        over one denominator each; a ``ValueError`` when the ring carries
        parameters besides the coordinates.

        ``gram[j]`` lists ``(i, c)`` with T(x, e_j) = sum of c x_i / gram_den;
        ``sharp[k]`` lists ``(i, j, c)`` with x#_k = sum of c x_i x_j / sharp_den;
        and ``polar[m][k]`` lists ``(i, c)`` with (a # e_m)_k = sum of
        c a_i / sharp_den, the k-th sharp quadric polarized against the
        basis vector e_m, which has the coefficients of ``sharp``.
        """
        if self.ring.names != self.coords:
            raise ValueError("rational tables need a presentation without parameters")
        n = self.dim()
        table = self._trace_form[1]
        origin = (0,) * n
        values, gram_den = over_common_denominator([t.terms[origin] for t in table.values()])
        gram = [[] for _ in range(n)]
        for (i, j), c in zip(table, values):
            gram[j].append((i, c))
        coeffs, sharp_den = over_common_denominator(
            [c for q in self.sharp for c in q.terms.values()])
        sharp = [[] for _ in range(n)]
        polar = [[[] for _ in range(n)] for _ in range(n)]
        for (k, m), c in zip([(k, m) for k, q in enumerate(self.sharp) for m in q.terms],
                             coeffs):
            i = m.index(2) if 2 in m else m.index(1)
            j = i if m[i] == 2 else m.index(1, i + 1)
            sharp[k].append((i, j, c))
            polar[i][k].append((j, c))
            polar[j][k].append((i, c))
        return _Tables(gram, gram_den, sharp, polar, sharp_den)


def _target_ring(p: JordanPresentation, *elements: Element) -> Ring:
    for x in elements:
        for comp in x:
            return comp.ring
    return p.ring


def sharp_of(p: JordanPresentation, x: Element) -> Element:
    """The sharp image of x, by substitution into the sharp components."""
    ring = _target_ring(p, x)
    mapping = dict(zip(p.coords, x))
    return tuple(substitute_all(p.sharp, mapping, ring))


def sharp_product(p: JordanPresentation, x: Element, y: Element) -> Element:
    """Symmetric bilinearization (x+y)# - x# - y#."""
    xy = tuple(a + b for a, b in zip(x, y))
    sx, sy, sxy = sharp_of(p, x), sharp_of(p, y), sharp_of(p, xy)
    return tuple(c - a - b for a, b, c in zip(sx, sy, sxy))


def cubic_of(p: JordanPresentation, x: Element) -> Poly:
    ring = _target_ring(p, x)
    return p.cubic.substitute(dict(zip(p.coords, x)), ring)


def trace_bilinear(p: JordanPresentation, x: Element, y: Element) -> Poly:
    """Bilinear trace form T(x, y) = sum of T(e_i, e_j) x_i y_j."""
    ring = _target_ring(p, x, y)
    acc = ring.zero()
    for (i, j), t in p._trace_form[1].items():
        if not (x[i].is_zero() or y[j].is_zero()):
            acc = acc + t.convert(ring) * x[i] * y[j]
    return acc


def trace_linear(p: JordanPresentation, x: Element) -> Poly:
    """Linear trace form T(x) = T(x, unit)."""
    ring = _target_ring(p, x)
    acc = ring.zero()
    for t, comp in zip(p._trace_form[0], x):
        if not t.is_zero():
            acc = acc + t.convert(ring) * comp
    return acc


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
    ring = _target_ring(p, x, y)
    half = Fraction(1, 2)
    sp = sharp_product(p, x, y)
    tx, ty = trace_linear(p, x), trace_linear(p, y)
    s = spur_bilinear(p, x, y)
    unit = p.unit_element(ring)
    return tuple(half * (sp[i] + tx * y[i] + ty * x[i] - s * unit[i])
                 for i in range(p.dim()))


def square_via_sharp(p: JordanPresentation, x: Element) -> Element:
    """x squared as x# + T(x) x - S(x) unit (valid in any characteristic)."""
    ring = _target_ring(p, x)
    sx = sharp_of(p, x)
    tx = trace_linear(p, x)
    s = spur_quadratic(p, x)
    unit = p.unit_element(ring)
    return tuple(sx[i] + tx * x[i] - s * unit[i] for i in range(p.dim()))


@dataclass
class SharpConditionReport:
    s1: bool
    s2: bool
    s3: bool
    residuals: dict[str, list[Poly]]

    @property
    def ok(self) -> bool:
        return self.s1 and self.s2 and self.s3


def verify_sharp_conditions(p: JordanPresentation) -> SharpConditionReport:
    """Certify the three sharp conditions with fully symbolic arguments.

    Failure is data: the report carries the nonzero residual polynomials.
    """
    residuals: dict[str, list[Poly]] = {}

    # (1) T(x#, y) = dN/dy at x, with x the generic element and fresh y.
    ext, y = p.fresh_symbols()
    x = p.generic_element(ext)
    lhs = trace_bilinear(p, sharp_of(p, x), y)
    r1 = lhs - directional_derivative(p.cubic, dict(zip(p.coords, y)))
    if not r1.is_zero():
        residuals["s1"] = [r1]

    # (2) x## = N(x) x on the generic element.
    xg = p.generic_element()
    double = sharp_of(p, sharp_of(p, xg))
    nx = p.cubic
    r2 = [d - nx * c for d, c in zip(double, xg)]
    if any(not r.is_zero() for r in r2):
        residuals["s2"] = [r for r in r2 if not r.is_zero()]

    # (3) unit # y = T(y) unit - y on the generic element.
    unit = p.unit_element()
    sp = sharp_product(p, unit, xg)
    ty = trace_linear(p, xg)
    r3 = [sp[i] - (ty * unit[i] - xg[i]) for i in range(p.dim())]
    if any(not r.is_zero() for r in r3):
        residuals["s3"] = [r for r in r3 if not r.is_zero()]

    return SharpConditionReport("s1" not in residuals, "s2" not in residuals,
                                "s3" not in residuals, residuals)


# s, and s# and the row T(s, e_j) over the denominators of ``_rational_tables``
_Parts = tuple[list[int], list[int], list[int]]


def _rational_parts(p: JordanPresentation, sigma: Sequence[Rational]) -> _Parts:
    """A positive multiple s of sigma with integer entries, and s# and the
    row T(s, e_j) as integers over ``sharp_den`` and ``gram_den``, read off
    the rational tables.

    s is sigma times the lcm of its denominators.  Both callers' tests are
    homogeneous in sigma, so they give the same answer for s: "sigma# = 0
    and T(sigma, J) = 0" only asks for zeros, and the radical test
    T(sigma, e_m) sigma_k = (sigma# # e_m)_k has degree 2 in sigma on both
    sides, so scaling sigma by c scales both sides by c^2.
    """
    tables = p._rational_tables
    s, _ = over_common_denominator(sigma)
    sharp = [sum(c * s[i] * s[j] for i, j, c in q) for q in tables.sharp]
    trace = [sum(c * s[i] for i, c in col) for col in tables.gram]
    return s, sharp, trace


def radical_membership(p: JordanPresentation, sigma: Sequence[Rational]) -> bool:
    """True iff U_sigma vanishes: sigma is an absolute zero divisor.

    The radical tests take sigma by its rational coordinates on a
    presentation without parameters.  U_sigma y = T(sigma, y) sigma -
    sigma# # y is linear in y, so it vanishes for a fully symbolic y
    exactly when every column U_sigma e_j = T(sigma, e_j) sigma - sigma# # e_j
    does.  The columns form a rational matrix, compared in cross-multiplied
    integers from the tables of ``_rational_tables`` for an integer
    multiple of sigma (see ``_rational_parts``).
    """
    return _u_vanishes(p, _rational_parts(p, sigma))


def _u_vanishes(p: JordanPresentation, parts: _Parts) -> bool:
    """The U-test of ``radical_membership`` on ``_rational_parts(p, sigma)``."""
    s, sharp, trace = parts
    tables = p._rational_tables
    # T(s, e_m) s_k = (s# # e_m)_k, both sides times gram_den sharp_den^2
    lhs, rhs = tables.sharp_den ** 2, tables.gram_den
    return all(lhs * trace[m] * s[k] == rhs * sum(c * sharp[i] for i, c in col)
               for m, row in enumerate(tables.polar) for k, col in enumerate(row))


def nondegeneracy_test_equiv(p: JordanPresentation,
                             sigma: Sequence[Rational]) -> dict[str, bool]:
    """Radical membership via the U-operator and via sharp/trace vanishing.

    The second route asks that sigma# = 0 and that sigma is orthogonal to
    the whole algebra under the trace form.  Both together give U_sigma = 0,
    and N(sigma) = 0 follows from sigma## = N(sigma) sigma.  Asking instead
    that N(sigma) = 0 and sigma# be trace-orthogonal to the algebra is
    weaker when the trace form is degenerate: it accepts elements with
    T(sigma, -) = 0 and sigma# != 0 in its kernel, where U_sigma y =
    -sigma# # y does not vanish.
    """
    parts = _rational_parts(p, sigma)
    _, sharp, trace = parts
    return {"viaU": _u_vanishes(p, parts), "viaTN": not any(sharp) and not any(trace)}
