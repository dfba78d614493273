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
from typing import Mapping, Sequence

from .exactcore import Poly, Rational, Ring, directional_derivative

Element = tuple[Poly, ...]


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
        at_unit = self.cubic.substitute(
            {n: self.ring.const(v) for n, v in self.unit_values().items()})
        if at_unit != 1:
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
    def _gram(self) -> tuple[list[list[Poly]], list[Poly]]:
        """Second and first partials of the cubic at the unit.

        Entries are polynomials in the parameter variables (constants when
        the presentation carries none).
        """
        at_unit = {n: self.ring.const(v) for n, v in self.unit_values().items()}
        firsts = [self.cubic.derivative(n) for n in self.coords]
        grad = [d.substitute(at_unit) for d in firsts]
        hess = [[firsts[i].derivative(self.coords[j]).substitute(at_unit)
                 for j in range(self.dim())] for i in range(self.dim())]
        return hess, grad

    @cached_property
    def _rational_tables(self) -> tuple[list, list, list] | None:
        """The trace form and the sharp map as rational coefficient tables,
        or None when the ring carries parameters besides the coordinates.

        ``gram[j]`` lists ``(i, c)`` with T(x, e_j) = sum of c x_i;
        ``sharp[k]`` lists ``(i, j, c)`` with x#_k = sum of c x_i x_j; and
        ``polar[m][k]`` lists ``(i, c)`` with (a # e_m)_k = sum of c a_i,
        the k-th sharp quadric polarized against the basis vector e_m.
        """
        if self.ring.names != self.coords:
            return None
        n = self.dim()
        hess, grad = self._gram
        g = [c.constant_value() for c in grad]
        gram = [[(i, c) for i in range(n)
                 if (c := g[i] * g[j] - hess[i][j].constant_value())]
                for j in range(n)]
        sharp = [[] for _ in range(n)]
        polar = [[[] for _ in range(n)] for _ in range(n)]
        for k, q in enumerate(self.sharp):
            for m, c in q.terms.items():
                i, j = [v for v, e in enumerate(m) for _ in range(e)]
                sharp[k].append((i, j, c))
                polar[i][k].append((j, c))
                polar[j][k].append((i, c))
        return gram, sharp, polar


def _target_ring(p: JordanPresentation, *elements: Element) -> Ring:
    for x in elements:
        for comp in x:
            return comp.ring
    return p.ring


def sharp_of(p: JordanPresentation, x: Element) -> Element:
    """The sharp image of x, by substitution into the sharp components."""
    ring = _target_ring(p, x)
    mapping = dict(zip(p.coords, x))
    return tuple(s.substitute(mapping, ring) for s in p.sharp)


def sharp_product(p: JordanPresentation, x: Element, y: Element) -> Element:
    """Symmetric bilinearization (x+y)# - x# - y#."""
    xy = tuple(a + b for a, b in zip(x, y))
    sx, sy, sxy = sharp_of(p, x), sharp_of(p, y), sharp_of(p, xy)
    return tuple(c - a - b for a, b, c in zip(sx, sy, sxy))


def cubic_of(p: JordanPresentation, x: Element) -> Poly:
    ring = _target_ring(p, x)
    return p.cubic.substitute(dict(zip(p.coords, x)), ring)


def trace_bilinear(p: JordanPresentation, x: Element, y: Element) -> Poly:
    """Bilinear trace form T(x, y) derived from the cubic form."""
    ring = _target_ring(p, x, y)
    hess, grad = p._gram
    n = p.dim()
    mixed = ring.zero()
    for i in range(n):
        if x[i].is_zero():
            continue
        for j in range(n):
            h = hess[i][j]
            if h.is_zero() or y[j].is_zero():
                continue
            mixed = mixed + h.convert(ring) * x[i] * y[j]
    lin_x = ring.zero()
    lin_y = ring.zero()
    for i in range(n):
        g = grad[i]
        if g.is_zero():
            continue
        lin_x = lin_x + g.convert(ring) * x[i]
        lin_y = lin_y + g.convert(ring) * y[i]
    return -mixed + lin_x * lin_y


def trace_linear(p: JordanPresentation, x: Element) -> Poly:
    """Linear trace form T(x) = T(x, unit)."""
    ring = _target_ring(p, x)
    _, grad = p._gram
    acc = ring.zero()
    for g, comp in zip(grad, x):
        if not g.is_zero():
            acc = acc + g.convert(ring) * comp
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


def _rational_parts(p: JordanPresentation, sigma: Element
                    ) -> tuple[list[Fraction], list[Fraction], list[Fraction]] | None:
    """sigma, sigma# and the row T(sigma, e_j) in Fractions, read off the
    rational tables; None when p has parameters or sigma is not constant."""
    tables = p._rational_tables
    if tables is None or any(c.variables() for c in sigma):
        return None
    gram, quadrics, _ = tables
    s = [c.constant_value() for c in sigma]
    sharp = [sum(c * s[i] * s[j] for i, j, c in q) for q in quadrics]
    trace = [sum(c * s[i] for i, c in col) for col in gram]
    return s, sharp, trace


def radical_membership(p: JordanPresentation, sigma: Element) -> bool:
    """True iff U_sigma vanishes: sigma is an absolute zero divisor.

    U_sigma y = T(sigma, y) sigma - sigma# # y is linear in y, so it
    vanishes for a fully symbolic y exactly when every column
    U_sigma e_j = T(sigma, e_j) sigma - sigma# # e_j does.  For a constant
    sigma in a presentation without parameters the nine columns form a 9x9
    rational matrix computed from the tables of ``_rational_tables``;
    otherwise each column is expanded symbolically.
    """
    parts = _rational_parts(p, sigma)
    if parts is None:
        ring = _target_ring(p, sigma)
        return all(c.is_zero() for j in range(p.dim())
                   for c in u_operator(p, sigma, p.basis_element(j, ring)))
    s, sharp, trace = parts
    polar = p._rational_tables[2]
    return all(trace[m] * s[k] == sum(c * sharp[i] for i, c in polar[m][k])
               for m in range(p.dim()) for k in range(p.dim()))


def nondegeneracy_test_equiv(p: JordanPresentation, sigma: Element) -> dict[str, bool]:
    """Radical membership via the U-operator and via sharp/trace vanishing.

    The second route asks that sigma# = 0 and that sigma is orthogonal to
    the whole algebra under the trace form.  Both together give U_sigma = 0,
    and N(sigma) = 0 follows from sigma## = N(sigma) sigma.  Asking instead
    that N(sigma) = 0 and sigma# be trace-orthogonal to the algebra is
    weaker when the trace form is degenerate: it accepts elements with
    T(sigma, -) = 0 and sigma# != 0 in its kernel, where U_sigma y =
    -sigma# # y does not vanish.
    """
    via_u = radical_membership(p, sigma)
    parts = _rational_parts(p, sigma)
    if parts is None:
        ring = _target_ring(p, sigma)
        sharp_zero = all(c.is_zero() for c in sharp_of(p, sigma))
        ortho = all(trace_bilinear(p, sigma, p.basis_element(i, ring)).is_zero()
                    for i in range(p.dim()))
    else:
        _, sharp, trace = parts
        sharp_zero, ortho = not any(sharp), not any(trace)
    return {"viaU": via_u, "viaTN": sharp_zero and ortho}


def peirce_operator(p: JordanPresentation, x1: Element, x2: Element,
                    y: Element) -> Element:
    """Bilinearized operator U_{x1+x2}(y) - U_{x1}(y) - U_{x2}(y).

    Applied to two of the complementary idempotents it projects onto the
    off-diagonal Peirce space they span.  Used only to recompute Peirce
    subspaces in tests; not part of the public algebra surface.
    """
    ring = _target_ring(p, x1, x2, y)
    a1 = tuple(c.convert(ring) for c in x1)
    a2 = tuple(c.convert(ring) for c in x2)
    both = u_operator(p, tuple(a + b for a, b in zip(a1, a2)), y)
    first = u_operator(p, a1, y)
    second = u_operator(p, a2, y)
    return tuple(both[i] - first[i] - second[i] for i in range(p.dim()))
