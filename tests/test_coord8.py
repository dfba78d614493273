"""Product table, difference matrices, sharp map and cubic form of the
coordinatized algebra."""

from fractions import Fraction

import pytest

from cubicjordan import coord8, hvariety, jordan
from cubicjordan.coord8 import (COORD_VARS, Hypermatrix, build_peirce_table,
                                coord_ring, cubic_form, d_matrix, sharp_from_table,
                                sharp_map)
from cubicjordan.errors import ShapeError


def symbolic_setup():
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    return ring, p


# -- product table cells against the closed displays ---------------------------


def test_table_cross_cell():
    ring, p = symbolic_setup()
    table = build_peirce_table(None)
    cell = dict(zip(COORD_VARS, table[("x21", "x22")]))
    assert cell["x13"] == p[(1, 1, 1)]
    assert cell["x23"] == p[(1, 1, 2)]
    assert all(cell[n].is_zero() for n in COORD_VARS if n not in ("x13", "x23"))


def test_table_square_cell():
    ring, p = symbolic_setup()
    table = build_peirce_table(None)
    cell = dict(zip(COORD_VARS, table[("x13", "x13")]))
    expected = 2 * (-p[(1, 2, 2)] * p[(2, 1, 2)] + p[(1, 1, 2)] * p[(2, 2, 2)])
    assert cell["u3"] == expected


def test_table_idempotent_action():
    table = build_peirce_table(None)
    cell = dict(zip(COORD_VARS, table[("u1", "x11")]))
    assert cell["x11"] == -1
    cell = dict(zip(COORD_VARS, table[("u2", "x11")]))
    assert all(c.is_zero() for c in cell.values())
    cell = dict(zip(COORD_VARS, table[("u1", "u2")]))
    assert cell["u3"] == 1


def test_table_agrees_with_sharp_map_symbolically(symbolic_presentation):
    p = symbolic_presentation
    table = build_peirce_table(None)
    sigma = p.generic_element()
    via_table = sharp_from_table(table, sigma)
    assert all(a == b for a, b in zip(via_table, p.sharp))


# -- difference matrices -------------------------------------------------------


def test_d_matrix_open_representative():
    ring = coord_ring(False)
    P = hvariety.representative("p4")
    p = P.in_ring(ring)
    x = tuple(ring.var(n) for n in COORD_VARS[:6])
    m = d_matrix(p, x, 3)
    v = ring.var
    assert m.entries == [ring.zero(), v("x23"), v("x13"), ring.zero()]
    assert m.det() == -v("x13") * v("x23")


def test_d_matrix_vanishes_at_zero_cube():
    ring = coord_ring(False)
    p = Hypermatrix({}).in_ring(ring)
    x = tuple(ring.var(n) for n in COORD_VARS[:6])
    for k in (1, 2, 3):
        assert all(e.is_zero() for e in d_matrix(p, x, k).entries)


def test_d_matrix_determinant_feeds_sharp_component():
    ring, p = symbolic_setup()
    sigma = tuple(ring.var(n) for n in COORD_VARS)
    x = sigma[:6]
    sharp = sharp_map(None, sigma)
    v = ring.var
    assert sharp[6] == v("u2") * v("u3") + d_matrix(p, x, 1).det()


# -- sharp map -------------------------------------------------------------------


def test_idempotent_is_primitive(symbolic_presentation):
    p = symbolic_presentation
    for i in (6, 7, 8):
        image = jordan.sharp_of(p, p.basis_element(i))
        assert all(c.is_zero() for c in image)


def test_unit_is_sharp_fixed_point(symbolic_presentation):
    p = symbolic_presentation
    unit = p.unit_element()
    image = jordan.sharp_of(p, unit)
    assert all(a == b for a, b in zip(image, unit))


def test_pair_basis_vectors_multiply_to_third(symbolic_presentation):
    p = symbolic_presentation
    v1, v2 = p.basis_element(6), p.basis_element(7)
    out = jordan.sharp_product(p, v1, v2)
    expected = p.basis_element(8)
    assert all(a == b for a, b in zip(out, expected))


# -- cubic form ------------------------------------------------------------------


def test_cubic_form_displays():
    assert cubic_form(Hypermatrix({})).to_str() == "u1*u2*u3"
    p2 = hvariety.representative("p2")
    assert cubic_form(p2).to_str() == "x23^2*u3 + u1*u2*u3"
    p3 = hvariety.representative("p3")
    assert cubic_form(p3).to_str() == \
        "x21^2*u1 + 2*x21*x22*x13 + x22^2*u2 - x13^2*u3 + u1*u2*u3"


def test_symbolic_cubic_has_integer_coefficients():
    cubic = cubic_form(None)
    assert all(c.denominator == 1 for c in cubic.coefficients())


def test_directional_derivative_of_cubic_at_unit(symbolic_presentation):
    # the trace of the unit equals the degree of the form
    p = symbolic_presentation
    unit_vals = {n: p.ring.const(v) for n, v in p.unit_values().items()}
    total = p.ring.zero()
    for name in p.coords:
        total = total + p.cubic.derivative(name).substitute(unit_vals) \
            * p.ring.const(p.unit_values()[name])
    assert total == 3


# -- identity suite ---------------------------------------------------------------


def test_peirce_identity_suite_passes():
    report = coord8.verify_peirce_identities(None)
    assert report.ok, report.failures


def test_unit_identities_hold(symbolic_presentation):
    assert coord8.verify_unit_identities(symbolic_presentation) == [True] * 11


def test_representation_matrix_displays():
    ring, p = symbolic_setup()
    table = build_peirce_table(None)
    m = coord8.representation_matrix(table, 3, 2, (ring.one(), ring.zero()), ring)
    assert m.entries == [p[(2, 2, 1)], -p[(2, 1, 1)], p[(2, 2, 2)], -p[(2, 1, 2)]]


# -- hypermatrix I/O ---------------------------------------------------------------


def test_hypermatrix_text_roundtrip():
    P = Hypermatrix({(1, 1, 1): Fraction(1, 2), (2, 2, 2): -3})
    text = P.to_text()
    assert text == "1/2 0 0 0 0 0 0 -3"
    assert Hypermatrix.parse(text) == P


def test_hypermatrix_json_form():
    P = Hypermatrix.parse('{"p111": "1", "p221": "2/3"}')
    assert P.get(1, 1, 1) == 1
    assert P.get(2, 2, 1) == Fraction(2, 3)
    assert P.get(2, 2, 2) == 0


def test_hypermatrix_bad_text():
    with pytest.raises(ShapeError):
        Hypermatrix.parse("1 2 3")
