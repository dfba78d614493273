"""Product table, difference matrices, sharp map and cubic form of the
coordinatized algebra."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicjordan import coord8, hvariety, jordan
from cubicjordan.coord8 import (COORD_VARS, Hypermatrix, build_peirce_table,
                                coord_ring, cubic_form, d_matrix, sharp_from_table,
                                sharp_map)
from cubicjordan.errors import ShapeError
from cubicjordan.exactcore import substitute_all


def symbolic_setup():
    ring = coord_ring(True)
    p = Hypermatrix.symbolic(ring).in_ring(ring)
    return ring, p


# -- product table cells against the closed displays ---------------------------


def test_table_cross_cell():
    ring, p = symbolic_setup()
    table = build_peirce_table()
    cell = dict(zip(COORD_VARS, table[("x21", "x22")]))
    assert cell["x13"] == p[(1, 1, 1)]
    assert cell["x23"] == p[(1, 1, 2)]
    assert all(cell[n].is_zero() for n in COORD_VARS if n not in ("x13", "x23"))


def test_table_square_cell():
    ring, p = symbolic_setup()
    table = build_peirce_table()
    cell = dict(zip(COORD_VARS, table[("x13", "x13")]))
    expected = 2 * (-p[(1, 2, 2)] * p[(2, 1, 2)] + p[(1, 1, 2)] * p[(2, 2, 2)])
    assert cell["u3"] == expected


def test_table_idempotent_action():
    table = build_peirce_table()
    cell = dict(zip(COORD_VARS, table[("u1", "x11")]))
    assert cell["x11"] == -1
    cell = dict(zip(COORD_VARS, table[("u2", "x11")]))
    assert all(c.is_zero() for c in cell.values())
    cell = dict(zip(COORD_VARS, table[("u1", "u2")]))
    assert cell["u3"] == 1


def test_table_agrees_with_sharp_map_symbolically(symbolic_presentation):
    p = symbolic_presentation
    table = build_peirce_table()
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
    sharp = sharp_map(p, sigma)
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


def expand_directly(P):
    """Reference for the specialized cubic and sharp map: the expansion at
    the cube itself, with the closed-form difference matrices."""
    ring = coord_ring(P is None)
    p = (Hypermatrix.symbolic(ring) if P is None else P).in_ring(ring)
    sigma = tuple(ring.var(n) for n in COORD_VARS)
    sharp = sharp_map(p, sigma)
    total = ring.zero()
    for k in (1, 2, 3):
        a, b, c, d = d_matrix(p, sigma[:6], k).entries
        sa, sb, sc, sd = d_matrix(p, sharp[:6], k).entries
        total = total + sigma[5 + k] * sharp[5 + k] - (a * sd - sb * c) - (sa * d - b * sc)
    return Fraction(1, 3) * total, sharp


def assert_specializes_like_direct_expansion(P):
    cubic, sharp = expand_directly(P)
    pres = coord8.presentation(P)
    assert cubic_form(P) == pres.cubic == cubic
    assert cubic_form(P).to_str() == cubic.to_str()
    assert pres.sharp == sharp
    assert [s.to_str() for s in pres.sharp] == [s.to_str() for s in sharp]


@pytest.mark.parametrize("name", ["origin", "p1", "p2", "p3", "p4", None])
def test_specialization_matches_direct_expansion(name):
    assert_specializes_like_direct_expansion(
        None if name is None else hvariety.representative(name))


@settings(max_examples=10, deadline=None)
@given(st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=4)] * 8))
def test_specialization_matches_direct_expansion_at_random_cubes(entries):
    assert_specializes_like_direct_expansion(
        Hypermatrix(dict(zip(coord8.INDEX_TRIPLES, entries))))


def specialize_symbolically(P):
    """The symbolic forms with the cube entries substituted by one
    ``substitute_all`` call over the ten forms together."""
    cubic, sharp = coord8._symbolic_forms()
    values = {coord8.p_name(*t): v for t, v in P.as_fractions().items()}
    return substitute_all((cubic, *sharp), values, coord_ring(False))


def typed_terms(poly):
    return {m: (type(c), c) for m, c in poly.terms.items()}


_entry = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9,
                                                     max_denominator=6))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[_entry] * 8))
@example((0,) * 8)
@example((Fraction(1, 2), 0, 0, Fraction(-2, 3), 0, 0, 0, 0))
def test_compiled_specialization_is_the_substitution(entries):
    P = Hypermatrix(dict(zip(coord8.INDEX_TRIPLES, entries)))
    cubic, *sharp = specialize_symbolically(P)
    pres = coord8.presentation(P)
    assert pres.ring == cubic_form(P).ring == cubic.ring == coord_ring(False)
    assert typed_terms(cubic_form(P)) == typed_terms(pres.cubic) == typed_terms(cubic)
    assert [typed_terms(s) for s in pres.sharp] == [typed_terms(s) for s in sharp]


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


def test_peirce_identity_suite_passes(symbolic_presentation):
    reports = coord8.verify_peirce_identities(symbolic_presentation)
    assert list(reports) == ["table-vs-map", "idempotent-traces", "triple-product",
                             "rep-matrices", "rep-product", "rep-det"]
    assert all(rep == (True, {}) for rep in reports.values())


def _add_to_cubic(p):
    u1, u2 = p.ring.var("u1"), p.ring.var("u2")
    return dataclasses.replace(p, cubic=p.cubic + u1 * u1 * u2 - u1 * u2 * u2)


def _add_to_sharp(index, a, b):
    def tamper(p):
        sharp = list(p.sharp)
        sharp[index] = sharp[index] + p.ring.var(a) * p.ring.var(b)
        return dataclasses.replace(p, sharp=tuple(sharp))
    return tamper


# (tamper of presentation(None), (table cell, factor) or None, failing claims)
AXIOM_TAMPERS = {
    "cubic+u1^2u2-u1u2^2": (_add_to_cubic, None, {
        "sharp1", "sharp2", "sharp3", "idempotent-traces", "triple-product",
        "rep-product", "rep-det"}),
    "sharp[8]+x11x12": (_add_to_sharp(8, "x11", "x12"), None, {
        "sharp1", "sharp2", "table-vs-map", "triple-product"}),
    "cell(x11,x12)*-1": (lambda p: p, (("x11", "x12"), -1), {
        "table-vs-map", "rep-matrices", "rep-product"}),
    "cell(x11,x13)*2": (lambda p: p, (("x11", "x13"), 2), {
        "table-vs-map", "rep-product", "rep-det"}),
    "sharp[0]+u1x11": (_add_to_sharp(0, "u1", "x11"), None, {
        "sharp1", "sharp2", "sharp3", "table-vs-map"}),
}


@pytest.mark.parametrize("name", AXIOM_TAMPERS)
def test_axiom_claims_fail_exactly_under_each_tamper(monkeypatch, symbolic_presentation,
                                                     name):
    tamper, cell, failing = AXIOM_TAMPERS[name]
    if cell is not None:
        key, factor = cell
        table = dict(build_peirce_table())
        table[key] = tuple(factor * c for c in table[key])
        monkeypatch.setattr(coord8, "build_peirce_table", lambda: table)
    pres = tamper(symbolic_presentation)
    reports = {**jordan.verify_sharp_conditions(pres),
               **coord8.verify_peirce_identities(pres)}
    assert {key for key, rep in reports.items() if not rep.ok} == failing
    # a failing sharp condition carries its nonzero residual, a passing one None
    assert all((rep.data["residual"] is None) == rep.ok
               for key, rep in reports.items() if key.startswith("sharp"))
    # every claim of verify-axioms fails under some tamper
    assert set().union(*(f for *_, f in AXIOM_TAMPERS.values())) == set(reports)


def test_unit_identities_hold(symbolic_presentation):
    assert coord8.verify_unit_identities(symbolic_presentation) == (True, {"checks": 11})


def test_representation_matrix_displays():
    ring, p = symbolic_setup()
    table = build_peirce_table()
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
