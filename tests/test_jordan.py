"""Generic cubic-form Jordan machinery on the diagonal toy algebra and the
full coordinatized presentation."""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicjordan import coord8, hvariety, jordan
from cubicjordan.exactcore import Ring
from cubicjordan.jordan import JordanPresentation


def diagonal_presentation() -> JordanPresentation:
    """Three coordinates, product of coordinates as cubic form."""
    ring = Ring(("u1", "u2", "u3"))
    u1, u2, u3 = ring.gens()
    return JordanPresentation(
        ring=ring, coords=("u1", "u2", "u3"),
        unit=(Fraction(1), Fraction(1), Fraction(1)),
        cubic=u1 * u2 * u3,
        sharp=(u2 * u3, u3 * u1, u1 * u2))


def test_diagonal_sharp_conditions():
    rep = jordan.verify_sharp_conditions(diagonal_presentation())
    assert rep.ok


def test_diagonal_trace_is_standard():
    p = diagonal_presentation()
    for i in range(3):
        for j in range(3):
            t = jordan.trace_bilinear(p, p.basis_element(i), p.basis_element(j))
            assert t == (1 if i == j else 0)


def test_presentation_validation():
    ring = Ring(("u1", "u2", "u3"))
    u1, u2, u3 = ring.gens()
    with pytest.raises(ValueError):
        JordanPresentation(ring, ("u1", "u2", "u3"),
                           (Fraction(1), Fraction(1), Fraction(1)),
                           u1 * u2 * u3 + u1 * u2,  # not homogeneous
                           (u2 * u3, u3 * u1, u1 * u2))
    with pytest.raises(ValueError):
        JordanPresentation(ring, ("u1", "u2", "u3"),
                           (Fraction(2), Fraction(1), Fraction(1)),  # N != 1
                           u1 * u2 * u3,
                           (u2 * u3, u3 * u1, u1 * u2))


def test_trace_values_on_coordinatized_algebra(symbolic_presentation):
    p = symbolic_presentation
    unit = p.unit_element()
    assert jordan.trace_bilinear(p, unit, unit) == 3
    v1 = p.basis_element(6)
    v2 = p.basis_element(7)
    assert jordan.trace_bilinear(p, v1, v2).is_zero()
    assert jordan.trace_linear(p, unit) == 3


def test_trace_symmetric(symbolic_presentation):
    p = symbolic_presentation
    ext, y = p.fresh_symbols()
    x = p.generic_element(ext)
    assert jordan.trace_bilinear(p, x, y) == jordan.trace_bilinear(p, y, x)


def test_sharp_product_symmetric_and_doubling(symbolic_presentation):
    p = symbolic_presentation
    ext, y = p.fresh_symbols()
    x = p.generic_element(ext)
    xy = jordan.sharp_product(p, x, y)
    yx = jordan.sharp_product(p, y, x)
    assert all(a == b for a, b in zip(xy, yx))
    xx = jordan.sharp_product(p, x, x)
    sx = jordan.sharp_of(p, x)
    assert all(a == 2 * b for a, b in zip(xx, sx))


def test_unit_sharp_identity(symbolic_presentation):
    p = symbolic_presentation
    y = p.generic_element()
    unit = p.unit_element()
    lhs = jordan.sharp_product(p, unit, y)
    ty = jordan.trace_linear(p, y)
    rhs = tuple(ty * u - c for u, c in zip(unit, y))
    assert all(a == b for a, b in zip(lhs, rhs))


def test_unit_operator_is_identity(symbolic_presentation):
    p = symbolic_presentation
    y = p.generic_element()
    out = jordan.u_operator(p, p.unit_element(), y)
    assert all(a == b for a, b in zip(out, y))


def test_u_operator_quadratic_in_first_argument(symbolic_presentation):
    p = symbolic_presentation
    names = p.ring.fresh_names("y", 9) + ("lam",)
    ext = p.ring.extend(names)
    y = tuple(ext.var(n) for n in names[:9])
    lam = ext.var("lam")
    x = p.generic_element(ext)
    lx = tuple(lam * c for c in x)
    lhs = jordan.u_operator(p, lx, y)
    rhs = jordan.u_operator(p, x, y)
    assert all(a == lam * lam * b for a, b in zip(lhs, rhs))


def test_double_u_scaling(symbolic_presentation):
    p = symbolic_presentation
    ext, y = p.fresh_symbols()
    x = p.generic_element(ext)
    twice = tuple(2 * c for c in x)
    lhs = jordan.u_operator(p, twice, y)
    rhs = jordan.u_operator(p, x, y)
    assert all(a == 4 * b for a, b in zip(lhs, rhs))


def test_bullet_square_matches_quadratic_formula(symbolic_presentation):
    p = symbolic_presentation
    x = p.generic_element()
    bullet = jordan.bullet_product(p, x, x)
    direct = jordan.square_via_sharp(p, x)
    assert all(a == b for a, b in zip(bullet, direct))


def test_spur_identity_with_product_first(symbolic_presentation):
    # S(x, y) = T(x) T(y) - T(x, y); the definitional route is T(x # y)
    p = symbolic_presentation
    ext, y = p.fresh_symbols()
    x = p.generic_element(ext)
    lhs = jordan.spur_bilinear(p, x, y)
    rhs = jordan.trace_linear(p, x) * jordan.trace_linear(p, y) \
        - jordan.trace_bilinear(p, x, y)
    assert lhs == rhs


def _values(named: dict) -> list:
    """Rational coordinates of a coord8 element given by its nonzero entries."""
    return [named.get(n, 0) for n in coord8.COORD_VARS]


def test_radical_membership_zero_and_scaling(origin_presentation):
    p = origin_presentation
    assert jordan.radical_membership(p, [0] * 9)
    assert jordan.radical_membership(p, _values({"x11": 1, "x22": Fraction(2, 3)}))
    assert jordan.radical_membership(p, _values({"x11": 5, "x22": Fraction(10, 3)}))


def test_diagonal_radical_trivial():
    p = diagonal_presentation()
    assert not jordan.radical_membership(p, [1, 0, 0])
    tests = jordan.nondegeneracy_test_equiv(p, [1, 2, 3])
    assert tests == {"viaU": False, "viaTN": False}


def test_idempotent_not_in_radical_generic_cube():
    P = coord8.Hypermatrix({(1, 1, 1): 1, (2, 2, 2): 1})
    p = coord8.presentation(P)
    tests = jordan.nondegeneracy_test_equiv(p, _values({"u1": 1}))
    assert tests == {"viaU": False, "viaTN": False}


def test_single_pair_coordinate_in_degenerate_radical():
    # at the rank-deficient cube the point with one leading pair coordinate
    # lies on the stated radical locus
    P = coord8.Hypermatrix({(1, 1, 1): 1, (1, 2, 2): 1, (2, 1, 2): 1})
    p = coord8.presentation(P)
    assert jordan.radical_membership(p, _values({"x11": 1}))


def test_radical_tests_need_a_presentation_without_parameters(symbolic_presentation):
    # the integer tables exist only when every ring variable is a coordinate
    p = symbolic_presentation
    with pytest.raises(ValueError, match="without parameters"):
        p._rational_tables
    with pytest.raises(ValueError, match="without parameters"):
        jordan.radical_membership(p, [0] * 9)
    with pytest.raises(ValueError, match="without parameters"):
        jordan.nondegeneracy_test_equiv(p, [1] + [0] * 8)


def test_u_zero_off_locus_point_is_not_radical():
    # an off-locus point of the p1 algebra with u1 = u2 = u3 = 0: N(sigma)
    # and T(sigma, -) vanish, sigma# is nonzero but trace-orthogonal to the
    # algebra, and U_sigma y = -sigma# # y is not zero
    p = coord8.presentation(hvariety.representative("p1"))
    values = _values({"x11": 1, "x21": 3, "x12": 8, "x22": Fraction(-9, 4),
                      "x13": 2, "x23": Fraction(-2, 3)})
    sigma = p.element(values)
    sharp = jordan.sharp_of(p, sigma)
    assert jordan.cubic_of(p, sigma).is_zero()
    assert not all(c.is_zero() for c in sharp)
    for i in range(p.dim()):
        e = p.basis_element(i)
        assert jordan.trace_bilinear(p, sigma, e).is_zero()
        assert jordan.trace_bilinear(p, sharp, e).is_zero()
    assert jordan.nondegeneracy_test_equiv(p, values) == {"viaU": False,
                                                          "viaTN": False}


def test_u_test_pins_the_column_order():
    # sigma# # e_m has the direction of sigma for every m, and T(sigma, e_m)
    # is (-6, 4, 2): U_sigma e_m = 0 holds column by column, while the
    # U-test with m and k swapped compares T(sigma, e_k) sigma_m instead
    ring = Ring(("a", "b", "c"))
    a, b, c = ring.gens()
    sigma = (-2, -2, -1)
    square = (-6 * a + 4 * b + 2 * c) ** 2
    p = JordanPresentation(ring, ("a", "b", "c"), (Fraction(1), Fraction(0), Fraction(0)),
                           a ** 3 + a * b * b + a * c * c + b * b * c,
                           tuple(Fraction(s, 4) * square for s in sigma))
    element = p.element(sigma)
    assert [jordan.trace_bilinear(p, element, p.basis_element(m)) for m in range(3)] \
        == [-6, 4, 2]
    assert _reference(p, sigma)["viaU"]
    assert jordan.radical_membership(p, sigma)


@cache
def _presentation(cube: str | tuple) -> JordanPresentation:
    """The parameter-free presentation at a representative or a cube."""
    P = hvariety.representative(cube) if isinstance(cube, str) else \
        coord8.Hypermatrix(dict(zip(coord8.INDEX_TRIPLES, cube)))
    return coord8.presentation(P)


def _reference(p: JordanPresentation, values) -> dict[str, bool]:
    """What ``nondegeneracy_test_equiv`` answers, from the symbolic
    U-operator, sharp map and trace form at ``p.element(values)`` against
    every basis vector."""
    sigma = p.element(values)
    basis = [p.basis_element(j) for j in range(p.dim())]
    via_u = all(c.is_zero() for e in basis for c in jordan.u_operator(p, sigma, e))
    sharp_zero = all(c.is_zero() for c in jordan.sharp_of(p, sigma))
    ortho = all(jordan.trace_bilinear(p, sigma, e).is_zero() for e in basis)
    return {"viaU": via_u, "viaTN": sharp_zero and ortho}


_small = st.fractions(min_value=-9, max_value=9, max_denominator=4)
_REPS = ("origin", "p1", "p2", "p3", "p4")


@settings(max_examples=30, deadline=None)
@given(cube=st.one_of(st.sampled_from(_REPS), st.tuples(*[_small] * 8)),
       kind=st.sampled_from(("zero", "random", "u-zero", "locus")),
       values=st.tuples(*[_small] * 9), seed=st.integers(0, 10**6))
def test_rational_tables_agree_with_symbolic_route(cube, kind, values, seed):
    p = _presentation(cube)
    if kind == "zero":
        values = (0,) * 9
    elif kind == "u-zero":
        values = values[:6] + (0, 0, 0)
    elif kind == "locus" and isinstance(cube, str) and cube != "p4":
        point = hvariety.radical_point(cube, random.Random(seed))
        values = tuple(point[n] for n in coord8.COORD_VARS)
    fast = jordan.nondegeneracy_test_equiv(p, values)
    assert fast == _reference(p, values)
    assert fast["viaU"] or not fast["viaTN"]
    assert jordan.radical_membership(p, values) == fast["viaU"]


def assert_parts_are_the_symbolic_values(p, values):
    # s# and T(s, e_j) over the tables' denominators are the sharp and the
    # trace form of the integer multiple s of sigma, as the symbolic
    # functions compute them
    tables = p._rational_tables
    s, sharp, trace = jordan._rational_parts(p, values)
    assert [Fraction(c, tables.sharp_den) for c in sharp] == \
        [c.constant_value() for c in jordan.sharp_of(p, p.element(s))]
    assert [Fraction(c, tables.gram_den) for c in trace] == \
        [jordan.trace_bilinear(p, p.element(s), p.basis_element(j)).constant_value()
         for j in range(p.dim())]


@settings(max_examples=20, deadline=None)
@given(cube=st.tuples(*[_small] * 8), values=st.tuples(*[_small] * 9))
@example(cube=(Fraction(2, 3),) + (0,) * 7, values=(Fraction(1, 2),) * 9)
def test_integer_parts_are_the_symbolic_values(cube, values):
    assert_parts_are_the_symbolic_values(_presentation(cube), values)


def test_integer_parts_at_a_unit_off_zero_and_one():
    # the first partials at the unit (2, 1/2, 1) carry a denominator too
    ring = Ring(("a", "b", "c"))
    a, b, c = ring.gens()
    p = JordanPresentation(ring, ("a", "b", "c"),
                           (Fraction(2), Fraction(1, 2), Fraction(1)),
                           a * b * c, (b * c, c * a, a * b))
    assert_parts_are_the_symbolic_values(p, (1, Fraction(-2, 3), 5))


@pytest.mark.parametrize("name,radical", [
    ("p1", {"x11": 1, "x22": Fraction(-4, 5), "x13": 3}),
    ("p3", {"x11": Fraction(5, 7), "x12": -2, "x23": Fraction(1, 3)})])
def test_integer_u_test_finds_a_radical_at_a_non_integral_cube(name, radical):
    # the representative scaled by 2/3 keeps its radical; its tables carry
    # denominators, which the integer U-test cross-multiplies
    cube = tuple(Fraction(2, 3) * hvariety.representative(name).entries[t]
                 for t in coord8.INDEX_TRIPLES)
    p = _presentation(cube)
    assert p._rational_tables.sharp_den > 1
    off = {**radical, "x21": Fraction(1, 2)}
    for named, want in ((radical, True), (off, False)):
        values = _values(named)
        assert jordan.radical_membership(p, values) is want
        assert _reference(p, values)["viaU"] is want
        assert jordan.nondegeneracy_test_equiv(p, values) == _reference(p, values)


@settings(max_examples=30, deadline=None)
@given(cube=st.one_of(st.sampled_from(_REPS), st.tuples(*[_small] * 8)),
       locus=st.booleans(), values=st.tuples(*[_small] * 9),
       seed=st.integers(0, 10**6))
@example(cube="p2", locus=True, values=(0,) * 9, seed=0)  # a locus with a quadric
def test_radical_tests_are_homogeneous_in_sigma(cube, locus, values, seed):
    # the rational route scales sigma to an integer vector, which is exact
    # only because both tests are homogeneous in sigma
    p = _presentation(cube)
    if locus and isinstance(cube, str) and cube != "p4":
        point = hvariety.radical_point(cube, random.Random(seed))
        values = tuple(point[n] for n in coord8.COORD_VARS)
    scaled = [Fraction(3, 7) * v for v in values]
    tests = jordan.nondegeneracy_test_equiv(p, values)
    assert jordan.nondegeneracy_test_equiv(p, scaled) == tests
    assert _reference(p, values) == tests
    assert jordan.radical_membership(p, scaled) == jordan.radical_membership(p, values) \
        == tests["viaU"]


def peirce_operator(p: JordanPresentation, x1, x2, y):
    """Bilinearized operator U_{x1+x2}(y) - U_{x1}(y) - U_{x2}(y).

    Applied to two of the complementary idempotents it projects onto the
    off-diagonal Peirce space they span.
    """
    both = jordan.u_operator(p, tuple(a + b for a, b in zip(x1, x2)), y)
    first = jordan.u_operator(p, x1, y)
    second = jordan.u_operator(p, x2, y)
    return tuple(both[i] - first[i] - second[i] for i in range(p.dim()))


def test_peirce_operator_projects_to_pair_space(symbolic_presentation):
    # the operator attached to two idempotents projects onto the span of
    # the complementary coordinate pair
    p = symbolic_presentation
    y = p.generic_element()
    v1 = p.basis_element(6)
    v2 = p.basis_element(7)
    image = peirce_operator(p, v1, v2, y)
    expected = {"x13", "x23"}
    for name, comp in zip(p.coords, image):
        if name in expected:
            assert comp == p.ring.var(name)
        else:
            assert comp.is_zero()


def gram_by_derivatives(p: JordanPresentation):
    """Reference for ``_trace_form``: differentiate the cubic, then
    substitute the unit."""
    at_unit = {n: p.ring.const(v) for n, v in p.unit_values().items()}
    firsts = [p.cubic.derivative(n) for n in p.coords]
    grad = [d.substitute(at_unit) for d in firsts]
    hess = [[d.derivative(n).substitute(at_unit) for n in p.coords] for d in firsts]
    return hess, grad


def assert_trace_form_matches_derivatives(p: JordanPresentation):
    """``trace`` is the gradient at the unit, and the table holds
    g_i g_j - h_ij for every nonzero pair and no other key."""
    hess, grad = gram_by_derivatives(p)
    trace, table = p._trace_form
    assert trace == grad
    n = p.dim()
    expected = {(i, j): t for i in range(n) for j in range(n)
                if not (t := grad[i] * grad[j] - hess[i][j]).is_zero()}
    assert table == expected


def test_gram_matches_derivatives_symbolic(symbolic_presentation):
    assert_trace_form_matches_derivatives(symbolic_presentation)


def test_gram_matches_derivatives_at_a_unit_off_zero_and_one():
    # unit (2, 1/2, 1) with squared coordinates: unit powers other than 0 and 1
    ring = Ring(("a", "b", "c", "t"))
    a, b, c, t = ring.gens()
    p = JordanPresentation(
        ring=ring, coords=("a", "b", "c"),
        unit=(Fraction(2), Fraction(1, 2), Fraction(1)),
        cubic=a * b * c + (2 * b - c) * a * a * t + 3 * c ** 3 - 6 * c * c * b,
        sharp=(b * c, c * a, a * b))
    assert_trace_form_matches_derivatives(p)
    assert_trace_form_matches_derivatives(diagonal_presentation())


@settings(max_examples=10, deadline=None)
@given(cube=st.one_of(st.sampled_from(_REPS), st.tuples(*[_small] * 8)))
def test_gram_matches_derivatives_rational(cube):
    assert_trace_form_matches_derivatives(_presentation(cube))
