"""Arithmetic core: polynomials, matrices, spans."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicjordan.errors import ContextError, ShapeError, SkewError
from cubicjordan.exactcore import (EquationSet, Poly, PolyMatrix, Ring,
                                   directional_derivative, nullspace, rank,
                                   solve_linear, span_compare)

R = Ring(("x", "y", "z"))
X, Y, Z = R.gens()

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def poly_strategy(max_terms=4, max_degree=3):
    exponent = st.tuples(*([st.integers(0, max_degree)] * 3))
    term = st.tuples(exponent, rationals)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum((Poly(R, {e: Fraction(1)}) * c for e, c in terms),
                          R.zero()))


# -- polynomial arithmetic ---------------------------------------------------


def test_difference_of_squares():
    assert (X + 1) * (X - 1) == X * X - 1


def test_cancellation_gives_zero():
    p = X ** 2 * Y ** 2
    assert (p - p).is_zero()


def test_mixed_context_rejected():
    other = Ring(("a", "b"))
    with pytest.raises(ContextError):
        X + other.var("a")


def test_canonical_string_is_graded_lex():
    p = X * X - 1 + 3 * Y
    assert p.to_str() == "x^2 + 3*y - 1"


def test_substitute_and_evaluate():
    p = X ** 2 + Y
    q = p.substitute({"x": Y + 1})
    assert q == Y ** 2 + 3 * Y + 1
    assert p.evaluate({"x": Fraction(2), "y": Fraction(1, 2)}) == Fraction(9, 2)


def test_convert_between_rings():
    big = R.extend(("w",))
    assert (X + Y).convert(big) == big.var("x") + big.var("y")
    small = Ring(("x",))
    with pytest.raises(ContextError):
        (X + Y).convert(small)


def test_homogeneity_queries():
    p = X * Y + Z ** 2
    assert p.is_homogeneous_in(("x", "y", "z"), 2)
    assert not (p + X).is_homogeneous_in(("x", "y", "z"))
    assert p.degree_in(("x",)) == 1


# -- directional derivative --------------------------------------------------


def test_univariate_power_rule():
    assert directional_derivative(X ** 3, {"x": 1}) == 3 * X ** 2


def test_partial_direction():
    f = X * Y * Z
    assert directional_derivative(f, {"x": 1, "y": 0, "z": 0}) == Y * Z


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_product_rule(f, g):
    direction = {"x": Y, "y": R.one(), "z": X}
    lhs = directional_derivative(f * g, direction)
    rhs = f * directional_derivative(g, direction) \
        + g * directional_derivative(f, direction)
    assert lhs == rhs


@given(poly_strategy())
@settings(max_examples=30, deadline=None)
def test_derivative_linear_in_direction(f):
    d1 = {"x": X, "y": Y, "z": R.zero()}
    d2 = {"x": R.one(), "y": Z, "z": Y}
    combined = {k: d1[k] + d2[k] for k in d1}
    assert directional_derivative(f, combined) == \
        directional_derivative(f, d1) + directional_derivative(f, d2)


# -- matrices -----------------------------------------------------------------


def test_two_by_two_adjugate():
    m = PolyMatrix.from_rows(R, [[X, Y], [Z, 1]])
    adj = m.adjugate()
    assert adj.entries == [R.const(1), -Y, -Z, X]


def matrix_strategy(n):
    entry = st.tuples(rationals, rationals, rationals, rationals).map(
        lambda c: c[0] + c[1] * X + c[2] * Y + c[3] * Z)
    return st.lists(st.lists(entry, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(
        lambda rows: PolyMatrix.from_rows(R, rows))


@given(matrix_strategy(3))
@settings(max_examples=25, deadline=None)
def test_adjugate_identity(m):
    product = m * m.adjugate()
    det = m.det()
    expected = PolyMatrix.identity(R, 3).scale(det)
    assert product.entries == expected.entries


def skew5_strategy():
    upper = st.lists(rationals, min_size=10, max_size=10)

    def build(vals):
        rows = [[R.zero() for _ in range(5)] for _ in range(5)]
        it = iter(vals)
        for i in range(5):
            for j in range(i + 1, 5):
                v = R.const(next(it))
                rows[i][j] = v
                rows[j][i] = -v
        return PolyMatrix.from_rows(R, rows)

    return upper.map(build)


def test_pfaffian_sign_convention():
    m = PolyMatrix.from_rows(R, [[0, X], [-X, R.zero()]])
    assert m.pfaffian() == X


def test_pfaffian_rejects_non_skew():
    m = PolyMatrix.from_rows(R, [[0, X], [X, 0]])
    with pytest.raises(SkewError):
        m.pfaffian()


def test_det_requires_square():
    m = PolyMatrix.from_rows(R, [[X, Y]])
    with pytest.raises(ShapeError):
        m.det()


@given(skew5_strategy())
@settings(max_examples=25, deadline=None)
def test_sub_pfaffian_squares_are_principal_minors(m):
    pfs = m.sub_pfaffians()
    for i in range(5):
        keep = [k for k in range(5) if k != i]
        sub = PolyMatrix.from_rows(R, [[m.get(a, b) for b in keep] for a in keep])
        assert pfs[i] * pfs[i] == sub.det()


# -- linear algebra and spans --------------------------------------------------


def test_solve_and_rank():
    A = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert rank(A) == 1
    assert solve_linear(A, [Fraction(3), Fraction(6)]) is not None
    assert solve_linear(A, [Fraction(3), Fraction(7)]) is None
    basis = nullspace(A, 2)
    assert len(basis) == 1


sparse_rationals = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def linear_systems(draw):
    """A small rational matrix A (m x n, possibly m = 0) and a vector b."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    row = st.lists(sparse_rationals, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    # repeat a row now and then so that rank deficiency is common
    if rows and draw(st.booleans()):
        rows.append([2 * v for v in rows[0]])
    rhs = draw(st.lists(sparse_rationals, min_size=len(rows), max_size=len(rows)))
    return rows, n, rhs


def apply(rows, x):
    return [sum((a * v for a, v in zip(r, x)), Fraction(0)) for r in rows]


@given(linear_systems())
@settings(max_examples=50, deadline=None)
def test_elimination_routines_agree(system):
    rows, n, rhs = system
    x = solve_linear(rows, rhs)
    augmented = [[*r, b] for r, b in zip(rows, rhs)]
    assert (x is None) == (rank(augmented) > rank(rows))
    if x is not None:
        assert apply(rows, x) == rhs
        assert len(x) == (n if rows else 0)  # no rows: n is unknown
    basis = nullspace(rows, n)
    assert rank(rows) + len(basis) == n
    assert rank(basis) == len(basis)
    for v in basis:
        assert apply(rows, v) == [0] * len(rows)


def coefficient_rows(polys, support):
    return [[p.terms.get(m, Fraction(0)) for m in support] for p in polys]


@given(st.lists(poly_strategy(max_terms=3, max_degree=1), max_size=3),
       st.lists(poly_strategy(max_terms=3, max_degree=1), max_size=3),
       st.lists(st.lists(sparse_rationals, min_size=3, max_size=3), max_size=2))
@settings(max_examples=50, deadline=None)
def test_span_compare_matches_ranks(a, b, mixes):
    # some of b are combinations of a, so containment is common
    b = b + [sum((c * g for c, g in zip(mix, a)), R.zero()) for mix in mixes]
    result = span_compare(a, b)
    support = sorted({m for p in a + b for m in p.terms})
    rows_a, rows_b = coefficient_rows(a, support), coefficient_rows(b, support)
    for gens, rows, targets, witnesses in ((a, rows_a, b, result.b_in_a),
                                            (b, rows_b, a, result.a_in_b)):
        assert len(witnesses) == len(targets)
        for target, target_row, w in zip(targets, coefficient_rows(targets, support),
                                          witnesses):
            if w is None:
                assert rank(rows + [target_row]) > rank(rows)
            else:
                assert len(w) == len(gens)
                assert sum((c * g for c, g in zip(w, gens)), R.zero()) == target
    both = rank(rows_a + rows_b)
    expected = {(True, True): "equal", (True, False): "a_contains_b",
                (False, True): "b_contains_a", (False, False): "incomparable"}
    assert result.relation == expected[both == rank(rows_a), both == rank(rows_b)]


def test_span_change_of_basis():
    result = span_compare([X + Y, X - Y], [X, Y])
    assert result.relation == "equal"
    assert all(w is not None for w in result.b_in_a)
    # equality is symmetric in the arguments
    assert span_compare([X, Y], [X + Y, X - Y]).relation == "equal"


def test_span_strict_containment():
    result = span_compare([X ** 2], [X ** 2, X * Y])
    assert result.relation == "b_contains_a"
    assert result.failing_generators()["b_not_in_a"] == [1]


def test_span_incomparable():
    assert span_compare([X], [Y]).relation == "incomparable"


@given(st.lists(poly_strategy(), min_size=1, max_size=3),
       st.fractions(min_value=1, max_value=5, max_denominator=3))
@settings(max_examples=25, deadline=None)
def test_span_reflexive_and_scale_invariant(gens, c):
    assert span_compare(gens, gens).relation == "equal"
    scaled = [g * c for g in gens]
    assert span_compare(gens, scaled).relation == "equal"


def test_span_witness_expresses_generators():
    a = [X + Y, X - Y]
    b = [2 * X, 3 * Y]
    result = span_compare(a, b)
    assert result.relation == "equal"
    # reconstruct each b generator from the witness coefficients
    for coeffs, target in zip(result.b_in_a, b):
        combo = sum((c * g for c, g in zip(coeffs, a)), R.zero())
        assert combo == target


def test_equation_set_validation():
    with pytest.raises(ValueError):
        EquationSet(R, (X,), ("a", "b"))
    other = Ring(("a",))
    with pytest.raises(ContextError):
        EquationSet(R, (other.var("a"),))
