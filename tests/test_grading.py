"""Weights, homogeneity solving, resolution shifts, Hilbert arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicjordan import grading, hvariety, relatives
from cubicjordan.coord8 import ALL_VARS
from cubicjordan.errors import InfeasibleWeights, NumeratorNotDivisible
from cubicjordan.exactcore import EquationSet, Ring


def test_standard_weights_homogeneous():
    eqs = hvariety.equations()
    rep = grading.check_homogeneous(eqs, grading.standard_weights())
    assert rep == (True, {"weights": ["3"] * 6 + ["4"] * 3})


def test_clash_reporting():
    ring = Ring(("a", "b"))
    a, b = ring.gens()
    eqs = EquationSet(ring, (a * a + b,), ("g",))
    rep = grading.check_homogeneous(eqs, {"a": 1, "b": 1})
    assert rep == (False, {"weights": ["None"], "failures": ["g: monomial weights 1, 2"]})


def test_bigraded_rows_checked_separately():
    eqs = hvariety.equations()
    r1, r2 = grading.toric_weight_matrix("base")
    assert grading.check_bigraded(eqs, r1, r2) == (
        True, {"row1": grading.check_homogeneous(eqs, r1).data["weights"],
               "row2": grading.check_homogeneous(eqs, r2).data["weights"]})


def test_all_three_weight_matrices_bigrade_the_equations():
    eqs = hvariety.equations()
    for kind in ("base", "shifted", "swapped"):
        r1, r2 = grading.toric_weight_matrix(kind)
        assert grading.check_bigraded(eqs, r1, r2).ok, kind


def test_row_operation_equivalence():
    assert grading.toric_matrices_row_equivalent().ok


@pytest.mark.parametrize("kind,row", [("shifted", 0), ("shifted", 1),
                                      ("swapped", 0), ("swapped", 1)])
@pytest.mark.parametrize("name", ["v", "u3", "x11", "p111"])
def test_row_operation_claim_fails_on_one_changed_entry(monkeypatch, kind, row, name):
    written = grading.toric_weight_matrix

    def changed(k="base"):
        rows = list(written(k))
        if k == kind:
            rows[row] = {**rows[row], name: rows[row][name] + 1}
        return tuple(rows)

    monkeypatch.setattr(grading, "toric_weight_matrix", changed)
    assert not grading.toric_matrices_row_equivalent().ok


def test_published_example_weights():
    h12 = relatives.dictionary("h12").specialize()
    rep = grading.check_homogeneous(h12, grading.example_5052_weights())
    assert rep.ok


# -- solver ---------------------------------------------------------------------


def test_lattice_contains_standard_weights():
    lattice = grading.solve_weight_constraints(hvariety.equations())
    assert lattice.contains(grading.standard_weights())


def test_lattice_rejects_non_solution():
    lattice = grading.solve_weight_constraints(hvariety.equations())
    bad = grading.standard_weights()
    bad["x11"] = Fraction(5)
    assert not lattice.contains(bad)


def test_infeasible_fixing():
    ring = Ring(("a", "b"))
    a, b = ring.gens()
    eqs = EquationSet(ring, (a * a + b * b,))
    with pytest.raises(InfeasibleWeights):
        grading.solve_weight_constraints(eqs, {"a": 1, "b": 2})


def test_random_lattice_points_satisfy_weight_sum_identity():
    # on positive lattice points the seventeen weights sum to 4d - c.  A
    # candidate is particular + sum (a/b) basis with b in {1, 2}, built in
    # integers over 2L, where L clears every denominator of the lattice.
    eqs = hvariety.equations()
    lattice = grading.solve_weight_constraints(eqs)
    L = math.lcm(*(x.denominator for vec in (lattice.particular, *lattice.basis)
                   for x in vec))
    particular = [int(2 * L * x) for x in lattice.particular]
    basis = [[int(L * x) for x in vec] for vec in lattice.basis]
    at = {name: i for i, name in enumerate(lattice.variables)}
    rng = random.Random("lattice-points")
    found = 0
    while found < 20:
        doubled = [rng.randint(0, 3) * 2 // rng.randint(1, 2) for _ in basis]
        nums = [p + sum(c * vec[i] for c, vec in zip(doubled, basis))
                for i, p in enumerate(particular)]
        full = {n: nums[at[n]] if n in at else 0 for n in ALL_VARS}
        if any(v <= 0 for v in full.values()):
            continue
        found += 1
        full = {n: Fraction(v, 2 * L) for n, v in full.items()}
        assert grading.check_homogeneous(eqs, full).ok
        can = grading.canonical_arithmetic(full)
        assert can.consistent
        assert grading.shift_pairing_holds(full)


# -- canonical arithmetic ----------------------------------------------------------


def test_standard_canonical_numbers():
    can = grading.canonical_arithmetic(grading.standard_weights())
    assert (can.c, can.d, can.delta) == (4, 6, 10)
    assert can.weight_sum == 20 == 4 * can.d - can.c
    assert can.variety_dualizing_twist == -10
    assert can.ambient_dualizing_twist == -20


def test_uniform_toy_weights():
    w = {name: Fraction(1) for name in ALL_VARS}
    can = grading.canonical_arithmetic(w)
    assert (can.c, can.d) == (3, 3)
    assert can.variety_dualizing_twist == -3


def test_positive_weights_required():
    w = grading.standard_weights()
    w["x11"] = Fraction(0)
    with pytest.raises(ValueError):
        grading.canonical_arithmetic(w)


# -- resolution shifts and numerator -------------------------------------------------


def test_shift_multiset_sizes():
    shifts = grading.resolution_shifts(grading.standard_weights())
    assert [len(s) for s in shifts] == [1, 9, 16, 9, 1]


def test_shift_pairing():
    assert grading.shift_pairing_holds(grading.standard_weights())


def test_numerator_exact_form():
    num = grading.hilbert_numerator(grading.standard_weights())
    assert num == {0: 1, 3: -6, 4: -1, 5: 12, 6: -1, 7: -6, 10: 1}
    assert grading.poly1_str(num) == \
        "1 - 6*t^3 - t^4 + 12*t^5 - t^6 - 6*t^7 + t^10"


def poly1_eval(a: dict, t) -> Fraction:
    t = Fraction(t)
    return sum((c * t ** e for e, c in a.items()), Fraction(0))


def divide_by_one_minus_t(a: dict) -> dict:
    """Exact quotient a / (1 - t) by synthetic division at the root t = 1;
    raises when (1 - t) does not divide.  Reference for
    ``grading._order_four_residue``; exponents must not be negative."""
    if not a:
        return {}
    out = {}
    carry = Fraction(0)
    # dividing by (1 - t) negates the quotient of division by (t - 1)
    for e in range(max(a), -1, -1):
        carry += a.get(e, Fraction(0))
        if e == 0:
            if carry != 0:
                raise NumeratorNotDivisible("numerator does not vanish at t = 1")
        elif carry:
            out[e - 1] = -carry
    return out


def vanishing_order_at_one(num: dict) -> int:
    """Multiplicity of t = 1 as a root of a one-variable polynomial."""
    order = 0
    while num and poly1_eval(num, 1) == 0:
        num = divide_by_one_minus_t(num)
        order += 1
    return order


def test_numerator_palindromic_and_vanishing_order():
    num = grading.hilbert_numerator(grading.standard_weights())
    assert grading.numerator_is_palindromic(num, 10)
    assert vanishing_order_at_one(num) == 4


def test_fano_invariants_standard():
    fano = grading.fano_invariants(grading.standard_weights(), sections=9)
    assert fano.degree == Fraction(11, 2)
    assert fano.h0 == 5
    assert fano.genus == 3
    assert fano.dimension == 3


def test_fano_requires_enough_sections():
    w = grading.standard_weights()
    with pytest.raises(ValueError):
        grading.fano_invariants(w, sections=15)


def test_ambient_series_control():
    # with no sections the series of the full coordinate ring is recovered;
    # its first coefficients count monomials of each weight
    coeffs = grading.series_coefficients(
        {0: Fraction(1)}, [1] * 14 + [2] * 3, order=2)
    assert coeffs[0] == 1
    assert coeffs[1] == 14
    assert coeffs[2] == 14 * 15 // 2 + 3


def test_divide_by_one_minus_t_exact():
    # 1 - t^3 = (1 - t)(1 + t + t^2)
    q = divide_by_one_minus_t({0: Fraction(1), 3: Fraction(-1)})
    assert q == {0: 1, 1: 1, 2: 1}
    with pytest.raises(NumeratorNotDivisible):
        divide_by_one_minus_t({0: Fraction(1)})


_terms = st.dictionaries(st.integers(-6, 12), st.fractions(-5, 5, max_denominator=3)
                         .filter(bool), max_size=6)


@settings(max_examples=100, deadline=None)
@given(factor=_terms, extra=st.one_of(st.just({}), _terms), order=st.integers(2, 6))
@example(factor={0: Fraction(1), 3: Fraction(-1)}, extra={}, order=4)
@example(factor={-3: Fraction(2), 1: Fraction(1, 2)}, extra={}, order=5)
@example(factor={-2: Fraction(1)}, extra={}, order=4)
def test_order_four_residue_is_four_divisions(factor, extra, order):
    # num = (1 - t)^order * factor + extra, a Laurent polynomial; shifting it
    # by t^m changes neither its order at t = 1 nor q(1), so the reference
    # divides the shifted polynomial
    num = dict(extra)
    for e, c in factor.items():
        for k in range(order + 1):
            term = c * (-1) ** k * math.comb(order, k)
            num[e + k] = num.get(e + k, 0) + term
    num = {e: c for e, c in num.items() if c}
    shift = -min(num, default=0)
    quotient = {e + shift: c for e, c in num.items()}
    try:
        for _ in range(4):
            quotient = divide_by_one_minus_t(quotient)
    except NumeratorNotDivisible:
        with pytest.raises(NumeratorNotDivisible, match="^numerator lacks vanishing "
                           "order 4 at t = 1; wrong weights$"):
            grading._order_four_residue(num)
    else:
        assert grading._order_four_residue(num) == poly1_eval(quotient, 1)


@settings(max_examples=200, deadline=None)
@given(num=st.dictionaries(st.integers(-3, 12), st.integers(-2, 2), max_size=8),
       delta=st.integers(-2, 12))
def test_palindromy_compares_degrees_zero_to_delta(num, delta):
    # zero coefficients are kept: 0 and a missing term differ, as before
    want = all(num.get(e) == num.get(delta - e) for e in range(delta + 1))
    assert grading.numerator_is_palindromic(num, delta) == want


def test_weight_file_parsing():
    w = grading.parse_weight_file('{"x11": "1", "u1": "2"}')
    assert w == {"x11": 1, "u1": 2}
    w1, w2 = grading.parse_weight_file('{"x11": ["1", "-1"], "u1": "2"}')
    assert w1["x11"] == 1 and w2["x11"] == -1
    assert w1["u1"] == w2["u1"] == 2
