"""Weights, homogeneity solving, resolution shifts, Hilbert arithmetic."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicjordan import grading, hvariety, relatives
from cubicjordan.coord8 import ALL_VARS
from cubicjordan.errors import InfeasibleWeights, InputError, NumeratorNotDivisible
from cubicjordan.exactcore import EquationSet, Poly, Report, Ring


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


def monomial_weight(names, mono, w) -> Fraction:
    """Reference weight of a monomial: a ``Fraction`` sum, one variable at a
    time; the first variable without a weight is an ``InputError``."""
    total = Fraction(0)
    for i, e in enumerate(mono):
        if e:
            if names[i] not in w:
                raise InputError(f"no weight assigned to {names[i]!r}")
            total += e * w[names[i]]
    return total


def homogeneity_reference(eqs, w) -> Report:
    """Reference for ``check_homogeneous``, each monomial weighed by
    ``monomial_weight`` in generator and term order."""
    ws = grading.weight_system(w)
    weights, failures = [], []
    for i, g in enumerate(eqs.gens):
        seen = sorted({monomial_weight(eqs.ring.names, eqs.ring.unpack(m), ws) for m in g.terms})
        weights.append(str(seen[0]) if len(seen) == 1 else "None")
        if len(seen) > 1:
            failures.append(f"{eqs.labels[i]}: monomial weights {', '.join(map(str, seen))}")
    data = {"weights": weights}
    if failures:
        data["failures"] = failures
    return Report(not failures, data)


_weight = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _weighted_equations(draw):
    """An equation set and weights for every variable: the nine generators of
    the variety under random, scaled standard (homogeneous) or scaled and
    perturbed standard weights, or random polynomials in three variables."""
    scale = draw(_weight.filter(bool))
    if draw(st.booleans()):
        eqs = hvariety.equations()
        kind = draw(st.sampled_from(("random", "standard", "perturbed")))
        if kind == "random":
            return eqs, {n: draw(_weight) for n in eqs.ring.names}
        w = {n: scale * v for n, v in grading.standard_weights().items()}
        if kind == "perturbed":
            name = draw(st.sampled_from(eqs.ring.names))
            w[name] += draw(_weight.filter(bool))
        return eqs, w
    ring = Ring(("a", "b", "c"))
    monos = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5).filter(bool),
                            min_size=1, max_size=4)
    gens = tuple(Poly(ring, {ring.pack(m): c for m, c in t.items()})
                 for t in draw(st.lists(monos, min_size=1, max_size=4)))
    labels = tuple(f"g{i}" for i in range(len(gens)))
    return EquationSet(ring, gens, labels), {n: draw(_weight) for n in ring.names}


@settings(max_examples=40, deadline=None)
@given(_weighted_equations())
def test_integer_weights_are_the_fraction_sums(case):
    eqs, w = case
    assert grading.check_homogeneous(eqs, w) == homogeneity_reference(eqs, w)


def test_a_missing_weight_names_the_first_variable_met():
    # a and d have no weight; the first one met, in generator and term
    # order, is named, not the first in ring order
    ring = Ring(("a", "b", "c", "d"))
    a, b, c, d = ring.gens()
    w = {"b": 1, "c": Fraction(1, 2)}
    for gens, first in (((b * b + d, a * c), "d"), ((a * c, b * b + d), "a"),
                        ((b * b, d + a * b), "d"), ((b * b, a * b + d), "a")):
        eqs = EquationSet(ring, gens, ("g1", "g2"))
        for check in (grading.check_homogeneous, homogeneity_reference):
            with pytest.raises(InputError, match=f"^no weight assigned to '{first}'$"):
                check(eqs, w)


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


def lattice_text(lattice):
    """The particular solution, then each basis vector, as one line each."""
    assert all(type(x) is Fraction for v in (lattice.particular, *lattice.basis) for x in v)
    return [" ".join(map(str, v)) for v in (lattice.particular, *lattice.basis)]


def test_the_equations_lattice_is_pinned():
    lattice = grading.solve_weight_constraints(hvariety.equations())
    assert lattice.variables == ALL_VARS
    assert lattice_text(lattice) == [
        "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        "0 0 1/2 1/2 1/2 1/2 1 0 0 0 0 0 0 0 0 0 0",
        "1/2 1/2 0 0 1/2 1/2 0 1 0 0 0 0 0 0 0 0 0",
        "1/2 1/2 1/2 1/2 0 0 0 0 1 0 0 0 0 0 0 0 0",
        "-1/2 -1/2 -1/2 -1/2 0 -1 0 0 0 1 1 1 1 0 0 0 0",
        "-1/2 -1/2 0 -1 -1/2 -1/2 0 0 0 1 1 0 0 1 1 0 0",
        "0 -1 -1/2 -1/2 -1/2 -1/2 0 0 0 1 0 1 0 1 0 1 0",
        "0 1 0 1 0 1 0 0 0 -2 -1 -1 0 -1 0 0 1"]


def test_infeasible_fixing():
    ring = Ring(("a", "b"))
    a, b = ring.gens()
    eqs = EquationSet(ring, (a * a + b * b,), ("g",))
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
        assert can.ok
        assert grading.shift_pairing_holds(grading.resolution_shifts(full))


# -- canonical arithmetic ----------------------------------------------------------


def test_standard_canonical_numbers():
    can = grading.canonical_arithmetic(grading.standard_weights()).data
    assert (can["c"], can["d"], can["delta"]) == (4, 6, 10)
    assert can["sum"] == 20 == 4 * can["d"] - can["c"]
    assert can["variety_twist"] == -10
    assert can["ambient_twist"] == -20


def test_uniform_toy_weights():
    w = {name: Fraction(1) for name in ALL_VARS}
    can = grading.canonical_arithmetic(w).data
    assert (can["c"], can["d"]) == (3, 3)
    assert can["variety_twist"] == -3


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
    assert grading.shift_pairing_holds(grading.resolution_shifts(grading.standard_weights()))


def _moved_third_shift(shifts):
    shifts[3][0] += 1


def _first_shift_repeated(shifts):
    # the last first-term shift (4) becomes a second copy of the first (3):
    # the same set of values, another multiset
    assert shifts[1][0] != shifts[1][-1]
    shifts[1][-1] = shifts[1][0]


@pytest.mark.parametrize("tamper", [_moved_third_shift, _first_shift_repeated])
def test_shift_pairing_fails_on_tampered_shifts(tamper):
    shifts = grading.resolution_shifts(grading.standard_weights())
    tamper(shifts)
    assert not grading.shift_pairing_holds(shifts)


def standard_numerator() -> dict:
    return grading.hilbert_numerator(grading.resolution_shifts(grading.standard_weights()))


def test_numerator_exact_form():
    num = standard_numerator()
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
    num = standard_numerator()
    assert grading.numerator_is_palindromic(num, 10)
    assert vanishing_order_at_one(num) == 4


def test_fano_invariants_standard():
    fano = grading.fano_invariants(grading.standard_weights(), standard_numerator(), sections=9)
    assert fano["degree"] == Fraction(11, 2)
    assert fano["h0"] == 5
    assert fano["genus"] == 3
    assert fano["dimension"] == 3


def test_fano_requires_enough_sections():
    w = grading.standard_weights()
    with pytest.raises(ValueError):
        grading.fano_invariants(w, standard_numerator(), sections=15)


@pytest.mark.parametrize("weights,sections,message", [
    # the bound comes first: the standard grading has 14 weight-one coordinates
    ({}, 15, "the number of sections must be at most 12"),
    # three of the weight-one pair coordinates moved to weight two leave 11
    ({"x11": 2, "x21": 2, "x12": 2}, 12, "not enough coordinates of the section weight"),
])
def test_fano_section_count_errors(weights, sections, message):
    w = {**grading.standard_weights(), **weights}
    with pytest.raises(InputError, match=message):
        grading.fano_invariants(w, standard_numerator(), sections=sections)


def test_ambient_series_control():
    # with no sections the series of the full coordinate ring is recovered;
    # its first coefficients count monomials of each weight
    coeffs = grading.series_coefficients(
        {0: Fraction(1)}, [1] * 14 + [2] * 3, order=2)
    assert coeffs[0] == 1
    assert coeffs[1] == 14
    assert coeffs[2] == 14 * 15 // 2 + 3


def naive_series(num: dict, weights, order: int) -> list:
    """num times the geometric series 1 + t^a + t^2a + ... of each weight
    a, all truncated after t^order, multiplied out term by term."""
    coeffs = [num.get(e, Fraction(0)) for e in range(order + 1)]
    for a in weights:
        geometric = [int(e % a == 0) for e in range(order + 1)]
        coeffs = [sum(coeffs[k] * geometric[e - k] for k in range(e + 1))
                  for e in range(order + 1)]
    return coeffs


@pytest.mark.parametrize("sections", [0, 9])
@pytest.mark.parametrize("extra", [(), (37,)])
def test_series_coefficients_match_geometric_products(sections, extra):
    # the standard numerator over its remaining weights, and over one more
    # weight beyond the order, whose factor is 1 up to t^30
    w = grading.standard_weights()
    weights = sorted(map(int, w.values()))[sections:] + list(extra)
    num = standard_numerator()
    assert grading.series_coefficients(num, weights, 30) == naive_series(num, weights, 30)


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
