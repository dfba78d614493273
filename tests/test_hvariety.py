"""Defining equations, group action, orbits, fibers, charts and sampling."""

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cubicjordan import coord8, hvariety, jordan, relatives
from cubicjordan.coord8 import (ALL_VARS, COORD_VARS, PARAM_VARS, Hypermatrix, coord_ring,
                                symbolic_cube)
from cubicjordan.errors import ContextError, ShapeError, SingularGroupElement
from cubicjordan.exactcore import EquationSet, PolyMatrix, evaluate_all, rank, span_compare
from cubicjordan.hvariety import GroupElement, representative


def test_nine_generators_in_fixed_order():
    eqs = hvariety.equations()
    assert len(eqs) == 9
    assert eqs.labels == hvariety.GEN_LABELS


def test_generators_bihomogeneous_in_algebra_coordinates():
    eqs = hvariety.equations()
    for g in eqs.gens:
        assert g.is_homogeneous_in(COORD_VARS, 2)


def test_last_generator_display():
    eqs = hvariety.equations()
    ring = eqs.ring
    v = ring.var
    d3 = (v("p111") * v("x23") - v("p112") * v("x13"),
          v("p121") * v("x23") - v("p122") * v("x13"),
          v("p211") * v("x23") - v("p212") * v("x13"),
          v("p221") * v("x23") - v("p222") * v("x13"))
    det = -d3[1] * d3[2] + d3[0] * d3[3]
    assert eqs.gens[8] == v("u1") * v("u2") + det


# -- group action -------------------------------------------------------------


def test_factor_certificates_all_rules():
    for r in (1, 2, 3):
        rep = hvariety.factor_equivariance_certificate(r)
        assert rep.ok, rep.data["failures"]


def test_permutation_certificates():
    for perm in ((2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1)):
        rep = hvariety.permutation_certificate(perm)
        assert rep.ok, rep.data["failures"]


def test_swap_certificate():
    assert hvariety.swap_all_factors_certificate().ok


def test_equivariance_certificates_fail_on_a_perturbed_generator(monkeypatch):
    # g4 + x11 x12 transforms by no rule of the action, and each certificate
    # says where it breaks
    real = hvariety.equations
    g4 = hvariety.GEN_LABELS.index("g4")

    def perturbed(ring=None):
        eqs = real(ring)
        gens = list(eqs.gens)
        gens[g4] += eqs.ring.var("x11") * eqs.ring.var("x12")
        return EquationSet(eqs.ring, tuple(gens), eqs.labels)

    monkeypatch.setattr(hvariety, "equations", perturbed)
    for r in (1, 2, 3):
        rep = hvariety.factor_equivariance_certificate(r)
        assert not rep.ok
        assert rep.data["failures"] == [f"factor {r}: generator g4 transforms incorrectly"]
    for perm, moved in (((2, 3, 1), "g6"), ((2, 1, 3), "g5")):
        rep = hvariety.permutation_certificate(perm)
        assert not rep.ok
        assert rep.data["failures"] == [f"perm {perm}: image of {lbl} is not a signed generator"
                                        for lbl in ("g4", moved)] + \
            [f"perm {perm}: span changed (incomparable)"]
    rep = hvariety.swap_all_factors_certificate()
    assert not rep.ok
    assert rep.data["failures"] == ["triple swap: span changed (incomparable)"]


def test_singular_factor_rejected():
    ring = coord_ring(True)
    bad = PolyMatrix.from_rows(ring, [[1, 2], [2, 4]])
    with pytest.raises(SingularGroupElement):
        GroupElement(g1=bad).validate()


def test_group_factor_over_another_ring_is_refused():
    # a factor's entries are read in place, never moved into ``ring``
    factor = PolyMatrix.from_rows(coord_ring(True), [[1, 1], [0, 1]])
    with pytest.raises(ContextError):
        hvariety.substitution_of(GroupElement(g1=factor), coord_ring(True, ("zz",)))


def _moved_point(g, point, names=ALL_VARS):
    """The value of the group element's substitution at a rational point,
    on the variables ``names``."""
    sub = hvariety.substitution_of(g, coord_ring(True))
    return dict(zip(names, evaluate_all([sub[n] for n in names], point)))


def test_group_action_preserves_sampled_points():
    rng = random.Random("action-points")
    point = hvariety.sample_point(rng)
    ring = coord_ring(True)
    g = GroupElement(
        g1=PolyMatrix.from_rows(ring, [[1, 2], [0, 1]]),
        g2=PolyMatrix.from_rows(ring, [[3, 0], [1, 1]]),
        perm=(2, 3, 1))
    moved = _moved_point(g, point)
    eqs = hvariety.equations()
    assert all(gen.evaluate(moved) == 0 for gen in eqs.gens)


_small = st.fractions(min_value=-5, max_value=5, max_denominator=3)
_factor = st.one_of(st.none(), st.tuples(*[_small] * 4))


# no shrinking: each example expands ``substitution_of(g)`` symbolically, and
# shrinking a failure took minutes
@pytest.mark.parametrize("perm", hvariety._PERMUTATIONS)
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(factors=st.tuples(_factor, _factor, _factor),
       point=st.tuples(*[_small] * len(ALL_VARS)))
def test_rational_action_is_the_symbolic_substitution_evaluated(perm, factors, point):
    # the integer cube action gives the cube entries of the substitution's
    # value at the point, whatever the algebra coordinates are
    ring = coord_ring(True)
    mats = [None if f is None else PolyMatrix.from_rows(ring, [f[:2], f[2:]])
            for f in factors]
    g = GroupElement(*mats, perm=perm)
    values = dict(zip(ALL_VARS, point))
    cube = Hypermatrix.from_named(values)
    if any(f is not None and f[0] * f[3] == f[1] * f[2] for f in factors):
        with pytest.raises(SingularGroupElement):
            hvariety.apply_group_to_cube(g, cube)
        return
    moved = hvariety.apply_group_to_cube(g, cube)
    assert moved == Hypermatrix.from_named(_moved_point(g, values, PARAM_VARS))
    assert all(type(v) is Fraction for v in moved.entries.values())


_int_factor = st.one_of(st.none(), st.tuples(st.lists(st.integers(-5, 5), min_size=4,
                                                      max_size=4), st.integers(1, 6)))


# each example expands ``substitution_of(g)`` symbolically; no shrinking, as above
@pytest.mark.parametrize("perm", hvariety._PERMUTATIONS)
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(factors=st.tuples(_int_factor, _int_factor, _int_factor),
       nums=st.lists(st.integers(-9, 9), min_size=8, max_size=8), den=st.integers(1, 5))
def test_integer_move_is_the_symbolic_substitution_evaluated(perm, factors, nums, den):
    # the integer move of the translates, given integer entries over
    # denominators directly, is the substitution's value at the cube
    ring = coord_ring(True)
    moves = [(r, f) for r, f in enumerate(factors, start=1)
             if f is not None and f[0][0] * f[0][3] != f[0][1] * f[0][2]]
    mats = [None] * 3
    for r, factor in moves:
        mats[r - 1] = _factor_matrix(ring, factor)
    g = GroupElement(*mats, perm=perm)
    values = {n: Fraction(v, den) for n, v in zip(PARAM_VARS, nums)}
    got, q = hvariety._move_cube(moves, perm, (list(nums), den))
    assert all(type(v) is int for v in got) and type(q) is int and q > 0
    assert dict(zip(PARAM_VARS, (Fraction(v, q) for v in got))) == \
        _moved_point(g, values, PARAM_VARS)


def test_rational_action_rejects_a_singular_factor():
    ring = coord_ring(True)
    g = GroupElement(g2=PolyMatrix.from_rows(ring, [[1, 2], [2, 4]]), perm=(2, 1, 3))
    with pytest.raises(SingularGroupElement):
        hvariety.apply_group_to_cube(g, Hypermatrix({(1, 1, 1): 1}))
    with pytest.raises(SingularGroupElement):
        hvariety.substitution_of(g, ring)


def test_rational_action_rejects_a_factor_that_is_not_2x2():
    ring = coord_ring(True)
    g = GroupElement(g1=PolyMatrix.from_rows(ring, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(ShapeError):
        hvariety.apply_group_to_cube(g, Hypermatrix({(1, 1, 1): 1}))
    with pytest.raises(ShapeError):
        hvariety.substitution_of(g, ring)


# sha256 of the 80 translated cubes of ``translate_invariance(7)``, one
# ``to_text()`` a line: the draws and the action's values stay as they were.
TRANSLATES_SEED7_SHA256 = "e24f1297fa0ce8ee4cf2bc42fff54eef4fe407b9c81d25b9d3a83c25b5c961ee"


def _factor_matrix(ring, factor):
    """The factor matrix of entries a, b, c, d over s."""
    entries, s = factor
    return PolyMatrix.from_rows(ring, [[Fraction(e, s) for e in entries[:2]],
                                       [Fraction(e, s) for e in entries[2:]]])


def test_translated_cubes_at_seed_7_are_pinned():
    rng = random.Random("7:classify")
    ring = coord_ring(True)
    texts = []
    for name in ("p1", "p2", "p3", "p4"):
        for _ in range(20):
            g = GroupElement(g1=_factor_matrix(ring, hvariety._random_invertible(rng)),
                             g2=_factor_matrix(ring, hvariety._random_invertible(rng)),
                             g3=_factor_matrix(ring, hvariety._random_invertible(rng)),
                             perm=rng.choice(hvariety._PERMUTATIONS))
            texts.append(hvariety.apply_group_to_cube(g, representative(name)).to_text())
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == TRANSLATES_SEED7_SHA256


# -- hyperdeterminant and orbits ------------------------------------------------


def test_hyperdeterminant_values():
    assert hvariety.hyperdeterminant(representative("p4")) == 1
    assert hvariety.hyperdeterminant(representative("p3")) == 0
    P = Hypermatrix({(1, 1, 1): 2, (2, 2, 2): Fraction(1, 2)})
    assert hvariety.hyperdeterminant(P) == 1


@settings(max_examples=40, deadline=None)
@given(entries=st.tuples(*[_small] * 8))
def test_integer_hyperdeterminant_is_the_cayley_form_evaluated(entries):
    form = hvariety._cayley(list(symbolic_cube(coord_ring(True)).values()))
    got = hvariety.hyperdeterminant(Hypermatrix.from_named(dict(zip(PARAM_VARS, entries))))
    assert type(got) is Fraction
    assert got == form.evaluate(dict(zip(PARAM_VARS, entries)))


def test_classification_of_representatives():
    expected = {"origin": "origin", "p1": "O1", "p2": "O2", "p3": "O3", "p4": "O4"}
    for name, want in expected.items():
        got = hvariety.classify_orbit(representative(name))
        assert got.label == want


def test_translates_keep_their_orbit_label():
    assert hvariety.translate_invariance(7) == (True, {"translates": 80})


# sha256 of the standard output of ``orbit_census.py --cubes 200 --seed 0``
CENSUS_SHA256 = "21da82640dea02494117d132509dbac68e8c9deb727343e1558eb04c262d6269"


def test_orbit_census_script_runs():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "orbit_census.py"), "--cubes", "200",
         "--seed", "0"], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])})
    assert done.returncode == 0, done.stderr
    counts = [int(line.split()[1]) for line in done.stdout.split("\n\n")[0].splitlines()]
    assert sum(counts) == 200
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CENSUS_SHA256


_entry = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=3))


@settings(max_examples=100, deadline=None)
@given(top=st.lists(_entry, min_size=4, max_size=4),
       scale=st.one_of(st.none(), st.fractions(-3, 3, max_denominator=3)),
       bottom=st.lists(_entry, min_size=4, max_size=4))
def test_flattening_rank_is_the_elimination_rank(top, scale, bottom):
    # a multiple of the top row makes rank one likely
    if scale is not None:
        bottom = [scale * t for t in top]
    assert hvariety._flattening_rank([top, bottom]) == rank([top, bottom])


def test_p3_diagnostics():
    label = hvariety.classify_orbit(representative("p3"))
    assert label.hyperdet == 0
    assert label.flattening_ranks == (2, 2, 2)


def test_a_cube_with_negative_hyperdeterminant_is_in_the_open_orbit():
    # over the reals D_H < 0 is the orbit without a rank-two decomposition
    # (de Silva and Lim 2008); over Q it is still the open orbit O4
    P = Hypermatrix.parse("0 1 1 0 1 0 0 -1")
    assert hvariety.classify_orbit(P) == hvariety.OrbitLabel("O4", Fraction(-4), (2, 2, 2))
    assert hvariety.orbit_certificate(P).ok
    with pytest.raises(TypeError, match="not an exact rational"):
        Hypermatrix({(1, 1, 1): coord_ring(True).var("p111")})
    # numerators over the lcm of the denominators share no factor with it
    Q = Hypermatrix({(1, 1, 1): Fraction(1, 2), (2, 1, 1): Fraction(2, 3), (1, 2, 1): 6,
                     (2, 2, 2): Fraction(-5, 4)})
    nums, den = Q.point()
    assert (nums, den) == ([6, 8, 72, 0, 0, 0, 0, -15], 12)
    assert math.gcd(*nums, den) == 1
    assert [Fraction(n, den) for n in nums] == list(Q.entries.values())


def test_hyperdet_vanishing_is_invariant():
    rng = random.Random("hyperdet-invariance")
    ring = coord_ring(True)

    def rand_gl():
        while True:
            m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  for _ in range(2)] for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                return PolyMatrix.from_rows(ring, m)

    for _ in range(20):
        P = Hypermatrix({t: Fraction(rng.randint(-3, 3))
                         for t in hvariety.coord8.INDEX_TRIPLES})
        g = GroupElement(g1=rand_gl(), g2=rand_gl(), g3=rand_gl())
        moved = hvariety.apply_group_to_cube(g, P)
        assert (hvariety.hyperdeterminant(P) == 0) == \
            (hvariety.hyperdeterminant(moved) == 0)


def test_hyperdet_covariance_exponents_are_two():
    for r in (1, 2, 3):
        assert hvariety.hyperdet_covariance_exponent(r) == 2


def test_permutation_preserves_hyperdeterminant():
    ring = coord_ring(True)
    base = hvariety._cayley(list(symbolic_cube(ring).values()))
    for perm in ((2, 3, 1), (2, 1, 3)):
        sub = hvariety.substitution_of(GroupElement(perm=perm), ring)
        assert base.substitute(sub, ring) == base


# -- fibers ----------------------------------------------------------------------


def test_fiber_span_certificates():
    assert hvariety.fiber_certificate_p4().ok
    assert hvariety.fiber_certificate_p3().ok


def test_fiber_component_sampling():
    for name in ("origin", "p1", "p2"):
        rep = hvariety.fiber_component_sampling(name, seed=5, samples=8)
        assert rep.ok, rep.data["failures"]


def test_p2_quadric_is_a_generator():
    eqs = hvariety.fiber_equations(representative("p2"))
    ring = eqs.ring
    v = ring.var
    quadric = v("u3") * v("x13") - v("x11") * v("x12") - v("x21") * v("x22")
    res = span_compare(eqs.gens, [quadric])
    assert res.relation in ("equal", "a_contains_b")


# -- charts ------------------------------------------------------------------------


def test_chart_reduction_residuals_vanish():
    rep = hvariety.chart_reduce_u1(hvariety.chart_substitution())
    assert rep.ok
    assert rep.data["dimension"] == 13
    assert len(hvariety.CHART_FREE_VARS) == 12


def test_chart_negative_control_hits_g5():
    sub = hvariety.chart_substitution()
    del sub["u3"]
    rep = hvariety.chart_reduce_u1(sub)
    assert "g5" in rep.data["nonzero"]


def test_chart_determinant_identity():
    assert hvariety.chart_det_identity().ok


def test_skew_chart_matrix_is_skew():
    ring = coord_ring(True)
    assert hvariety.skew_chart_matrix(ring).is_skew()


def test_pfaffians_vanish_on_samples():
    out = hvariety.pfaffian_vanishing_on_samples(seed=2, samples=6)
    assert out.ok


# -- sampling ------------------------------------------------------------------------


def test_sample_point_satisfies_equations():
    eqs = hvariety.equations()
    for seed in (0, 1, 2):
        point = hvariety.sample_point(seed)
        assert all(g.evaluate(point) == 0 for g in eqs.gens)


def test_sample_point_respects_constraints():
    constraints = {"p121": 0, "p112": 0, "p211": 0, "p111": 1}
    point = hvariety.sample_point(7, constraints)
    assert point["p111"] == 1 and point["p121"] == 0


def test_sample_point_rejects_bad_constraint():
    with pytest.raises(ValueError):
        hvariety.sample_point(0, {"u2": 1})


def test_sampling_is_seed_deterministic():
    a = hvariety.sample_point(123)
    b = hvariety.sample_point(123)
    assert a == b


# -- the one sampling loop --------------------------------------------------------------


def test_sampled_makes_no_draw_after_the_first_failure():
    seen = []

    def check(rng, k):
        seen.append(k)
        return "draw 2 fails" if k == 2 else None

    assert hvariety.sampled("0:test", 10, check) == (2, "draw 2 fails")
    assert seen == [0, 1, 2]


def test_sampled_without_a_failure_passes_every_draw_of_its_stream():
    drawn = []
    assert hvariety.sampled("3:test", 5, lambda rng, k: drawn.append(rng.random())) == (5, None)
    ref = random.Random("3:test")
    assert drawn == [ref.random() for _ in range(5)]


def test_sampled_with_no_draws_never_checks():
    # the on-locus side of p4 draws nothing
    assert hvariety.sampled("0:p4:on", 0, lambda rng, k: pytest.fail("checked")) == (0, None)


def _plus_one_in_last_coordinate(points):
    def tampered(name, rng):
        nums, den = points(name, rng)
        return nums[:-1] + [nums[-1] + den], den
    return tampered


def _routes_disagree(test):
    def tampered(tables, sigma):
        tests = test(tables, sigma)
        return {**tests, "viaTN": not tests["viaU"]}
    return tampered


def _shift_first_coordinate(point):
    def tampered(rng, part):
        nums, den = point(rng, part)
        return [nums[0] + den] + nums[1:], den
    return tampered


# (module, attribute, tamper of the original, certificate run, its counts, failure texts)
SAMPLED_TAMPERS = {
    "translates": (
        hvariety, "_move_cube", lambda move: lambda *args: ([0] * 8, 1),
        lambda: hvariety.translate_invariance(0), {"translates": 0},
        ["translate 0 leaves orbit O1"]),
    "fiber-p2": (
        hvariety, "_component_points", _plus_one_in_last_coordinate,
        lambda: hvariety.fiber_component_sampling("p2", 0, 5),
        {"samples": {"p2/quadric": 0, "p2/cone": 0}},
        ["component p2/quadric: generator fails to vanish",
         "component p2/cone: generator fails to vanish"]),
    "pfaffians": (
        hvariety, "_chart_pfaffians", lambda pfaffians: lambda: lambda nums, den: ([1] * 5, 1),
        lambda: hvariety.pfaffian_vanishing_on_samples(0, 5), {"checked": 0, "failures": 1},
        ["a Pfaffian fails to vanish on sample 0"]),
    "radicals-p1": (
        jordan, "nondegeneracy_test_equiv", _routes_disagree,
        lambda: hvariety.radical_locus_check("p1", 0, 5), {"on_locus": 0, "off_locus": 0},
        ["p1: the two membership tests disagree on a locus point",
         "p1: the two membership tests disagree off the locus"]),
    "sweep": (
        jordan, "radical_membership", lambda member: lambda tables, sigma: True,
        lambda: hvariety.nondegenerate_sweep(0), {"cubes": 0, "sigmas": 0, "failures": 1},
        ["cube 0: a nonzero element lies in the radical"]),
    "cluster-I": (
        relatives, "_cluster_point", _shift_first_coordinate,
        lambda: relatives.verify_cluster_embedding("I", 0, 5), {"samples": 0},
        ["part I: generator det-yz fails on sample 0"]),
}


@pytest.mark.parametrize("case", SAMPLED_TAMPERS)
def test_each_sampled_certificate_fails_at_its_first_tampered_draw(case, monkeypatch):
    module, attr, tamper, run, counts, texts = SAMPLED_TAMPERS[case]
    sampled, failures = hvariety.sampled, []

    def recorded(stream, count, check):
        passed, failure = sampled(stream, count, check)
        failures.append(failure)
        return passed, failure

    monkeypatch.setattr(module, attr, tamper(getattr(module, attr)))
    monkeypatch.setattr(hvariety, "sampled", recorded)
    rep = run()
    assert rep.ok is False
    assert {key: rep.data[key] for key in counts} == counts
    assert failures == texts
    if isinstance(rep.data.get("failures"), list):
        assert rep.data["failures"] == texts
    else:
        # a claim that keeps no failure list names its failing draw
        assert rep.data["residual"] == texts[0]


def _wrong_determinant(factor):
    def tampered():
        ring, g, det = factor()
        return ring, g, det + 1
    return tampered


# (owner, attribute, tamper of the original, certificate run, the data it reports)
SYMBOLIC_TAMPERS = {
    "swap": (
        hvariety, "substitution_of",
        lambda substitution: lambda g, ring: {n: ring.var(n) for n in ALL_VARS},
        hvariety.swap_all_factors_certificate,
        {"failures": [f"triple swap: pair {i} rows not exchanged" for i in (1, 2, 3)]}),
    "hyperdet": (
        hvariety, "_symbolic_factor", _wrong_determinant,
        hvariety.hyperdet_covariance_certificate, {"exponents": {1: None, 2: None, 3: None}}),
    "fiber-display": (
        hvariety, "span_compare", lambda compare: lambda a, b: compare(a[:1], b),
        lambda: hvariety.fiber_component_sampling("p2", 0, 2),
        {"samples": {"p2/quadric": 2, "p2/cone": 2},
         "failures": ["p2: displayed component equation not in the span"]}),
    "radical-display": (
        coord8, "cubic_form", lambda form: lambda P: form(P) + 1,
        lambda: hvariety.radical_locus_check("p1", 0, 2),
        {"on_locus": 2, "off_locus": 2, "display_ok": False,
         "failures": ["p1: specialized cubic form differs from its display"]}),
    "m8-adjugate": (
        PolyMatrix, "adjugate", lambda adjugate: PolyMatrix.transpose,
        relatives.m8_action_certificate,
        {"failures": ["left matrix generator: transformed block mismatch",
                      "right matrix generator: transformed block mismatch"]}),
    "m8-det": (
        PolyMatrix, "det", lambda det: lambda m: det(m) + 1, relatives.m8_action_certificate,
        {"failures": ["determinant generator transforms incorrectly",
                      "left matrix generator: transformed block mismatch",
                      "right matrix generator: transformed block mismatch",
                      "second determinant generator transforms incorrectly"]}),
    "s6-adjugate": (
        PolyMatrix, "adjugate", lambda adjugate: PolyMatrix.transpose,
        relatives.s6_action_certificate,
        {"failures": ["kernel generator transforms incorrectly"]}),
    "s6-outer": (
        relatives, "_outer",
        lambda outer: lambda u, v, ring: outer(u, v, ring) - PolyMatrix.identity(ring, 3),
        relatives.s6_action_certificate,
        {"failures": ["adjugate generator transforms incorrectly"]}),
}


@pytest.mark.parametrize("case", SYMBOLIC_TAMPERS)
def test_each_symbolic_law_fails_under_its_tamper(case, monkeypatch):
    owner, attr, tamper, run, data = SYMBOLIC_TAMPERS[case]
    monkeypatch.setattr(owner, attr, tamper(getattr(owner, attr)))
    assert run() == (False, data)


# -- radicals -------------------------------------------------------------------------


def test_radical_locus_checks():
    for name in ("origin", "p1", "p2", "p3"):
        rep = hvariety.radical_locus_check(name, seed=1, samples=6)
        assert rep.ok, rep.data["failures"]


def test_open_orbit_radical_trivial():
    rep = hvariety.radical_locus_check("p4", seed=1, samples=6)
    assert rep.ok
    assert rep.data["off_locus"] == 100


def test_nondegenerate_sweep_small():
    out = hvariety.nondegenerate_sweep(seed=3)
    assert out.ok


def test_rand_reads_the_fraction_of_its_two_draws():
    # the two ``getrandbits`` loops of ``_draw`` make the same ``_randbelow``
    # calls, in the same order, as the two ``randint`` draws of the fraction
    for seed in (0, 7, 11, "3:nondegenerate", "0:radicals"):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(500):
            a, b = hvariety._draw(rng)
            assert Fraction(a, b) == Fraction(ref.randint(-9, 9), ref.randint(1, 4))
            assert type(a) is int and type(b) is int
        assert rng.getstate() == ref.getstate()


def test_random_invertible_replays_the_randint_draws():
    for seed in (0, 7, "7:classify", "0:classify"):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(100):
            while True:
                m = [[Fraction(ref.randint(-5, 5), ref.randint(1, 3)) for _ in range(2)]
                     for _ in range(2)]
                if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
                    break
            entries, s = hvariety._random_invertible(rng)
            assert [Fraction(e, s) for e in entries] == m[0] + m[1]
            assert all(type(e) is int for e in entries) and type(s) is int and s > 0
        assert rng.getstate() == ref.getstate()


# sha256 of the points each sampler draws at seeds 0 and 7, taken from the
# Fraction samplers before they moved to integer points; the reports hold
# only counts, so they would not show a sampler drawing other points
POINT_DIGESTS = {
    "0/sample": "37406c54707871c812ec248d82ddc639769bc9db20601832ff6b1c3ef3a116fb",
    "0/sample-constrained": "9388c6080355f5d581650306b87c8c0d2a86fa3467be89cc8953e4bf87fefb08",
    "0/cluster-I": "9babdae0980f6c6d5594b678133ebd33cc43f56d1bd668a90777d2f100e2d66e",
    "0/cluster-II": "0e0a42cc0f5c979a7e3ca7a21160d4a60247a9d594c3936bbc1eb18b717152e2",
    "0/origin/all-x": "ccaf692a8c9a2333a348c681fcde3a46c5952c3a995200bed5ac42a992b99e83",
    "0/origin/pair1": "dcfcd4b3ccd17e6a33afef66894db5e2ae86163d2bb04c40e5e8d7465018a2dc",
    "0/origin/pair2": "21b3933d305e49f94daf3c66174ef9bc18c3177826a281c57b192639373f26ae",
    "0/origin/pair3": "af9c5554835ed922346f6497c57ebc115b0520bf49611f6eb6df0db91bb37daa",
    "0/p1/quadric1": "c7a75794d4a9e23bb9209d02908a806fd1ef803f3ae30ca9443af850bf8a611d",
    "0/p1/quadric2": "ade0c70e0c223d5b17789ca10c7209a87a51914961cc28badac24a2ad12b60fe",
    "0/p1/quadric3": "26919e566b36255aba3f1649fa775d6c84a34eea19c50be4a59fc6ddea639496",
    "0/p2/quadric": "58cffe720e0ba9c4f794d829beb6346f5bba42c28eadf7aa71b38fc3b9fda0a2",
    "0/p2/cone": "fee7c8d5b5343a2540f3e606c291e8d37e58cc6fa1ccdb7c55ff146193ff02f6",
    "0/radical-origin": "6a8e1d6683442c97807ac2a4c1c9ed6d650da64af470f4cbeb02974ea3c4147b",
    "0/off-radical-origin": "7e70ba63fbfed2a043a81db1463243ac8462691cf35390631eccb390f853c988",
    "0/radical-p1": "87c24e4668e3f7a87082950ab1edec5d0cbc07e42d644a223012a0fa25f19289",
    "0/off-radical-p1": "9b78f46013e9f829086f05b03e971953feee7eae921f39a67372c212de0a8d73",
    "0/radical-p2": "b3c4da56f751dd325324935f293f8928cf0baa8c150904e633c68097113c055f",
    "0/off-radical-p2": "3279c4a667efbe595665deebb1b95e9cfa25dd7fe0561308fbbbab2176607d7e",
    "0/radical-p3": "87e55c90d2eee67501972ee84077e03e07179ff202209bff5b2821a00cb5393f",
    "0/off-radical-p3": "acb6b904616749d8de3781dd7bbcbc133ad2a0c026cbe9192775881ef669cfac",
    "0/radical-p4": "c41b6eeac5a4c49d1d01ddbf267409a6bad34e311189c4c62b4c4e36ef21bba0",
    "0/off-radical-p4": "e24034ac616cfe3de0cbce29bd090d03f26f02954f1a9d03d4d2c230cb19c019",
    "0/sweep": "aee337ba653dab4609e341739363ec0d43fd938022b3d2d3d150659311abe31e",
    "0/translates": "ac4b8d95d109c9df327298255e9c704b1f0c98fb2370682119d6c0ea17596a79",
    "7/sample": "5e314ff6f825e5720076e59e5eb0e4506916c1e0d9af2a9af0489c3d55bbf45f",
    "7/sample-constrained": "8d24dc180d0c538c4322362dec3093b96fbf5efce509991b123b3e43ce28650b",
    "7/cluster-I": "aedfaabcddc95f029e1d68e8c3768b1fb7ac39f0f7468830448c11b4e8958143",
    "7/cluster-II": "f97abb43b5ea0cb56a71e232028d8e3cb76be6964edde554db1dc842dd0b477a",
    "7/origin/all-x": "eea8da13657549ed97a5e70dd7e048588a95f3571b3c1e736daea97e01c0e8dc",
    "7/origin/pair1": "1adebca598ea51a8f273dccd45df0b596f7a36b9b8341467f52f658c8da71d7a",
    "7/origin/pair2": "ba9338bc068dd27a9563d05b6d2c0755dc6a0a206c2596e3de16127b2d0ef7de",
    "7/origin/pair3": "27331f7ca53a8b6aa855a46af41ab3c7bfc45e01579015114354f8ff18f60d9f",
    "7/p1/quadric1": "a00627977251b975fd1e0bea3452686f1146354bb7cff7efe7db63533829a4cb",
    "7/p1/quadric2": "99d7dc9cc7e1b1c0e3483ca0bc60b7b7a2082283c97704bf1896f1f43c0973ea",
    "7/p1/quadric3": "2c4573c5f1326fd8207b20d9e883af68e574173f32fd9fd37d998d4c108eb2c8",
    "7/p2/quadric": "9af11edad8d60a7d90e20862393bcd09e01b8122afae1cff9a7d3e72db08fa0a",
    "7/p2/cone": "415a0b4f49908d79779234ea25e1c4eb1aea59241d729413b64c2d54bd823ae1",
    "7/radical-origin": "79bdaa29944d52a5e6e6b24df5fd0809a0795e170b5c246c49a045a19b991d80",
    "7/off-radical-origin": "f3e604192dad7881c740e3e2c8ecbc35882600a5ecf3aff825f981d37a300061",
    "7/radical-p1": "6011a1950cb73feed870e9c95cfd2598ce3f57bf41178559c738f03ba7a1fa16",
    "7/off-radical-p1": "821f0d2c964b9f96c0ac3bf46c0ab4c66f2214d0c002452228c17a1d3d8b4641",
    "7/radical-p2": "f9ca9e36c297ea4646346880ea93f9aa7a240772a4280774648d3cf62c4c4068",
    "7/off-radical-p2": "5d77fb7306067ab2ac593e7ad6bb551e3c87b5722ca3f5e1d5219b138bfea7a8",
    "7/radical-p3": "0bc3c93d8cd7fc83368008e9a04edd3117fa13af427861f5dec89b4c643768be",
    "7/off-radical-p3": "a6280d04bc352acb25f84cd2b82fccefb4ae67d85c2207aefe5ff866785a6c6e",
    "7/radical-p4": "c41b6eeac5a4c49d1d01ddbf267409a6bad34e311189c4c62b4c4e36ef21bba0",
    "7/off-radical-p4": "da30815a14dc9249f81373413def86ae1fccc977e6389063f1a9a0476056aeb9",
    "7/sweep": "3dd11f8c367980a9dadcf39cd629d3f42d05756f8e6c4c4d0d8d072449e8d972",
    "7/translates": "e24f1297fa0ce8ee4cf2bc42fff54eef4fe407b9c81d25b9d3a83c25b5c961ee",
}


def _line(values) -> str:
    return ",".join(str(v) for v in values)


def _named(point: dict) -> str:
    return _line(point) + "|" + _line(point.values())


# the cluster coordinates in the order of the ambient variables they invert
_CLUSTER_ORDER = ("th12", "th23", "th31", "A12", "th3", "A23", "th1", "A31", "th2",
                  "A1", "A2", "A3", "lam")


def _cluster(point: tuple[list[int], int]) -> dict:
    nums, den = point
    assert len(nums) == len(relatives.C2_VARS) and den > 0
    return {n: Fraction(nums[relatives.C2_VARS.index(n)], den) for n in _CLUSTER_ORDER}


def _coords(point: tuple[list[int], int]) -> str:
    nums, den = point
    assert len(nums) == len(COORD_VARS) and den > 0
    return _line(Fraction(n, den) for n in nums)


def test_sampled_points_are_pinned(monkeypatch):
    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def drawn(seed, key, sampler, show, count=20):
        rng = random.Random(f"{seed}:digest:{key}")
        got[f"{seed}/{key}"] = digest([show(sampler(rng)) for _ in range(count)])

    constraints = {"x12": 0, "p111": 1, "p222": Fraction(-2, 3)}
    got = {}
    for seed in (0, 7):
        drawn(seed, "sample", hvariety.sample_point, _named)
        drawn(seed, "sample-constrained",
              lambda rng: hvariety.sample_point(rng, constraints), _named)
        for part in ("I", "II"):
            drawn(seed, f"cluster-{part}",
                  lambda rng: _cluster(relatives._cluster_point(rng, part)), _named)
        for comp in [c for comps in hvariety.FIBER_COMPONENTS.values() for c in comps]:
            drawn(seed, comp, lambda rng: hvariety._component_points(comp, rng), _coords)
        for name in ("origin", "p1", "p2", "p3", "p4"):
            drawn(seed, f"radical-{name}",
                  lambda rng: hvariety.radical_point(name, rng), _coords)
            drawn(seed, f"off-radical-{name}",
                  lambda rng: hvariety.off_radical_point(name, rng), _coords)
        # every cube the sweep checks, and every element it tests, as
        # ``Hypermatrix.to_text`` and ``_line`` show the drawn Fractions
        seen = []
        drawn_last = {}
        point, cayley, member = hvariety._point, hvariety._cayley, jordan.radical_membership

        def draw(pairs):
            nums, den = drawn_point = point(pairs)
            drawn_last[len(nums)] = (list(nums), [Fraction(v, den) for v in nums])
            return drawn_point

        def checked(kind, size, nums):
            drawn_nums, values = drawn_last.pop(size)
            assert list(nums) == drawn_nums
            seen.append(kind + (" ".join(map(str, values)) if size == 8 else _line(values)))

        with monkeypatch.context() as m:
            m.setattr(hvariety, "_point", draw)
            m.setattr(hvariety, "_cayley",
                      lambda nums: checked("cube ", 8, nums) or cayley(nums))
            m.setattr(jordan, "radical_membership",
                      lambda p, s: checked("sigma ", 9, s) or member(p, s))
            assert hvariety.nondegenerate_sweep(seed).data["sigmas"] == 100
        got[f"{seed}/sweep"] = digest(seen)
        seen = []
        move = hvariety._move_cube

        def shown(*args):  # each translate's cube text, as ``Hypermatrix.to_text`` gives it
            nums, den = moved = move(*args)
            seen.append(" ".join(str(Fraction(v, den)) for v in nums))
            return moved

        with monkeypatch.context() as m:
            m.setattr(hvariety, "_move_cube", shown)
            hvariety.translate_invariance(seed)
        got[f"{seed}/translates"] = digest(seen)
    assert got == POINT_DIGESTS
