"""Defining equations, group action, orbits, fibers, charts and sampling."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cubicjordan import hvariety
from cubicjordan.coord8 import ALL_VARS, COORD_VARS, PARAM_VARS, Hypermatrix, coord_ring
from cubicjordan.errors import ShapeError, SingularGroupElement
from cubicjordan.exactcore import PolyMatrix, evaluate_all, rank, span_compare
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


def test_singular_factor_rejected():
    ring = coord_ring(True)
    bad = PolyMatrix.from_rows(ring, [[1, 2], [2, 4]])
    with pytest.raises(SingularGroupElement):
        GroupElement(g1=bad).validate()


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


def test_translated_cubes_at_seed_7_are_pinned():
    rng = random.Random("7:classify")
    ring = coord_ring(True)
    texts = []
    for name in ("p1", "p2", "p3", "p4"):
        for _ in range(20):
            g = GroupElement(g1=hvariety._random_invertible(rng, ring),
                             g2=hvariety._random_invertible(rng, ring),
                             g3=hvariety._random_invertible(rng, ring),
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
    ring = coord_ring(True)
    form = hvariety.hyperdeterminant(Hypermatrix.symbolic(ring), ring)
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
    sym = Hypermatrix.symbolic(ring)
    base = hvariety.hyperdeterminant(sym, ring)
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
    assert hvariety.chart_det_identity()


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
    out = hvariety.nondegenerate_sweep(seed=3, cubes=5, sigmas_per_cube=1)
    assert out.ok


def test_rand_reads_the_fraction_of_its_two_draws():
    # the two ``choice`` draws make the same ``_randbelow`` calls, in the
    # same order, as the two ``randint`` draws of the fraction
    for seed in (0, 7, 11, "3:nondegenerate", "0:radicals"):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(500):
            got = hvariety._rand(rng)
            assert got == Fraction(ref.randint(-9, 9), ref.randint(1, 4))
            assert type(got) is Fraction
        assert rng.getstate() == ref.getstate()


def test_random_invertible_replays_the_randint_draws():
    ring = coord_ring(True)
    for seed in (0, 7, "7:classify", "0:classify"):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(100):
            while True:
                m = [[Fraction(ref.randint(-5, 5), ref.randint(1, 3)) for _ in range(2)]
                     for _ in range(2)]
                if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
                    break
            got = hvariety._random_invertible(rng, ring)
            assert got.entries == PolyMatrix.from_rows(ring, m).entries
        assert rng.getstate() == ref.getstate()
