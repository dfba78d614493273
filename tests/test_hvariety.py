"""Defining equations, group action, orbits, fibers, charts and sampling."""

import random
from fractions import Fraction

import pytest

from cubicjordan import hvariety
from cubicjordan.coord8 import COORD_VARS, Hypermatrix, coord_ring
from cubicjordan.errors import SingularGroupElement
from cubicjordan.exactcore import PolyMatrix, span_compare
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
        assert rep.ok, rep.failures


def test_permutation_certificates():
    for perm in ((2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1)):
        rep = hvariety.permutation_certificate(perm)
        assert rep.ok, rep.failures


def test_swap_certificate():
    assert hvariety.swap_all_factors_certificate().ok


def test_singular_factor_rejected():
    ring = coord_ring(True)
    bad = PolyMatrix.from_rows(ring, [[1, 2], [2, 4]])
    with pytest.raises(SingularGroupElement):
        GroupElement(g1=bad).validate()


def test_group_action_preserves_sampled_points():
    rng = random.Random("action-points")
    point = hvariety.sample_point(rng)
    ring = coord_ring(True)
    g = GroupElement(
        g1=PolyMatrix.from_rows(ring, [[1, 2], [0, 1]]),
        g2=PolyMatrix.from_rows(ring, [[3, 0], [1, 1]]),
        perm=(2, 3, 1))
    moved = hvariety.apply_group_to_point(g, point)
    eqs = hvariety.equations()
    assert all(gen.evaluate(moved) == 0 for gen in eqs.gens)


# -- hyperdeterminant and orbits ------------------------------------------------


def test_hyperdeterminant_values():
    assert hvariety.hyperdeterminant(representative("p4")) == 1
    assert hvariety.hyperdeterminant(representative("p3")) == 0
    P = Hypermatrix({(1, 1, 1): 2, (2, 2, 2): Fraction(1, 2)})
    assert hvariety.hyperdeterminant(P) == 1


def test_classification_of_representatives():
    expected = {"origin": "origin", "p1": "O1", "p2": "O2", "p3": "O3", "p4": "O4"}
    for name, want in expected.items():
        got = hvariety.classify_orbit(representative(name))
        assert got.label == want


def test_translates_keep_their_orbit_label():
    assert hvariety.translate_invariance(7) == {"translates": 80, "unstable": 0}


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
        assert rep.ok, rep.failures


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
    assert rep.chart_dimension == 13
    assert len(rep.free_variables) == 12


def test_chart_negative_control_hits_g5():
    sub = hvariety.chart_substitution()
    del sub["u3"]
    rep = hvariety.chart_reduce_u1(sub)
    bad = {lbl for lbl, r in zip(hvariety.GEN_LABELS, rep.residuals)
           if not r.is_zero()}
    assert "g5" in bad


def test_chart_determinant_identity():
    assert hvariety.chart_det_identity()


def test_skew_chart_matrix_is_skew():
    ring = coord_ring(True)
    assert hvariety.skew_chart_matrix(ring).is_skew()


def test_pfaffians_vanish_on_samples():
    out = hvariety.pfaffian_vanishing_on_samples(seed=2, samples=6)
    assert out["ok"]


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
        assert rep.ok, rep.failures


def test_open_orbit_radical_trivial():
    rep = hvariety.radical_locus_check("p4", seed=1, samples=6)
    assert rep.ok
    assert rep.detail["off_locus"] == 100


def test_nondegenerate_sweep_small():
    out = hvariety.nondegenerate_sweep(seed=3, cubes=5, sigmas_per_cube=1)
    assert out["ok"]
