"""Subvariety equation systems, dictionaries, embeddings, group actions."""

import dataclasses

import pytest

from cubicjordan import grading, relatives
from cubicjordan.errors import UnknownDictionary
from cubicjordan.exactcore import span_compare


def test_generator_counts():
    assert len(relatives.m8_equations()) == 10
    assert len(relatives.s6_equations()) == 9
    assert len(relatives.c2_equations()) == 9


def test_cluster_first_family_generator():
    eqs = relatives.c2_equations()
    ring = eqs.ring
    v = ring.var
    want = v("th1") * v("th2") - v("A12") * v("th12") \
        - v("A23") * v("A3") * v("A31")
    by_label = dict(zip(eqs.labels, eqs.gens))
    assert by_label["ex1-123"] == want


def test_s6_adjugate_generator():
    eqs = relatives.s6_equations()
    ring = eqs.ring
    v = ring.var
    want = v("s22") * v("s33") - v("s23") ** 2 - v("t") * v("sigma1") ** 2
    by_label = dict(zip(eqs.labels, eqs.gens))
    assert by_label["adj11"] == want


def test_m8_sandwich_traceless():
    assert relatives.m8_trace_consistency().ok


def test_specialization_span_equalities():
    for name in ("c2", "m8", "s6"):
        assert relatives.verify_specialization(name) == (True, {"relation": "equal"}), name


def test_m8_witness_covers_redundant_generator():
    specialized = relatives.dictionary("m8").specialize()
    span = span_compare(specialized.gens, relatives.m8_equations().gens)
    # ten target generators all expressible in the nine specialized ones
    assert len(span.b_in_a) == 10
    assert all(w is not None for w in span.b_in_a)


def test_partial_specializations_emit():
    assert relatives.verify_specialization("h12") == (True, {"generators": 9})
    assert relatives.verify_specialization("h11") == (True, {"generators": 9})
    assert "p111" not in relatives.dictionary("h12").specialize().ring.names
    assert "p121" not in relatives.dictionary("h11").specialize().ring.names


def test_unknown_dictionary():
    with pytest.raises(UnknownDictionary):
        relatives.dictionary("nope")


def test_composed_specialization():
    assert relatives.composed_specialization_check().ok


def test_cluster_embeddings():
    for part in ("I", "II"):
        rep = relatives.verify_cluster_embedding(part, seed=9, samples=6)
        assert rep.ok, rep.data


def test_cluster_point_lies_on_slice():
    import random
    rng = random.Random("slice")
    cpt = relatives.cluster_point(rng, "I")
    assert set(cpt) == set(relatives.C2_VARS)
    eqs = relatives.c2_equations()
    assert all(g.evaluate(cpt) == 0 for g in eqs.gens)
    assert cpt["A3"] == 1
    cpt2 = relatives.cluster_point(rng, "II")
    assert cpt2["A3"] == 1 and cpt2["A1"] == -1


def test_action_certificates():
    assert relatives.m8_action_certificate() == (True, {"failures": []})
    assert relatives.s6_action_certificate() == (True, {"failures": []})


def test_weight_lattice_relation_without_fixing():
    lattice = grading.solve_weight_constraints(relatives.c2_equations())
    assert lattice.relation_holds(
        {"th12": 1, "A12": 1, "A23": -1, "A3": -1, "A31": -1})


def test_weight_relation_with_fixed_scalar():
    lattice = grading.solve_weight_constraints(
        relatives.c2_equations(), {"A3": 0})
    assert lattice.relation_holds({"th3": 1, "lam": -1, "A12": -1})


def test_perturbed_dictionary_detected():
    d = relatives.dictionary("c2")
    ring = d.target
    bad = dict(d.mapping)
    bad["x22"] = ring.var("th1") + ring.var("A12")
    from cubicjordan import hvariety
    specialized = hvariety.equations().substitute(bad, ring)
    result = span_compare(specialized.gens, relatives.c2_equations().gens)
    assert result.relation != "equal"
    # the certificate reports the relation and the first generator outside
    rep = relatives.verify_specialization(dataclasses.replace(d, mapping=bad))
    outside = [g for g, w in zip(specialized.gens, result.a_in_b) if w is None]
    assert rep == (False, {"relation": result.relation, "residual": outside[0]})
