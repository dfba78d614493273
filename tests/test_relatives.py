"""Subvariety equation systems, dictionaries, embeddings, group actions."""

from fractions import Fraction

import pytest

from cubicjordan import grading, relatives
from cubicjordan.coord8 import ALL_VARS
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
        rep = relatives.verify_specialization(relatives.dictionary(name))
        assert rep == (True, {"relation": "equal"}), name


def test_m8_witness_covers_redundant_generator():
    specialized = relatives.dictionary("m8").specialize()
    span = span_compare(specialized.gens, relatives.m8_equations().gens)
    # ten target generators all expressible in the nine specialized ones
    assert len(span.b_in_a) == 10
    assert all(w is not None for w in span.b_in_a)


def test_partial_specializations_emit():
    for name in ("h12", "h11"):
        rep = relatives.verify_specialization(relatives.dictionary(name))
        assert rep == (True, {"generators": 9}), name
    assert "p111" not in relatives.dictionary("h12").specialize().ring.names
    assert "p121" not in relatives.dictionary("h11").specialize().ring.names


# each dictionary's target coordinates and its images of the ambient
# variables, in the order of ``ALL_VARS``
_DICTIONARY_IMAGES = {
    "c2": ("th12 th23 th31 th1 th2 th3 A12 A23 A31 A1 A2 A3 lam",
           "A12 th3 A23 th1 A31 th2 th12 th23 th31 1 0 0 -A2 0 -A1 -A3 lam"),
    "m8": ("x1 x2 x3 x4 x5 x6 x7 w1 w2 w3 y z",
           "w1 z x5 x7 x4 x6 -y -w3 -w2 -x2 0 x1 -1 x1 1 x3 0"),
    "s6": ("s11 s12 s13 s22 s23 s33 sigma1 sigma2 sigma3 t",
           "s23 sigma1 s13 sigma2 s12 sigma3 s11 s22 s33 -t 0 0 1 0 1 1 0"),
    "h12": ("x11 x21 x12 x22 x13 x23 u1 u2 u3 p211 p121 p221 p112 p212 p122 p222",
            "x11 x21 x12 x22 x13 x23 u1 u2 u3 1 p211 p121 p221 p112 p212 p122 p222"),
    "h11": ("x11 x21 x12 x22 x13 x23 u1 u2 u3 p211 p221 p112 p212 p122 p222",
            "x11 x21 x12 x22 x13 x23 u1 u2 u3 1 p211 1 p221 p112 p212 p122 p222"),
}


@pytest.mark.parametrize("name", _DICTIONARY_IMAGES)
def test_dictionary_images_are_pinned(name):
    d = relatives.dictionary(name)
    assert set(d.mapping) == set(ALL_VARS)
    assert (" ".join(d.target.names), " ".join(d.mapping[n].to_str() for n in ALL_VARS)) \
        == _DICTIONARY_IMAGES[name]


def test_unknown_dictionary():
    # no guard of its own: the lookup raises
    with pytest.raises(KeyError, match="'nope'"):
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
    eqs = relatives.c2_equations()
    for part in ("I", "II"):
        nums, den = relatives._cluster_point(rng, part)
        cpt = {n: Fraction(v, den) for n, v in zip(relatives.C2_VARS, nums, strict=True)}
        assert all(g.evaluate(cpt) == 0 for g in eqs.gens)
        assert cpt["A3"] == 1
        assert part == "I" or cpt["A1"] == -1


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


_C2_BASIS = [
    "-1 1 1 0 0 1 1 0 0 0 0 0 0",
    "1 -1 1 1 0 0 0 1 0 0 0 0 0",
    "1 1 -1 0 1 0 0 0 1 0 0 0 0"]


@pytest.mark.parametrize("fixed,last_rows", [
    ({"A3": Fraction(0)}, ["0 -1 1 1 -1 0 0 0 0 -1 1 0 0", "0 2 0 -1 1 1 0 0 0 2 0 0 1"]),
    ({"A3": Fraction(0), "A1": Fraction(0)}, ["0 0 2 1 -1 1 0 0 0 0 2 0 1"])],
    ids=["part-I", "part-II"])
def test_the_fixed_cluster_lattices_are_pinned(fixed, last_rows):
    lattice = grading.solve_weight_constraints(relatives.c2_equations(), fixed)
    assert lattice.variables == ("th12", "th23", "th31", "th1", "th2", "th3",
                                 "A12", "A23", "A31", "A1", "A2", "A3", "lam")
    vectors = (lattice.particular, *lattice.basis)
    assert all(type(x) is Fraction for v in vectors for x in v)
    assert [" ".join(map(str, v)) for v in vectors] == [
        "0 0 0 0 0 0 0 0 0 0 0 0 0", *_C2_BASIS, *last_rows]


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
    rep = relatives.verify_specialization(d._replace(mapping=bad))
    outside = [g for g, w in zip(specialized.gens, result.a_in_b) if w is None]
    assert rep == (False, {"relation": result.relation, "residual": outside[0]})
