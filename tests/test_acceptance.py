"""Acceptance criteria, one test per criterion.

Every check is exact rational arithmetic; there are no numeric tolerances
anywhere.  Each test prints one summary line so the suite doubles as a
readable certificate (run with ``pytest -s tests/test_acceptance.py``).
"""

import json
import random
import time
from fractions import Fraction

from cubicjordan import cli, coord8, grading, hvariety, jordan, relatives
from cubicjordan.exactcore import PolyMatrix
from test_grading import vanishing_order_at_one

SEED = 20240811


def report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_sharp_condition_certification():
    start = time.time()
    pres = coord8.presentation(None)
    rep = jordan.verify_sharp_conditions(pres)
    elapsed = time.time() - start
    ok = rep.ok and not rep.residuals and elapsed < 60
    report(1, "sharp conditions, symbolic coordinates and parameters", ok)


def test_02_table_and_map_consistency():
    rep = coord8.verify_peirce_identities(coord8.presentation(None))
    report(2, "product table consistent with the sharp map and its identities",
           rep.ok)


def test_03_cubic_form_specializations():
    displays = {
        "origin": "u1*u2*u3",
        "p2": "x23^2*u3 + u1*u2*u3",
        "p3": "x21^2*u1 + 2*x21*x22*x13 + x22^2*u2 - x13^2*u3 + u1*u2*u3",
    }
    ok = all(coord8.cubic_form(hvariety.representative(n)).to_str() == want
             for n, want in displays.items())
    report(3, "specialized cubic forms match their closed displays", ok)


def test_04_equivariance_certificates():
    ok = all(hvariety.factor_equivariance_certificate(r).ok for r in (1, 2, 3))
    ok = ok and all(hvariety.permutation_certificate(p).ok
                    for p in ((2, 3, 1), (3, 1, 2), (2, 1, 3),
                              (1, 3, 2), (3, 2, 1)))
    ok = ok and hvariety.swap_all_factors_certificate().ok
    report(4, "group equivariance with symbolic factor entries", ok)


def _random_invertible(rng, ring):
    while True:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)]
             for _ in range(2)]
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return PolyMatrix.from_rows(ring, m)


def test_05_orbit_classifier():
    expected = {"origin": "origin", "p1": "O1", "p2": "O2",
                "p3": "O3", "p4": "O4"}
    ok = all(hvariety.classify_orbit(hvariety.representative(n)).label == want
             for n, want in expected.items())
    ring = coord8.coord_ring(True)
    rng = random.Random(f"{SEED}:orbit")
    agreements = 0
    for name in ("p1", "p2", "p3", "p4"):
        want = expected[name]
        for _ in range(20):
            g = hvariety.GroupElement(
                g1=_random_invertible(rng, ring),
                g2=_random_invertible(rng, ring),
                g3=_random_invertible(rng, ring),
                perm=rng.choice([(1, 2, 3), (2, 3, 1), (3, 1, 2),
                                 (2, 1, 3), (1, 3, 2), (3, 2, 1)]))
            moved = hvariety.apply_group_to_cube(g, hvariety.representative(name))
            if hvariety.classify_orbit(moved).label == want:
                agreements += 1
    ok = ok and agreements == 80
    report(5, "orbit classifier on representatives and 20 translates each", ok)


def test_06_fiber_certificates():
    ok = hvariety.fiber_certificate_p4().ok and hvariety.fiber_certificate_p3().ok
    for name in ("origin", "p1", "p2"):
        rep = hvariety.fiber_component_sampling(name, SEED, samples=20)
        ok = ok and rep.ok
        ok = ok and all(v == 20 for v in rep.data["samples"].values())
    report(6, "fiber span certificates and component sampling", ok)


def test_07_chart_reduction_and_pfaffians():
    rep = hvariety.chart_reduce_u1(hvariety.chart_substitution())
    ok = rep.ok and rep.data["dimension"] == 13
    pf = hvariety.pfaffian_vanishing_on_samples(SEED, samples=30)
    ok = ok and pf.ok and pf.data["checked"] >= 30
    report(7, "chart elimination residuals and Pfaffian vanishing", ok)


def test_08_radical_loci():
    ok = True
    for name in ("origin", "p1", "p2", "p3", "p4"):
        rep = hvariety.radical_locus_check(name, SEED, samples=20)
        ok = ok and rep.ok
        if name != "p4":
            ok = ok and rep.data["on_locus"] >= 20
        ok = ok and rep.data["off_locus"] >= 20
    sweep = hvariety.nondegenerate_sweep(SEED, cubes=50, sigmas_per_cube=2)
    ok = ok and sweep.ok and sweep.data["sigmas"] >= 100
    report(8, "radical loci membership and generic nondegeneracy", ok)


def test_09_specializations_and_embeddings():
    ok = all(relatives.verify_specialization(n).span.relation == "equal"
             for n in ("c2", "m8", "s6"))
    for part in ("I", "II"):
        rep = relatives.verify_cluster_embedding(part, SEED, samples=30)
        ok = ok and rep.ok and rep.data["samples"] >= 30
        ok = ok and all(rep.data["weight_relations"].values())
    report(9, "dictionary span certificates and sampled embeddings", ok)


def test_10_grading_and_hilbert_numbers():
    w = grading.standard_weights()
    can = grading.canonical_arithmetic(w)
    ok = (can.c, can.d, can.delta) == (4, 6, 10)
    ok = ok and can.weight_sum == 20 == 4 * can.d - can.c
    ok = ok and can.variety_dualizing_twist == -10
    num = grading.hilbert_numerator(w)
    ok = ok and num == {0: 1, 3: -6, 4: -1, 5: 12, 6: -1, 7: -6, 10: 1}
    ok = ok and grading.numerator_is_palindromic(num, 10)
    ok = ok and vanishing_order_at_one(num) >= 4
    fano = grading.fano_invariants(w, sections=9)
    ok = ok and fano.degree == Fraction(11, 2) and fano.genus == 3
    report(10, "canonical weights, numerator, degree 11/2 and genus 3", ok)


def test_11_bigraded_weight_matrices():
    eqs = hvariety.equations()
    ok = True
    for kind in ("base", "shifted", "swapped"):
        r1, r2 = grading.toric_weight_matrix(kind)
        h1, h2 = grading.check_bigraded(eqs, r1, r2)
        ok = ok and h1.ok and h2.ok
    ok = ok and grading.toric_matrices_row_equivalent()
    h12 = relatives.verify_specialization("h12").specialized
    ok = ok and grading.check_homogeneous(
        h12, grading.example_5052_weights()).ok
    report(11, "bigraded homogeneity, row operations, published example", ok)


def test_12_negative_controls(tmp_path):
    ok = True
    for defect, (command, *_) in cli.DEFECTS.items():
        out = tmp_path / f"{defect}.json"
        code = cli.run([command, "--defect", defect, "--samples", "5",
                        "--json", str(out)])
        ok = ok and code == 1
        data = json.loads(out.read_text())
        failed = [c for c in data["claims"] if c["status"] == "fail"]
        ok = ok and bool(failed)
        witness = failed[0]["data"] if failed else {}
        ok = ok and bool(witness.get("residual") or witness.get("failures")
                         or witness.get("nonzero"))
    report(12, "injected defects detected with nonzero residuals and exit 1", ok)
