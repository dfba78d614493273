"""Command-line behavior: exit codes, determinism, report schema."""

import json

import pytest

from cubicjordan import cli, grading


def run(args):
    return cli.run(args)


def test_axioms_suite_passes(capsys):
    assert run(["verify-axioms"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] axioms/sharp2" in out


def test_classify_file_output(tmp_path, capsys):
    cube = tmp_path / "p3.txt"
    cube.write_text("1 0 0 0 0 1 1 0")
    assert run(["classify", "--hypermatrix", str(cube)]) == 0
    out = capsys.readouterr().out
    assert "O3, D_H = 0, flattening ranks (2, 2, 2)" in out


def test_bad_hypermatrix_is_input_error(tmp_path, capsys):
    cube = tmp_path / "bad.txt"
    cube.write_text("1 2 3")
    assert run(["classify", "--hypermatrix", str(cube)]) == 2


@pytest.mark.parametrize("command,option,text", [
    ("classify", "--hypermatrix", '{"p333": "1"}'),
    ("classify", "--hypermatrix", '{"p111": "1/0"}'),
    ("weights", "--weights", "[]"),
])
def test_malformed_file_is_input_error(tmp_path, capsys, command, option, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([command, option, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


def test_missing_file_is_input_error(tmp_path):
    assert run(["classify", "--hypermatrix", str(tmp_path / "none.txt")]) == 2


def test_hilbert_rejects_bigraded_weights(tmp_path):
    w = tmp_path / "w.json"
    w.write_text('{"x11": ["1", "0"]}')
    assert run(["hilbert", "--weights", str(w)]) == 2


def test_json_report_schema(tmp_path):
    out = tmp_path / "report.json"
    assert run(["hilbert", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["summary"]["failed"] == 0
    ids = [c["claim_id"] for c in report["claims"]]
    assert ids == sorted(ids)
    by_id = {c["claim_id"]: c for c in report["claims"]}
    data = by_id["hilbert/invariants"]["data"]
    assert data["degree"] == "11/2"
    assert data["genus"] == "3"


def test_json_report_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["fiber", "--seed", "5", "--samples", "20", "--json", str(a)]) == 0
    assert run(["fiber", "--seed", "5", "--samples", "20", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_weights_file_checking(tmp_path):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({
        **{n: "1" for n in ("x11", "x21", "x12", "x22", "x13", "x23")},
        **{n: "1" for n in ("p111", "p211", "p121", "p221",
                            "p112", "p212", "p122", "p222")},
        "u1": "2", "u2": "2", "u3": "2",
    }))
    assert run(["weights", "--weights", str(w)]) == 0


STANDARD = {n: str(v) for n, v in grading.standard_weights().items()}


def test_weights_not_grading_the_equations_fail_hilbert_invariants(tmp_path, capsys):
    w = tmp_path / "w.json"
    w.write_text(json.dumps({**STANDARD, "x11": "3"}))
    out = tmp_path / "report.json"
    assert run(["hilbert", "--weights", str(w), "--json", str(out)]) == 1
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    invariants = claims["hilbert/invariants"]
    assert invariants["status"] == "fail"
    assert invariants["data"]["residual"] == \
        "numerator lacks vanishing order 4 at t = 1; wrong weights"
    assert "input error" not in capsys.readouterr().err


CLASHES_U1_IS_5 = ["g1a: monomial weights 3, 6", "g1b: monomial weights 3, 6",
                   "g5: monomial weights 4, 7", "g6: monomial weights 4, 7"]


@pytest.mark.parametrize("bigraded,claim_id,failures", [
    (False, "weights/homogeneous", CLASHES_U1_IS_5),
    (True, "weights/bigraded", ["row2 " + f for f in CLASHES_U1_IS_5]),
])
def test_failing_homogeneity_carries_clashing_weights(tmp_path, capsys, bigraded,
                                                      claim_id, failures):
    # the standard weights with u1 = 5; bigraded, as the second row
    bad = {**STANDARD, "u1": "5"}
    w = tmp_path / "w.json"
    w.write_text(json.dumps({n: [STANDARD[n], bad[n]] for n in bad}
                            if bigraded else bad))
    out = tmp_path / "report.json"
    assert run(["weights", "--weights", str(w), "--json", str(out)]) == 1
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    assert claims[claim_id]["status"] == "fail"
    assert claims[claim_id]["data"]["failures"] == failures
    err = capsys.readouterr().err
    assert f"first failing claim: {claim_id}: {failures}" in err


def test_weights_solver_mode(capsys):
    assert run(["weights"]) == 0
    assert "[PASS] weights/lattice" in capsys.readouterr().out


@pytest.mark.parametrize("command,defect", [
    (command, defect) for defect, command in cli.DEFECTS.items()])
def test_defect_fixtures_fail_with_residual(tmp_path, capsys, command, defect):
    out = tmp_path / "report.json"
    code = run([command, "--defect", defect, "--samples", "5",
                "--json", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    failed = [c for c in report["claims"] if c["status"] == "fail"]
    assert failed
    # a nonzero residual or failure witness is carried in the report
    first = failed[0]["data"]
    assert first.get("residual") or first.get("failures") or first.get("nonzero")
    err = capsys.readouterr().err
    assert "first failing claim" in err


def test_radicals_pass_where_u_vanishes_off_locus():
    # seed 13 draws an off-locus point of the p1 algebra with u1 = u2 = u3 = 0
    assert run(["radicals", "--seed", "13"]) == 0


def test_prop76_command():
    assert run(["prop76", "--samples", "5"]) == 0
