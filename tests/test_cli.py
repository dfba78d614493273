"""Command-line behavior: exit codes, determinism, report schema."""

import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubicjordan import cli, coord8, grading, hvariety, jordan, relatives
from cubicjordan.coord8 import Hypermatrix
from cubicjordan.errors import ContextError, InputError
from cubicjordan.exactcore import Poly
from cubicjordan.jordan import JordanPresentation


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


def _classify_report(tmp_path, text):
    cube = tmp_path / "cube.txt"
    cube.write_text(text)
    report = tmp_path / "report.json"
    code = run(["classify", "--hypermatrix", str(cube), "--json", str(report)])
    return code, json.loads(report.read_text())["claims"][0]


def test_classify_input_fails_on_a_wrong_hyperdeterminant(tmp_path, monkeypatch, capsys):
    real = hvariety.hyperdeterminant
    monkeypatch.setattr(hvariety, "hyperdeterminant", lambda P: real(P) + 1)
    code, got = _classify_report(tmp_path, "1/2 -3/4 2/3 5 -1/7 0 3/2 -2")
    assert code == 1 and got["status"] == "fail"
    assert got["data"]["residual"] == ("D_H = -6527/3136, but the Cayley form at "
                                       "the cube is -9663/3136")
    assert "first failing claim: classify/input: D_H" in capsys.readouterr().err


def test_classify_input_fails_on_a_wrong_flattening_rank(tmp_path, monkeypatch, capsys):
    # the exact rank is compared, so a wrong rank 1 for 0 is seen too
    for cube, wrong, exact in (("1 0 0 0 0 0 0 0", 2, 1), ("0 0 0 0 0 0 0 0", 1, 0)):
        monkeypatch.setattr(hvariety, "_flattening_rank", lambda rows: wrong)
        code, got = _classify_report(tmp_path, cube)
        assert code == 1 and got["status"] == "fail"
        assert got["data"]["residual"] == \
            f"flattening 1 has rank {wrong}, but elimination gives rank {exact}"


def test_classify_input_passes_with_the_same_data(tmp_path, capsys):
    code, got = _classify_report(tmp_path, "1/2 -3/4 2/3 5 -1/7 0 3/2 -2")
    assert code == 0
    assert got["data"] == {"label": "O4", "hyperdet": "-9663/3136", "ranks": [2, 2, 2]}


def test_bad_hypermatrix_is_input_error(tmp_path, capsys):
    cube = tmp_path / "bad.txt"
    cube.write_text("1 2 3")
    assert run(["classify", "--hypermatrix", str(cube)]) == 2


@pytest.mark.parametrize("command,option,text", [
    ("classify", "--hypermatrix", '{"p333": "1"}'),
    ("classify", "--hypermatrix", '{"p111": "1/0"}'),
    ("weights", "--weights", "[]"),
    # a repeated key is not read as its last value
    ("classify", "--hypermatrix", '{"p111": 1, "p222": 1, "p222": 0}'),
    ("weights", "--weights", '{"x11": "1", "u1": "2", "x11": "3"}'),
    ("hilbert", "--weights", '{"x11": ["1", "2"], "x11": "1"}'),
])
def test_malformed_file_is_input_error(tmp_path, capsys, command, option, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert run([command, option, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["hilbert", "--sections", "-1"],
    ["hilbert", "--sections", "13"],
    ["hilbert", "--sections", "14"],
    ["all", "--samples", "0"],
    ["fiber", "--samples", "-5"],
])
def test_out_of_range_count_is_input_error(capsys, args):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert captured.err.count("\n") == 1


# the (command, input option) pairs whose claims read the option
_READ = {("classify", "--hypermatrix"), ("weights", "--weights"), ("hilbert", "--weights"),
         ("hilbert", "--sections")}
_REFUSED = [(command, option) for command in [*cli.COMMANDS, "all"]
            for option in ("--hypermatrix", "--weights", "--sections")
            if (command, option) not in _READ]


@pytest.mark.parametrize("command,option", _REFUSED)
def test_an_option_the_command_does_not_read_is_refused(tmp_path, capsys, command, option):
    # the file does not exist, so the refusal comes before any file is read
    value = "8" if option == "--sections" else str(tmp_path / "absent.txt")
    report = tmp_path / "report.json"
    assert run([command, option, value, "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {option} is not read by {command}\n"
    assert not report.exists()


def test_sampled_claims_draw_exactly_samples(tmp_path):
    out = tmp_path / "report.json"
    assert run(["chart", "--samples", "3", "--json", str(out)]) == 0
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    assert claims["chart/pfaffians"]["data"]["checked"] == 3


def test_missing_file_is_input_error(tmp_path):
    assert run(["classify", "--hypermatrix", str(tmp_path / "none.txt")]) == 2


def test_hilbert_rejects_bigraded_weights(tmp_path):
    w = tmp_path / "w.json"
    w.write_text('{"x11": ["1", "0"]}')
    assert run(["hilbert", "--weights", str(w)]) == 2


def test_hilbert_rejects_a_fractional_weight(tmp_path, capsys):
    # no resolution shift reads p111, so the section count is what refuses it
    w = tmp_path / "w.json"
    w.write_text(json.dumps({**{n: str(v) for n, v in grading.standard_weights().items()},
                             "p111": "1/2"}))
    assert run(["hilbert", "--weights", str(w)]) == 2
    assert capsys.readouterr().err == "input error: positive integer weights required\n"


def test_main_exits_with_the_code_of_run(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cubicjordan", "all", "--samples", "0"])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 2


def test_a_sampled_point_off_the_variety_exits_3(monkeypatch, capsys):
    images, _ = hvariety._sampling_tables()
    monkeypatch.setattr(hvariety, "_sampling_tables",
                        lambda: (images, lambda nums, den: ([1], 1)))
    assert run(["chart"]) == 3
    assert capsys.readouterr().err == ("internal error: InternalError: "
                                       "constructed point violates the equations\n")


def _zero_batches(m):
    # every batch compiled from here on evaluates to zero, the cached ones too
    m.setattr(hvariety, "compile_batch", lambda polys: lambda nums, den: ([0] * len(polys), 1))
    for name in ("_sampling_tables", "_chart_pfaffians"):
        m.setattr(hvariety, name, functools.cache(getattr(hvariety, name).__wrapped__))


def _p4_locus_everywhere(m):
    p4 = hvariety.REPRESENTATIVES["p4"]
    # a locus with no nonzero equation: every draw lies on it
    m.setitem(hvariety.REPRESENTATIVES, "p4", p4._replace(locus=lambda v: [v("u1") - v("u1")]))


# command, tamper, the loop that would redraw forever without its bound
RETRY_TAMPERS = {
    "x11": ("chart", _zero_batches, "chart sample with x11 nonzero"),
    "off-locus": ("radicals", _p4_locus_everywhere, "point off the radical locus"),
    "cube": ("radicals", lambda m: m.setattr(hvariety, "_cayley", lambda nums: 0),
             "cube with nonzero hyperdeterminant"),
}


@pytest.mark.parametrize("loop", RETRY_TAMPERS)
def test_a_retry_loop_that_never_accepts_exits_3(loop, monkeypatch, capsys):
    command, tamper, name = RETRY_TAMPERS[loop]
    tamper(monkeypatch)
    start = time.perf_counter()
    assert run([command]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (f"internal error: InternalError: {name}: "
                                       "no draw accepted in 64 tries\n")


def test_a_failing_sampled_claim_names_its_draw(monkeypatch, capsys):
    monkeypatch.setattr(jordan, "radical_membership", lambda tables, sigma: True)
    assert run(["radicals", "--seed", "7"]) == 1
    assert capsys.readouterr().err == ("first failing claim: radicals/generic-nondegenerate: "
                                       "cube 0: a nonzero element lies in the radical\n")


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    # a kernel error raised inside a suite is a fault of the program, not
    # malformed input
    def broken(opts):
        raise ContextError("mixed ring contexts")

    monkeypatch.setattr(cli, "suite_fiber", broken)
    assert run(["fiber"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: ContextError: mixed ring contexts\n"


def test_wrong_genus_fails_hilbert_invariants(tmp_path, monkeypatch, capsys):
    fano_invariants = grading.fano_invariants

    def genus_plus_one(*args, **kwargs):
        fano = fano_invariants(*args, **kwargs)
        return {**fano, "genus": fano["genus"] + 1}

    monkeypatch.setattr(grading, "fano_invariants", genus_plus_one)
    out = tmp_path / "report.json"
    assert run(["hilbert", "--json", str(out)]) == 1
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    invariants = claims["hilbert/invariants"]
    assert invariants["status"] == "fail"
    assert invariants["data"]["genus"] == "4"
    assert invariants["data"]["residual"] == \
        "degree 11/2, genus 4; expected degree 11/2, genus 3"
    assert "first failing claim: hilbert/invariants" in capsys.readouterr().err


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


def test_unwritable_json_path_is_input_error(tmp_path, capsys, monkeypatch):
    # refused before any suite runs: a missing directory, or a directory
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        assert run(["hilbert", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: ") and err.count("\n") == 1
    # a path that passes that check and still cannot be written
    def refuse(*args, **kwargs):
        raise PermissionError("permission denied")

    monkeypatch.setattr(Path, "write_text", refuse)
    assert run(["hilbert", "--json", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == "input error: cannot write the report: permission denied\n"


def test_sections_default_is_nine(tmp_path):
    # the default of --sections is the nine weight-one sections of the theorem
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["hilbert", "--json", str(a)]) == 0
    assert run(["hilbert", "--sections", "9", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_hilbert_builds_one_resolution(monkeypatch, capsys):
    # the numerator, the pairing and the invariants share one set of shifts
    calls = {}
    for name in ("resolution_shifts", "hilbert_numerator"):
        def counted(*args, _recorded=getattr(grading, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _recorded(*args)
        monkeypatch.setattr(grading, name, counted)
    assert run(["hilbert"]) == 0
    assert calls == {"resolution_shifts": 1, "hilbert_numerator": 1}


def test_warm_axioms_pass_changes_ring_once(monkeypatch, capsys):
    # each table moves into a new ring in one batch, not by converting its
    # cells one at a time; the one convert left is directional_derivative's
    assert run(["verify-axioms"]) == 0
    callers = []

    def counted(self, ring, _real=Poly.convert):
        callers.append(sys._getframe(1).f_code.co_name)
        return _real(self, ring)
    monkeypatch.setattr(Poly, "convert", counted)
    assert run(["verify-axioms"]) == 0
    assert callers == ["directional_derivative"]


def test_json_report_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["fiber", "--seed", "5", "--samples", "20", "--json", str(a)]) == 0
    assert run(["fiber", "--seed", "5", "--samples", "20", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# (seed, sha256) of the --json report of ``all --seed <seed> --samples 30``,
# at seed 0 and at the seed 7 that perfbench runs, so that a change meant
# only to be faster is seen to leave every report byte alone.  A change
# that means to alter the report updates these digests and says why.
ALL_REPORT_SHA256 = (
    (0, "fb17840460bb7db36bd0afc646fb29d6e37b5a85198c4cee0f603803b491a997"),
    (7, "b433c71e5e536768a9d8ac2c132a00c81183c98568c86473f5cf3442ee8f4aab"),
)


def test_all_report_bytes_are_pinned(tmp_path, capsys):
    report = tmp_path / "all.json"
    for seed, digest in ALL_REPORT_SHA256:
        assert run(["all", "--seed", str(seed), "--samples", "30",
                    "--json", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest, seed


# The same for ``all --seed 0 --samples 300``, the path whose draws and
# rational radical tests grow with the sample count.
ALL_300_REPORT_SHA256 = "a36635869e241ead2900796ff2bbe2818f5b7f2e475d1de544f6615a6a5d7b2a"


def test_all_300_sample_report_bytes_are_pinned(tmp_path, capsys):
    report = tmp_path / "all.json"
    assert run(["all", "--seed", "0", "--samples", "300", "--json", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == ALL_300_REPORT_SHA256


def test_the_claims_follow_the_tables(tmp_path, monkeypatch, capsys):
    # a row left out of a table of named cases takes its claims with it:
    # the command line names no representative and no embedding part
    def claims(name):
        report = tmp_path / name
        assert run(["all", "--seed", "7", "--json", str(report)]) == 0
        return {c["claim_id"]: c["data"] for c in json.loads(report.read_text())["claims"]}

    full = claims("full.json")
    reps = hvariety.REPRESENTATIVES
    monkeypatch.setattr(hvariety, "REPRESENTATIVES", {n: r for n, r in reps.items() if n != "p3"})
    # ``fiber/p3-degenerate`` names its representative: it still finds the cube
    monkeypatch.setattr(hvariety, "representative", lambda name: Hypermatrix(reps[name].cube))
    monkeypatch.setattr(relatives, "EMBEDDINGS",
                        {p: e for p, e in relatives.EMBEDDINGS.items() if p != "II"})
    cut = claims("cut.json")
    assert set(full) - set(cut) == {"axioms/cubic-display-p3", "classify/rep-p3",
                                    "radicals/p3", "prop76/part-ii"}
    assert set(cut) < set(full)
    assert full["classify/translate-invariance"] == {"translates": 80}
    assert cut["classify/translate-invariance"] == {"translates": 60}


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
    err = capsys.readouterr().err
    assert "input error" not in err
    # hilbert/canonical fails first but carries no witness
    assert err.rstrip("\n").endswith(
        "first failing claim: hilbert/invariants: "
        "numerator lacks vanishing order 4 at t = 1; wrong weights")


@pytest.mark.parametrize("command", ["weights", "hilbert"])
@pytest.mark.parametrize("name", ["zz", "u_1"])
def test_weight_file_naming_an_unknown_variable_is_input_error(tmp_path, capsys,
                                                               command, name):
    # the name would otherwise be ignored, and the standard grading reported
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**STANDARD, name: "5"}))
    assert run([command, "--weights", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: unknown variables: [{name!r}]\n"


def test_repeated_key_names_the_key(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text('{"p111": 1, "p222": 1, "p222": 0}')
    assert run(["classify", "--hypermatrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: repeated key 'p222'\n"


# one entry of each input file that a binary float would round: the cube
# entry to 2381496680193568284655539971041/156250000000000000000000000000000
# in D_H, the weight to 1, which passes every claim of ``hilbert``
_UNROUNDED = {
    "classify": ("--hypermatrix", {"p111": "0.12345678901234567890", "p222": "1"}, "p111"),
    "weights": ("--weights", {**STANDARD, "x11": "1.0000000000000001"}, "x11"),
    "hilbert": ("--weights", {**STANDARD, "x11": "1.0000000000000001"}, "x11"),
}


@pytest.mark.parametrize("command", sorted(_UNROUNDED))
def test_json_number_reads_as_its_string(tmp_path, capsys, command):
    option, entries, key = _UNROUNDED[command]
    path = tmp_path / "input.json"
    text = json.dumps(entries)
    outcomes = []
    for form in (text, text.replace(f'"{entries[key]}"', entries[key])):
        path.write_text(form)
        code = run([command, option, str(path)])
        outcomes.append((capsys.readouterr().out, code))
    assert outcomes[0] == outcomes[1]
    if command == "classify":
        assert "D_H = 1524157875323883675019051998750190521/1" + "0" * 38 in outcomes[0][0]
    else:
        assert outcomes[0][1] != 0


@pytest.mark.parametrize("value,kind", [
    ("true", "true"), ("false", "false"), ("null", "null"),
    ("[1, 2, 3]", "a list"), ('{"a": 1}', "an object")])
def test_json_non_numbers_are_not_rationals(tmp_path, capsys, value, kind):
    path = tmp_path / "cube.json"
    path.write_text(f'{{"p111": {value}, "p222": 1}}')
    assert run(["classify", "--hypermatrix", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {kind} is not a rational\n"


def _hilbert_at_u3(tmp_path, u3: int) -> tuple[int, Path]:
    w = tmp_path / "w.json"
    w.write_text(json.dumps({**STANDARD, "u3": str(u3)}))
    out = tmp_path / "report.json"
    return run(["hilbert", "--weights", str(w), "--json", str(out)]), out


def test_hilbert_time_does_not_grow_with_the_largest_weight(tmp_path, capsys):
    # the numerator has a term of degree about u3; the checks pass over its
    # terms, not over every degree up to it
    start = time.perf_counter()
    code, out = _hilbert_at_u3(tmp_path, 10**9)
    assert time.perf_counter() - start < 1
    assert code == 1
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    assert claims["hilbert/invariants"]["data"]["residual"] == \
        "numerator lacks vanishing order 4 at t = 1; wrong weights"


# sha256 of the --json report of ``hilbert`` at the standard weights with
# u3 = 10000, taken before the degree loops were replaced by term loops
HILBERT_U3_REPORT_SHA256 = "780b48bd7daf1b979ffa0f237c8be4687a166ab1c57fa4da92ee53bf98370c0d"


def test_hilbert_report_at_a_large_weight_is_pinned(tmp_path, capsys):
    code, out = _hilbert_at_u3(tmp_path, 10**4)
    assert code == 1
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HILBERT_U3_REPORT_SHA256


def test_failing_claim_without_a_witness_is_named_alone(tmp_path, capsys):
    # u1 to u3 of 99 nines break only the dualizing identity of
    # hilbert/canonical, which has neither a residual nor failures to show
    nines = "9" * 99
    w = tmp_path / "w.json"
    w.write_text(json.dumps({**STANDARD, "u1": nines, "u2": nines, "u3": nines}))
    assert run(["hilbert", "--weights", str(w)]) == 1
    assert capsys.readouterr().err == "first failing claim: hilbert/canonical\n"


# (argv, sha256 of the --json report, first line of stdout) of runs whose
# claims depend on --sections or --hypermatrix, which ``all`` refuses
OPTION_REPORT_SHA256 = [
    (["hilbert", "--sections", "8"],
     "d32f3803a93ac64ff07bd4b1a646e8b122a06a102e7012613053bcc756aac023",
     "[PASS] hilbert/canonical"),
    (["hilbert", "--sections", "0"],
     "c3928375e10ea363ab9b69f0e2bb4e70aaf229b65b584f66cc924175ce0c937c",
     "[PASS] hilbert/canonical"),
    (["classify", "--hypermatrix", "1/2 -3/4 2/3 5 -1/7 0 3/2 -2"],
     "b662ef855ffc669a1435a4cc85f467082aa63d217cd0a05d464d413c9b2ff578",
     "O4, D_H = -9663/3136, flattening ranks (2, 2, 2)"),
]


@pytest.mark.parametrize("argv,digest,first_line", OPTION_REPORT_SHA256,
                         ids=["sections-8", "sections-0", "hypermatrix"])
def test_option_guarded_reports_are_pinned(tmp_path, capsys, argv, digest, first_line):
    if argv[1] == "--hypermatrix":
        cube = tmp_path / "cube.txt"
        cube.write_text(argv[2])
        argv = [*argv[:2], str(cube)]
    out = tmp_path / "report.json"
    assert run([*argv, "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.splitlines()[0] == first_line


def test_claim_rows_call_their_certificate_when_they_run(monkeypatch, capsys):
    # a row that kept the function object would still run the original
    def broken():
        raise RuntimeError("patched certificate")

    monkeypatch.setattr(hvariety, "chart_det_identity", broken)
    assert run(["chart", "--samples", "1"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: patched certificate\n"


# random input files: keys are real names or junk, values are unbounded
# integers, rationals, junk text or JSON of the wrong type; objects start
# from a valid file so that the suites behind the parsers run as well
_junk = st.text(max_size=6)
# exponent notation, up to exponents that would take hours to expand
_exponent = st.builds(lambda m, e, x: f"{m}{e}{x}", st.integers(-9, 9),
                      st.sampled_from("eE"), st.integers(-10**9, 10**9))
# numerals on both sides of the 100-character bound of ``parse_rational``
_long = st.integers(90, 300).flatmap(lambda d: st.integers(10 ** (d - 1), 10 ** d - 1))
_value = st.one_of(
    st.integers(), st.integers().map(str), st.integers(1, 3).map(str), st.fractions().map(str),
    _long, _long.map(str), _exponent, _junk, st.none(), st.booleans(), st.floats(),
    st.lists(st.integers(), max_size=3), st.dictionaries(_junk, st.integers(), max_size=1))


def _objects(base: dict) -> st.SearchStrategy[str]:
    names = sorted(base)
    return st.builds(
        lambda dropped, changed: json.dumps(
            {**{k: v for k, v in base.items() if k not in dropped}, **changed}),
        st.one_of(st.just(set()), st.sets(st.sampled_from(names), max_size=3)),
        st.dictionaries(st.one_of(st.sampled_from(names), _junk),
                        st.one_of(st.integers(min_value=1), _value), max_size=3))


_token = st.one_of(st.integers().map(str), st.fractions().map(str), _long.map(str), _exponent,
                   _junk)
_FUZZ_FILES = {
    "--hypermatrix": st.one_of(
        st.text(max_size=40), st.lists(_token, max_size=9).map(" ".join),
        _objects({n: "1/2" for n in coord8.PARAM_VARS})),
    "--weights": st.one_of(st.text(max_size=40), _objects(STANDARD)),
}


@pytest.mark.parametrize("command,option", [
    ("classify", "--hypermatrix"), ("weights", "--weights"), ("hilbert", "--weights")])
def test_file_parsers_never_fault(tmp_path_factory, command, option):
    path = tmp_path_factory.mktemp("fuzz") / "input"

    @settings(max_examples=60, deadline=None)
    @given(text=_FUZZ_FILES[option])
    def check(text):
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([command, option, str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()

    check()


# zero, negative, fractional and huge rationals (10**100 is one digit past
# the bound), as JSON strings or numbers, and values that are no rational;
# short lists, as test_file_parsers_never_fault draws random text and numbers
_rational = st.one_of(st.integers(-3, 3), st.sampled_from(
    [Fraction(1, 2), Fraction(-2, 3), Fraction(7, 6), 10 ** 20, 10 ** 99, -10 ** 99, 10 ** 100]))
# numerals that Fraction reads but the grammar refuses: a digit separator, an
# Arabic-Indic and a full-width one
_FOREIGN = ["1_000", "2_0", "\u0661", "\uff11"]
_literal = st.one_of(
    _rational.map(lambda r: json.dumps(str(r))), st.integers(-3, 3).map(str),
    st.sampled_from(["0.5", "null", "true", "[]", "{}", "NaN", "1e3", '"1/0"', '"x"']),
    st.sampled_from(_FOREIGN).map(lambda x: f'"{x}"'))


def _edited(base: dict, names: list[str]) -> st.SearchStrategy[str]:
    """JSON text of ``base`` with up to three entries set, added, repeated
    (the text keeps a repeated key) or dropped."""
    def apply(edits):
        pairs = [(k, json.dumps(v)) for k, v in base.items()]
        for name, value, repeat in edits:
            if value is None or not repeat:
                pairs = [(k, v) for k, v in pairs if k != name]
            if value is not None:
                pairs.append((name, value))
        return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"

    value = st.one_of(st.none(), _literal, st.tuples(_literal, _literal).map(
        lambda p: f"[{p[0]}, {p[1]}]"))
    return st.lists(st.tuples(st.sampled_from(names), value, st.booleans()),
                    max_size=3).map(apply)


_UNKNOWN = ["zz", "u_1", "P111", ""]
_CUBE = {n: "1/2" for n in coord8.PARAM_VARS}
_INPUTS = st.one_of(
    st.tuples(st.just(["classify", "--hypermatrix"]), st.one_of(
        st.lists(st.one_of(_rational.map(str),
                           st.sampled_from(["x", "1/0", "1e3", "0.5", *_FOREIGN])),
                 max_size=9).map(" ".join),
        _edited(_CUBE, [*_CUBE, *_UNKNOWN]))),
    st.tuples(st.sampled_from([["weights", "--weights"], ["hilbert", "--weights"]]),
              _edited(STANDARD, [*STANDARD, *_UNKNOWN])),
    st.tuples(st.just(["hilbert", "--sections"]), st.integers(-3, 20)))


def _nested(depth):
    return "[" * depth + "1" + "]" * depth


def test_input_files_keep_the_exit_code_promise(tmp_path_factory):
    # whatever the input, the run exits 0, 1 or 2; exit 2 says why in one line
    path = tmp_path_factory.mktemp("inputs") / "input"

    @settings(max_examples=120, deadline=None)
    @given(case=_INPUTS)
    @example(case=(["hilbert", "--sections"], 13))
    @example(case=(["classify", "--hypermatrix"], "1_000 0 0 0 0 0 0 0"))
    @example(case=(["classify", "--hypermatrix"], "\u0661 0 0 0 0 0 0 0"))
    @example(case=(["classify", "--hypermatrix"], "\uff11 0 0 0 0 0 0 1"))
    @example(case=(["hilbert", "--weights"], json.dumps({**STANDARD, "u1": "2_0"})))
    @example(case=(["classify", "--hypermatrix"], '{"p111": ' + _nested(100_000) + "}"))
    def check(case):
        argv, value = case
        if isinstance(value, str):
            path.write_text(value)
            value = path
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run([*argv, str(value)])
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err and "internal error" not in err
        if code == 2:
            assert err.startswith("input error:") and err.count("\n") == 1
        if argv == ["hilbert", "--sections"]:
            # the 13-dimensional cone has sections by 0 to 12 weight-one forms
            assert (code == 2) == (not 0 <= value <= 12)
        elif "_" in case[1] or not case[1].isascii():
            # a separator or a non-ASCII character is in no numeral or name
            assert code == 2

    check()


@pytest.mark.parametrize("command,option", [
    ("classify", "--hypermatrix"), ("weights", "--weights"), ("hilbert", "--weights")])
def test_exponent_notation_is_input_error_at_once(tmp_path, capsys, command, option):
    # Fraction would expand 10**exponent in full: hours at 1e1000000000,
    # and at 1e2200 a hyperdeterminant too long to print
    path = tmp_path / "input"
    for x in ("1e2200", "1e1000000000", "-2.5E-7"):
        path.write_text(f"{x} 0 0 0 0 0 0 1" if option == "--hypermatrix"
                        else json.dumps({**STANDARD, "x11": x}))
        start = time.perf_counter()
        assert run([command, option, str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:") and x in captured.err


def test_long_numerals_are_input_error_at_once(tmp_path, capsys):
    # both cubes would give a D_H of over 4,300 digits, which str refuses
    path = tmp_path / "input"
    files = [("classify", "--hypermatrix", "1" + "0" * 2200 + " 0 0 0 0 0 0 1"),
             ("classify", "--hypermatrix", " ".join(f"1/{10**299 + k}" for k in range(1, 9)))]
    files += [(command, "--weights", json.dumps({**STANDARD, "x11": 10**100}))
              for command in ("weights", "hilbert")]
    for command, option, text in files:
        path.write_text(text)
        start = time.perf_counter()
        assert run([command, option, str(path)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error:")


@pytest.mark.parametrize("command,option,text", [
    ("classify", "--hypermatrix", "1_000 0 0 0 0 0 0 0"),
    ("classify", "--hypermatrix", "\u0661 0 0 0 0 0 0 0"),
    ("classify", "--hypermatrix", "\uff11 0 0 0 0 0 0 1"),
    ("weights", "--weights", json.dumps({**STANDARD, "u1": "2_0"})),
    ("hilbert", "--weights", json.dumps({**STANDARD, "u1": "2_0"})),
    ("hilbert", "--weights", json.dumps({**STANDARD, "u1": "\uff12"}, ensure_ascii=False)),
], ids=["cube-separator", "cube-arabic-indic", "cube-full-width", "weights-separator",
        "hilbert-separator", "hilbert-full-width"])
def test_numerals_outside_the_grammar_are_input_error(tmp_path, capsys, command, option, text):
    # Fraction reads digit separators and non-ASCII digits: the cubes would
    # read as 1000 or as 1, and the weight u1 as 20 or as 2
    path = tmp_path / "input"
    path.write_text(text)
    assert run([command, option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("depth", [500, 1000, 100_000])
@pytest.mark.parametrize("command,option", [("classify", "--hypermatrix"),
                                            ("weights", "--weights")])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, command, option, depth):
    # json.loads raises RecursionError past the interpreter's recursion limit
    path = tmp_path / "input"
    path.write_text('{"p111": ' + _nested(depth) + "}" if option == "--hypermatrix"
                    else json.dumps({**STANDARD, "u1": 0}).replace(
                        '"u1": 0', '"u1": ' + _nested(depth)))
    assert run([command, option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_hundred_character_numerals_are_read(tmp_path, capsys):
    numerals = [f"{10**48 + 7 * k + 3}/{10**49 + 2 * k + 1}" for k in range(8)]
    assert {len(t) for t in numerals} == {100}
    path = tmp_path / "cube.txt"
    path.write_text(" ".join(numerals))
    assert run(["classify", "--hypermatrix", str(path)]) == 0
    assert "D_H = " in capsys.readouterr().out


def test_fractional_symbolic_cubic_fails_its_claim(tmp_path, monkeypatch, capsys):
    # add 1/2 x11*x12*x13 to the symbolic cubic: it stays a cubic with
    # value one at the unit, so only the claims see the change
    p = coord8._symbolic_presentation()
    x11, x12, x13 = (p.ring.var(n) for n in ("x11", "x12", "x13"))
    half = Fraction(1, 2) * x11 * x12 * x13
    # a new presentation, so the compiled tables it holds for the cubes of
    # this test read the patched cubic and no later test does
    patched = JordanPresentation(p.ring, p.coords, p.unit, p.cubic + half, p.sharp)
    monkeypatch.setattr(coord8, "_symbolic_presentation", lambda: patched)
    out = tmp_path / "report.json"
    assert run(["verify-axioms", "--json", str(out)]) == 1
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    assert claims["axioms/cubic-integer-coefficients"]["status"] == "fail"
    assert "Traceback" not in capsys.readouterr().err


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


# (exit, sha256) of the --json report of ``weights --weights F --seed 0``,
# for F the standard weights, the standard weights with u1 = 5, and the
# bigradings with those as the second row; ``all`` never reads a file.
WEIGHTS_REPORT_SHA256 = {
    "standard": (0, "207fa3529054a378ee8cb9311be5c088e3766e8dc8e69071353e1952dff022ea"),
    "u1=5": (1, "0d890f26846a57b2706951a1db46fe268a5f049429345086970033bc29d62a74"),
    "standard,standard": (
        0, "cf6b39f63ff6c9afe70aeec01450025c7790ee3709e3bc805e45b41f6740e5de"),
    "standard,u1=5": (
        1, "f6dc0fea1c17430c9b49021d837ce7a72152f2a20c5ffd5475e6208494cb9090"),
}


@pytest.mark.parametrize("rows", WEIGHTS_REPORT_SHA256)
def test_weights_file_report_bytes_are_pinned(tmp_path, capsys, rows):
    named = {"standard": STANDARD, "u1=5": {**STANDARD, "u1": "5"}}
    grading_rows = [named[r] for r in rows.split(",")]
    w = tmp_path / "w.json"
    w.write_text(json.dumps(grading_rows[0] if len(grading_rows) == 1 else
                            {n: [r[n] for r in grading_rows] for n in STANDARD}))
    out = tmp_path / "report.json"
    code, digest = WEIGHTS_REPORT_SHA256[rows]
    assert run(["weights", "--weights", str(w), "--seed", "0", "--json", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_weights_solver_mode(capsys):
    assert run(["weights"]) == 0
    assert "[PASS] weights/lattice" in capsys.readouterr().out


@pytest.mark.parametrize("command,defect", [
    (command, defect) for defect, (command, *_) in cli.DEFECTS.items()])
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


_UNREACHED = [(command, defect) for defect, (own, *_) in cli.DEFECTS.items()
              for command in cli.COMMANDS if command != own]


@pytest.mark.parametrize("command,defect", _UNREACHED)
def test_a_defect_the_command_does_not_reach_is_refused(tmp_path, capsys, command, defect):
    report = tmp_path / "report.json"
    assert run([command, "--defect", defect, "--json", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --defect {defect} does not reach {command}\n"
    assert not report.exists()


# sha256 of the --json report of each defect at --seed 0 --samples 5, with
# its own command and with ``all``; a change that means to alter a defect
# report updates its digest and says why
DEFECT_REPORT_SHA256 = {
    "tampered-sharp": (
        "915e65ac3529c0a2d8681eeb62fa3b5eaf07ffdca6b877bf8b679f1186abce42",
        "2eed3661193383c6883f0ecba8d5ee10b287e0eb160bd6a3c29647ab0feff59c"),
    "skip-chart-substitution": (
        "936f9c69ca3cadb4b13b307c00f7335fda222e76b5bfafc48c223dbcfa28cf68",
        "9c72e3bd55e552be46ec7cdac0b3ad7d51b2d454fe76765d9677e3d6626c6d0e"),
    "perturbed-dictionary": (
        "7080ba6edc04074206bfe75015d35344e639c3b89772175ae64c6a1b86d21a56",
        "b08bdbfea3e34e12e348327e2fa7a3fcef83f4b312a1a0ca81358b0f32e1e4f7"),
}


def _certificate(defect):
    _, module, attr, _ = cli.DEFECTS[defect]
    return getattr(getattr(cli, module), attr)


@pytest.mark.parametrize("defect", DEFECT_REPORT_SHA256)
def test_defect_reports_are_pinned_and_the_certificate_restored(tmp_path, capsys, defect):
    original = _certificate(defect)
    out = tmp_path / "report.json"
    for command, digest in zip((cli.DEFECTS[defect][0], "all"),
                               DEFECT_REPORT_SHA256[defect]):
        assert run([command, "--defect", defect, "--seed", "0", "--samples", "5",
                    "--json", str(out)]) == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, command
        assert _certificate(defect) is original


@pytest.mark.parametrize("error,code", [(RuntimeError, 3), (InputError, 2)])
def test_defect_certificate_is_restored_when_a_suite_raises(monkeypatch, capsys,
                                                            error, code):
    original = _certificate("tampered-sharp")
    wrapped = []

    def broken(opts):
        wrapped.append(_certificate("tampered-sharp") is not original)
        raise error("raised inside the suite")

    monkeypatch.setattr(cli, "suite_axioms", broken)
    assert run(["verify-axioms", "--defect", "tampered-sharp"]) == code
    assert wrapped == [True]
    assert _certificate("tampered-sharp") is original


def test_radicals_pass_where_u_vanishes_off_locus():
    # seed 13 draws an off-locus point of the p1 algebra with u1 = u2 = u3 = 0
    assert run(["radicals", "--seed", "13"]) == 0


def test_a_tampered_compiled_trace_entry_fails_the_radical_claims(tmp_path, monkeypatch,
                                                                  capsys):
    # add one to T(e_x11, e_x11) in the compiled tables: the radical tests
    # read it, so points of the stated loci fail the U-test, while the
    # specialized cubic forms keep their displays, which shows that they are
    # substituted into the symbolic cubic and never read the batch
    pres = coord8.presentation(None)
    keys, trace, batch = pres._table_batch
    at = len(keys) + trace.index((0, 0))

    def tampered(nums, den):
        values, scale = batch(nums, den)
        values[at] += scale
        return values, scale

    monkeypatch.setitem(pres.__dict__, "_table_batch", (keys, trace, tampered))
    out = tmp_path / "report.json"
    assert run(["radicals", "--json", str(out)]) == 1
    claims = {c["claim_id"]: c for c in json.loads(out.read_text())["claims"]}
    origin = claims["radicals/origin"]
    assert origin["status"] == "fail"
    assert origin["data"]["failures"] == ["origin: locus point rejected by the U-operator test"]
    assert origin["data"]["display_ok"] is True
    err = capsys.readouterr().err
    assert "first failing claim: radicals/origin" in err and "Traceback" not in err


def test_a_tampered_trace_table_fails_the_axioms(tmp_path, monkeypatch):
    # add one to T(e_x11, e_x11) in the trace table that the symbolic route
    # reads: the sharp conditions and the unit checks, expanded from the
    # cubic and the sharp map, certify the table whatever route builds it
    pres = coord8.presentation(None)
    trace, table = pres._trace_form
    monkeypatch.setitem(pres.__dict__, "_trace_form",
                        (trace, {**table, (0, 0): table[(0, 0)] + 1}))
    out = tmp_path / "report.json"
    assert run(["verify-axioms", "--json", str(out)]) == 1
    failed = {c["claim_id"] for c in json.loads(out.read_text())["claims"]
              if c["status"] == "fail"}
    assert failed == {"axioms/sharp1", "axioms/unit-and-idempotents"}


def test_the_trace_form_is_built_once_per_process(monkeypatch):
    # every run reads the table of the one symbolic presentation, so it is
    # built at most once, by whichever run of this process comes first
    form = JordanPresentation.__dict__["_trace_form"]
    build = form.func
    builds = []

    def counted(pres):
        builds.append(pres)
        return build(pres)

    monkeypatch.setattr(form, "func", counted)
    for command in ("verify-axioms", "radicals", "verify-axioms"):
        assert run([command]) == 0
    assert len(builds) <= 1


def test_the_polynomial_route_never_reads_the_compiled_tables(monkeypatch, capsys):
    # the specialized cubic and presentations substitute into the symbolic
    # forms; only the radical tests read the compiled batch
    def unavailable(pres):
        raise RuntimeError("compiled tables read")

    monkeypatch.setattr(JordanPresentation, "_table_batch", property(unavailable))
    assert run(["verify-axioms"]) == 0
    assert run(["fiber"]) == 0
    p3 = hvariety.representative("p3")
    assert coord8.cubic_form(p3).to_str() == hvariety.REPRESENTATIVES["p3"].display
    capsys.readouterr()
    assert run(["radicals"]) == 3
    assert capsys.readouterr().err.startswith("internal error:")


def test_prop76_command():
    assert run(["prop76", "--samples", "5"]) == 0


CACHE_PROBE = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import cubicjordan.cli
    print(json.dumps({f"{name}.{attr}": fn.cache_info().currsize
                      for name, module in sorted(sys.modules.items())
                      if name.startswith("cubicjordan.")
                      for attr, fn in vars(module).items()
                      if hasattr(fn, "cache_info")}))
""")


def test_import_fills_no_cache():
    # the compiled batches and cached expansions are built on first use, so
    # that starting the program costs no more than importing it
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", CACHE_PROBE, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    sizes = json.loads(done.stdout)
    assert {"cubicjordan.hvariety._sampling_tables", "cubicjordan.hvariety._fiber_system",
            "cubicjordan.hvariety._chart_pfaffians",
            "cubicjordan.hvariety._parametrization_batch", "cubicjordan.hvariety._locus_batch",
            "cubicjordan.relatives._embedding_batches"} <= set(sizes)
    assert set(sizes.values()) == {0}


def test_import_loads_no_code_generation():
    # the records are NamedTuples and plain classes: starting the program
    # loads neither dataclasses nor the introspection modules it imports
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys; sys.path.insert(0, sys.argv[1]); import cubicjordan.cli; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe, str(src)],
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = set(done.stdout.split())
    assert {"cubicjordan.cli", "argparse"} <= loaded
    assert not {"dataclasses", "inspect", "ast", "dis"} & loaded
