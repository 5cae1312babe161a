import dataclasses
import json
import os
import subprocess
import sys
from math import lcm, prod
from pathlib import Path
from time import perf_counter

import pytest

from power_forge import cli, jsonio, oracles, powers
from power_forge.cli import _expectation_gate, main
from power_forge.construct import (_ADMISSIBLE_PRIMES, _MAX_F_BITS, ConstructionArtifacts,
                                   PowerSetInput, build_g_h_f, construct, select_offset_exponent)
from power_forge.errors import ValidationError
from power_forge.jsonio import artifacts_to_json, dumps, poly_to_json
from power_forge.ntheory import primes_up_to
from power_forge.oracles import search_catalan
from power_forge.poly import IntPoly
from power_forge.verify import verify_construction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_stdout_json(capsys):
    code, out, err = run(capsys, "construct", "--set", "9/25")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "construction" and doc["k"] == 4
    assert "deg=9" in err  # summary moved to stderr when JSON owns stdout


def test_construct_out_file(capsys, tmp_path):
    target = tmp_path / "art.json"
    code, out, err = run(capsys, "construct", "--set", "4,8,36",
                         "--variant", "integer", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["variant"] == "integer"
    assert "deg=13" in out and err == ""


def test_construct_rejects_non_powers(capsys):
    code, out, err = run(capsys, "construct", "--set", "5")
    assert code == 2
    doc = json.loads(err)
    assert doc["kind"] == "error" and "5" in doc["error"]["message"]


def test_construct_empty_set(capsys):
    code, out, _ = run(capsys, "construct", "--set", "")
    assert code == 0
    assert json.loads(out)["f"] == ["2"]


def test_verify_integer_pass(capsys):
    code, out, err = run(capsys, "verify", "--set", "4,8,36",
                         "--variant", "integer", "--bound", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert [h["x"] for h in doc["hits"]] == ["4", "8", "36"]
    assert err.startswith("PASS")


def test_verify_rational_pass(capsys):
    code, out, _ = run(capsys, "verify", "--set", "9/25", "--height", "30")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_empty_set(capsys):
    code, out, _ = run(capsys, "verify", "--set", "", "--height", "5")
    assert code == 0
    assert json.loads(out)["hits"] == []


def test_verify_window_flag_must_match_variant(capsys):
    code, _, err = run(capsys, "verify", "--set", "4", "--variant", "integer",
                       "--height", "10")
    assert code == 2
    assert json.loads(err)["kind"] == "error"
    code2, _, _ = run(capsys, "verify", "--set", "9/25", "--bound", "10")
    assert code2 == 2


def test_verify_artifacts_roundtrip(capsys, tmp_path):
    target = tmp_path / "art.json"
    assert main(["construct", "--set", "9/25", "--out", str(target)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "30")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_adversarial_artifacts_fail(capsys, tmp_path):
    # hand-built artifacts: f = X^2 against the empty set
    art = ConstructionArtifacts(input=PowerSetInput((), "rational"), bare=IntPoly((0, 0, 1)))
    target = tmp_path / "bad.json"
    target.write_text(dumps(artifacts_to_json(art)))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "8")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "FAIL" and len(doc["extras"]) > 0
    assert err.startswith("FAIL")


def test_verify_missing_artifacts_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--artifacts", str(tmp_path / "nope.json"),
                       "--height", "5")
    assert code == 2
    assert json.loads(err)["kind"] == "error"


def test_trace_ok(capsys):
    code, out, err = run(capsys, "trace", "--set", "9/25", "--x", "1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["power_sum"] == "2417"
    assert "trace ok" in err


def test_trace_undersized_k_fails(capsys):
    code, out, err = run(capsys, "trace", "--set", "1/289", "--x", "20/289", "--k", "4")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["checks"]["gcd_power_of_two"] is False
    assert "gcd_power_of_two" in err


def test_trace_invalid_k(capsys):
    code, _, err = run(capsys, "trace", "--set", "9/25", "--x", "1/2", "--k", "6")
    assert code == 2
    assert json.loads(err)["kind"] == "error"


def test_oracle_expect_paper(capsys):
    assert run(capsys, "oracle", "catalan", "--base-bound", "30",
               "--exp-bound", "8", "--expect", "paper")[0] == 0
    assert run(capsys, "oracle", "lebesgue", "--bound", "200",
               "--n-max", "6", "--expect", "paper")[0] == 0
    assert run(capsys, "oracle", "fermat", "--bound", "12", "--n-max", "5",
               "--variant", "2cn", "--expect", "paper")[0] == 0


def test_flag_aliases(capsys):
    # short spellings stay interchangeable with the descriptive ones
    long = run(capsys, "oracle", "catalan", "--base-bound", "30", "--exp-bound", "8")
    short = run(capsys, "oracle", "catalan", "--base", "30", "--exp", "8")
    assert long == short and long[0] == 0
    assert run(capsys, "oracle", "lebesgue", "--x", "50", "--n", "5")[0] == 0
    assert run(capsys, "oracle", "fermat", "--bound", "6", "--n", "4")[0] == 0


def test_verify_artifact_alias(capsys, tmp_path):
    path = str(tmp_path / "a.json")
    run(capsys, "construct", "--set", "9/25", "--out", path)
    code, out, _ = run(capsys, "verify", "--artifact", path, "--height", "40")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_oracle_solutions_json(capsys):
    code, out, _ = run(capsys, "oracle", "catalan", "--base-bound", "12",
                       "--exp-bound", "8")
    assert code == 0
    assert json.loads(out)["solutions"] == [[3, 2, 2, 3]]


def test_expectation_gate_mismatch(capsys):
    sol = search_catalan(12, 8)
    assert _expectation_gate(sol, ()) == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_oracle_gamma_and_recurrence(capsys):
    code, out, _ = run(capsys, "oracle", "gamma", "--gamma", "12", "--t-max", "8")
    assert code == 0
    doc = json.loads(out)
    assert [h["index"] for h in doc["hits"]] == [2, 3]
    code2, out2, _ = run(capsys, "oracle", "recurrence", "--a", "1", "--b", "1",
                         "--alpha", "1", "--beta", "2", "--t-max", "10")
    assert code2 == 0
    assert [h["value"] for h in json.loads(out2)["hits"]] == ["9"]


def test_oracle_gamma_rejects_zero(capsys):
    code, _, err = run(capsys, "oracle", "gamma", "--gamma", "0")
    assert code == 2
    assert json.loads(err)["kind"] == "error"


def test_oracle_recurrence_has_no_expectation_flag(capsys):
    code, _, _ = run(capsys, "oracle", "recurrence", "--a", "1", "--b", "1",
                     "--alpha", "1", "--beta", "2", "--expect", "paper")
    assert code == 2


def test_power_exit_codes(capsys):
    code, out, _ = run(capsys, "power", "64")
    assert code == 0
    assert json.loads(out) == {
        "schema": "power-forge/v1",
        "kind": "power",
        "value": "64",
        "is_power": True,
        "base": "2",
        "exponent": 6,
    }
    assert run(capsys, "power", "12")[0] == 1
    code, out, _ = run(capsys, "power", "-8/27")
    assert code == 0
    assert json.loads(out)["base"] == "-2/3"
    assert run(capsys, "power", "banana")[0] == 2


def test_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("POWER_FORGE_WORKERS", "2")
    code, out, _ = run(capsys, "verify", "--set", "4", "--variant", "integer",
                       "--bound", "50")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    monkeypatch.setenv("POWER_FORGE_WORKERS", "frog")
    assert run(capsys, "verify", "--set", "4", "--variant", "integer",
               "--bound", "50")[0] == 2


def test_worker_env_is_read_only_by_oracles_with_workers(capsys, monkeypatch):
    monkeypatch.setenv("POWER_FORGE_WORKERS", "abc")
    assert run(capsys, "oracle", "catalan", "--base-bound", "10", "--exp-bound", "4")[0] == 0
    assert run(capsys, "oracle", "recurrence", "--a", "1", "--b", "-1", "--alpha", "3",
               "--beta", "2", "--t-max", "6")[0] == 0
    assert run(capsys, "oracle", "gamma", "--gamma", "17", "--t-max", "6")[0] == 0
    code, _, err = run(capsys, "oracle", "lebesgue", "--bound", "10", "--n-max", "4")
    assert code == 2 and "POWER_FORGE_WORKERS" in json.loads(err)["error"]["message"]


def test_verify_progress_prints_one_line_per_chunk_in_order(capsys):
    code, out, err = run(capsys, "verify", "--set", "9/25", "--height", "12",
                         "--workers", "2", "--progress")
    assert code == 0
    lines = [line for line in err.splitlines() if line.startswith("[scan]")]
    assert [line.split(" (")[0] for line in lines] == [
        "[scan] chunk 1/2 done",
        "[scan] chunk 2/2 done",
    ]
    points = sum(int(line.split("points=")[1].split(",")[0]) for line in lines)
    assert points == json.loads(out)["points_scanned"]


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    assert main(["oracle"]) == 2
    capsys.readouterr()


# a usage error, help, a query with a leading minus, an oracle, and a usage error again
_PARSER_REUSE_CALLS = (
    ("frobnicate",),
    ("--help",),
    ("power", "-8/27"),
    ("oracle", "fermat", "--variant", "24n"),
    ("verify", "--height", "2"),
)


def test_one_parser_serves_every_call_in_a_process(capsys):
    cli._build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in _PARSER_REUSE_CALLS]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 2]
    for argv, got in zip(_PARSER_REUSE_CALLS, shared):
        cli._build_parser.cache_clear()
        assert run(capsys, *argv) == got, argv


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = "import power_forge.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


def test_huge_coefficients_write_and_reload(capsys, tmp_path):
    # f has coefficients of about 16,000 bits, past str()'s 4,300-digit limit
    target = tmp_path / "pow2.json"
    code, out, _ = run(capsys, "construct", "--set", f"1/{2**2000}", "--out", str(target))
    assert code == 0 and "coeff_bits<=16002" in out
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_verify_artifacts_checks_the_recipe(capsys, tmp_path):
    target = tmp_path / "art.json"
    assert main(["construct", "--set", "1/49,8/27", "--out", str(target)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "3")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    doc = json.loads(target.read_text())
    doc["f"][7] = str(int(doc["f"][7]) - 1)
    target.write_text(dumps(doc))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "3")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation" and error["message"].endswith("stored f")
    doc["f"][7] = str(int(doc["f"][7]) + 1)
    doc["s"] = 10**12
    target.write_text(dumps(doc))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "3")
    assert code == 2 and out == ""
    assert "out of range" in json.loads(err)["error"]["message"]


def test_a_recipe_document_converts_no_big_coefficient(capsys, tmp_path, monkeypatch):
    # f, g and h are written from the decimal build and compared as text when loaded
    big = []
    int_text, parse_int = jsonio._int_text, jsonio._parse_int

    def counted_text(n):
        if abs(n).bit_length() > 2000:
            big.append(("_int_text", n.bit_length()))
        return int_text(n)

    def counted_parse(text):
        n = parse_int(text)
        if abs(n).bit_length() > 2000:
            big.append(("_parse_int", n.bit_length()))
        return n

    monkeypatch.setattr(jsonio, "_int_text", counted_text)
    monkeypatch.setattr(jsonio, "_parse_int", counted_parse)
    target = tmp_path / "p179.json"
    code, out, _ = run(capsys, "construct", f"--set=1/{179**2}", "--out", str(target))
    assert code == 0 and "k=356" in out
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "1")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    assert big == []
    # the counters do see a conversion where there is one
    f = jsonio.artifacts_from_json(json.loads(target.read_text())).f
    assert jsonio.poly_from_json(poly_to_json(f)) == f
    assert {name for name, _ in big} == {"_int_text", "_parse_int"}


def test_power_past_the_str_digit_limit(capsys):
    value = 3**9500  # 4,533 digits
    code, out, _ = run(capsys, "power", jsonio._int_text(value))
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "3" and doc["exponent"] == 9500
    code, _, err = run(capsys, "power", jsonio._int_text(value) + "/0x")
    assert code == 2 and json.loads(err)["error"]["code"] == "validation"


def test_long_decimal_arguments(capsys):
    # long text that is not int or int/int is still read by Fraction
    code, out, _ = run(capsys, "power", "0.25" + "0" * 700)
    assert code == 0
    doc = json.loads(out)
    assert doc["base"] == "1/2" and doc["exponent"] == 2
    code, out, _ = run(capsys, "oracle", "gamma", "--gamma", "-1.5" + "0" * 700, "--t-max", "6")
    assert code == 0


@pytest.mark.parametrize("argv, kind", [
    (("construct", "--set", "-1/8,4/25"), "construction"),
    (("verify", "--set", "-1/8,4/25", "--height", "4"), "verification"),
    (("trace", "--set", "-1/8,4/25", "--x", "-1/2"), "trace"),
    (("oracle", "gamma", "--gamma", "-3/2", "--t-max", "6"), "power-scan"),
])
def test_values_with_a_leading_minus(capsys, argv, kind):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["kind"] == kind


@pytest.fixture
def fresh_residue_cache(monkeypatch):
    # decomposing values of thousands of digits caches residue tables and sets for hundreds
    # of exponents, and the groups of their first moduli; keep them out of test_powers'
    # check of every cached table and set and out of the shared memo
    monkeypatch.setattr(powers, "_RESIDUE_TABLES", {})
    monkeypatch.setattr(powers, "_RESIDUE_SETS", {})
    monkeypatch.setattr(powers, "_FIRST_MODULI", {})


def test_messages_print_values_past_the_str_digit_limit(capsys, fresh_residue_cache):
    big = jsonio._int_text(3**9500)  # 4,533 digits
    code, out, err = run(capsys, "trace", "--set", "9/25", "--x", f"1/{big}")
    assert code == 0 and json.loads(out)["ok"] is True
    assert err == f"trace ok at x=1/{big}\n"
    code, _, err = run(capsys, "construct", "--set", f"2/{big}")
    assert code == 2
    assert json.loads(err)["error"]["message"].startswith("not perfect powers")
    code, out, err = run(capsys, "construct", f"--set={big}", "--kappa-cap", "10")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "capacity"
    # 4 (3**9500 -+ 1) tie at 15,060 bits; the message names the first, 4,534 digits long
    assert error["message"].endswith(f"(worst gamma = {jsonio._int_text(4 * 3**9500 - 4)})")


def test_verify_artifacts_refuses_a_non_canonical_k(capsys, tmp_path):
    art = construct(PowerSetInput.from_values(["1/49"]))
    assert art.k == 12
    paths = {}
    for k in (8, 24):
        g, h, f = build_g_h_f(art.pairs, k, art.s)
        doc = dict(artifacts_to_json(art), k=k, f=poly_to_json(f), g=poly_to_json(g),
                   h=poly_to_json(h), degree=f.degree)
        paths[k] = tmp_path / f"k{k}.json"
        paths[k].write_text(dumps(doc))
    code, _, err = run(capsys, "verify", "--artifacts", str(paths[8]), "--height", "5")
    assert code == 2 and "k=8" in json.loads(err)["error"]["message"]
    code, out, _ = run(capsys, "verify", "--artifacts", str(paths[24]), "--height", "5")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


def _without(field):
    def edit(doc):
        del doc[field]
        return doc
    return edit


@pytest.mark.parametrize("edit, named", [
    (lambda doc: dict(doc, s=None), "k=4, s=None"),
    (lambda doc: dict(doc, k=8, s=None), "k=8, s=None"),
    (lambda doc: dict(doc, kappa=7), "kappa=7"),
    (lambda doc: dict(doc, kappa=10**12), f"kappa={10**12}"),
    (lambda doc: [doc], "not a construction document"),
    (_without("k"), "no field 'k'"),
    (_without("g"), "no field 'g'"),
    (lambda doc: dict(doc, f=7), "'f' must be a list of strings"),
    (lambda doc: dict(doc, f=[1, 2]), "'f' must be a list of strings"),
    (lambda doc: dict(doc, degree=5), "degree 5"),
], ids=["s-null-k4", "s-null-k8", "kappa-7", "kappa-huge", "list", "no-k", "no-g",
        "f-int", "f-ints", "degree-5"])
def test_verify_artifacts_refuses_a_malformed_document(capsys, tmp_path, monkeypatch, edit,
                                                       named):
    # each is refused before any power of P, 2**s or 2**kappa is built
    doc = edit(artifacts_to_json(construct(PowerSetInput.from_values(["9/25"]))))
    target = tmp_path / "art.json"
    target.write_text(dumps(doc))

    def no_build(*args):
        raise AssertionError("built a recipe")

    monkeypatch.setattr(sys.modules["power_forge.construct"], "build_g_h_f", no_build)
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "5")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation" and named in error["message"]


@pytest.mark.parametrize("exponent", [300, 9500])
def test_construct_a_huge_single_element(capsys, tmp_path, fresh_residue_cache, exponent):
    # P -+ 1 is linear, so find_deltas reads its roots off without factoring a -+ 1
    target = tmp_path / "art.json"
    code, _, _ = run(capsys, "construct", f"--set={jsonio.rational_text(3**exponent)}",
                     "--out", str(target))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "2")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


def test_construct_a_pair_with_a_huge_constant_term(capsys, tmp_path):
    # P -+ 1 = X**2 - (3**300 + 4) X + 4 * 3**300 -+ 1: its roots are lifted, not searched for
    # among the divisors of a 144-digit constant term
    target = tmp_path / "art.json"
    start = perf_counter()
    code, _, _ = run(capsys, "construct", f"--set={3**300},4", "--out", str(target))
    assert code == 0 and perf_counter() - start < 1
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "2")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


def test_a_failed_certificate_is_not_a_validation_error(capsys, tmp_path, request):
    # an internal fault must not exit 2: building or rebuilding the recipe raises
    # the certificate's ArithmeticError, which exits 3 with an "internal" error;
    # the scan builds f only for the sieve's valuations, which {9/25} at 40 reads
    target = tmp_path / "art.json"
    assert main(["construct", "--set", "1/10201", "--out", str(target)]) == 0
    request.getfixturevalue("mutant_recurrence")
    capsys.readouterr()
    for argv in (["construct", "--set", "1/10201"],
                 ["verify", "--artifacts", str(target), "--height", "2"],
                 ["verify", "--set", "9/25", "--height", "40"]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        doc = json.loads(err)
        assert doc["kind"] == "error" and doc["error"]["code"] == "internal"
        assert doc["error"]["message"].startswith("ArithmeticError: P**")
        assert "certificate" in doc["error"]["message"]
        assert "_certify_power" in doc["error"]["traceback"]


# -- exit 2 is bad input and nothing else ----------------------------------------

@pytest.mark.parametrize("target, argv", [
    ("power_forge.cli.construct", ("construct", "--set", "9/25")),
    ("power_forge.cli.verify_construction", ("verify", "--set", "9/25", "--height", "3")),
    ("power_forge.cli.trace_quantities", ("trace", "--set", "9/25", "--x", "1/2")),
    ("power_forge.oracles.search_lebesgue", ("oracle", "lebesgue", "--bound", "5")),
    ("power_forge.oracles.scan_gamma_minus_pow2", ("oracle", "gamma", "--gamma", "9")),
    ("power_forge.cli.decompose_rational_power", ("power", "64")),
], ids=["construct", "verify", "trace", "oracle-search", "oracle-scan", "power"])
@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
def test_a_stray_value_error_is_an_internal_fault(capsys, monkeypatch, target, argv, error):
    def work(*args, **kwargs):
        raise error("a bug")

    monkeypatch.setattr(target, work)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    doc = json.loads(err)["error"]
    assert doc["code"] == "internal" and doc["message"] == f"{error.__name__}: a bug"


@pytest.mark.parametrize("write, named", [
    (lambda doc: b"{not json", "Expecting property name"),
    (lambda doc: json.dumps(dict(doc, notes="déjà"), ensure_ascii=False).encode(),
     "'ascii' codec can't decode"),
    (lambda doc: dumps(dict(doc, f=doc["f"][:-1] + ["1x"])).encode(), "'1x'"),
    (lambda doc: dumps(dict(doc, elements=["1/0"])).encode(), "cannot parse '1/0'"),
    (lambda doc: dumps(dict(doc, deltas=["1/0"])).encode(), "cannot parse '1/0'"),
], ids=["not-json", "not-ascii", "coefficient", "element", "delta"])
def test_an_unreadable_artifact_is_bad_input(capsys, tmp_path, write, named):
    target = tmp_path / "art.json"
    target.write_bytes(write(artifacts_to_json(construct(PowerSetInput.from_values(["9/25"])))))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "5")
    assert code == 2 and out == ""
    doc = json.loads(err)["error"]
    assert doc["code"] == "validation" and named in doc["message"]


@pytest.mark.parametrize("argv, cap", [
    (("construct", "--set", "9/25", "--t-max", str(10**20)), oracles.MAX_SCAN_BITS // 3),
    (("oracle", "gamma", "--gamma", "9/25", "--t-max", str(10**20)), oracles.MAX_SCAN_BITS // 3),
    (("oracle", "recurrence", "--a", "1", "--b", "-1", "--alpha", "3", "--beta", "2",
      "--t-max", str(10**20)), oracles.MAX_SCAN_BITS // 4),
], ids=["construct", "gamma", "recurrence"])
def test_a_scan_depth_past_the_cap_is_bad_input(capsys, monkeypatch, argv, cap):
    # refused by the check alone: no term of any scan is decomposed
    def no_scan(*args):
        raise AssertionError("scanned")

    monkeypatch.setattr(oracles, "decompose_rational_power", no_scan)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    assert error["message"] == f"t_max must be <= {cap}, got {10**20}"


@pytest.mark.parametrize("argv", [
    ("oracle", "lebesgue", "--bound", "-1"),
    ("oracle", "catalan", "--base-bound", "1"),
])
def test_an_empty_oracle_box_is_bad_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["code"] == "validation"


@pytest.mark.parametrize("argv, named", [
    (("construct", "--set=--"), "--set"),
    (("trace", "--set=4", "--x=--"), "--x"),
    (("oracle", "gamma", "--gamma=--"), "--gamma"),
    (("oracle", "recurrence", "--a=--", "--b=1", "--alpha=3", "--beta=2"), "--a"),
    (("oracle", "recurrence", "--a=1", "--b=--", "--alpha=3", "--beta=2"), "--b"),
    (("oracle", "recurrence", "--a=1", "--b=1", "--alpha=--", "--beta=2"), "--alpha"),
    (("oracle", "recurrence", "--a=1", "--b=1", "--alpha=3", "--beta=--"), "--beta"),
    (("oracle", "lebesgue", "--bound=--"), "--bound"),
    (("construct", "--set=4", "--out=--"), "--out"),
], ids=["set", "x", "gamma", "a", "b", "alpha", "beta", "bound", "out"])
def test_an_option_written_with_no_value_is_bad_input(capsys, argv, named):
    # Python 3.11's argparse reads "--opt=--" as the value []
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    doc = json.loads(err)["error"]
    assert doc["code"] == "validation" and doc["message"] == f"{named} needs a value"


@pytest.mark.parametrize("argv, env", [
    (("verify", "--set", "9/25", "--height", "3", "--workers", str(10**20)), None),
    (("oracle", "lebesgue", "--bound", "10", "--workers", str(cli._MAX_WORKERS + 1)), None),
    (("oracle", "fermat", "--bound", "10"), str(cli._MAX_WORKERS + 1)),
], ids=["huge", "cap+1", "env"])
def test_a_worker_count_past_the_cap_is_refused_before_any_pool(capsys, monkeypatch,
                                                                serial_pool, argv, env):
    monkeypatch.setenv("POWER_FORGE_WORKERS", env or "1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and serial_pool == []
    assert f"<= {cli._MAX_WORKERS}" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv, option", [
    (("verify", "--set", "9/25", "--height", str(10**20)), "height"),
    (("verify", "--set", "4", "--variant", "integer", "--bound", str(10**20)), "bound"),
], ids=["height", "bound"])
def test_a_window_past_the_point_cap_is_bad_input(capsys, monkeypatch, argv, option):
    from power_forge import verify

    def no_sieve(*args):
        raise AssertionError("a sieve was built")

    monkeypatch.setattr(verify, "_RowSieve", no_sieve)
    code, out, err = run(capsys, *argv, "--workers", "1")
    assert code == 2 and out == ""
    doc = json.loads(err)["error"]
    assert doc["code"] == "validation" and doc["message"].startswith(f"{option} must be <= ")


def test_the_cap_itself_is_a_pool_of_one_process_per_chunk(capsys, serial_pool):
    argv = ("oracle", "lebesgue", "--bound", "7", "--n-max", "4", "--workers")
    assert run(capsys, *argv, str(cli._MAX_WORKERS)) == run(capsys, *argv, "1")
    assert serial_pool == [4]  # |X| <= 7: four even values of X, one chunk each


_STRAY_FIELDS = {
    "g": ["5", "1"],
    "h": ["7"],
    "kappa": 3,
    "deltas": ["1/2"],
}


@pytest.mark.parametrize("field", list(_STRAY_FIELDS))
def test_a_construction_without_a_recipe_refuses_stray_fields(capsys, tmp_path, field):
    doc = artifacts_to_json(construct(PowerSetInput.from_values([])))
    assert doc["k"] is None and all(doc[name] is None for name in _STRAY_FIELDS)
    bad = dict(doc, **{field: _STRAY_FIELDS[field]})
    with pytest.raises(ValidationError, match=f"without a recipe have no {field}$"):
        jsonio.artifacts_from_json(bad)
    target = tmp_path / "stray.json"
    target.write_text(dumps(bad))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].endswith(f"have no {field}")


def test_trace_refuses_an_oversized_k_before_any_power(capsys, monkeypatch):
    from power_forge import verify

    argv = ("trace", "--set", "9/25", "--x", "1/2", "--k", "400")
    assert run(capsys, *argv)[0] == 0
    # B = 7 and w = 2 at x = 1/2, so k = 400 comes to 1,200 bits
    monkeypatch.setattr(verify, "_MAX_F_BITS", 1000)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"].startswith("k=400 is out of range")


_ODD_RATIONALS = ("", "-", "/2", "1/0", "0/0", "x", "1.5", "nan", "inf", "+4", "4,,9",
                  "9/25,9/25", "1_000", "５", "--", "-1/8")
_ODD_INTEGERS = ("-1", "0", "1", "x", "", "1.5", str(10**20), str(-(10**20)), "--")

# command -> (base arguments, options set in turn to each odd token); a rational
# option already among the base arguments replaces its base value
_RATIONAL_GRID = {
    ("construct",): ("--set",),
    ("verify", "--height", "3"): ("--set",),
    ("trace", "--set", "9/25", "--x", "1/2"): ("--set", "--x"),
    ("oracle", "gamma", "--gamma", "3", "--t-max", "10"): ("--gamma",),
    ("oracle", "recurrence", "--a", "1", "--b", "1", "--alpha", "3", "--beta", "2",
     "--t-max", "10"): ("--a", "--b", "--alpha", "--beta"),
    ("power",): (None,),
}
_INTEGER_GRID = {
    ("construct", "--set", "9/25"): ("--t-max", "--kappa-cap"),
    ("verify", "--set", "9/25", "--height", "3"): ("--height", "--workers"),
    ("verify", "--set", "4", "--variant", "integer", "--bound", "10"): ("--bound",),
    ("trace", "--set", "9/25", "--x", "1/2"): ("--k",),
    ("oracle", "lebesgue", "--bound", "20", "--n-max", "4"): ("--bound", "--n-max", "--workers"),
    ("oracle", "catalan", "--base-bound", "10", "--exp-bound", "4"): ("--base-bound",
                                                                       "--exp-bound"),
    ("oracle", "fermat", "--bound", "10", "--n-max", "4"): ("--bound", "--n-max", "--workers"),
    ("oracle", "recurrence", "--a", "1", "--b", "1", "--alpha", "3", "--beta", "2",
     "--t-max", "10"): ("--t-max",),
    ("oracle", "gamma", "--gamma", "3", "--t-max", "10"): ("--t-max",),
}


def _with(base, option, token):
    """base with option set to token: replaced in place if present, else appended."""
    if option is None:
        return [*base, token]
    argv = list(base)
    if option in argv:
        argv[argv.index(option) + 1] = token
        return argv
    return [*argv, option, token]


def _odd_input_grid():
    for base, options in _RATIONAL_GRID.items():
        for option in options:
            for token in _ODD_RATIONALS:
                yield _with(base, option, token)
    for base, options in _INTEGER_GRID.items():
        for option in options:
            for token in _ODD_INTEGERS:
                yield _with(base, option, token)


def test_every_odd_input_exits_0_1_or_2(capsys, monkeypatch, serial_pool):
    # --workers takes only 1 or counts refused before any pool exists
    monkeypatch.setenv("POWER_FORGE_WORKERS", "1")
    codes, wrong = {}, []
    for argv in _odd_input_grid():
        code, _, err = run(capsys, *argv)
        codes[code] = codes.get(code, 0) + 1
        if code == 2 and not err.startswith("usage: "):
            error = json.loads(err)["error"]
            if error["code"] not in ("validation", "capacity"):
                wrong.append((argv, code, error["code"]))
        elif code not in (0, 1, 2):
            wrong.append((argv, code, err[-300:]))
    assert wrong == []
    assert serial_pool == []
    assert set(codes) == {0, 1, 2} and sum(codes.values()) > 250


_HUGE = str(10**20)


@pytest.mark.parametrize("argv", [
    ("lebesgue", "--bound", _HUGE, "--n-max", "4"),
    ("lebesgue", "--bound", "20", "--n-max", _HUGE),
    ("catalan", "--base-bound", _HUGE, "--exp-bound", "4"),
    ("catalan", "--base-bound", "10", "--exp-bound", _HUGE),
    ("fermat", "--bound", _HUGE, "--n-max", "4"),
    ("fermat", "--bound", "10", "--n-max", _HUGE, "--variant", "24n"),
], ids=["lebesgue-bound", "lebesgue-n-max", "catalan-base-bound", "catalan-exp-bound",
        "fermat-bound", "fermat-24n-n-max"])
def test_a_huge_box_bound_exits_2_at_once(capsys, monkeypatch, serial_pool, argv):
    # the work estimate refuses the box before any table or pool
    monkeypatch.setenv("POWER_FORGE_WORKERS", "2")
    start = perf_counter()
    code, out, err = run(capsys, "oracle", *argv)
    assert perf_counter() - start < 1.0
    assert code == 2 and out == "" and serial_pool == []
    message = json.loads(err)["error"]["message"]
    assert message.startswith("box too large: ") and f"={_HUGE}" in message
    assert message.endswith(f"over the cap of {oracles.MAX_BOX_WORK}")


@pytest.mark.parametrize("values, edit, named", [
    (["9/25"], lambda doc: dict(doc, deltas=["1/3"]),
     "deltas 1/3 are not the nonzero roots of P - 1 and P + 1, ascending"),
    (["9/25"], lambda doc: dict(doc, deltas=doc["deltas"][::-1]), "deltas 2/5, 8/25 are not"),
    (["9/25"], lambda doc: dict(doc, deltas=doc["deltas"][:1] * 2), "deltas 8/25, 8/25 are not"),
    (["9/25"], lambda doc: dict(doc, deltas=["0", *doc["deltas"]]),
     "deltas 0, 8/25, 2/5 are not"),
    (["9/25"], lambda doc: dict(doc, deltas=doc["deltas"][:1]), "deltas 8/25 are not"),
    (["9/25"], lambda doc: dict(doc, deltas=doc["deltas"][1:]), "deltas 2/5 are not"),
    (["4"], lambda doc: dict(doc, deltas=["3", "5"]), "integer-variant artifacts have no deltas"),
], ids=["delta", "descending", "repeated", "zero", "first-delta-only", "second-delta-only",
        "integer-deltas"])
def test_stored_deltas_and_estimates_are_those_of_the_recipe(capsys, tmp_path, monkeypatch,
                                                             values, edit, named):
    variant = "rational" if "/" in values[0] else "integer"
    bad = edit(artifacts_to_json(construct(PowerSetInput.from_values(values, variant))))

    def no_build(*args):
        raise AssertionError("built a recipe")

    # each is refused before any power of P is built
    monkeypatch.setattr(sys.modules["power_forge.construct"], "build_g_h_f", no_build)
    with pytest.raises(ValidationError) as refused:
        jsonio.artifacts_from_json(bad)
    assert named in str(refused.value)
    target = tmp_path / "art.json"
    target.write_text(dumps(bad))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "5")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation" and named in error["message"]


def _refused(capsys, tmp_path, doc):
    """The error message of verify --artifacts on doc, which must exit 2."""
    target = tmp_path / "art.json"
    target.write_text(dumps(doc))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "2")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    return error["message"]


@pytest.mark.parametrize("value, named", [
    ("4", "at delta = 3: 8 = 2**3"),
    ("9", "at delta = 10: 36 = 6**2"),
], ids=["first-delta", "second-delta"])
def test_an_offset_that_makes_f_a_power_at_a_delta_is_refused_before_any_build(
        capsys, tmp_path, monkeypatch, value, named):
    # g(delta) = 2, so f(delta) = 4 delta - 2**(s + 1), 4 delta - 4 at s = 1:
    # {4} has deltas 3 and 5, {9} 8 and 10
    doc = dict(artifacts_to_json(construct(PowerSetInput.from_values([value]))), kappa=1, s=1)

    def no_build(*args):
        raise AssertionError("built a recipe")

    for name in ("build_g_h_f", "recipe_text"):
        monkeypatch.setattr(sys.modules["power_forge.construct"], name, no_build)
    assert _refused(capsys, tmp_path, doc) == (
        f"s=1 makes f(delta) = 4 delta - 2**2 a perfect power outside S {named}")


def test_a_power_at_a_delta_that_lies_in_s_is_no_refusal(capsys, tmp_path):
    # with s = 3, {4} has f(5) = 20 - 16 = 4, a value in S: f(Q) still meets the powers in S
    art = construct(PowerSetInput.from_values(["4"]))
    edited = dict(artifacts_to_json(art), kappa=2, s=3)
    assert _refused(capsys, tmp_path, edited) == (
        "the recipe of k=4, s=3 does not give the stored f, h")
    rebuilt = artifacts_to_json(dataclasses.replace(art, kappa=2, s=3))
    target = tmp_path / "art.json"
    target.write_text(dumps(rebuilt))
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "5")
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "PASS"
    assert {"x": "5", "value": "4", "power": {"base": "2", "exponent": 2}} in report["hits"]


def _with_estimates(doc):
    """doc in the earlier layout, with the capacity estimates stored after the deltas."""
    deltas = [jsonio.parse_rational(d) for d in doc["deltas"]]
    estimates = [{"gamma": jsonio.rational_text(e.gamma), "log2_bound": e.log2_bound,
                  "last_power_index": e.last_power_index, "value": e.value}
                 for e in select_offset_exponent(deltas)[2]]
    out = {}
    for key, value in doc.items():
        out[key] = value
        if key == "deltas":
            out["capacity_estimates"] = estimates
    return out


@pytest.mark.parametrize("value", ["9/25", "9/4", "-27/8,-64/27"])
def test_a_document_with_capacity_estimates_loads_and_they_are_ignored(capsys, tmp_path, value):
    doc = _with_estimates(artifacts_to_json(construct(PowerSetInput.from_values(
        value.split(",")))))
    if value == "9/4":
        # gamma = 8 has powers at t = 2, 3 and 4; a scan to t = 3 would write 3
        assert doc["capacity_estimates"][0] == {
            "gamma": "8", "log2_bound": 3, "last_power_index": 4, "value": 4}
        doc["capacity_estimates"][0].update(last_power_index=3, value=3)
    target = tmp_path / "art.json"
    target.write_text(dumps(doc))
    code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "3")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


@pytest.mark.parametrize("value", ["27/8", "8", "1/4", "9/4", "81/16", "25/4"])
def test_a_construction_at_any_scan_depth_passes_or_is_refused_at_a_delta(capsys, tmp_path,
                                                                          value):
    target = tmp_path / "art.json"
    for t_max in (0, 3, 5, 64, 200):
        argv = ("construct", f"--set={value}", "--t-max", str(t_max), "--out", str(target))
        code, _, err = run(capsys, *argv)
        assert code == 0
        if value == "27/8":
            # 4 delta = 13 has powers at t = 2 and 8, so a scan that stops short of 8
            # sizes s = 7, where f(13/4) = 13 - 2**8 = (-3)**5; kappa rises to 4
            doc = json.loads(target.read_text())
            assert doc["s"] == 15
            assert doc["notes"].endswith("raised from s = 7 past a power at a delta") == (t_max < 8)
        code, out, _ = run(capsys, "verify", "--artifacts", str(target), "--height", "2")
        assert code == 0 and json.loads(out)["verdict"] == "PASS"
    if value == "27/8":
        # past the cap on kappa the construct is refused at that delta
        code, _, err = run(capsys, "construct", f"--set={value}", "--t-max", "5",
                           "--kappa-cap", "3")
        error = json.loads(err)["error"]
        assert code == 2 and error["code"] == "capacity"
        assert error["message"].endswith("s=7 makes f(delta) = 4 delta - 2**8 a perfect power "
                                         "outside S at delta = 13/4: -243 = (-3)**5")


_TWO_BIG_PRIMES = (10**30 + 57) * (10**34 + 193)


@pytest.mark.parametrize("root", [2003, 10007, 1000003,
                                  pytest.param(_TWO_BIG_PRIMES, id="two-big-primes")])
def test_a_recipe_past_the_size_bound_is_refused_before_anything_is_built(capsys, monkeypatch,
                                                                         root):
    # the denominator root**2 holds a prime past the largest admissible one, so compute_k
    # refuses it; its trial division stops there, and nothing is factored past it
    def no_build(*args):
        raise AssertionError("built a recipe")

    for name in ("build_g_h_f", "recipe_text"):
        monkeypatch.setattr(sys.modules["power_forge.construct"], name, no_build)
    for argv in (("construct",), ("verify", "--height", "2"), ("trace", "--x", "1/2")):
        start = perf_counter()
        code, out, err = run(capsys, *argv, f"--set=1/{root**2}")
        assert perf_counter() - start < 1
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "validation"
        assert error["message"] == (f"denominator {root**2} has a prime factor over "
                                    f"{_ADMISSIBLE_PRIMES[-1]}, so f would pass {_MAX_F_BITS} bits")


def test_trace_with_a_given_k_takes_a_prime_past_the_bound(capsys):
    # only the default k needs the denominator's primes; 1093 is past the bound
    assert 1093 > _ADMISSIBLE_PRIMES[-1]
    code, out, _ = run(capsys, "trace", f"--set=1/{1093**2}", "--x", "1/2", "--k", "4")
    assert code in (0, 1) and json.loads(out)["k"] == 4


def _largest_constructible_prime():
    """The largest prime p whose {1/p**2} recipe, k = lcm(4, p - 1) and s = 1, fits the cap."""
    def size(p):
        k = lcm(4, p - 1)
        return (2 * k + 2) * (1 + 4 + 2 * k * (p * p + 1).bit_length())

    return max(p for p in primes_up_to(2 * _ADMISSIBLE_PRIMES[-1]) if size(p) <= _MAX_F_BITS)


def test_the_largest_constructible_denominator_prime_is_admitted(request, monkeypatch):
    # the derived bound refuses no set that the size cap would take
    def no_build(*args):
        raise AssertionError("built a recipe")

    for name in ("build_g_h_f", "recipe_text"):
        monkeypatch.setattr(sys.modules["power_forge.construct"], name, no_build)
    p = _largest_constructible_prime()
    inp = PowerSetInput.from_values([f"1/{p * p}"])
    art = construct(inp)
    assert (art.k, art.s) == (lcm(4, p - 1), 1)
    request.getfixturevalue("mutant_half_prime_bound")
    with pytest.raises(ValidationError, match=f"denominator {p * p} has a prime factor over"):
        construct(inp)


@pytest.fixture
def builds(monkeypatch):
    """Calls of the int build and of the decimal build, wherever each is looked up."""
    calls = {"build_g_h_f": 0, "recipe_text": 0}
    construct_module = sys.modules["power_forge.construct"]
    for name in calls:
        real = getattr(construct_module, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for module in (construct_module, jsonio):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_each_command_builds_only_the_polynomials_it_reads(capsys, tmp_path, builds):
    # construct writes text only; a load checks the text; a scan builds the ints
    # only where its sieve reads a valuation of f's coefficients
    target = str(tmp_path / "art.json")
    for argv, want in (
        (("construct", "--set=9/25,-1/8", "--out", target), (0, 1)),
        (("verify", "--set=9/25,-1/8", "--height", "4"), (0, 0)),
        (("verify", "--artifacts", target, "--height", "4"), (0, 1)),
        (("verify", "--set=9/25", "--height", "40"), (1, 0)),
        (("verify", "--set=1/10201", "--height", "9"), (0, 0)),
    ):
        builds.update(dict.fromkeys(builds, 0))
        assert run(capsys, *argv)[0] == 0
        assert (builds["build_g_h_f"], builds["recipe_text"]) == want, argv


def test_a_scan_that_reads_no_valuation_builds_nothing(capsys, tmp_path, monkeypatch):
    # the scans of scan-highdeg, the integer scan and a height-1 load: the sieve reads
    # no valuation of f's coefficients, so no int build may run and stdout is unchanged
    target = str(tmp_path / "art.json")
    assert run(capsys, "construct", f"--set=1/{179**2}", "--out", target)[0] == 0
    scans = [
        ("--set=1/10201", "--height", "9"),
        ("--set=1/49,8/27,4/121", "--height", "8"),
        ("--set=4,8,36", "--variant", "integer", "--bound", "20000"),
        ("--artifacts", target, "--height", "1"),
    ]
    built = [run(capsys, "verify", *argv, "--workers", "1") for argv in scans]

    def refused(*args):
        raise AssertionError("f was built")

    monkeypatch.setattr(sys.modules["power_forge.construct"], "build_g_h_f", refused)
    for argv, (_, want, _) in zip(scans, built):
        code, out, _ = run(capsys, "verify", *argv, "--workers", "1")
        assert code == 0 and out == want, argv
    loaded = jsonio.artifacts_from_json(json.loads(Path(target).read_text()))
    for art, window in ((construct(PowerSetInput.from_values(["1/10201"])), 9),
                        (construct(PowerSetInput.from_values(["1/49", "8/27", "4/121"])), 8),
                        (construct(PowerSetInput.from_values([4, 8, 36], "integer")), 20000),
                        (loaded, 1)):
        assert verify_construction(art, window).passed
        assert "_polys" not in art.__dict__


def test_a_document_larger_than_the_bound_on_f_allows_is_refused_unread(capsys, tmp_path,
                                                                         monkeypatch):
    # the bound holds per recipe: no document takes 8 bytes per bit of its own bound on f
    for values, variant in [(["9/25"], "rational"), (["0", "9/25", "-8"], "rational"),
                            (["1/49", "8/27", "4/121"], "rational"), (["4", "8", "36"], "integer")]:
        art = construct(PowerSetInput.from_values(values, variant=variant))
        n = prod(abs(a) + c for a, c in art.pairs)
        size = (art.degree + 1) * (art.s + 4 + 2 * art.k * n.bit_length())
        assert len(dumps(artifacts_to_json(art))) < 8 * size, values
    target = tmp_path / "art.json"
    target.write_text(dumps(artifacts_to_json(construct(PowerSetInput.from_values(["9/25"])))))
    size = target.stat().st_size
    monkeypatch.setattr(cli, "_MAX_DOCUMENT_BYTES", size)
    assert run(capsys, "verify", "--artifacts", str(target), "--height", "2")[0] == 0
    monkeypatch.setattr(cli, "_MAX_DOCUMENT_BYTES", size - 1)
    monkeypatch.setattr(json, "load", lambda fh: pytest.fail("the document was read"))
    code, out, err = run(capsys, "verify", "--artifacts", str(target), "--height", "2")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "validation"
    assert f"holds {size:,} bytes, over the {size - 1:,}" in error["message"]
