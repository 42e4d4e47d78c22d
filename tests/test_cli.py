"""The command-line surface: text formats, exit codes, JSON schema."""

import json
from pathlib import Path

import pytest

from ramibound import cli, eisenstein, suites
from ramibound.breuil import build_bt_module, module_to_json
from ramibound.cli import (
    EXIT_ASSERTION,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    PolyParseError,
    eisenstein_from_text,
    parse_polynomial,
    poly_text,
)
from ramibound.eisenstein import EisensteinPolynomial
from ramibound.series import Precision


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_parser_reused_across_calls(capsys):
    # one process, one parser: a usage error and then a mix of subcommands
    # print exactly what a freshly built parser prints for each call
    calls = [
        ("invariants", "--p", "2"),
        ("invariants", "--p", "3", "--poly", "u^3+3", "--json"),
        ("bound", "--p", "2", "--e", "4", "--tau", "3", "--iota", "1"),
        ("invariants", "--p", "2", "--poly", "u^2+2u+2"),
    ]

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _, _ in fresh] == ["SystemExit(2)", EXIT_OK, EXIT_OK, EXIT_OK]
    assert [outcome(argv) for argv in calls] == fresh
    assert cli.build_parser() is cli.build_parser()


# -- the polynomial grammar ------------------------------------------------------

def test_parse_polynomial():
    assert parse_polynomial("u^2-2") == {2: 1, 0: -2}
    assert parse_polynomial("u^2+2u+2") == {2: 1, 1: 2, 0: 2}
    assert parse_polynomial("3*u^4 + 7") == {4: 3, 0: 7}
    assert parse_polynomial("u") == {1: 1}
    assert parse_polynomial("u + u") == {1: 2}  # exponents collect
    assert parse_polynomial("u^2 - u^2") == {0: 0}


def test_parse_polynomial_positions():
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("u^2 & 3")
    assert err.value.pos == 4
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("")
    assert err.value.pos == 0
    with pytest.raises(PolyParseError):
        parse_polynomial("-u")  # terms are unsigned; signs join terms


def test_poly_text_round_trip():
    for coeffs in [(-2, 0, 1), (2, 2, 1), (0, 0, 0, 1), (5,)]:
        text = poly_text(coeffs)
        parsed = parse_polynomial(text)
        rebuilt = tuple(parsed.get(i, 0) for i in range(len(coeffs)))
        assert rebuilt == coeffs


def test_eisenstein_from_text_errors():
    with pytest.raises(PolyParseError, match="leading"):
        eisenstein_from_text(2, "2*u^2+2")
    with pytest.raises(PolyParseError, match="constant"):
        eisenstein_from_text(2, "6")


# -- invariants ---------------------------------------------------------------------

def test_cmd_invariants_inf(capsys):
    code, payload, _ = run_json(capsys, "invariants", "--p", "2", "--poly", "u^2-2")
    assert code == EXIT_OK
    assert payload["schema"] == 1
    assert payload["tau"] == "inf" and payload["iota"] is None
    assert payload["E0"] == "u^2-2" and payload["E1"] == "0"
    code, out, _ = run(capsys, "invariants", "--p", "2", "--poly", "u^2-2")
    lines = out.splitlines()
    assert code == EXIT_OK
    assert "tau = inf" in lines and "t_pi = inf" in lines and "iota = -" in lines


def test_cmd_invariants_finite(capsys):
    code, payload, _ = run_json(capsys, "invariants", "--p", "2", "--poly", "u^2+2u+2")
    assert code == EXIT_OK
    assert (payload["tau"], payload["iota"], payload["t_pi"]) == ("1", "1", "3")
    # the split round-trips through the parser
    assert parse_polynomial(payload["E1"]) == {1: 2}


def test_cmd_invariants_fiat_case(capsys):
    code, payload, _ = run_json(capsys, "invariants", "--p", "5", "--poly", "u^3+5")
    assert code == EXIT_OK
    assert (payload["m"], payload["tau"], payload["iota"]) == ("0", "1", "0")


def test_cmd_invariants_rejects_bad_input(capsys):
    code, _, err = run(capsys, "invariants", "--p", "2", "--poly", "u^2-4")
    assert code == EXIT_USAGE and "ord_p" in err
    code, _, err = run(capsys, "invariants", "--p", "2", "--poly", "u^2 %")
    assert code == EXIT_USAGE and "^" in err  # caret marks the position


# -- bound ---------------------------------------------------------------------------

def test_cmd_bound_explicit(capsys):
    code, payload, _ = run_json(capsys, "bound", "--p", "5", "--e", "3",
                                "--tau", "1", "--iota", "0")
    assert code == EXIT_OK and payload["s"] == "0"


def test_cmd_bound_with_search(capsys):
    code, payload, _ = run_json(capsys, "bound", "--p", "2", "--poly", "u^2-2",
                                "--search-prec", "2")
    assert code == EXIT_OK
    assert (payload["tau"], payload["iota"], payload["s"]) == ("2", "1", "5")
    assert payload["bound_f11"] == "5" and payload["s_le_f11"] is True


def test_cmd_bound_modified_variant(capsys):
    code, payload, _ = run_json(capsys, "bound", "--p", "3", "--e", "4",
                                "--tau", "1", "--iota", "0", "--variant", "modified")
    assert code == EXIT_OK and payload["s"] == "1"
    assert payload["closed_form_unramified"] == "1"


def test_cmd_bound_infinite_tau_needs_search(capsys):
    code, _, err = run(capsys, "bound", "--p", "2", "--poly", "u^2-2")
    assert code == EXIT_USAGE and "search-prec" in err


def test_cmd_bound_search_over_the_cap(capsys, monkeypatch):
    # 2^23 changes of u^8 - 2 at digit precision 3: refused before any charpoly
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(eisenstein, "_charpoly_residues", no_enumeration)
    code, out, err = run(capsys, "bound", "--p", "2", "--poly", "u^8-2", "--search-prec", "3")
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("budget exceeded:") and "8388608 candidates" in err


# -- verify ----------------------------------------------------------------------------

def test_cmd_verify_example3(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "example3",
                                "--p", "2", "--n", "5")
    assert code == EXIT_OK and payload["ok"] is True
    assert payload["assertions"]["telescoping-identity"]["pass"] == "5"


def test_cmd_verify_prop2(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "prop2",
                                "--p", "2", "--poly", "u^2-2", "--n", "2")
    assert code == EXIT_OK
    assert payload["config"]["t_star"] == "4"


def test_cmd_verify_lemma1_small(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1",
                                "--p", "2", "--n", "2", "--seeds", "10")
    assert code == EXIT_OK and payload["ok"] is True


def test_cmd_verify_budget_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--suite", "prop2", "--p", "2",
                       "--e", "4", "--n", "2", "--budget", "10")
    assert code == EXIT_BUDGET and "budget" in err


def test_cmd_verify_failure_exit_code(capsys, monkeypatch):
    def failing_suite(p, n):
        return {"suite": "example3", "config": {}, "ok": False,
                "assertions": {"telescoping-identity": {"pass": 0, "fail": 1}},
                "runtime_s": 0.0}

    monkeypatch.setitem(suites.SUITES, "example3", failing_suite)
    code, payload, _ = run_json(capsys, "verify", "--suite", "example3",
                                "--p", "2", "--n", "1")
    assert code == EXIT_ASSERTION and payload["ok"] is False


def test_cmd_verify_missing_args(capsys):
    code, _, err = run(capsys, "verify", "--suite", "prop2", "--p", "2", "--n", "1")
    assert code == EXIT_USAGE and "--poly or --e" in err


@pytest.mark.parametrize("argv", [
    ["--suite", "prop2", "--poly", "u^2-2", "--n", "2"],
    ["--suite", "prop2", "--p", "2", "--e", "0", "--n", "1"],
    ["--suite", "prop2", "--p", "2", "--e", "2", "--n", "0"],
    ["--suite", "cor5", "--p", "2", "--e", "-1", "--n", "1"],
    ["--suite", "lemma1", "--p", "2", "--n", "1", "--seeds", "0"],
    ["--suite", "lemma2", "--p", "2", "--n", "1", "--e", "0"],
    ["--suite", "heights", "--seeds", "0"],
    ["--suite", "heights", "--poly", "u^2-2"],
    ["--suite", "example3", "--n", "2"],
    ["--suite", "prop2", "--p", "2", "--e", "2", "--n", "1", "--budget", "-5"],
    ["--suite", "prop2", "--p", "2", "--e", "2", "--n", "1", "--budget", "0"],
])
def test_cmd_verify_rejects_bad_sizes_cleanly(capsys, argv):
    code, _, err = run(capsys, "verify", *argv)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["--suite", "lemma4", "--p", "3", "--e", "4", "--n", "2"],
    ["--suite", "cor5", "--p", "3", "--e", "4", "--n", "2"],
    ["--suite", "lemma4", "--p", "3", "--poly", "u^2+3", "--n", "1"],
    ["--suite", "cor5", "--p", "2", "--poly", "u^3+2", "--n", "1"],
])
def test_cmd_verify_staircase_suites_need_p_dividing_e(capsys, argv):
    # with p not dividing e these suites would check nothing at all
    code, out, err = run(capsys, "verify", *argv, "--json")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "p ∤ e" in err


@pytest.mark.parametrize("p,n", [(5, 1), (7, 2)])
def test_cmd_verify_lemma1_odd_primes(capsys, p, n):
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1",
                                "--p", str(p), "--n", str(n))
    assert code == EXIT_OK and payload["ok"] is True


def test_cmd_verify_remaining_suites(capsys):
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma2",
                                "--p", "2", "--n", "3", "--e", "4")
    assert code == EXIT_OK and payload["ok"] is True
    code, payload, _ = run_json(capsys, "verify", "--suite", "heights",
                                "--seeds", "6")
    assert code == EXIT_OK and payload["ok"] is True
    code, payload, _ = run_json(capsys, "verify", "--suite", "cor5",
                                "--p", "2", "--e", "2", "--n", "2")
    assert code == EXIT_OK and payload["ok"] is True


# -- heights ------------------------------------------------------------------------------

def test_cmd_heights_bounds(capsys):
    code, payload, _ = run_json(capsys, "heights", "--s", "0", "--r", "4")
    assert code == EXIT_OK
    assert payload["bounds"] == {"h3_bound": "4", "overall_bound": "8"}
    code, payload, _ = run_json(capsys, "heights", "--s", "5", "--r", "2")
    assert payload["bounds"] == {"h3_bound": "22", "overall_bound": "44"}


def test_cmd_heights_module_file(capsys, tmp_path):
    M = build_bt_module(Precision(2, 1, 12), EisensteinPolynomial(2, (2, 2)),
                        d=2, h=2, seed=3)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(M)))
    code, payload, _ = run_json(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_OK
    assert payload["h3"] == "2" and payload["h4"] == "0"  # d = h: image is E*M


def test_cmd_heights_module_file_n2_omits_h4(capsys, tmp_path):
    M = build_bt_module(Precision(2, 2, 12), EisensteinPolynomial(2, (2, 2)),
                        d=1, h=1, seed=3)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(module_to_json(M)))
    code, payload, _ = run_json(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_OK
    assert (payload["h"], payload["order"], payload["h3"]) == ("1", "2", "1")
    assert "h4" not in payload


def _without_change_of_basis(data):
    del data["normal_decomp"]["change_of_basis"]
    return data


def _null_phi_entry(data):
    data["phi"][0][0] = None
    return data


def _float_phi_entry(data):
    data["phi"][0][0][0] += 0.5
    return data


def _text_phi_entry(data):
    # "0100..." was once read character by character as the entry [0, 1, 0, 0, ...]
    data["phi"][0][0] = "".join(map(str, data["phi"][0][0]))
    return data


@pytest.mark.parametrize("malform", [
    lambda data: {},
    lambda data: [1],
    _without_change_of_basis,
    _null_phi_entry,
    lambda data: {**data, "T": 12.9},  # int() would truncate it to T = 12
    lambda data: {**data, "h": 2.0},
    lambda data: {**data, "n": True},
    lambda data: {**data, "p": "2.0"},
    lambda data: {**data, "eisenstein": ["2", " 2"]},
    _float_phi_entry,
    _text_phi_entry,
    lambda data: {**data, "eisenstein": "22"},
], ids=["empty-object", "list", "no-change-of-basis", "null-phi-entry", "float-T",
        "float-h", "bool-n", "text-p", "padded-text", "float-phi-entry", "text-phi-entry",
        "text-eisenstein"])
def test_cmd_heights_malformed_module_file(capsys, tmp_path, malform):
    M = build_bt_module(Precision(2, 1, 12), EisensteinPolynomial(2, (2, 2)),
                        d=1, h=2, seed=3)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(malform(module_to_json(M))))
    code, _, err = run(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error: malformed module file") and "Traceback" not in err


def test_cmd_heights_float_field_in_golden_module_file(capsys, tmp_path):
    # the golden extension module with "T": 40.9 once loaded as T = 40 and exited 0
    source = Path(__file__).parent / "golden" / "modules" / "extension_n1.json"
    data = json.loads(source.read_text(encoding="utf-8"))
    path = tmp_path / "extension_n1.json"
    path.write_text(json.dumps({**data, "T": 40.9}))
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == "error: malformed module file: 40.9 is not an integer\n"


@pytest.mark.parametrize("argv", [
    ("invariants", "--poly", "u^2+2u+2"),
    ("bound", "--e", "2", "--tau", "1", "--iota", "1"),
])
def test_cmd_refuses_prime_beyond_certified_range(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "3317044064679887385961981")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: p = 3317044064679887385961981 is too large")


def test_cmd_heights_needs_something(capsys):
    code, _, err = run(capsys, "heights")
    assert code == EXIT_USAGE


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound"])  # missing required --p
    assert exc.value.code == EXIT_USAGE


def test_human_output_lines(capsys):
    code, out, _ = run(capsys, "invariants", "--p", "2", "--poly", "u^2-2")
    assert code == EXIT_OK
    assert "tau = inf" in out and "m = 1" in out
