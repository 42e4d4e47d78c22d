"""The command-line surface: text formats, exit codes, JSON schema."""

import argparse
import contextlib
import inspect
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from ramibound import breuil, cli, eisenstein, suites
from ramibound.breuil import build_bt_module, module_to_json
from ramibound.cli import (
    EXIT_ASSERTION,
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    MAX_POLY_DEGREE,
    PolyParseError,
    eisenstein_from_text,
    parse_polynomial,
    poly_text,
)
from ramibound.eisenstein import EisensteinPolynomial
from ramibound.series import _PRIME_LIMIT, Precision, decimal

GOLDEN_MODULES = Path(__file__).parent / "golden" / "modules"


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
    assert parse_polynomial("-u") == {1: -1}  # one '-' may open the first term


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


@st.composite
def coefficient_lists(draw):
    """Sparse coefficients up to the degree cap, of either sign."""
    terms = draw(st.dictionaries(st.integers(0, MAX_POLY_DEGREE),
                                 st.integers(-10**6, 10**6), max_size=5))
    coeffs = [0] * (max(terms, default=0) + 1)
    for k, c in terms.items():
        coeffs[k] = c
    return coeffs


@settings(max_examples=200)
@given(coefficient_lists())
def test_parse_polynomial_reads_poly_text_back(coeffs):
    nonzero = {k: c for k, c in enumerate(coeffs) if c}
    assert parse_polynomial(poly_text(coeffs)) == (nonzero or {0: 0})


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a --poly value like "-u"
            code = exc.code
    return code, err.getvalue()


_POLY_CHARS = st.one_of(st.sampled_from(list("u^+-*0123456789 ")), st.characters())
_POLY_PIECES = st.sampled_from(["u^2", "u^4", "u^257", "u", "2u", "2*u^3", "2", "4",
                                "6", "+", "-", " ", "^", "*"])
_POLY_TERMS = st.tuples(
    st.sampled_from(["u", "u^2", "u^3", "u^4", "u^257"]),
    st.lists(st.tuples(st.sampled_from("+-"),
                       st.sampled_from(["2", "4", "6", "3", "2u", "4*u^2", "u"])), max_size=3),
).map(lambda t: t[0] + "".join(sign + term for sign, term in t[1]))
_POLY_TEXT = st.one_of(
    st.text(_POLY_CHARS, max_size=40),
    st.lists(_POLY_PIECES, max_size=10).map("".join).filter(lambda t: len(t) <= 40),
    _POLY_TERMS,
)


@settings(max_examples=300)
@given(_POLY_TEXT)
def test_cli_on_arbitrary_poly_text_exits_0_or_2(text):
    code, err = _exit_code(["invariants", "--p", "2", "--poly", text, "--json"])
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err


def _caret(err: str, text: str) -> int:
    """The position that a parse error's caret line points at in text."""
    lines = err.splitlines()
    assert lines[0].startswith("parse error: ") and lines[1] == f"  {text}"
    assert lines[2].startswith("  ") and lines[2].endswith("^") and not lines[2][2:-1].strip()
    return len(lines[2]) - 3


# Non-ASCII decimal digits and spaces: Arabic-Indic, extended Arabic-Indic,
# Devanagari, fullwidth and mathematical bold digits, and a no-break space
_NON_ASCII = ["\u0662", "\u06f2", "\u0968", "\uff12", "\U0001d7d0", "\u00a0"]


@pytest.mark.parametrize("digit", _NON_ASCII)
@pytest.mark.parametrize("template, pos", [("u^2+{}u+2", 4), ("u^2+2u+{}", 7), ("u^{}+2", 1),
                                           ("{}*u^2+2", 0)])
def test_poly_grammar_reads_ascii_digits_only(capsys, digit, template, pos):
    # \d and \s match every Unicode digit and space unless the pattern is
    # ASCII; "u^2+\u0662u+\u0662" once read as u^2+2*u+2 and exited 0.  A
    # '^' with no ASCII digit after it ends the term "u", so the caret
    # points at that '^'
    text = template.format(digit)
    code, out, err = run(capsys, "invariants", "--p", "2", "--poly", text)
    assert (code, out) == (EXIT_USAGE, "")
    assert _caret(err, text) == pos


# The most digits series.decimal reads: half the int-string limit, less one
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_D = _INT_LIMIT // 2 - 1
_NEEDS_INT_LIMIT = pytest.mark.skipif(
    not _INT_LIMIT, reason="no int-string limit, so decimal() reads any length")


@_NEEDS_INT_LIMIT
@pytest.mark.parametrize("digits", [_D + 1, _INT_LIMIT + 1], ids=["D+1", "limit+1"])
@pytest.mark.parametrize("template, pos", [("u^2+{}", 4), ("u^{}+2", 2), ("{}u^2+2", 0)])
def test_poly_grammar_refuses_a_digit_run_past_the_int_limit(capsys, template, pos, digits):
    # int() refuses a run longer than sys.get_int_max_str_digits(); that was
    # printed as "error: ... use sys.set_int_max_str_digits() ..." without a
    # position.  decimal() refuses a run of more than D digits the same way
    text = template.format("2" * digits)
    code, out, err = run(capsys, "invariants", "--p", "2", "--poly", text)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"parse error: a {digits}-digit number is too long to read "
                          f"(at position {pos})")
    assert _caret(err, text) == pos


# Each integer flag, by command and name, with the rest of a command line
# that ends at once for any value of up to three characters
_INT_FLAGS = {
    ("invariants", "p"): ["invariants", "--poly", "u^2+2u+2"],
    ("bound", "p"): ["bound", "--e", "2", "--tau", "1", "--iota", "1"],
    ("bound", "e"): ["bound", "--p", "2", "--tau", "1", "--iota", "1"],
    ("bound", "tau"): ["bound", "--p", "2", "--e", "2", "--iota", "1"],
    ("bound", "iota"): ["bound", "--p", "2", "--e", "8", "--tau", "1"],
    ("bound", "search-prec"): ["bound", "--p", "2", "--poly", "u^2-2"],
    ("verify", "p"): ["verify", "--suite", "prop2", "--e", "2", "--n", "1", "--budget", "1000"],
    ("verify", "n"): ["verify", "--suite", "prop2", "--p", "2", "--e", "2", "--budget", "1000"],
    ("verify", "e"): ["verify", "--suite", "prop2", "--p", "2", "--n", "1", "--budget", "1000"],
    ("verify", "budget"): ["verify", "--suite", "prop2", "--p", "2", "--e", "2", "--n", "1"],
    ("verify", "seeds"): ["verify", "--suite", "heights"],
    ("heights", "s"): ["heights", "--r", "4"],
    ("heights", "r"): ["heights", "--s", "0"],
}
_NEVER_IN_A_DECIMAL = ["\u0662", "\uff12", "\u0968", "_", "+", " "]


@pytest.mark.parametrize("command, flag", sorted(_INT_FLAGS))
@settings(max_examples=40, deadline=None)
@given(st.text(st.sampled_from(list("0123456789-") + _NEVER_IN_A_DECIMAL), max_size=3))
def test_integer_flags_read_ascii_decimals_only(command, flag, text):
    # argparse's int() read "\u0662", "+2", "1_0" and " 1" as integers and
    # ran the command; decimal() refuses them before any work
    code, err = _exit_code([*_INT_FLAGS[command, flag], f"--{flag}", text])
    assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_USAGE, EXIT_BUDGET)
    assert "Traceback" not in err
    if any(ch in text for ch in _NEVER_IN_A_DECIMAL):
        assert code == EXIT_USAGE


def test_every_typed_flag_reads_through_decimal():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    typed = {(name, a.option_strings[0][2:]): a.type for name, sp in sub.choices.items()
             for a in sp._actions if a.type is not None}
    assert typed == {**dict.fromkeys(_INT_FLAGS, decimal), ("verify", "poly"): str}


@pytest.mark.parametrize("p", ["0", "1", "4", "258"])
@pytest.mark.parametrize("argv", [
    ["invariants", "--poly", "u^2+2u+2"],
    ["bound", "--e", "4", "--tau", "1", "--iota", "1"],
    ["bound", "--poly", "u^2+2u+2"],
    *(["verify", "--suite", suite, "--n", "1", *family]
      for suite in ("prop2", "lemma4", "cor5") for family in (["--e", "4"], ["--poly", "u^4+2"])),
    ["verify", "--suite", "lemma1", "--n", "1"],
    ["verify", "--suite", "lemma2", "--n", "1"],
    ["verify", "--suite", "example3", "--n", "1"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("verify", "--suite")))
def test_every_command_refuses_a_p_that_is_not_prime_in_one_message(capsys, argv, p):
    # invariants, bound --poly and prop2, lemma4, cor5 and lemma1 once listed
    # it as an invalid Eisenstein polynomial
    assert run(capsys, *argv, "--p", p) == (EXIT_USAGE, "", f"error: p = {p} is not prime\n")


@_NEEDS_INT_LIMIT
def test_bound_reads_d_digit_inputs_and_prints_their_product(capsys):
    # tau * e + iota has at most 2D + 1 digits, so every pair still prints
    p = 1000003
    e, tau = p * 10 ** (_D - 7), 10 ** (_D - 1) + 7
    assert len(str(e)) == len(str(tau)) == _D
    code, payload, _ = run_json(capsys, "bound", "--p", str(p), "--e", str(e),
                                "--tau", str(tau), "--iota", "1")
    assert code == EXIT_OK
    assert int(payload["pairs"][0][0]) == (tau * e + 1) // (p - 1)


@_NEEDS_INT_LIMIT
def test_heights_reads_d_digit_inputs(capsys):
    s = r = "9" * _D
    code, payload, _ = run_json(capsys, "heights", "--s", s, "--r", r)
    assert code == EXIT_OK
    assert int(payload["bounds"]["overall_bound"]) == (4 * int(s) + 2) * int(r)


@_NEEDS_INT_LIMIT
@pytest.mark.parametrize("argv", [
    ["bound", "--p", "2", "--e", "1" + "0" * _D, "--tau", "1", "--iota", "1"],
    ["bound", "--p", "2", "--e", "4", "--tau", "1" + "0" * _D, "--iota", "1"],
    # once computed the whole trace, then failed to print it
    ["bound", "--p", "2", "--e", "1" + "0" * 3000, "--tau", "1" + "0" * 3000, "--iota", "1"],
    ["heights", "--s", "9" * (_D + 1), "--r", "1"],
    ["verify", "--suite", "prop2", "--p", "2", "--e", "2", "--n", "1", "--budget",
     "9" * (_D + 1)],
], ids=["bound-e", "bound-tau", "bound-3001", "heights-s", "verify-budget"])
def test_integer_flags_past_d_digits_are_refused_at_parse_time(monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("work started before every flag was read")

    for name in ("compute_s", "prop3_height_bounds"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setitem(suites.SUITES, "prop2", never)
    code, err = _exit_code(argv)
    longest = max(len(a) for a in argv)
    assert code == EXIT_USAGE
    assert f"a {longest}-digit number is too long to read" in err.splitlines()[-1]
    assert "set_int_max_str_digits" not in err


@_NEEDS_INT_LIMIT
@pytest.mark.parametrize("field", ["p", "phi"])
def test_module_file_string_past_d_digits_is_malformed(capsys, tmp_path, field):
    data = json.loads((GOLDEN_MODULES / "extension_n1.json").read_text(encoding="utf-8"))
    if field == "p":
        data["p"] = "2" * (_D + 1)
    else:
        data["phi"][0][0][0] = "2" * (_D + 1)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: malformed module file: a {_D + 1}-digit number is too long to read\n"


@_NEEDS_INT_LIMIT
@pytest.mark.parametrize("digits", [_D + 1, 3000, _INT_LIMIT + 1],
                         ids=["D+1", "3000", "limit+1"])
def test_module_file_json_integer_past_d_digits_is_malformed(capsys, tmp_path, digits):
    # a JSON integer obeys decimal() as a string does: below the int-string
    # limit it was read (exit 0), past it Python's own hint was printed
    data = json.loads((GOLDEN_MODULES / "extension_n1.json").read_text(encoding="utf-8"))
    data["phi"][0][0][0] = "BIG"
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data).replace('"BIG"', "1" * digits))
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: malformed module file: a {digits}-digit number is too long to read\n"


@_NEEDS_INT_LIMIT
def test_module_file_json_integers_of_d_digits_are_read(capsys, tmp_path):
    # D digits pass the rule; the entry is then reduced like any other
    data = json.loads((GOLDEN_MODULES / "extension_n1.json").read_text(encoding="utf-8"))
    want = run_json(capsys, "heights", "--module-file",
                    str(GOLDEN_MODULES / "extension_n1.json"))
    big = data["phi"][0][0][0] + data["p"] ** data["n"] * 10 ** (_D - 1)
    assert len(str(big)) == _D
    data["phi"][0][0][0] = "BIG"
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data).replace('"BIG"', str(big)))
    assert run_json(capsys, "heights", "--module-file", str(path)) == want


_VALID_POLYS = ["u^2+2u+2", "u^2-2", "u^4+2", "3*u^4 + 7", "-u + 2", "u^3 + 2*u^2 + 6",
                "u^2 - 2 * u + 10", "u^257+2"]


@st.composite
def one_character_edits(draw):
    """A valid polynomial with one character inserted, deleted or replaced."""
    text = draw(st.sampled_from(_VALID_POLYS))
    i = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(list("^*+-u 0123456789") + _NON_ASCII))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    if edit == "insert" or i == len(text):
        return text[:i] + ch + text[i:]
    return text[:i] + ("" if edit == "delete" else ch) + text[i + 1:]


@settings(max_examples=300)
@given(one_character_edits())
def test_poly_grammar_error_positions_under_one_character_edits(text):
    # every outcome is 0 or 2 and never an exception; a parse error points
    # inside the text (its end marks the end of the input), and only ASCII
    # text can be read
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["invariants", "--p", "2", f"--poly={text}"])
    assert code in (EXIT_OK, EXIT_USAGE)
    assert code == EXIT_USAGE or text.isascii()
    if err.getvalue().startswith("parse error: ") and text:
        assert 0 <= _caret(err.getvalue(), text) <= len(text)


@pytest.mark.parametrize("argv", [
    ("invariants", "--p", "2"),
    ("bound", "--p", "2"),
    ("verify", "--suite", "prop2", "--p", "2", "--n", "1"),
])
@pytest.mark.parametrize("degree", [MAX_POLY_DEGREE + 1, 10**9])
def test_cmd_refuses_poly_degree_beyond_cap(capsys, argv, degree):
    # rejection only: the degree is refused before its coefficient tuple exists
    code, out, err = run(capsys, *argv, "--poly", f"u^{degree}+2")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"parse error: degree {degree} exceeds the limit of "
                          f"{MAX_POLY_DEGREE}")


def test_eisenstein_from_text_accepts_the_degree_cap():
    assert eisenstein_from_text(2, f"u^{MAX_POLY_DEGREE}+2").e == MAX_POLY_DEGREE


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


def test_cmd_invariants_prints_text_it_reads_back(capsys):
    # E1 = -2u opens with a '-', which the grammar accepts before the first term
    code, payload, _ = run_json(capsys, "invariants", "--p", "2", "--poly", "u^2-2u+2")
    assert code == EXIT_OK and payload["E1"] == "-2*u"
    assert [parse_polynomial(payload[k]) for k in ("poly", "E0", "E1")] == [
        {2: 1, 1: -2, 0: 2}, {2: 1, 0: 2}, {1: -2}]


def test_cmd_invariants_fiat_case(capsys):
    code, payload, _ = run_json(capsys, "invariants", "--p", "5", "--poly", "u^3+5")
    assert code == EXIT_OK
    assert (payload["m"], payload["tau"], payload["iota"]) == ("0", "1", "0")


def test_cmd_invariants_rejects_bad_input(capsys):
    code, _, err = run(capsys, "invariants", "--p", "2", "--poly", "u^2-4")
    assert code == EXIT_USAGE and "ord_p" in err
    code, _, err = run(capsys, "invariants", "--p", "2", "--poly", "u^2 %")
    assert code == EXIT_USAGE and "^" in err  # caret marks the position
    code, _, err = run(capsys, "invariants", "--p", "2", "--poly=-u^2+2")
    assert code == EXIT_USAGE and "leading coefficient of u^2 must be 1" in err


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


def test_cmd_bound_huge_tau_ends_at_once(capsys):
    # s is about 3e20, so Example 4's test must not form p^(s + 1 - (m+2)^2)
    start = time.perf_counter()
    code, payload, _ = run_json(capsys, "bound", "--p", "2", "--e", "4",
                                "--tau", str(10**20), "--iota", "1")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK and payload["bound_example4"]["s_below"] is False


def test_cmd_bound_infinite_tau_needs_search(capsys):
    code, _, err = run(capsys, "bound", "--p", "2", "--poly", "u^2-2")
    assert code == EXIT_USAGE and "search-prec" in err


@pytest.mark.parametrize("argv, message", [
    (["--poly", "u^2+2u+2", "--e", "3", "--tau", "1", "--iota", "0"], "error:"),
    (["--e", "2", "--tau", "1", "--iota", "1", "--search-prec", "2"], "error:"),
    (["--e", "2"], "error: need either --poly or all of --e/--tau/--iota\n"),
], ids=["poly-and-explicit", "search-prec-without-poly", "e-without-tau-iota"])
def test_cmd_bound_refuses_flags_it_would_drop(capsys, argv, message):
    code, out, err = run(capsys, "bound", "--p", "2", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(message) and "Traceback" not in err


def test_cmd_bound_search_over_the_cap(capsys, monkeypatch):
    # 2^23 changes of u^8 - 2 at digit precision 3: refused before any charpoly
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(eisenstein, "charpoly_mod", no_enumeration)
    code, out, err = run(capsys, "bound", "--p", "2", "--poly", "u^8-2", "--search-prec", "3")
    assert code == EXIT_BUDGET and out == ""
    assert err.startswith("budget exceeded:") and "8388608 candidates" in err


def test_cmd_bound_reports_a_failed_search_invariant(capsys, monkeypatch):
    # a kernel without the scaling invariance, as in test_eisenstein's
    # witness re-check: one line on stderr and exit 1, not a traceback
    monkeypatch.setattr(eisenstein, "charpoly_mod",
                        lambda cols, q: [2, 2 if tuple(cols[0][:2]) == (6, 1) else 4, 1])
    code, out, err = run(capsys, "bound", "--p", "2", "--poly", "u^2+2", "--search-prec", "3")
    assert (code, out) == (EXIT_ASSERTION, "")
    assert err == "assertion failed: the witness's key differs from the minimum of its orbit\n"


def test_cmd_bound_reports_a_violated_tau_ceiling(capsys, monkeypatch):
    # the kernel of test_eisenstein's ceiling test: key 7 at u^2 + 2, tau = 3
    monkeypatch.setattr(eisenstein, "charpoly_mod", lambda cols, q: [2, 8, 1])
    code, out, err = run(capsys, "bound", "--p", "2", "--poly", "u^2+2", "--search-prec", "1")
    assert (code, out) == (EXIT_ASSERTION, "")
    assert err == ("assertion failed: tau ceiling m + 1 violated; "
                   "pi and pi + p were enumerated\n")


def test_cmd_bound_search_over_the_cap_names_the_work_and_the_flag(capsys):
    code, out, err = run(capsys, "bound", "--p", "2", "--poly", "u^8-2", "--search-prec", "3")
    assert code == EXIT_BUDGET and out == ""
    assert err == ("budget exceeded: the tau search at digit precision 3 would visit "
                   "8388608 candidates, over the cap of 1000000; lower --search-prec\n")


def test_cmd_bound_search_prec_ends_at_once_when_p_does_not_divide_e(capsys):
    # m = 0 searches nothing: any digit precision gives the identity change
    _, small, _ = run_json(capsys, "bound", "--p", "2", "--poly", "u^3+2", "--search-prec", "2")
    start = time.perf_counter()
    code, big, _ = run_json(capsys, "bound", "--p", "2", "--poly", "u^3+2",
                            "--search-prec", "99999999999")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_OK and big["tau_search"] == small["tau_search"]


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


@pytest.mark.parametrize("suite", ["prop2", "lemma4", "cor5"])
def test_cmd_verify_budget_error_names_the_work_and_the_flag(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--p", "2",
                         "--e", "4", "--n", "2", "--budget", "10")
    assert code == EXIT_BUDGET and out == ""
    assert err == ("budget exceeded: the prop2 search at n = 2 would visit 768 candidates, "
                   "over the budget of 10; raise --budget or lower --n\n")


def test_cmd_verify_cor5_scan_over_budget_ends_at_once(capsys):
    # the search (1756920 candidates) fits the budget; the scan after it
    # would make (11^11 - 1)/10 calls, so it is refused before the first
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "cor5", "--p", "11",
                         "--poly", "u^11+11", "--n", "2")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_BUDGET and out == ""
    assert err == ("budget exceeded: the cor5 scan at n = 2 would make 28531167061 "
                   "cor5_check calls, over the budget of 100000000; "
                   "raise --budget or lower --n\n")


@pytest.mark.parametrize("suite", ["prop2", "lemma4", "cor5"])
def test_cmd_verify_huge_n_is_refused_before_any_power(capsys, suite):
    # 2^n at n = 99999999999 would not finish; the gate prices it by exponent
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", suite, "--p", "2",
                         "--poly", "u^2+2", "--n", "99999999999")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_BUDGET and out == ""
    assert "the prop2 search at n = 99999999999 would visit (2^99999999999 - 1)*2^" in err


@pytest.mark.parametrize("argv, code, message", [
    # sizes compared by exponent, so no power of p is computed or printed in full
    (["prop2", "--p", "2", "--poly", "u^2-2", "--n", "3000"], EXIT_BUDGET,
     "would visit (2^3000 - 1)*2^9000000 candidates"),
    (["prop2", "--p", "2", "--poly", "u^2-2", "--n", "100000"], EXIT_BUDGET,
     "would visit (2^100000 - 1)*2^10000000000 candidates"),
    # a sweep is refused before its grid is built
    (["prop2", "--p", "2", "--e", "12", "--n", "3"], EXIT_BUDGET,
     "the prop2 search at n = 3 would visit 126100789566373888 candidates"),
    (["prop2", "--p", "1000000007", "--e", "2", "--n", "1"], EXIT_BUDGET,
     "the prop2 search at n = 1 would visit 1000000006 candidates"),
    (["prop2", "--p", "10007", "--e", "3", "--n", "1"], EXIT_BUDGET,
     "the prop2 sweep over the degree-3 grid at n = 1 would visit 10026025310921764"),
    (["lemma4", "--p", "2", "--e", "4", "--n", "3"], EXIT_BUDGET,
     "the prop2 sweep over the degree-4 grid at n = 3 would visit 3758096384"),
    (["prop2", "--p", "2", "--e", "1000000000", "--n", "1"], EXIT_BUDGET,
     "would visit (2^1 - 1)*2^500000000 candidates"),
    (["prop2", "--p", "0", "--e", "2", "--n", "1"], EXIT_USAGE, "p = 0 is not prime"),
    (["lemma4", "--p", "0", "--e", "2", "--n", "1"], EXIT_USAGE, "p = 0 is not prime"),
    # families the suites cannot hold
    (["lemma1", "--p", "257", "--n", "1"], EXIT_USAGE,
     "error: --p 257 gives lemma1 series of u-precision above 2p, over the limit of p <= 256"),
    (["example3", "--p", "1000000007", "--n", "1"], EXIT_USAGE,
     "error: --p 1000000007 gives the cascade polynomial u^p - p of degree 1000000007, "
     "over the limit of 256"),
    (["lemma2", "--p", "1000000007", "--n", "1"], EXIT_USAGE, "cascade polynomial"),
    (["example3", "--p", "257", "--n", "1"], EXIT_USAGE, "over the limit of 256"),
], ids=["n3000", "n100000", "e12-n3", "p1e9", "p10007-sweep", "lemma4-sweep", "e1e9",
        "p0", "lemma4-p0", "lemma1-p257", "example3-p1e9", "lemma2-p1e9", "example3-p257"])
def test_cmd_verify_refuses_what_it_cannot_hold_at_once(capsys, argv, code, message):
    got, out, err = run(capsys, "verify", "--suite", *argv)
    assert (got, out) == (code, "")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("p", [17, 23], ids=["lemma1-p17", "lemma1-p23"])
def test_cmd_verify_lemma1_primes_past_13_widen_T(capsys, p):
    # T grows with p, so numerators up to u^2 are sampled and some accepted
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1",
                                "--p", str(p), "--n", "1")
    assert code == EXIT_OK and payload["ok"] is True
    tally = payload["assertions"]["twist-membership"]
    assert tally["fail"] == "0" and int(tally["pass"]) > 0


def test_cmd_verify_sweep_budget_is_exact(capsys, monkeypatch):
    # the (2, 4, 3) sweep visits 2048 * 1835008 = 3758096384 candidates: one
    # fewer in the budget refuses it, that many reaches the grid
    class Reached(Exception):
        pass

    def grid(p, e, n):
        raise Reached

    monkeypatch.setattr(suites.oracle, "eisenstein_grid", grid)
    argv = ["verify", "--suite", "prop2", "--p", "2", "--e", "4", "--n", "3", "--budget"]
    code, _, err = run(capsys, *argv, "3758096383")
    assert code == EXIT_BUDGET and "3758096384 candidates" in err
    with pytest.raises(Reached):
        cli.main(argv + ["3758096384"])


@pytest.mark.parametrize("p,n", [(11, 3), (13, 1)])
def test_cmd_verify_lemma1_primes_up_to_13(capsys, p, n):
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1",
                                "--p", str(p), "--n", str(n))
    assert code == EXIT_OK and payload["ok"] is True


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
    ["--suite", "prop2", "--p", "2", "--poly", "u^2-2", "--e", "4", "--n", "1"],
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


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_flags_are_the_suite_parameters(name):
    flags = suites.SUITE_FLAGS[name]
    assert flags == tuple(inspect.signature(suites.SUITES[name]).parameters)
    assert set(flags) <= set(cli.VERIFY_FLAGS)


_FLAG_VALUES = {"p": "2", "n": "1", "e": "2", "poly": "u^2+2", "budget": "100", "seeds": "3"}


@pytest.mark.parametrize("flag", cli.VERIFY_FLAGS)
@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_cmd_verify_refuses_exactly_the_flags_a_suite_does_not_read(
        capsys, monkeypatch, name, flag):
    # a stub in place of the suite records what it is called with; --p and
    # --n are given to the suites that read them
    calls = []

    def stub(**kwargs):
        calls.append(kwargs)
        return {"suite": name, "config": {}, "assertions": {}, "ok": True, "runtime_s": 0.0}

    monkeypatch.setitem(suites.SUITES, name, stub)
    reads = suites.SUITE_FLAGS[name]
    given = {f: v for f, v in _FLAG_VALUES.items() if f in ("p", "n") and f in reads}
    given[flag] = _FLAG_VALUES[flag]
    argv = [a for f, v in given.items() for a in (f"--{f}", v)]
    code, out, err = run(capsys, "verify", "--suite", name, *argv)
    if flag in reads:
        expected = {f: int(v) for f, v in given.items() if f != "poly"}
        if flag == "poly":
            expected["poly"] = (2, 0)  # the coefficients below the leading u^2
        assert (code, err, calls) == (EXIT_OK, "", [expected])
    else:
        assert (code, out, calls) == (EXIT_USAGE, "", [])
        assert err == f"error: --suite {name} does not read --{flag}\n"


@pytest.mark.parametrize("argv, message", [
    (["example3", "--p", "2", "--n", "1", "--e", "5"], "example3 does not read --e"),
    (["lemma1", "--p", "2", "--n", "1", "--poly", "u^2+2"], "lemma1 does not read --poly"),
    (["heights", "--p", "2", "--n", "3"], "heights does not read --p, --n"),
    (["lemma2", "--p", "2", "--n", "1", "--seeds", "9"], "lemma2 does not read --seeds"),
    (["prop2", "--p", "2", "--poly", "u^2+2", "--n", "1", "--seeds", "4"],
     "prop2 does not read --seeds"),
])
def test_cmd_verify_refuses_flags_the_suite_would_drop(capsys, argv, message):
    # each of these ran the suite without the flag, and exited 0
    code, out, err = run(capsys, "verify", "--suite", *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: --suite {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["lemma2", "--p", "2", "--n", "1", "--e", str(MAX_POLY_DEGREE + 1)],
     f"error: --e 257 gives stability tables of degree up to 257, over the limit of "
     f"{MAX_POLY_DEGREE}\n"),
    (["lemma2", "--p", "3", "--n", "1", "--e", "1000000000"],
     "error: --e 1000000000 gives stability tables of degree up to 1000000000, "
     f"over the limit of {MAX_POLY_DEGREE}\n"),
    (["example3", "--n", "2"], "error: --suite example3 needs --p and --n\n"),
    (["prop2", "--p", "2", "--poly", "u^2-2"], "error: --suite prop2 needs --p and --n\n"),
])
def test_cmd_verify_refuses_lemma2_degrees_past_the_cap_and_missing_sizes(
        capsys, argv, message):
    code, out, err = run(capsys, "verify", "--suite", *argv)
    assert (code, out, err) == (EXIT_USAGE, "", message)


def test_cmd_verify_reads_suite_flags_through_wrapped_suites(capsys, monkeypatch):
    # a tracer puts (*args, **kwargs) wrappers in SUITES; the flags stay those
    # of the suites themselves
    for name, suite in list(suites.SUITES.items()):
        monkeypatch.setitem(suites.SUITES, name,
                            lambda *args, _suite=suite, **kwargs: _suite(*args, **kwargs))
    code, payload, _ = run_json(capsys, "verify", "--suite", "lemma1",
                                "--p", "2", "--n", "1", "--seeds", "2")
    assert code == EXIT_OK and payload["config"]["seeds"] == "2"
    code, _, err = run(capsys, "verify", "--suite", "lemma1", "--p", "2", "--n", "1",
                       "--poly", "u^2+2")
    assert (code, err) == (EXIT_USAGE, "error: --suite lemma1 does not read --poly\n")


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


def _long_change_of_basis_entry(data):
    # an entry longer than T once loaded truncated to its first T coefficients
    data["normal_decomp"]["change_of_basis"][1][0] += [1]
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
    _long_change_of_basis_entry,
    lambda data: {**data, "phi": data["phi"] + data["phi"][:1]},
    lambda data: {**data, "T": 10**9},
    lambda data: {**data, "h": 10**9},
    lambda data: {**data, "n": 10**9},
], ids=["empty-object", "list", "no-change-of-basis", "null-phi-entry", "float-T",
        "float-h", "bool-n", "text-p", "padded-text", "float-phi-entry", "text-phi-entry",
        "text-eisenstein", "long-change-of-basis-entry", "extra-phi-row",
        "huge-T", "huge-h", "huge-n"])
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


def test_cmd_heights_long_entry_in_golden_module_file(capsys, tmp_path):
    # three extra coefficients on phi[0][0] once loaded truncated: h4 = 1, exit 0
    source = Path(__file__).parent / "golden" / "modules" / "extension_n1.json"
    data = json.loads(source.read_text(encoding="utf-8"))
    data["phi"][0][0] += [1, 1, 1]
    path = tmp_path / "extension_n1.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == ("error: malformed module file: a phi entry has 11 coefficients, "
                   "more than T = 8\n")


@pytest.mark.parametrize("extra", [0, 1])
def test_cmd_heights_refuses_long_eisenstein_list_up_front(capsys, tmp_path, monkeypatch,
                                                           extra):
    # rejection only: an eisenstein list of T or more coefficients is refused
    # before the polynomial is built (it once failed later, in the series layer)
    def no_polynomial(*args):
        raise AssertionError("EisensteinPolynomial built")

    monkeypatch.setattr(breuil, "EisensteinPolynomial", no_polynomial)
    data = json.loads((GOLDEN_MODULES / "extension_n1.json").read_text(encoding="utf-8"))
    data["eisenstein"] = [3] + [0] * (data["T"] - 1 + extra)
    path = tmp_path / "module.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == (f"error: malformed module file: eisenstein has {8 + extra} "
                   f"coefficients, at least T = 8\n")


@pytest.mark.parametrize("malform, message", [
    (lambda data: [data], "the top level must be an object"),
    (lambda data: {**data, "normal_decomp": 3}, "normal_decomp must be an object"),
    (lambda data: {k: v for k, v in data.items() if k != "phi"}, 'missing key "phi"'),
    (lambda data: {**data, "normal_decomp": {"d": 1}},
     'missing key "change_of_basis" in normal_decomp'),
    # once reported as "phi is not -1x-1"
    (lambda data: {**data, "h": -1}, "h = -1 must be at least 1"),
    (lambda data: {**data, "h": 0}, "h = 0 must be at least 1"),
], ids=["top-level-list", "int-normal-decomp", "no-phi", "no-change-of-basis",
        "negative-h", "zero-h"])
def test_cmd_heights_names_what_is_wrong_with_the_module_file(capsys, tmp_path, malform,
                                                               message):
    # these shapes once printed the repr of a KeyError or TypeError
    data = json.loads((GOLDEN_MODULES / "extension_n1.json").read_text(encoding="utf-8"))
    path = tmp_path / "extension_n1.json"
    path.write_text(json.dumps(malform(data)))
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: malformed module file: {message}\n"


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"p":' * 50000 + "1" + "}" * 50000,
], ids=["nested-lists", "nested-objects"])
def test_cmd_heights_deeply_nested_module_file(capsys, tmp_path, text):
    # nesting past Python's recursion limit once ended in a RecursionError
    # traceback with exit 1
    path = tmp_path / "module.json"
    path.write_text(text)
    code, out, err = run(capsys, "heights", "--module-file", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: malformed module file: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _json_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _mutated(data, path, value, drop):
    """data with the node at path replaced by value, or dropped when drop is
    set and the node is a key of an object."""
    if not path:
        return value
    data = json.loads(json.dumps(data))
    *head, last = path
    parent = data
    for key in head:
        parent = parent[key]
    if drop and isinstance(parent, dict):
        del parent[last]
    else:
        parent[last] = value
    return data


_GOLDEN_MODULE_FILES = {
    name: json.loads((GOLDEN_MODULES / name).read_text(encoding="utf-8"))
    for name in ("extension_n1.json", "corner_u3_e2.json")
}
# the largest prime Miller-Rabin certifies, the limit itself, and past it
_NEAR_PRIME_LIMIT = (_PRIME_LIMIT - 168, _PRIME_LIMIT - 1, _PRIME_LIMIT, _PRIME_LIMIT + 1)
_HUGE = st.one_of(st.integers(-2**90, 2**90), st.sampled_from(
    [-1, 2**63, 2**64 + 1, -2**64, 10**40, *_NEAR_PRIME_LIMIT]))
_JSON_VALUES = st.one_of(
    st.integers(-3, 40), _HUGE, _HUGE.map(str), st.floats(), st.booleans(), st.none(),
    st.text(max_size=4), st.lists(st.integers(-3, 9), max_size=3), st.lists(_HUGE, max_size=2),
    st.dictionaries(st.sampled_from(["p", "d"]), st.integers(-3, 9), max_size=2),
)


@st.composite
def module_file_mutations(draw):
    """A golden module file with one to three nodes replaced by a value of
    another type, a huge or negative number, or dropped; or with its header
    p moved to the Miller-Rabin limit, E's constant term following it or not."""
    data = _GOLDEN_MODULE_FILES[draw(st.sampled_from(sorted(_GOLDEN_MODULE_FILES)))]
    if draw(st.booleans()):
        data = _mutated(data, ("p",), draw(st.sampled_from(_NEAR_PRIME_LIMIT)), False)
        if draw(st.booleans()):
            data = _mutated(data, ("eisenstein", 0), data["p"], False)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(data))))
        data = _mutated(data, path, draw(_JSON_VALUES), draw(st.booleans()))
    return data


def _heights_on(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "module.json"
        path.write_text(json.dumps(data))
        return _exit_code(["heights", "--module-file", str(path), "--json"])


@pytest.mark.parametrize("name, expected", [
    ("extension_n1.json", (EXIT_OK, "")),
    ("corner_u3_e2.json",
     (EXIT_USAGE, "error: cokernel of phi is not annihilated by E (at precision T)\n")),
])
def test_cli_reads_module_files_at_the_prime_limit(name, expected):
    # the largest prime Miller-Rabin certifies is read (and the corner
    # module then refused by its gate); the limit itself is refused
    data = _mutated(_GOLDEN_MODULE_FILES[name], ("p",), _PRIME_LIMIT - 168, False)
    data = _mutated(data, ("eisenstein", 0), data["p"], False)
    assert _heights_on(data) == expected
    data["p"] = _PRIME_LIMIT
    code, err = _heights_on(data)
    assert code == EXIT_USAGE and err.startswith(f"error: p = {_PRIME_LIMIT} is too large")


@seed(20260)
@settings(max_examples=300, deadline=None)
@given(module_file_mutations())
def test_cli_on_mutated_module_files_exits_0_or_2(data):
    code, err = _heights_on(data)
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err


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
    assert run(capsys, "heights", "--s", "1") == (
        EXIT_USAGE, "", "error: --s and --r go together\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound"])  # missing required --p
    assert exc.value.code == EXIT_USAGE


def test_human_output_lines(capsys):
    code, out, _ = run(capsys, "invariants", "--p", "2", "--poly", "u^2-2")
    assert code == EXIT_OK
    assert "tau = inf" in out and "m = 1" in out
