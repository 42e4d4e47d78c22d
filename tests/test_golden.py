"""Golden CLI outputs: the "same behaviour" check for refactors.

Each case runs one `ramibound` invocation with `--json` and compares its
exit code, its JSON output (minus the `runtime_s` timing) and its standard
error, byte for byte, with a file in tests/golden/.  After a deliberate
change of behaviour, regenerate the records it touches with

    PYTHONPATH=src python tests/test_golden.py NAME ...

(every record when no NAME is given) and review the diff.  The module files under tests/golden/modules/ are
uncertified n = 1 modules: an extension (h4 = 1) and a matrix with a u^3
corner whose cokernel E = u^2 + 2 does not kill, which the CLI refuses.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from ramibound import cli

GOLDEN = Path(__file__).parent / "golden"
MODULES = "modules"  # module-file arguments are relative to GOLDEN

CASES = {
    "invariants_p2": ["invariants", "--p", "2", "--poly", "u^2+2u+2"],
    "invariants_p3": ["invariants", "--p", "3", "--poly", "u^3+3u+3"],
    "invariants_e1": ["invariants", "--p", "2", "--poly", "u+2"],
    "invariants_non_ascii_digit": ["invariants", "--p", "2", "--poly", "u^2+\u0662u+\u0662"],
    "invariants_non_ascii_p": ["invariants", "--p", "\u0662", "--poly", "u^2+2u+2"],
    "bound_explicit": ["bound", "--p", "5", "--e", "3", "--tau", "1", "--iota", "0"],
    "bound_search": ["bound", "--p", "2", "--poly", "u^2-2", "--search-prec", "2"],
    "bound_search_u4m2": ["bound", "--p", "2", "--poly", "u^4-2", "--search-prec", "2"],
    "bound_search_u3p3": ["bound", "--p", "3", "--poly", "u^3+3", "--search-prec", "2"],
    "bound_search_u3p3_dp3": ["bound", "--p", "3", "--poly", "u^3+3", "--search-prec", "3"],
    "bound_search_u3p3_dp4": ["bound", "--p", "3", "--poly", "u^3+3", "--search-prec", "4"],
    "bound_search_unramified": ["bound", "--p", "3", "--poly", "u^2+3", "--search-prec",
                                "2"],
    # e = 1: the only search whose identity change is pi~ = p, digits (1,)
    "bound_search_e1": ["bound", "--p", "2", "--poly", "u+2", "--search-prec", "1"],
    "bound_poly": ["bound", "--p", "2", "--poly", "u^2+2u+2"],
    "bound_modified": ["bound", "--p", "3", "--e", "4", "--tau", "1", "--iota", "0",
                       "--variant", "modified"],
    "bound_unramified": ["bound", "--p", "2", "--e", "5", "--tau", "1", "--iota", "0"],
    "bound_example4_e6": ["bound", "--p", "2", "--e", "6", "--tau", "1", "--iota", "1"],
    "prop2_u4m2_n3": ["verify", "--suite", "prop2", "--p", "2", "--poly", "u^4-2",
                      "--n", "3"],
    "prop2_e2_n2": ["verify", "--suite", "prop2", "--p", "2", "--e", "2", "--n", "2"],
    "lemma4_e2_n2": ["verify", "--suite", "lemma4", "--p", "2", "--e", "2", "--n", "2"],
    "lemma4_e4_n2": ["verify", "--suite", "lemma4", "--p", "2", "--e", "4", "--n", "2"],
    "prop2_p3_e4_n2": ["verify", "--suite", "prop2", "--p", "3", "--e", "4", "--n", "2"],
    "cor5_p3_e3_n2": ["verify", "--suite", "cor5", "--p", "3", "--e", "3", "--n", "2"],
    "cor5_e2_n2": ["verify", "--suite", "cor5", "--p", "2", "--e", "2", "--n", "2"],
    "cor5_e4_n2": ["verify", "--suite", "cor5", "--p", "2", "--e", "4", "--n", "2"],
    "cor5_p11_budget": ["verify", "--suite", "cor5", "--p", "11", "--poly", "u^11+11",
                        "--n", "2"],
    "lemma1": ["verify", "--suite", "lemma1", "--p", "2", "--n", "2", "--seeds", "20"],
    "lemma1_p17": ["verify", "--suite", "lemma1", "--p", "17", "--n", "1", "--seeds", "10"],
    "verify_lemma1_unread_poly": ["verify", "--suite", "lemma1", "--p", "2", "--n", "1",
                                  "--poly", "u^2+2"],
    "lemma2_p3": ["verify", "--suite", "lemma2", "--p", "3", "--n", "2"],
    "lemma2_p251_e256": ["verify", "--suite", "lemma2", "--p", "251", "--n", "1", "--e",
                         "256"],
    "example3_n5": ["verify", "--suite", "example3", "--p", "2", "--n", "5"],
    "example3_n_cap": ["verify", "--suite", "example3", "--p", "2", "--n", "65"],
    "heights_suite": ["verify", "--suite", "heights", "--seeds", "10"],
    "heights_bounds": ["heights", "--s", "0", "--r", "4"],
    "heights_extension": ["heights", "--module-file", f"{MODULES}/extension_n1.json"],
    "heights_u3_corner": ["heights", "--module-file", f"{MODULES}/corner_u3_e2.json"],
}


def record(argv: list[str]) -> str:
    """Run one invocation and render its golden record."""
    resolved = [str(GOLDEN / a) if a.startswith(f"{MODULES}/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(resolved + ["--json"])
        except SystemExit as exc:  # argparse refuses a flag value
            code = exc.code
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    if isinstance(payload, dict):
        payload.pop("runtime_s", None)
    body = {"argv": argv, "exit_code": code, "stdout": payload, "stderr": err.getvalue()}
    return json.dumps(body, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert record(CASES[name]) == expected


def test_golden_records_match_the_cases():
    # no orphan record that no case checks, and no case without its record
    assert {path.stem for path in GOLDEN.glob("*.json")} == set(CASES)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden records: {', '.join(unknown)}")
    for name in names:
        (GOLDEN / f"{name}.json").write_text(record(CASES[name]), encoding="utf-8")
        print(f"wrote {name}.json", file=sys.stderr)
