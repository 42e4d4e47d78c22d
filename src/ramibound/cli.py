"""Command-line front end: invariants, bound, verify, heights.

    ramibound invariants --p 2 --poly "u^2+2u+2"
    ramibound bound --p 5 --e 3 --tau 1 --iota 0
    ramibound bound --p 2 --poly "u^2-2" --search-prec 2
    ramibound verify --suite example3 --p 2 --n 5 --json
    ramibound heights --s 0 --r 4
    ramibound heights --module-file module.json

An integer, in a flag, polynomial text or a module file (a JSON integer or
a string), is ASCII `-?[0-9]+` of at most D = L // 2 - 1 digits for
Python's int-string limit L (2149 by default), so that a product of two
inputs still prints; a flag past that exits 2 before any work.  Every
command refuses a --p that is not a prime alike.  Polynomial text is a sum
of terms `c*u^k` (the `*` may be omitted, `u` alone means `u^1`, a bare
integer is the constant term) joined by `+` or `-`; the first term may
carry a `-`, and spaces are ASCII.
An Eisenstein polynomial has degree at most MAX_POLY_DEGREE, checked
before its coefficients are allocated.

verify passes a suite the flags given, and refuses (exit 2) any flag the
suite does not read, and a missing --p or --n.  prop2, lemma4 and cor5
read --p --n --budget and one of --poly or --e; lemma1 --p --n --seeds;
lemma2 --p --n --e; example3 --p --n; heights --seeds.  Each suite bounds
its input before any work: example3 and lemma2 build u^p - p, so refuse
p > MAX_POLY_DEGREE, as lemma2 does an --e above it; lemma1 works at
u-precision T = max(40, 2p + 1 + 4h + 2 + e) for a module of rank h over
an E of degree e, so it too refuses such a p; a
search, or grid sweep, over more than --budget candidates is refused, and
so is a cor5 scan of more cor5_check calls.
JSON output carries a versioned `schema` field and renders every integer
as a decimal string so consumers never overflow; infinite values print as
"inf".

Exit codes: 0 success, 1 failed assertion, 2 usage or parse error (an
input out of range included), 3 a search or a cor5 scan over --budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import breuil, suites
from .bounds import (
    bound_example4,
    bound_f11,
    compute_s,
    prop3_height_bounds,
    reference_log_bound,
)
from .eisenstein import (
    MAX_POLY_DEGREE,
    EisensteinPolynomial,
    EisensteinValidationError,
    tau_v_search,
)
from .series import DIGIT_CAP, BudgetExceededError, DecimalError, decimal, poly_text

SCHEMA = 1
EXIT_OK, EXIT_ASSERTION, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3

# What shrinks the work, or raises its limit, for each command whose search
# can exceed its budget (exit 3).
BUDGET_FLAGS = {"bound": "lower --search-prec", "verify": "raise --budget or lower --n"}

# Every flag of verify that a suite may read, by the name of its parameter.
VERIFY_FLAGS = ("p", "n", "e", "poly", "budget", "seeds")


class PolyParseError(ValueError):
    """Parse failure with the offending position in the input text."""

    def __init__(self, message: str, pos: int, text: str = ""):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at position {pos})")


_TERM_RE = re.compile(r"(?:(?P<coeff>\d+)\s*\*?\s*)?u(?:\^(?P<exp>\d+))?|(?P<const>\d+)",
                      re.ASCII)
_SPACE_RE = re.compile(r"\s*", re.ASCII)


def _number(m: re.Match, group: str, text: str) -> int:
    """The digit run of one group of a term, 1 when the group is absent."""
    digits = m.group(group)
    try:
        return 1 if digits is None else decimal(digits)
    except ValueError as err:  # more digits than decimal() reads
        raise PolyParseError(str(err), m.start(group), text) from None


def parse_polynomial(text: str) -> dict[int, int]:
    """Parse polynomial text into {exponent: coefficient}, collecting terms."""
    out: dict[int, int] = {}
    pos, n = 0, len(text)
    first = True
    while True:
        pos = _SPACE_RE.match(text, pos).end()
        if pos >= n:
            if first:
                raise PolyParseError("empty polynomial", pos, text)
            break
        sign = 1
        ch = text[pos]
        if ch == "-" or not first:  # only a '-' may open the first term
            if ch == "-":
                sign = -1
            elif ch != "+":
                raise PolyParseError(f"expected '+' or '-', found {ch!r}", pos, text)
            pos = _SPACE_RE.match(text, pos + 1).end()
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise PolyParseError("expected a term like '3*u^2', 'u' or '7'", pos, text)
        if m.group("const") is not None:
            exp, coeff = 0, _number(m, "const", text)
        else:
            coeff, exp = _number(m, "coeff", text), _number(m, "exp", text)
        out[exp] = out.get(exp, 0) + sign * coeff
        pos = m.end()
        first = False
    return {k: v for k, v in out.items() if v != 0} or {0: 0}


def eisenstein_from_text(p: int, text: str) -> EisensteinPolynomial:
    """Parse and validate a monic Eisenstein polynomial."""
    parsed = parse_polynomial(text)
    e = max(parsed)
    if e < 1:
        raise PolyParseError("a constant is not a valid Eisenstein polynomial", 0, text)
    if e > MAX_POLY_DEGREE:
        raise PolyParseError(f"degree {e} exceeds the limit of {MAX_POLY_DEGREE}", 0, text)
    if parsed.get(e) != 1:
        raise PolyParseError(f"leading coefficient of u^{e} must be 1", 0, text)
    coeffs = tuple(parsed.get(i, 0) for i in range(e))
    return EisensteinPolynomial(p, coeffs)


def _jsonify(x):
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return str(x)


def _emit(payload: dict, as_json: bool):
    if as_json:
        body = _jsonify(payload)
        body = {"schema": SCHEMA, **body}
        print(json.dumps(body, indent=2))
        return

    def lines(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                yield from lines(f"{prefix}.{k}" if prefix else str(k), v)
        else:
            if isinstance(value, float) and math.isinf(value):
                value = "inf"
            if value is None:
                value = "-"
            yield f"{prefix} = {value}"

    for line in lines("", payload):
        print(line)


def cmd_invariants(args) -> int:
    eis = eisenstein_from_text(args.p, args.poly)
    inv = eis.invariants()
    e0, e1 = eis.split()
    payload = {
        "command": "invariants",
        "p": eis.p,
        "e": eis.e,
        "poly": str(eis),
        "m": inv.m,
        "tau": inv.tau,
        "iota": inv.iota,
        "t_pi": inv.t_pi,
        "E0": poly_text(e0),
        "E1": poly_text(e1),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_bound(args) -> int:
    p, found = args.p, None
    explicit = (args.e, args.tau, args.iota)
    if args.poly is None:
        if args.search_prec is not None:
            raise ValueError("--search-prec needs --poly")
        if None in explicit:
            raise ValueError("need either --poly or all of --e/--tau/--iota")
        (e, tau, iota), source = explicit, "explicit"
    elif explicit != (None, None, None):
        raise ValueError("pass either --poly or --e/--tau/--iota, not both")
    else:
        eis = eisenstein_from_text(p, args.poly)
        e, inv = eis.e, eis.invariants()
        if args.search_prec is not None:
            found = tau_v_search(eis, digit_precision=args.search_prec)
            tau, iota = found.tau, found.iota
            source = f"search (digit precision {args.search_prec})"
        elif math.isinf(inv.tau):
            raise ValueError("tau is infinite for this polynomial; "
                             "pass --search-prec to minimize over uniformizer changes")
        else:
            tau, iota, source = inv.tau, inv.iota, "polynomial"
    trace = compute_s(p, e, tau, iota, variant=args.variant)
    f11 = bound_f11(p, e)
    payload = {
        "command": "bound",
        "p": p,
        "e": e,
        "tau": tau,
        "iota": iota,
        "tau_source": source,
        "epsilon": trace.epsilon,
        "variant": trace.variant,
        "pairs": [list(pair) for pair in trace.pairs],
        "z": trace.z,
        "s": trace.s,
        "bound_f11": f11,
        "s_le_f11": trace.s <= f11,
        "reference_log_bound": reference_log_bound(p, e),
    }
    if trace.epsilon == 0 and e >= p - 1:  # compute_s admits only (1, 0) here
        payload["closed_form_unramified"] = payload["reference_log_bound"]
    if trace.epsilon == 1:
        payload["bound_example4"] = bound_example4(p, e, trace.s)
    if found is not None:  # tau is the searched minimum, exact only if certified
        payload["tau_search"] = {
            "witness": found.witness.cs,
            "candidates": found.candidates,
            "ceiling": found.ceiling,
            "certified_exact": found.certified_exact,
        }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_verify(args) -> int:
    reads = suites.SUITE_FLAGS[args.suite]
    given = {f: getattr(args, f) for f in VERIFY_FLAGS if getattr(args, f) is not None}
    unread = [f"--{flag}" for flag in given if flag not in reads]
    if unread:
        raise ValueError(f"--suite {args.suite} does not read {', '.join(unread)}")
    if any(flag in reads and flag not in given for flag in ("p", "n")):
        raise ValueError(f"--suite {args.suite} needs --p and --n")
    for flag in ("n", "e", "seeds", "budget"):
        if flag in given and given[flag] < 1:
            raise ValueError(f"--{flag} must be >= 1, got {given[flag]}")
    if "poly" in given:
        given["poly"] = eisenstein_from_text(args.p, args.poly).coeffs
    report = suites.SUITES[args.suite](**given)
    _emit({"command": "verify", **report}, args.json)
    return EXIT_OK if report["ok"] else EXIT_ASSERTION


def _json_int(text: str) -> int:
    """decimal(text), by int() when text is ASCII of at most DIGIT_CAP characters."""
    return int(text) if len(text) <= DIGIT_CAP and text.isascii() else decimal(text)


def cmd_heights(args) -> int:
    payload: dict = {"command": "heights"}
    if args.module_file is not None:
        with open(args.module_file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_int=_json_int)
            except (DecimalError, RecursionError) as err:  # too long, or nested too deep
                raise ValueError(f"malformed module file: {err}") from None
        module = breuil.module_from_json(data)
        payload["h"] = module.h
        payload["order"] = breuil.order(module)
        payload["h3"] = breuil.h3(module)
        if module.prec.n == 1:  # h4 is defined at the p-torsion level only
            payload["h4"] = breuil.h4(module)
    if args.s is not None or args.r is not None:
        if args.s is None or args.r is None:
            raise ValueError("--s and --r go together")
        h3_bound, overall = prop3_height_bounds(args.s, args.r)
        payload["bounds"] = {"h3_bound": h3_bound, "overall_bound": overall}
    if len(payload) == 1:
        raise ValueError("need --module-file or --s/--r")
    _emit(payload, args.json)
    return EXIT_OK


@functools.cache  # one parser per process; each parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramibound",
        description="Eisenstein polynomial invariants, recursive ramification "
                    "exponents, and exhaustive desk-scale verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("invariants", help="m, tau, iota, t_pi and the E0/E1 split")
    sp.add_argument("--p", type=decimal, required=True)
    sp.add_argument("--poly", required=True, help='polynomial text, e.g. "u^2+2u+2"')
    common(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("bound", help="the recursive exponent s with its trace")
    sp.add_argument("--p", type=decimal, required=True)
    sp.add_argument("--e", type=decimal)
    sp.add_argument("--tau", type=decimal)
    sp.add_argument("--iota", type=decimal)
    sp.add_argument("--poly")
    sp.add_argument("--search-prec", type=decimal,
                    help="minimize tau over uniformizer changes with this many digits")
    sp.add_argument("--variant", choices=["standard", "modified"], default="standard")
    common(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("verify", help="run one exhaustive verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    for flag in VERIFY_FLAGS:
        sp.add_argument(f"--{flag}", type=str if flag == "poly" else decimal)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("heights", help="generator heights and their bounds")
    sp.add_argument("--s", type=decimal)
    sp.add_argument("--r", type=decimal)
    sp.add_argument("--module-file", help="JSON module produced by this package")
    common(sp)
    sp.set_defaults(func=cmd_heights)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolyParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        if err.text:
            print(f"  {err.text}", file=sys.stderr)
            print("  " + " " * err.pos + "^", file=sys.stderr)
        return EXIT_USAGE
    except EisensteinValidationError as err:
        print("invalid Eisenstein polynomial:", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}; {BUDGET_FLAGS[args.command]}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as err:  # an OracleViolationError or a tau search invariant
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
