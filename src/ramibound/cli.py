"""Command-line front end: invariants, bound, verify, heights.

    ramibound invariants --p 2 --poly "u^2+2u+2"
    ramibound bound --p 5 --e 3 --tau 1 --iota 0
    ramibound bound --p 2 --poly "u^2-2" --search-prec 2
    ramibound verify --suite example3 --p 2 --n 5 --json
    ramibound heights --s 0 --r 4
    ramibound heights --module-file module.json

Polynomial text is a sum of terms `c*u^k` (the `*` may be omitted, `u`
alone means `u^1`, a bare integer is the constant term) joined by `+` or
`-`.  JSON output carries a versioned `schema` field and renders every
integer as a decimal string so consumers never overflow; infinite values
print as "inf".

Exit codes: 0 success, 1 failed assertion, 2 usage or parse error,
3 candidate budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import breuil, oracle, suites
from .bounds import (
    bound_example4,
    bound_f11,
    compute_s,
    prop3_height_bounds,
    reference_log_bound,
)
from .eisenstein import (
    EisensteinPolynomial,
    EisensteinValidationError,
    tau_v_search,
)
from .series import poly_text

SCHEMA = 1
EXIT_OK, EXIT_ASSERTION, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


class PolyParseError(ValueError):
    """Parse failure with the offending position in the input text."""

    def __init__(self, message: str, pos: int, text: str = ""):
        self.pos = pos
        self.text = text
        super().__init__(f"{message} (at position {pos})")


_TERM_RE = re.compile(
    r"(?:(?P<coeff>\d+)\s*\*?\s*u(?:\^(?P<exp1>\d+))?"
    r"|u(?:\^(?P<exp2>\d+))?"
    r"|(?P<const>\d+))"
)


def parse_polynomial(text: str) -> dict[int, int]:
    """Parse polynomial text into {exponent: coefficient}, collecting terms."""
    out: dict[int, int] = {}
    pos, n = 0, len(text)
    first = True
    while True:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            if first:
                raise PolyParseError("empty polynomial", pos, text)
            break
        sign = 1
        if not first:
            ch = text[pos]
            if ch == "+":
                pass
            elif ch == "-":
                sign = -1
            else:
                raise PolyParseError(f"expected '+' or '-', found {ch!r}", pos, text)
            pos += 1
            while pos < n and text[pos].isspace():
                pos += 1
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise PolyParseError("expected a term like '3*u^2', 'u' or '7'", pos, text)
        if m.group("const") is not None:
            exp, coeff = 0, int(m.group("const"))
        elif m.group("coeff") is not None:
            coeff = int(m.group("coeff"))
            exp = int(m.group("exp1")) if m.group("exp1") else 1
        else:
            coeff = 1
            exp = int(m.group("exp2")) if m.group("exp2") else 1
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
    split = eis.split()
    payload = {
        "command": "invariants",
        "p": eis.p,
        "e": eis.e,
        "poly": str(eis),
        "m": inv.m,
        "tau": inv.tau,
        "iota": inv.iota,
        "t_pi": inv.t_pi,
        "E0": poly_text(split.e0),
        "E1": poly_text(split.e1),
    }
    _emit(payload, args.json)
    return EXIT_OK


def cmd_bound(args) -> int:
    p = args.p
    found = None
    if args.poly is not None:
        eis = eisenstein_from_text(p, args.poly)
        e = eis.e
        inv = eis.invariants()
        if args.search_prec is not None:
            found = tau_v_search(eis, digit_precision=args.search_prec)
            tau, iota = found.tau, found.iota
            source = f"search (digit precision {args.search_prec})"
        elif math.isinf(inv.tau):
            print(
                "error: tau is infinite for this polynomial; "
                "pass --search-prec to minimize over uniformizer changes",
                file=sys.stderr,
            )
            return EXIT_USAGE
        else:
            tau, iota = inv.tau, inv.iota
            source = "polynomial"
    else:
        if args.e is None or args.tau is None or args.iota is None:
            print("error: need either --poly or all of --e/--tau/--iota",
                  file=sys.stderr)
            return EXIT_USAGE
        e, tau, iota = args.e, args.tau, args.iota
        source = "explicit"
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
    if trace.epsilon == 0 and e >= p - 1 and (tau, iota) == (1, 0):
        payload["closed_form_unramified"] = payload["reference_log_bound"]
    if trace.epsilon == 1:
        b4 = bound_example4(p, e)
        payload["bound_example4"] = {
            "exact": b4.exact_value(),
            "approx": round(b4.approx(), 4),
            "s_below": b4.exceeds(trace.s),
        }
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
    suite = args.suite
    if suite != "heights" and (args.p is None or args.n is None):
        print("error: this suite needs --p and --n", file=sys.stderr)
        return EXIT_USAGE
    if args.poly is not None and args.p is None:
        print("error: --poly needs --p", file=sys.stderr)
        return EXIT_USAGE
    for flag in ("n", "e", "seeds", "budget"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            print(f"error: --{flag} must be >= 1, got {value}", file=sys.stderr)
            return EXIT_USAGE
    poly = None
    if args.poly is not None:
        poly = eisenstein_from_text(args.p, args.poly).coeffs
    kwargs: dict = {"p": args.p, "n": args.n}
    if suite in ("prop2", "lemma4", "cor5"):
        if poly is None and args.e is None:
            print("error: this suite needs --poly or --e", file=sys.stderr)
            return EXIT_USAGE
        kwargs.update(poly=poly, e=args.e, budget=args.budget)
    elif suite == "lemma1":
        kwargs["seeds"] = args.seeds
    elif suite == "lemma2" and args.e is not None:
        kwargs["e_max"] = args.e
    elif suite == "heights":
        kwargs = {"seeds": args.seeds}
    report = suites.SUITES[suite](**kwargs)
    _emit({"command": "verify", **report}, args.json)
    return EXIT_OK if report["ok"] else EXIT_ASSERTION


def cmd_heights(args) -> int:
    payload: dict = {"command": "heights"}
    if args.module_file is not None:
        with open(args.module_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        module = breuil.module_from_json(data)
        payload["h"] = module.h
        payload["order"] = breuil.order(module)
        payload["h3"] = breuil.h3(module)
        if module.prec.n == 1:  # h4 is defined at the p-torsion level only
            payload["h4"] = breuil.h4(module)
    if args.s is not None or args.r is not None:
        if args.s is None or args.r is None:
            print("error: --s and --r go together", file=sys.stderr)
            return EXIT_USAGE
        h3_bound, overall = prop3_height_bounds(args.s, args.r)
        payload["bounds"] = {"h3_bound": h3_bound, "overall_bound": overall}
    if len(payload) == 1:
        print("error: need --module-file or --s/--r", file=sys.stderr)
        return EXIT_USAGE
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
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--poly", required=True, help='polynomial text, e.g. "u^2+2u+2"')
    common(sp)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("bound", help="the recursive exponent s with its trace")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--e", type=int)
    sp.add_argument("--tau", type=int)
    sp.add_argument("--iota", type=int)
    sp.add_argument("--poly")
    sp.add_argument("--search-prec", type=int,
                    help="minimize tau over uniformizer changes with this many digits")
    sp.add_argument("--variant", choices=["standard", "modified"], default="standard")
    common(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("verify", help="run one exhaustive verification suite")
    sp.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    sp.add_argument("--p", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--e", type=int)
    sp.add_argument("--poly")
    sp.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    sp.add_argument("--seeds", type=int, default=200)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("heights", help="generator heights and their bounds")
    sp.add_argument("--s", type=int)
    sp.add_argument("--r", type=int)
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
    except oracle.BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except oracle.OracleViolationError as err:
        print(f"assertion failed: {err}", file=sys.stderr)
        return EXIT_ASSERTION
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
