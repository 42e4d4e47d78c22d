"""Mutants of src/ramibound that named tests must kill.

Each entry names a file under src/ramibound, a text that occurs there
exactly once, its replacement, and the test ids that must fail once the
replacement is made.  test_mutants.py applies each entry to a copy of src/
and runs its ids against that copy.  A refactor that moves a mutated text
makes that test fail: update the entry, do not drop it.  Keep each id to a
test under 0.5 s.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]


class NoPower(int):
    """An exponent that raises when a power is taken to it, so a test that
    passes one as n or precision kills a mutant computing that power."""

    def __rpow__(self, base, mod=None):
        raise AssertionError(f"{base}**{int(self)} computed")


KERNEL_TEST = "tests/test_eisenstein.py::test_charpoly_mod_on_seeded_matrices"
UNIT_MULTIPLES_TEST = "tests/test_eisenstein.py::test_tau_search_reads_the_keys_of_unit_multiples"
TWIST_TEST = "tests/test_series.py::test_frobenius_matches_a_plain_loop"
SLOT_TEST = "tests/test_series.py::test_packed_slots_hold_the_largest_sums"
ZERO_TEST = "tests/test_series.py::test_zero_operands_take_no_product_route"
# __mul__'s precision test and the two lines after it, since + and - repeat the test
MUL_GUARD = ("""        if other.__class__ is not TruncatedSeries or other.prec is not prec:
            _require_prec(prec, other)
        q = prec.modulus
        out = _mul_raw(""")
# dot's precision test of a pair, which runs before any pair is packed
DOT_GUARD = """\
        if not (x.__class__ is y.__class__ is TruncatedSeries and x.prec is prec and y.prec is prec):
            _require_prec(prec, x)
            _require_prec(prec, y)
"""

MUTANTS = [
    # the first nonzero entry below the subdiagonal, not the least valuation
    Mutant("charpoly-pivot-first-nonzero", "eisenstein.py",
           "if g == 1:", "if g < q:", (KERNEL_TEST,)),
    Mutant("charpoly-column-update-dropped", "eisenstein.py",
           "row[r] = sum(map(mul, gs, row[r:])) % q", "row[r] %= q", (KERNEL_TEST,)),
    # h_im alone, without the product h_{i+1,i} ... h_{m,m-1}
    Mutant("charpoly-subdiagonal-product-dropped", "eisenstein.py",
           "c = H[i][m] * t", "c = H[i][m]", (KERNEL_TEST,)),
    # Prop 2's p-power kill check on the witnesses, skipped
    Mutant("prop2-kill-check-skipped", "oracle.py",
           "if kill > 1:", "if False:",
           ("tests/test_oracle.py::test_prop2_kill_check_catches_a_wrong_tau",)),
    # Prop 2's depth re-check reads membership, not the depth itself
    Mutant("prop2-recheck-depth-as-membership", "oracle.py",
           "reverified &= (E_s * twisted).ord_u() == best_t",
           "reverified &= (E_s * twisted).ord_u() >= best_t",
           ("tests/test_oracle.py::test_prop2_reverification_catches_a_wrong_twist",)),
    # the re-check at T = t*, where every witness product is 0 mod u^T
    Mutant("prop2-recheck-at-t-star", "oracle.py",
           "prec = Precision(p, n, max(best_t, e) + 1)", "prec = Precision(p, n, best_t)",
           ("tests/test_oracle.py::test_prop2_witnesses_reverified_through_the_ring",)),
    # Lemma 1's hypothesis never rejects, so elements outside it are tallied
    Mutant("lemma1-rejection-dropped", "suites.py",
           "if x.is_zero() or breuil.apply_phi(M, x).pole > t:", "if x.is_zero():",
           ("tests/test_cli.py::test_cmd_verify_lemma1_small",)),
    Mutant("scale-unreduced", "series.py",
           "tuple([c * a % q for a in self.coeffs])", "tuple([c * a for a in self.coeffs])",
           ("tests/test_series.py::test_scale_returns_canonical_residues",)),
    # a ring result sent back through the public constructor's check
    Mutant("mul-through-public-constructor", "series.py",
           "return _series(prec, tuple([c % q for c in out]) if out",
           "return TruncatedSeries(prec, tuple([c % q for c in out]) if out",
           ("tests/test_series.py::test_ring_results_never_run_the_public_check",)),
    # pi^e folded as +(a_0 + ... + a_{e-1} pi^{e-1})
    Mutant("charpoly-column-fold-sign", "eisenstein.py",
           "col = [(y - a * top) % q", "col = [(y + a * top) % q",
           ("tests/test_eisenstein.py::test_substitute_examples",)),
    # the tail's matrix taken for that of x, without c_0 p on the diagonal
    Mutant("charpoly-diagonal-shift-dropped", "eisenstein.py",
           "col[j] += c0p", "col[j] += 0", ("tests/test_eisenstein.py::test_tau_search_examples",)),
    # the tau search reads the key of c_1 * pi~, not of pi~ / c_1
    Mutant("tau-multiple-by-c1", "eisenstein.py",
           "v = pow(tail[0], -1, R)", "v = tail[0]", (UNIT_MULTIPLES_TEST + "[dp2]",)),
    # a multiple whose digits c_2, ... lie past the enumerated range, read
    Mutant("tau-multiple-digit-range-dropped", "eisenstein.py",
           "if v != 1 and max(rest, default=0) < D:", "if v != 1:",
           (UNIT_MULTIPLES_TEST + "[dp1]",)),
    # a multiple whose c_0 p lies past the enumerated range, read
    Mutant("tau-multiple-c0-range-dropped", "eisenstein.py",
           "if at >= 0 and y < stop:", "if at >= 0:",
           (UNIT_MULTIPLES_TEST + "[dp1]",)),
    # the reported witness is not checked through substitute and invariants()
    Mutant("tau-witness-recheck-skipped", "eisenstein.py",
           "if (inv.tau, inv.iota) != (tau, iota):", "if False:",
           ("tests/test_eisenstein.py::test_tau_search_rechecks_its_witness",)),
    # an n = 1 module whose Smith exponent equals e, refused
    Mutant("cokernel-gate-at-e", "breuil.py",
           "a is None or a > self.eis.e", "a is None or a >= self.eis.e",
           ("tests/test_breuil.py::test_n1_cokernel_gate",)),
    # the twist written from slot 1, not 0
    Mutant("frobenius-twist-offset", "series.py",
           "cs[::p] = a.coeffs", "cs[1::p] = a.coeffs", (TWIST_TEST,)),
    # floor(T/p) slots, one short of the partial block when p does not divide T
    Mutant("frobenius-twist-floor", "series.py",
           "a.coeffs[:-(-T // p)]", "a.coeffs[:T // p]", (TWIST_TEST,)),
    # the identity test without the class test reads .prec off any operand
    Mutant("mul-shortcut-without-class-test", "series.py",
           MUL_GUARD, MUL_GUARD.replace("other.__class__ is not TruncatedSeries or ", ""),
           ("tests/test_series.py::test_non_series_operands_raise_type_error",)),
    # identity trusted as the whole check: an equal but distinct Precision refused
    Mutant("mul-shortcut-identity-alone", "series.py",
           MUL_GUARD, MUL_GUARD.replace("_require_prec(prec, other)",
                                        "raise PrecisionMismatchError(prec)"),
           ("tests/test_series.py::test_equal_but_distinct_precisions_are_accepted",)),
    # `and` for `or`: a series at another precision skips the value check
    Mutant("mul-shortcut-accepts-mismatch", "series.py",
           MUL_GUARD, MUL_GUARD.replace(" or other.prec", " and other.prec"),
           ("tests/test_series.py::test_mismatched_precisions_are_refused",)),
    Mutant("dot-shortcut-without-class-test", "series.py",
           "if not (x.__class__ is y.__class__ is TruncatedSeries and x.prec",
           "if not (x.prec",
           ("tests/test_series.py::test_non_series_operands_raise_type_error",)),
    Mutant("dot-shortcut-identity-alone", "series.py",
           "            _require_prec(prec, x)\n            _require_prec(prec, y)\n",
           "            raise PrecisionMismatchError(prec)\n",
           ("tests/test_series.py::test_equal_but_distinct_precisions_are_accepted",)),
    # an operand with one nonzero coefficient read as zero, so its products vanish
    Mutant("zero-shortcut-on-monomial", "series.py",
           "if za == T or zb == T:", "if za >= T - 1 or zb >= T - 1:", (ZERO_TEST,)),
    # a pair with a zero operand skipped before its precision test, so dot
    # accepts a zero at another precision
    Mutant("dot-zero-skip-before-precision-check", "series.py",
           DOT_GUARD, "        if not (any(x.coeffs) and any(y.coeffs)):\n"
                      "            continue\n" + DOT_GUARD,
           ("tests/test_series.py::test_mismatched_precisions_are_refused",)),
    # a word slot one typecode too narrow at 9, 17 and 33 bits: the top sums carry
    Mutant("packed-slot-code-too-narrow", "series.py",
           "if array(c).itemsize * 8 >= b)", "if array(c).itemsize * 8 >= b - 1)", (SLOT_TEST,)),
    # a 65-bit slot packed by the machine-word route, past the last typecode
    Mutant("packed-word-route-past-64-bits", "series.py",
           "if bits < len(_SLOT_CODES):\n        return",
           "if bits <= len(_SLOT_CODES):\n        return", (SLOT_TEST,)),
    # a row sum of h products in slots sized for one: the top sums carry
    Mutant("row-slot-for-one-product", "series.py",
           "(h * T * (q - 1) ** 2).bit_length()", "(T * (q - 1) ** 2).bit_length()",
           (SLOT_TEST,)),
    # the sparse product loses its coefficient of u^3, a kernel fault that a
    # reference built on * would share
    Mutant("sparse-product-drops-u3", "series.py",
           "out[i + j] += x * y", "out[i + j] += x * y * (i + j != 3)",
           ("tests/test_series.py::test_mul_routes_match_brute_force_at_real_sizes",)),
    # str.isdigit() accepts non-ASCII digits such as U+0662, which int() reads
    Mutant("decimal-non-ascii-digits", "series.py",
           "if not (digits.isascii() and digits.isdigit()):", "if not digits.isdigit():",
           ("tests/test_cli.py::test_integer_flags_read_ascii_decimals_only[bound-e]",)),
    # p^n taken before the gate prices the space: a huge --n hangs, not exits 3
    Mutant("prop2-power-before-gate", "oracle.py",
           "    space = check_budget(p, e, n, cfg.budget)\n    q = p**n\n",
           "    q = p**n\n    space = check_budget(p, e, n, cfg.budget)\n",
           ("tests/test_oracle.py::test_prop2_gate_comes_before_any_power_of_p",)),
    # every digit checked against p^precision, built even when the digit is short
    Mutant("digit-check-builds-power", "eisenstein.py",
           "c < 0 or c.bit_length() > self.precision and c >= self.p**self.precision",
           "c < 0 or c >= self.p**self.precision",
           ("tests/test_eisenstein.py::test_digit_range_check_builds_no_power_for_short_digits",)),
    # the pivot's unit part left uninverted, so no similarity: substitute
    # shares the kernel, and only an independent route sees tau = 1 on u^3 + 3
    Mutant("charpoly-pivot-unit-part-dropped", "eisenstein.py",
           "inv = pow(top[k] // best, -1, q)", "inv = 1",
           ("tests/test_eisenstein.py::test_tau_search_agrees_with_per_candidate_route[1-3-3-1]",)),
    # every coefficient of an inverse without its c_1 term: the Weierstrass
    # digit steps solve with a wrong inverse of the unit mod (p, u^d)
    Mutant("invert-unit-drops-c1-term", "series.py",
           "sum(map(mul, cs[k:0:-1], out))", "sum(map(mul, cs[k:1:-1], out))",
           ("tests/test_series.py::test_weierstrass_prep_matches_reference_at_real_size",)),
    # a zero element's image returned before its precision test
    Mutant("apply-phi-zero-before-precision-check", "breuil.py",
           "    prec = M.prec\n    if x.alphas[0]", "    prec = M.prec\n    if x.is_zero():\n"
           "        return FractionalElement(0, x.alphas)\n    if x.alphas[0]",
           ("tests/test_breuil.py::test_apply_phi_checks_the_coordinates_precision[zero]",)),
    # a residue E_1 vanishing mod p^N read as tau >= N - 1, one short of its bound
    Mutant("residue-tau-bound-loosened", "eisenstein.py",
           "tau=self.precision, iota=None", "tau=self.precision - 1, iota=None",
           ("tests/test_eisenstein.py::test_substituted_tau_lower_bound_marker",)),
]
