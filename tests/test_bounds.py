"""The recursion trace, its closed forms, and the global bounds."""

import math
from fractions import Fraction

import pytest
from reference import admissible_pairs, valuation

from ramibound.bounds import (
    bound_example4,
    bound_f11,
    compute_s,
    prop3_height_bounds,
    reference_log_bound,
)


# -- frozen traces ---------------------------------------------------------------

def test_trace_examples():
    t = compute_s(5, 3, 1, 0)
    assert t.pairs == ((0, 0),) and t.z == 0 and t.s == 0 and t.epsilon == 0

    t = compute_s(2, 2, 2, 1)
    assert t.pairs == ((5, 0),) and t.s == 5 and t.epsilon == 1

    t = compute_s(2, 4, 3, 1)
    assert t.pairs == ((13, 0), (6, 4)) and t.z == 1 and t.s == 10

    # (5, 0) -> (2, 3) keeps t + s constant: a step only the modified variant takes
    assert compute_s(2, 2, 2, 1, "modified").pairs == ((5, 0), (2, 3))


def test_compute_s_input_validation():
    with pytest.raises(ValueError, match="finite"):
        compute_s(2, 2, math.inf, 1)
    with pytest.raises(ValueError, match="pair"):
        compute_s(5, 3, 2, 0)  # m = 0 admits only (1, 0)
    with pytest.raises(ValueError, match="divisible"):
        compute_s(2, 4, 1, 2)  # iota in p*N is excluded
    with pytest.raises(ValueError, match="iota"):
        compute_s(2, 4, 1, 5)  # iota beyond e-1
    with pytest.raises(ValueError, match="prime"):
        compute_s(4, 4, 1, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: compute_s(2, 2, 1, 1, "other"), "unknown variant 'other'"),
    (lambda: bound_f11(2, 0), "e = 0 must be >= 1"),
], ids=["unknown-variant", "f11-e0"])
def test_refusals_raise_their_documented_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


# -- closed form for p not dividing e ----------------------------------------------

def test_example2_agreement_and_window():
    for p in (2, 3, 5, 7):
        for e in range(p - 1, 120):
            if e % p == 0:
                continue
            s_mod = compute_s(p, e, 1, 0, variant="modified").s
            assert s_mod == reference_log_bound(p, e)
            assert (s_mod == 1) == (p - 1 <= e <= p * p - p - 1)


def test_modified_variant_agrees_and_only_lengthens():
    for p in (2, 3, 5):
        for e in range(1, 40):
            for tau, iota in admissible_pairs(p, e):
                std = compute_s(p, e, tau, iota)
                mod = compute_s(p, e, tau, iota, variant="modified")
                assert std.s == mod.s
                assert mod.z >= std.z
                assert mod.pairs[: std.z + 1] == std.pairs


def test_monotone_in_tau_and_iota():
    # observed to hold on the sweep grid; tracked empirically only
    for p in (2, 3):
        for e in range(1, 30):
            m = valuation(e, p)
            if m == 0:
                continue
            for iota in [i for i in range(1, e) if i % p != 0]:
                values = [compute_s(p, e, tau, iota).s for tau in range(1, m + 2)]
                assert values == sorted(values)
            for tau in range(1, m + 2):
                iotas = [i for i in range(1, e) if i % p != 0]
                values = [compute_s(p, e, tau, i).s for i in iotas]
                assert values == sorted(values)


# -- closed bounds -------------------------------------------------------------------

def test_f11_examples():
    assert bound_f11(2, 2) == 5
    assert bound_f11(3, 2) == Fraction(3, 2)
    assert bound_f11(2, 4) == 15


def test_example4_values():
    assert bound_example4(2, 2, 0)["exact"] == 11
    assert bound_example4(2, 4, 0)["exact"] == 23
    assert bound_example4(3, 3, 0)["exact"] == 11
    assert bound_example4(2, 6, 0)["exact"] is None
    with pytest.raises(ValueError):
        bound_example4(3, 4, 0)


def test_derived_epsilon_and_m_match_their_definitions():
    # epsilon is 1 exactly when p | e, and Example 4's m is ord_p(e), over
    # every table of both variants at p in {2, 3, 5} and e <= 60
    tables = 0
    for p in (2, 3, 5):
        for e in range(1, 61):
            divides = e % p == 0
            for tau, iota in admissible_pairs(p, e):
                for variant in ("standard", "modified"):
                    trace = compute_s(p, e, tau, iota, variant)
                    assert trace.epsilon == (1 if divides else 0)
                    tables += 1
            if divides:
                m = max(k for k in range(7) if e % p**k == 0)
                b4 = bound_example4(p, e, 0)
                assert b4["approx"] == round((math.log(e, p) + m + 2) * (m + 2) - 1, 4)
                assert b4["exact"] == ((2 * m + 2) * (m + 2) - 1 if e == p**m else None)
    assert tables > 5000


def test_example4_exceeds_every_admissible_s():
    for p in (2, 3):
        for e in range(p, 40, p):
            for tau, iota in admissible_pairs(p, e):
                assert bound_example4(p, e, compute_s(p, e, tau, iota).s)["s_below"]


def test_example4_exceeds_is_strict():
    # the cap at (2, 2) is 11
    assert bound_example4(2, 2, 10)["s_below"]
    assert not bound_example4(2, 2, 11)["s_below"]
    assert not bound_example4(2, 2, 12)["s_below"]


def test_example4_exceeds_settles_a_huge_s_without_the_power():
    # p^(s + 1 - 9) with s ~ 3e20 is never formed: the bit lengths decide
    assert not bound_example4(2, 4, 3 * 10**20 + 1)["s_below"]


def test_example4_exceeds_shortcut_agrees_with_exact_powers():
    for p in (2, 3, 5, 7):
        for e in (p, 2 * p, p**2, 3 * p**2, p**3, 1000 * p):
            B = valuation(e, p) + 2
            for s in range(B * B - 1, B * B + 200):
                assert bound_example4(p, e, s)["s_below"] == (p ** (s + 1 - B * B) < e**B)


def test_reference_log_bound():
    assert reference_log_bound(2, 5) == 3
    assert reference_log_bound(3, 4) == 1
    assert reference_log_bound(2, 1) == 1
    assert reference_log_bound(5, 3) == 0


def test_prop3_examples():
    assert prop3_height_bounds(0, 4) == (4, 8)
    assert prop3_height_bounds(5, 2) == (22, 44)
    assert prop3_height_bounds(1, 1) == (3, 6)
    with pytest.raises(ValueError):
        prop3_height_bounds(-1, 2)


# -- the abstract's comparison, at the level of the bounds ------------------------

def test_least_s_is_at_1_1_and_within_twice_the_reference():
    # over every admissible (tau, iota) of every p | e <= 300, p <= 11: the
    # least s is the one at (tau, iota) = (1, 1), and it is at most twice
    # reference_log_bound, the sharper bound known from the literature
    for p in (2, 3, 5, 7, 11):
        for e in range(p, 301, p):
            s = {pair: compute_s(p, e, *pair).s for pair in admissible_pairs(p, e)}
            assert min(s.values()) == s[1, 1], (p, e)
            assert s[1, 1] <= 2 * reference_log_bound(p, e), (p, e)


# (p, e, least s, largest s, reference_log_bound) over the admissible
# (tau, iota); the README table prints the same rows
S_RANGE = [
    (2, 2, 3, 5, 2), (2, 8, 6, 19, 4), (2, 64, 12, 55, 7), (2, 256, 16, 89, 9),
    (3, 9, 3, 9, 2), (3, 81, 7, 26, 4), (5, 25, 3, 8, 2), (5, 125, 5, 16, 3),
    (7, 49, 3, 8, 2), (11, 121, 3, 8, 2),
]


@pytest.mark.parametrize("p, e, s_min, s_max, reference", S_RANGE)
def test_s_range_against_the_reference_pinned(p, e, s_min, s_max, reference):
    s = [compute_s(p, e, *pair).s for pair in admissible_pairs(p, e)]
    assert (min(s), max(s), reference_log_bound(p, e)) == (s_min, s_max, reference)
