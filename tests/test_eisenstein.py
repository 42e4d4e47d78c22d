"""Eisenstein invariants, the mod-p^N characteristic polynomial route, and
the exhaustive minimization of tau over digit-truncated uniformizer changes."""

import random
import tracemalloc

import pytest
import reference
from hypothesis import given
from hypothesis import strategies as st
from mutants import NoPower

from ramibound import eisenstein
from ramibound.eisenstein import (
    INF,
    TAU_SEARCH_CAP,
    EisensteinPolynomial,
    EisensteinValidationError,
    UniformizerChange,
    charpoly_mod,
    substitute,
    tau_v_search,
)
from ramibound.series import BudgetExceededError


def random_eisenstein(rng, p, e, spread=4):
    while True:
        a0 = p * rng.randint(-spread, spread)
        if a0 != 0 and (a0 // p) % p != 0:
            break
    coeffs = [a0] + [p * rng.randint(-spread, spread) for _ in range(e - 1)]
    return EisensteinPolynomial(p, tuple(coeffs))


# -- validation ---------------------------------------------------------------------

def test_validate_examples():
    assert EisensteinPolynomial(2, (-2, 0)).e == 2
    with pytest.raises(EisensteinValidationError, match="ord_p"):
        EisensteinPolynomial(2, (-4, 0))
    assert EisensteinPolynomial(3, (3, 3, 0)).e == 3


def test_validate_lists_every_violation():
    with pytest.raises(EisensteinValidationError) as err:
        EisensteinPolynomial(2, (3, 1))
    text = str(err.value)
    assert "a_0" in text and "a_1" in text and "ord_p" in text


def test_validate_rejects_nonprime():
    # the one refusal every command shares, not a list of violations
    with pytest.raises(ValueError) as err:
        EisensteinPolynomial(6, (6,))
    assert type(err.value) is ValueError and str(err.value) == "p = 6 is not prime"


def test_residue_polynomials_need_n_at_least_2():
    with pytest.raises(EisensteinValidationError, match="precision"):
        EisensteinPolynomial(2, (2,), precision=1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: EisensteinPolynomial(2, (4, 0), precision=2), EisensteinValidationError,
     "residue coefficients must lie in [0, 4)"),
    (lambda: UniformizerChange(2, 0, (0, 1)), ValueError, "digit precision must be >= 1"),
    (lambda: UniformizerChange(2, 1, ()), ValueError, "at least one digit required"),
    (lambda: substitute(EisensteinPolynomial(2, (2, 0)), UniformizerChange(3, 1, (0, 1)), 3),
     ValueError, "prime mismatch between polynomial and change"),
    (lambda: substitute(EisensteinPolynomial(2, (2, 0)), UniformizerChange(2, 1, (0, 1, 0)), 3),
     ValueError, "expected 2 digits, got 3"),
    (lambda: substitute(EisensteinPolynomial(2, (2, 0), precision=3),
                        UniformizerChange(2, 1, (0, 1)), 4),
     ValueError, "input known only mod p^3, cannot output mod p^4"),
], ids=["residue-range", "change-precision", "change-no-digits", "substitute-prime",
        "substitute-digits", "substitute-precision"])
def test_refusals_raise_their_documented_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# -- the E0/E1 split -----------------------------------------------------------------

def test_split_examples():
    assert EisensteinPolynomial(2, (2, 2)).split() == ((2, 0, 1), (0, 2, 0))  # u^2+2 and 2u
    assert EisensteinPolynomial(3, (3, 3, 0)).split() == ((3, 0, 0, 1), (0, 3, 0, 0))  # u^3+3, 3u
    assert EisensteinPolynomial(3, (3, 0)).split() == ((3, 0, 0), (0, 0, 1))  # 3 and u^2


@given(st.data())
def test_split_partition_property(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = data.draw(st.sampled_from([2, 3, 5]))
    e = data.draw(st.integers(1, 6))
    eis = random_eisenstein(rng, p, e)
    e0, e1 = eis.split()
    full = eis.all_coeffs()
    assert tuple(a + b for a, b in zip(e0, e1)) == full
    assert all(c == 0 for i, c in enumerate(e0) if i % p != 0)
    assert all(c == 0 for i, c in enumerate(e1) if i % p == 0)


# -- invariants -----------------------------------------------------------------------

def test_invariants_examples():
    inv = EisensteinPolynomial(2, (-2, 0)).invariants()
    assert (inv.m, inv.tau, inv.iota, inv.t_pi) == (1, INF, None, INF)
    inv = EisensteinPolynomial(2, (2, 2)).invariants()
    assert (inv.m, inv.tau, inv.iota, inv.t_pi) == (1, 1, 1, 3)
    inv = EisensteinPolynomial(5, (5, 0, 0)).invariants()
    assert (inv.m, inv.tau, inv.iota, inv.t_pi) == (0, 1, 0, 0)


def test_tau_ignores_p_power_part():
    # multiplying a coefficient of E0 by a unit cannot change (tau, iota)
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3])
        e = rng.randint(2, 6)
        eis = random_eisenstein(rng, p, e)
        before = eis.invariants()
        unit = rng.choice([u for u in range(1, 10) if u % p != 0])
        idx = rng.choice([i for i in range(e) if i % p == 0])
        coeffs = list(eis.coeffs)
        coeffs[idx] *= unit
        after = EisensteinPolynomial(p, tuple(coeffs)).invariants()
        assert (before.tau, before.iota) == (after.tau, after.iota)


# -- characteristic polynomial route ----------------------------------------------------

def test_berkowitz_against_cofactor_expansion():
    from ramibound.eisenstein import berkowitz_charpoly  # kept for perfbench's tracer
    # arbitrary matrices, not only multiplication matrices; a third of them
    # sparse, so that zero coefficients reach the Toeplitz step
    rng = random.Random(11)
    for k in range(200):
        n = rng.randint(1, 5)
        q = rng.choice([2, 4, 8, 9, 27, 16, 125, 7**3])
        density = 0.3 if k % 3 == 0 else 1.0
        A = [[rng.randrange(q) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        expected = [c % q for c in reference.charpoly_by_cofactors(A)]
        assert berkowitz_charpoly(A, q) == expected


def _kernel_entry(rng, p, N):
    """0, a p-multiple p^j * unit (0 < j < N) or a unit mod p^N, alike likely."""
    q = p**N
    kind = rng.randrange(3)
    if kind == 0 or (kind == 1 and N == 1):
        return 0
    unit = rng.choice([u for u in range(1, min(q, 50)) if u % p])
    return p**rng.randrange(1, N) * unit % q if kind == 1 else unit


def _kernel_matrix(rng, p, N, n, cleared):
    """An n x n matrix of _kernel_entry values, with nothing below the
    subdiagonal in the columns of cleared."""
    A = [[_kernel_entry(rng, p, N) for _ in range(n)] for _ in range(n)]
    for k in cleared:
        for i in range(k + 2, n):
            A[i][k] = 0
    return A


def test_charpoly_mod_on_seeded_matrices():
    # the deterministic half of the differential, which the mutants in
    # tests/mutants.py name: a pivot that is not of least valuation, a
    # dropped column update and a dropped subdiagonal product all fail here
    cases = [
        # column 0 holds 2 above the unit 1: the pivot must be the unit
        ([[0, 1, 0], [2, 0, 1], [1, 3, 0]], 4),
        # subdiagonal entries 2 and 3 enter the recurrence as a product
        ([[1, 1, 1], [2, 1, 1], [0, 3, 1]], 25),
        # nothing below the subdiagonal of column 0; column 1 needs a swap
        ([[1, 2, 3, 4], [5, 6, 7, 8], [0, 9, 1, 2], [0, 1, 3, 4]], 27),
        ([[0] * 5 for _ in range(5)], 8),
        ([], 9),  # n = 0: the charpoly is 1
    ]
    rng = random.Random(26)
    for _ in range(300):
        p, N, n = rng.choice([2, 3, 5, 7]), rng.randint(1, 5), rng.randint(1, 8)
        cleared = rng.sample(range(n), rng.randint(0, n))
        cases.append((_kernel_matrix(rng, p, N, n, cleared), p**N))
    for A, q in cases:
        assert charpoly_mod(A, q) == [c % q for c in reference.charpoly_by_cofactors(A)], (A, q)


def test_charpoly_mod_reads_unreduced_entries():
    # column 0 of the multiplication matrix reaches the kernel unreduced
    rng = random.Random(7)
    for _ in range(100):
        p, N, n = rng.choice([2, 3, 5]), rng.randint(1, 4), rng.randint(1, 6)
        q = p**N
        A = [[rng.randint(-3 * q, 3 * q) for _ in range(n)] for _ in range(n)]
        assert charpoly_mod(A, q) == [c % q for c in reference.charpoly_by_cofactors(A)]


def test_substitute_examples():
    # pi -> pi + 2 on u^2 - 2 gives u^2 - 4u + 2
    out = substitute(EisensteinPolynomial(2, (-2, 0)), UniformizerChange(2, 2, (1, 1)), 4)
    assert out.coeffs == (2, 12) and out.precision == 4
    # identity change reproduces E mod p^N
    eis = EisensteinPolynomial(3, (3, 3, 0))
    out = substitute(eis, UniformizerChange.identity(3, 3, 2), 4)
    assert out.coeffs == tuple(c % 81 for c in eis.coeffs)
    # pi -> pi + 3 on u^3 + 3u + 3 gives u^3 - 9u^2 + 30u - 33
    out = substitute(eis, UniformizerChange(3, 2, (1, 1, 0)), 4)
    assert out.coeffs == (-33 % 81, 30, -9 % 81)
    assert out.coeffs == tuple(c % 81 for c in reference.taylor_shift(eis.coeffs, -3)[:3])


def test_substitute_rejects_small_N_and_non_units():
    eis = EisensteinPolynomial(2, (-2, 0))
    with pytest.raises(ValueError, match="N >= 2"):
        substitute(eis, UniformizerChange(2, 2, (1, 1)), 1)
    with pytest.raises(ValueError, match="unit"):
        UniformizerChange(2, 2, (1, 2))


def test_digit_range_check_builds_no_power_for_short_digits():
    # a digit below 2^precision is below p^precision, read off its bit length
    assert UniformizerChange(2, NoPower(10**11), (0, 1, 0)).cs == (0, 1, 0)
    witness = tau_v_search(EisensteinPolynomial(2, (2, 0, 0)), NoPower(10**11)).witness
    assert witness.cs == (0, 1, 0)  # m = 0: the identity, nothing searched
    with pytest.raises(ValueError, match=r"canonical residues in \[0, 4\)"):
        UniformizerChange(2, 2, (0, 1, 4))
    with pytest.raises(ValueError, match=r"canonical residues in \[0, 9\)"):
        UniformizerChange(3, 2, (0, 1, -1))


def test_substitute_inverse_shifts():
    rng = random.Random(3)
    N = 5
    for _ in range(25):
        p = rng.choice([2, 3])
        eis = random_eisenstein(rng, p, rng.randint(2, 4))
        e = eis.e
        q = p**N
        minus = UniformizerChange(p, N, ((-1) % q, 1) + (0,) * (e - 2))
        plus = UniformizerChange(p, N, (1, 1) + (0,) * (e - 2))
        back = substitute(substitute(eis, minus, N), plus, N)
        assert back.coeffs == tuple(c % q for c in eis.coeffs)


def test_substitute_agrees_with_taylor_shift():
    rng = random.Random(17)
    N = 5
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        eis = random_eisenstein(rng, p, rng.randint(2, 4))
        q = p**N
        c0 = rng.randrange(q)
        chg = UniformizerChange(p, N, (c0, 1) + (0,) * (eis.e - 2))
        via_matrix = substitute(eis, chg, N)
        via_shift = reference.taylor_shift(eis.coeffs, -c0 * p)
        assert via_matrix.coeffs == tuple(c % q for c in via_shift[: eis.e])


def test_substitute_agrees_with_integer_charpoly():
    # general changes: B = c_0 p I + sum c_i C^i exactly over Z, with C the
    # integer companion matrix of E, and its charpoly by cofactors mod p^N
    rng = random.Random(29)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        e = rng.randint(1, 4)
        N = rng.randint(2, 5)
        eis = random_eisenstein(rng, p, e)
        cs = [rng.randrange(p * p) for _ in range(e)]
        unit = 1 if e >= 2 else 0  # the digit that must be a unit
        cs[unit] = p * rng.randrange(p) + rng.randrange(1, p)
        cs[2:] = [rng.randrange(1, p * p) for _ in cs[2:]]
        C = [[int(i == j + 1) for j in range(e)] for i in range(e)]
        for i in range(e):
            C[i][e - 1] = -eis.coeffs[i]
        power = [[int(i == j) for j in range(e)] for i in range(e)]
        B = [[cs[0] * p * x for x in row] for row in power]
        for c in cs[1:]:
            power = reference.mat_mul(power, C)
            B = [[b + c * x for b, x in zip(rb, rx)] for rb, rx in zip(B, power)]
        q = p**N
        expected = tuple(c % q for c in reference.charpoly_by_cofactors(B)[:e])
        out = substitute(eis, UniformizerChange(p, 2, tuple(cs)), N)
        assert out.coeffs == expected and out.precision == N


def test_substituted_tau_lower_bound_marker():
    # all E1 residues vanish mod p^N: every E1 key is at least N*e, so tau is
    # reported as the lower bound N
    out = substitute(EisensteinPolynomial(2, (-2, 0)), UniformizerChange(2, 2, (0, 1)), 4)
    inv = out.invariants()
    assert inv.t_pi is None and inv.tau == 4
    assert inv.iota is None and inv.t_pi is None
    # u^2 + 4u + 2 known mod 4: tau >= 2, and the exact polynomial has tau = 2
    inv = EisensteinPolynomial(2, (2, 0), precision=2).invariants()
    assert (inv.tau, inv.iota, inv.t_pi) == (2, None, None)
    assert EisensteinPolynomial(2, (2, 4)).invariants().tau == 2


def test_tau_lower_bound_iff_every_e1_residue_vanishes():
    # on substitutes mod p^N with p | e, tau is only a lower bound exactly
    # when every E1 residue (exponents i not divisible by p) vanishes; the
    # m = 0 fiat value is never one
    rng = random.Random("tau-lower-bound")
    seen = set()
    for _ in range(400):
        p = rng.choice((2, 3))
        e = rng.choice((2, 3, 4, 6))
        N = rng.randint(2, 3)
        cs = [rng.randrange(p**2) for _ in range(e)]
        cs[1] = p * rng.randrange(p) + rng.randrange(1, p)  # a unit
        out = substitute(random_eisenstein(rng, p, e), UniformizerChange(p, 2, tuple(cs)), N)
        vanish = all(out.coeffs[i] % p**N == 0 for i in range(1, e) if i % p)
        assert (out.invariants().t_pi is None) == (vanish and e % p == 0)
        seen.add((vanish, e % p == 0))
    assert seen == {(True, True), (False, True), (True, False), (False, False)}


# -- tau search ----------------------------------------------------------------------------

def test_tau_search_examples():
    found = tau_v_search(EisensteinPolynomial(2, (-2, 0)), digit_precision=2)
    assert (found.tau, found.iota) == (2, 1)
    assert found.witness.cs == (1, 1)

    found = tau_v_search(EisensteinPolynomial(3, (-3, 0, 0)), digit_precision=2)
    assert found.tau == 2 and found.iota <= 2
    assert not found.certified_exact  # exact only at the floor tau = 1

    found = tau_v_search(EisensteinPolynomial(5, (5, 0, 0)), digit_precision=2)
    assert (found.tau, found.iota) == (1, 0)
    assert found.candidates == 0 and found.certified_exact


def test_tau_ceiling_over_random_polynomials():
    # tau(pi) or tau(pi + p) is at most m + 1
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3])
        e = rng.choice([p, 2 * p, p * p])
        eis = random_eisenstein(rng, p, e)
        m = eis.m
        N = m + 3
        here = eis.invariants().tau
        shifted = substitute(
            eis, UniformizerChange(p, N, (1, 1) + (0,) * (e - 2)), N
        ).invariants().tau
        assert min(here, shifted) <= m + 1


def test_tau_search_requires_exact_input():
    residue = EisensteinPolynomial(2, (2, 0), precision=4)
    with pytest.raises(ValueError, match="exact"):
        tau_v_search(residue, 1)


def test_substitute_degree_one():
    # e = 1: pi~ = c_0 * p with c_0 a unit; the polynomial is u - c_0*p
    eis = EisensteinPolynomial(3, (-3,))
    out = substitute(eis, UniformizerChange(3, 2, (2,)), 3)
    assert out.coeffs == ((-6) % 27,)
    with pytest.raises(ValueError, match="unit"):
        UniformizerChange(3, 2, (3,))


# (p, e, digit precision) with p | e; each shape enumerates at most 2500
# changes.  The e = 2 shapes at dp >= 3 = m + 2 read the key of every class
# with c_1 != 1.
TAU_SHAPES = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 4, 1),
              (2, 4, 2), (2, 4, 3), (2, 6, 1), (3, 3, 1), (3, 3, 2), (3, 6, 1),
              (5, 5, 1)]


def _tau_cases():
    rng = random.Random(31)
    cases = [(EisensteinPolynomial(2, (-2, 0, 0, 0)), 2),  # E1 = 0: u^4 - 2
             (EisensteinPolynomial(3, (3, 0, 0)), 1),
             # (3, 3, 3): 13122 changes, 243 classes
             (EisensteinPolynomial(3, (3, 0, 0)), 3),
             (EisensteinPolynomial(3, (-6, 0, 9)), 3)]
    for _ in range(50):
        p, e, dp = rng.choice(TAU_SHAPES)
        cases.append((random_eisenstein(rng, p, e, spread=9), dp))
    for p, e in [(2, 3), (3, 4), (5, 2), (2, 5), (3, 2), (5, 6)]:  # m = 0
        cases.append((random_eisenstein(rng, p, e), rng.choice([1, 2])))
    # the shapes where some c_1 != 1 classes read a key and others compute it
    for p, e, dp in [(2, 4, 3), (3, 3, 2), (5, 5, 1)]:
        cases.append((random_eisenstein(rng, p, e, spread=9), dp))
    return cases


TAU_CASES = _tau_cases()


def searched(found):
    """What the per-candidate reference.tau_search reports of a search."""
    return found.tau, found.iota, found.witness.cs, found.candidates


@pytest.mark.parametrize("eis, dp", TAU_CASES,
                         ids=[f"{k}-{eis.p}-{eis.e}-{dp}" for k, (eis, dp) in enumerate(TAU_CASES)])
def test_tau_search_agrees_with_per_candidate_route(eis, dp):
    found = tau_v_search(eis, dp)
    if eis.m == 0:
        assert (found.tau, found.iota, found.candidates) == (1, 0, 0)
        assert found.certified_exact and found.ceiling == 1
        return
    assert searched(found) == reference.tau_search(eis.p, eis.coeffs, dp)
    assert found.ceiling == eis.m + 1 and found.witness.precision == dp
    assert found.charpolys == reference.tau_search_charpolys(eis.p, eis.e, dp)


def digit_kernel(residues_of_x):
    """A stand-in for charpoly_mod(cols, q) that returns residues_of_x(x)
    plus the leading 1, where x = (c_0 p, c_1, ...) is the first column it
    is handed: substitute and the search both pass the columns of x."""
    return lambda cols, q: [*residues_of_x(tuple(cols[0])), 1]


@pytest.mark.parametrize("dp", [3, 4, 5])
def test_tau_search_witness_is_the_least_class_of_the_tied_orbits(monkeypatch, dp):
    # a kernel whose key depends on the orbit only, through t = c_0 / c_1
    # mod 4: tau = 1 exactly when t = 3.  The first such digit vector is
    # (1, 3); the classes with c_1 = 1 alone would give (3, 1)
    def orbit_kernel(x):
        t = x[0] // 2 * pow(x[1], -1, 4) % 4
        return [2, 2 if t == 3 else 4]

    monkeypatch.setattr(eisenstein, "charpoly_mod", digit_kernel(orbit_kernel))
    eis = EisensteinPolynomial(2, (2, 0))
    found = tau_v_search(eis, dp)
    assert found.witness.cs == (1, 3) and (found.tau, found.iota) == (1, 1)
    assert searched(found) == reference.tau_search(2, eis.coeffs, dp, orbit_kernel)


def p3_orbit_residues(target):
    """At p = 3, e = 3 residues of x whose key depends on the orbit only,
    through (c_0 / c_1 mod 9, c_2 / c_1 mod 27): tau = 1 exactly on target's
    orbit."""
    def orbit_residues(x):
        v = pow(x[1], -1, 27)
        return [3, 3 if (x[0] // 3 * v % 9, x[2] * v % 27) == target else 9, 9]

    return orbit_residues


@pytest.mark.parametrize("dp, target, witness", [
    # (1, 2, 0) has the multiple (5, 1, 0), past c_0 < 3: it computes its
    # key, and the one minimizer is (2, 1, 1)
    (1, (2, 1), (2, 1, 1)),
    # the first minimizer (1, 5, 0) reads the key of (2, 1, 0), by 1/5 = 11
    # mod 27; (1, 2, 0) reads that of (5, 1, 0), by 1/2 = 14
    (2, (2, 0), (1, 5, 0)),
], ids=["dp1", "dp2"])
def test_tau_search_reads_the_keys_of_unit_multiples(monkeypatch, dp, target, witness):
    residues = p3_orbit_residues(target)
    monkeypatch.setattr(eisenstein, "charpoly_mod", digit_kernel(residues))
    found = tau_v_search(EisensteinPolynomial(3, (3, 0, 0)), dp)
    assert found.witness.cs == witness and (found.tau, found.iota) == (1, 1)
    assert searched(found) == reference.tau_search(3, (3, 0, 0), dp, residues)
    assert found.charpolys == reference.tau_search_charpolys(3, 3, dp)


def test_tau_search_rechecks_its_witness(monkeypatch):
    # a kernel without the scaling invariance: only (c_0, c_1) = (3, 1)
    # reaches tau = 1, and (1, 3), which reads its key, does not
    monkeypatch.setattr(eisenstein, "charpoly_mod",
                        digit_kernel(lambda x: [2, 2 if x[:2] == (6, 1) else 4]))
    with pytest.raises(AssertionError, match="witness's key differs"):
        tau_v_search(EisensteinPolynomial(2, (2, 0)), 3)


def test_tau_search_asserts_its_ceiling(monkeypatch):
    # every charpoly read as u^2 + 8u + 2: key 7, so tau = 3 > m + 1 = 2,
    # which the enumerated pair pi, pi + p rules out for a true kernel
    monkeypatch.setattr(eisenstein, "charpoly_mod", lambda cols, q: [2, 8, 1])
    with pytest.raises(AssertionError, match="tau ceiling m \\+ 1 violated"):
        tau_v_search(EisensteinPolynomial(2, (2, 0)), 1)


def test_tau_search_substitutes_each_witness_once(monkeypatch):
    # the change a search returns goes through substitute exactly once,
    # whether its key was computed or read off a unit multiple
    real, calls = eisenstein.substitute, []

    def counted(E, change, N):
        calls.append(change.cs)
        return real(E, change, N)

    monkeypatch.setattr(eisenstein, "substitute", counted)
    # dp = 1 at u^2 + 2: c_1 = 1 on every tail, so every key is computed
    found = tau_v_search(EisensteinPolynomial(2, (2, 0)), 1)
    assert calls == [found.witness.cs] and found.charpolys == found.candidates == 2
    # the dp2 case above: the witness (1, 5, 0) reads the key of (2, 1, 0)
    calls.clear()
    monkeypatch.setattr(eisenstein, "charpoly_mod", digit_kernel(p3_orbit_residues((2, 0))))
    found = tau_v_search(EisensteinPolynomial(3, (3, 0, 0)), 2)
    assert calls == [(1, 5, 0)] == [found.witness.cs]


def test_tau_search_charpolys_pinned():
    # class counts, with searches too large for the per-candidate route:
    # dp = 4 at (3, 3) is 354294 changes, (2, 4, 4) 32768.  At dp >= m + 2
    # every c_1 != 1 class reads, so one class per orbit is computed
    for p, coeffs, dp, classes in [(3, (3, 0, 0), 3, 243), (3, (3, 0, 0), 4, 243),
                                   (2, (-2, 0, 0, 0), 4, 2048), (2, (2, 2, 0, 2), 3, 1520),
                                   (2, (-2, 0), 5, 4), (5, (5, 0, 0, 0, 0), 1, 2387)]:
        eis = EisensteinPolynomial(p, coeffs)
        found = tau_v_search(eis, dp)
        assert found.charpolys == classes == reference.tau_search_charpolys(p, eis.e, dp)
        assert found.candidates == (p - 1) * p**(dp * eis.e - 1)


def test_tau_search_stores_one_small_int_per_class(monkeypatch):
    # (2, 6, 2) stores the keys of its 1024 classes with c_1 = 1; with a
    # constant kernel the search's peak is its store: 11 KB, where a dict
    # keyed by digit tuples peaked at 127 KB
    monkeypatch.setattr(eisenstein, "charpoly_mod", lambda cols, q: [2, 4, 4, 4, 4, 4, 1])
    eis = EisensteinPolynomial(2, (2, 0, 0, 0, 0, 0))
    tracemalloc.start()
    try:
        found = tau_v_search(eis, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (found.tau, found.iota) == (2, 1) and found.charpolys == 1724
    assert peak < 32 * 1024


@pytest.mark.parametrize("bad", [
    lambda res: [res[0] * 2] + res[1:],  # ord_2(a_0) = 2
    lambda res: [res[0], 1] + res[2:],  # a_1 is a unit
    lambda res: [0] + res[1:],  # a_0 = 0
])
# u^4 + 2u^3 + 2u + 2 reaches the floor key e + 1 at its first class; every
# class of u^4 + 2 lies above it (its least key is 13), so a search that
# stops at the floor still reaches the third charpoly
@pytest.mark.parametrize("coeffs", [(2, 2, 0, 2), (2, 0, 0, 0)])
def test_tau_search_checks_each_charpoly_inline(monkeypatch, bad, coeffs):
    # a charpoly that is not Eisenstein raises what the constructor raises
    kernel = eisenstein.charpoly_mod
    calls = []

    def faulty(cols, q):
        res = kernel(cols, q)[:-1]
        calls.append(res)
        return [*(c % q for c in (bad(res) if len(calls) == 3 else res)), 1]

    monkeypatch.setattr(eisenstein, "charpoly_mod", faulty)
    with pytest.raises(EisensteinValidationError) as err:
        tau_v_search(EisensteinPolynomial(2, coeffs), 1)
    assert len(calls) == 3
    with pytest.raises(EisensteinValidationError) as expected:
        EisensteinPolynomial(2, tuple(c % 32 for c in bad(calls[2])), precision=5)
    assert err.value.violations == expected.value.violations


def test_tau_search_refuses_spaces_over_the_cap(monkeypatch):
    # refused from the closed-form count, before the first charpoly
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(eisenstein, "charpoly_mod", no_enumeration)
    u8m2 = EisensteinPolynomial(2, (-2,) + (0,) * 7)
    with pytest.raises(BudgetExceededError, match=f"8388608 candidates.*cap of {TAU_SEARCH_CAP}"):
        tau_v_search(u8m2, 3)
    with pytest.raises(BudgetExceededError, match=r"1\*2\^7999999999 candidates"):
        tau_v_search(u8m2, 10**9)
    with pytest.raises(BudgetExceededError, match="7812500 candidates"):  # 4 * 5^(2*5-1)
        tau_v_search(EisensteinPolynomial(5, (5, 0, 0, 0, 0)), 2)
