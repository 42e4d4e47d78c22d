"""Eisenstein invariants, the mod-p^N characteristic polynomial route, and
the exhaustive minimization of tau over digit-truncated uniformizer changes."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramibound import eisenstein, oracle
from ramibound.eisenstein import (
    INF,
    TAU_SEARCH_CAP,
    EisensteinPolynomial,
    EisensteinValidationError,
    UniformizerChange,
    berkowitz_charpoly,
    substitute,
    tau_v_search,
)
from ramibound.series import BudgetExceededError, int_valuation


# -- independent oracles -----------------------------------------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def charpoly_by_cofactors(A):
    """det(xI - A) over Z[x] by cofactor expansion; ascending coefficients."""
    n = len(A)
    # entries of xI - A as integer polynomials in x
    M = [[[-A[i][j], 1] if i == j else [-A[i][j]] for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(rows) == 1:
            return M[rows[0]][cols[0]]
        total = [0]
        for k, j in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1 :])
            term = poly_mul(M[rows[0]][j], minor)
            if k % 2:
                term = [-t for t in term]
            total = poly_add(total, term)
        return total

    return det(list(range(n)), list(range(n)))


def taylor_shift(eis, delta):
    """E(u + delta) with exact integers, by Horner; ascending coefficients."""
    res = [1]
    for a in reversed(eis.coeffs):
        res = poly_add(poly_mul(res, [delta, 1]), [a])
    return res


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
    with pytest.raises(EisensteinValidationError, match="not prime"):
        EisensteinPolynomial(6, (6,))


def test_residue_polynomials_need_n_at_least_2():
    with pytest.raises(EisensteinValidationError, match="precision"):
        EisensteinPolynomial(2, (2,), precision=1)


# -- the E0/E1 split -----------------------------------------------------------------

def test_split_examples():
    s = EisensteinPolynomial(2, (2, 2)).split()
    assert s.e0 == (2, 0, 1) and s.e1 == (0, 2, 0)  # u^2+2 and 2u
    s = EisensteinPolynomial(3, (3, 3, 0)).split()
    assert s.e0 == (3, 0, 0, 1) and s.e1 == (0, 3, 0, 0)  # u^3+3 and 3u
    s = EisensteinPolynomial(3, (3, 0)).split()
    assert s.e0 == (3, 0, 0) and s.e1 == (0, 0, 1)  # 3 and u^2


@given(st.data())
def test_split_partition_property(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = data.draw(st.sampled_from([2, 3, 5]))
    e = data.draw(st.integers(1, 6))
    eis = random_eisenstein(rng, p, e)
    s = eis.split()
    full = eis.all_coeffs()
    assert tuple(a + b for a, b in zip(s.e0, s.e1)) == full
    assert all(c == 0 for i, c in enumerate(s.e0) if i % p != 0)
    assert all(c == 0 for i, c in enumerate(s.e1) if i % p == 0)


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
    # arbitrary matrices, not only multiplication matrices; a third of them
    # sparse, so that zero coefficients reach the Toeplitz step
    rng = random.Random(11)
    for k in range(200):
        n = rng.randint(1, 5)
        q = rng.choice([2, 4, 8, 9, 27, 16, 125, 7**3])
        density = 0.3 if k % 3 == 0 else 1.0
        A = [[rng.randrange(q) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        expected = [c % q for c in charpoly_by_cofactors(A)]
        assert berkowitz_charpoly(A, q) == expected


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
    assert out.coeffs == tuple(c % 81 for c in taylor_shift(eis, -3)[:3])


def test_substitute_rejects_small_N_and_non_units():
    eis = EisensteinPolynomial(2, (-2, 0))
    with pytest.raises(ValueError, match="N >= 2"):
        substitute(eis, UniformizerChange(2, 2, (1, 1)), 1)
    with pytest.raises(ValueError, match="unit"):
        UniformizerChange(2, 2, (1, 2))


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
        via_shift = taylor_shift(eis, -c0 * p)
        assert via_matrix.coeffs == tuple(c % q for c in via_shift[: eis.e])


def mat_mul(A, B):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]


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
            power = mat_mul(power, C)
            B = [[b + c * x for b, x in zip(rb, rx)] for rb, rx in zip(B, power)]
        q = p**N
        expected = tuple(c % q for c in charpoly_by_cofactors(B)[:e])
        out = substitute(eis, UniformizerChange(p, 2, tuple(cs)), N)
        assert out.coeffs == expected and out.precision == N


def test_substituted_tau_lower_bound_marker():
    # all E1 residues vanish mod p^N: tau reported as the lower bound N-1
    out = substitute(EisensteinPolynomial(2, (-2, 0)), UniformizerChange(2, 2, (0, 1)), 4)
    inv = out.invariants()
    assert inv.t_pi is None and inv.tau == 3
    assert inv.iota is None and inv.t_pi is None


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


def test_tau_search_witness_is_consistent():
    for coeffs, p in [((-2, 0), 2), ((2, 2), 2), ((-3, 0, 0), 3)]:
        eis = EisensteinPolynomial(p, coeffs)
        found = tau_v_search(eis, digit_precision=2)
        inv = substitute(eis, found.witness, eis.m + 3).invariants()
        assert inv.tau == found.tau and inv.iota == found.iota


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


def reference_tau_search(eis, dp):
    """The per-candidate route: substitute, validate and read the invariants
    of every digit vector with c_1 a unit, in lexicographic order."""
    p, e, m = eis.p, eis.e, eis.m
    best, visited = None, 0
    for cs in itertools.product(range(p**dp), repeat=e):
        if cs[1] % p == 0:
            continue
        visited += 1
        inv = substitute(eis, UniformizerChange(p, dp, cs), m + 3).invariants()
        if inv.t_pi is None:
            continue
        if best is None or (inv.tau, inv.iota) < best[0]:
            best = ((inv.tau, inv.iota), cs)
    (tau, iota), cs = best
    return eisenstein.TauSearchResult(
        tau=tau, iota=iota, witness=UniformizerChange(p, dp, cs), ceiling=m + 1,
        candidates=visited, charpolys=visited,
    )


# (p, e, digit precision) with p | e; each shape enumerates at most 2500
# changes.  The e = 2 shapes at dp >= 3 = m + 2 take the orbit route.
TAU_SHAPES = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 4, 1),
              (2, 4, 2), (2, 6, 1), (3, 3, 1), (3, 3, 2), (3, 6, 1), (5, 5, 1)]


def tau_search_charpolys(p, e, dp):
    """Closed-form count of the key classes tau_v_search visits (m >= 1):
    c_0 below p^(m+1), and past dp = m + 2 one orbit per class (c_1 = 1,
    the other digits mod p^(m+2))."""
    m = int_valuation(e, p)
    if dp >= m + 2:
        return p**(m + 1) * p**((m + 2) * (e - 2))
    return p**min(dp, m + 1) * (p - 1) * p**(dp - 1) * p**(dp * (e - 2))


def test_tau_search_agrees_with_per_candidate_route():
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
    for eis, dp in cases:
        found = tau_v_search(eis, dp)
        if eis.m == 0:
            assert (found.tau, found.iota, found.candidates) == (1, 0, 0)
            assert found.certified_exact and found.ceiling == 1
            continue
        assert found == reference_tau_search(eis, dp)
        assert found.charpolys == tau_search_charpolys(eis.p, eis.e, dp)


@pytest.mark.parametrize("dp", [3, 4, 5])
def test_tau_search_witness_is_the_least_class_of_the_tied_orbits(monkeypatch, dp):
    # a kernel whose key depends on the orbit only, through t = c_0 / c_1
    # mod 4: tau = 1 exactly when t = 3.  The first such digit vector is
    # (1, 3); the classes with c_1 = 1 alone would give (3, 1)
    def orbit_kernel(coeffs, x, q):
        t = x[0] // 2 * pow(x[1], -1, 4) % 4
        return [2, 2 if t == 3 else 4]

    monkeypatch.setattr(eisenstein, "_charpoly_residues", orbit_kernel)
    eis = EisensteinPolynomial(2, (2, 0))
    found = tau_v_search(eis, dp)
    assert found.witness.cs == (1, 3) and (found.tau, found.iota) == (1, 1)
    assert found == reference_tau_search(eis, dp)


def test_tau_search_rechecks_its_witness(monkeypatch):
    # a kernel without the scaling invariance: only (c_0, c_1) = (3, 1)
    # reaches tau = 1, and the least class of its orbit, (1, 3), does not
    monkeypatch.setattr(eisenstein, "_charpoly_residues",
                        lambda coeffs, x, q: [2, 2 if x[:2] == (6, 1) else 4])
    with pytest.raises(AssertionError, match="witness's key differs"):
        tau_v_search(EisensteinPolynomial(2, (2, 0)), 3)


def test_tau_search_charpolys_closed_form():
    # class counts on both routes, with searches too large for the
    # per-candidate route: dp = 4 at (3, 3) is 354294 changes, (2, 4, 4) 32768
    for p, coeffs, dp, classes in [(3, (3, 0, 0), 3, 243), (3, (3, 0, 0), 4, 243),
                                   (2, (-2, 0, 0, 0), 4, 2048), (2, (2, 2, 0, 2), 3, 2048),
                                   (2, (-2, 0), 5, 4), (5, (5, 0, 0, 0, 0), 1, 2500)]:
        eis = EisensteinPolynomial(p, coeffs)
        found = tau_v_search(eis, dp)
        assert found.charpolys == classes == tau_search_charpolys(p, eis.e, dp)
        assert found.candidates == (p - 1) * p**(dp * eis.e - 1)


@pytest.mark.parametrize("bad", [
    lambda res: [res[0] * 2] + res[1:],  # ord_2(a_0) = 2
    lambda res: [res[0], 1] + res[2:],  # a_1 is a unit
    lambda res: [0] + res[1:],  # a_0 = 0
])
def test_tau_search_checks_each_charpoly_inline(monkeypatch, bad):
    # a charpoly that is not Eisenstein raises what the constructor raises
    kernel = eisenstein._charpoly_residues
    calls = []

    def faulty(coeffs, x, q):
        res = kernel(coeffs, x, q)
        calls.append(res)
        return [c % q for c in bad(res)] if len(calls) == 3 else res

    monkeypatch.setattr(eisenstein, "_charpoly_residues", faulty)
    with pytest.raises(EisensteinValidationError) as err:
        tau_v_search(EisensteinPolynomial(2, (2, 2, 0, 2)), 1)
    assert len(calls) == 3
    with pytest.raises(EisensteinValidationError) as expected:
        EisensteinPolynomial(2, tuple(c % 32 for c in bad(calls[2])), precision=5)
    assert err.value.violations == expected.value.violations


def test_tau_search_refuses_spaces_over_the_cap(monkeypatch):
    # refused from the closed-form count, before the first charpoly
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(eisenstein, "_charpoly_residues", no_enumeration)
    u8m2 = EisensteinPolynomial(2, (-2,) + (0,) * 7)
    with pytest.raises(BudgetExceededError, match=f"8388608 candidates.*cap of {TAU_SEARCH_CAP}"):
        tau_v_search(u8m2, 3)
    with pytest.raises(oracle.BudgetExceededError, match=r"1\*2\^7999999999 candidates"):
        tau_v_search(u8m2, 10**9)
    with pytest.raises(BudgetExceededError, match="7812500 candidates"):  # 4 * 5^(2*5-1)
        tau_v_search(EisensteinPolynomial(5, (5, 0, 0, 0, 0)), 2)
