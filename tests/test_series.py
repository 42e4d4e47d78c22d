"""Truncated-ring arithmetic: frozen examples plus algebraic properties."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramibound import series
from ramibound.series import (
    Precision,
    PrecisionError,
    PrecisionMismatchError,
    TruncatedSeries,
    frobenius,
    int_valuation,
    invert_unit,
    is_prime,
    weierstrass_prep,
)


def S(prec, *coeffs):
    return TruncatedSeries.from_coeffs(prec, list(coeffs))


def brute_mul(prec, a, b):
    # schoolbook convolution oracle, independent of the library loop
    out = [0] * prec.T
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < prec.T:
                out[i + j] = (out[i + j] + x * y) % prec.modulus
    return TruncatedSeries(prec, tuple(out))


# -- strategies ----------------------------------------------------------------

def precisions():
    return st.sampled_from(
        [Precision(2, 2, 4), Precision(2, 3, 6), Precision(3, 2, 5), Precision(5, 1, 4)]
    )


def series_for(prec, max_support=None):
    top = prec.T if max_support is None else min(max_support, prec.T)
    return st.lists(
        st.integers(0, prec.modulus - 1), min_size=top, max_size=top
    ).map(lambda cs: TruncatedSeries.from_coeffs(prec, cs))


@st.composite
def series_pairs(draw):
    prec = draw(precisions())
    return draw(series_for(prec)), draw(series_for(prec))


@st.composite
def series_triples(draw):
    prec = draw(precisions())
    return tuple(draw(series_for(prec)) for _ in range(3))


# -- primitive helpers -----------------------------------------------------------

def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial(n)]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers; 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    # the least strong pseudoprime to every prime base up to 37: base 41 decides it
    assert not is_prime(318665857834031151167461)
    assert is_prime(99999999999973) and is_prime(2**61 - 1)


def test_is_prime_refuses_beyond_certified_range():
    limit = 3317044064679887385961981
    for n in (limit, 2**89 - 1):
        with pytest.raises(ValueError, match="certified only below"):
            is_prime(n)


def test_int_valuation():
    assert int_valuation(12, 2) == 2
    assert int_valuation(-8, 2) == 3
    assert int_valuation(5, 5) == 1
    assert int_valuation(0, 3) is None


def test_precision_validation():
    with pytest.raises(ValueError):
        Precision(4, 1, 1)
    with pytest.raises(ValueError):
        Precision(2, 0, 1)
    with pytest.raises(ValueError):
        Precision(2, 1, 0)


# -- addition ---------------------------------------------------------------------

def test_add_examples():
    prec = Precision(2, 2, 3)
    assert S(prec, 1, 1) + S(prec, 0, 1) == S(prec, 1, 2)  # (u+1)+u = 2u+1
    assert S(prec, 0, 0, 3) + S(prec, 0, 0, 1) == S(prec, 0, 0, 0)  # 4u^2 = 0 mod 4


@given(precisions().flatmap(lambda pr: series_for(pr)))
def test_add_identity(a):
    assert a + TruncatedSeries.zero(a.prec) == a


def test_add_precision_mismatch():
    with pytest.raises(PrecisionMismatchError):
        S(Precision(2, 2, 3), 1) + S(Precision(2, 2, 4), 1)
    with pytest.raises(PrecisionMismatchError):
        S(Precision(2, 2, 3), 1) + S(Precision(2, 3, 3), 1)


# -- multiplication -----------------------------------------------------------------

def test_mul_example_telescope():
    # (u^2-2)(u^2+2) = u^4 - 4 = u^4 + 4 mod 8
    prec = Precision(2, 3, 5)
    got = S(prec, -2, 0, 1) * S(prec, 2, 0, 1)
    assert got == S(prec, 4, 0, 0, 0, 1)


@given(precisions().flatmap(lambda pr: series_for(pr)))
def test_mul_one_and_zero(a):
    assert a * TruncatedSeries.one(a.prec) == a
    assert (a * TruncatedSeries.zero(a.prec)).is_zero()


@given(series_pairs())
def test_mul_matches_brute_force(pair):
    a, b = pair
    assert a * b == brute_mul(a.prec, a, b)


def _operand(rng, prec, nnz):
    cs = [0] * prec.T
    for i in rng.sample(range(prec.T), nnz):
        cs[i] = rng.randrange(1, prec.modulus)
    return TruncatedSeries(prec, tuple(cs))


@pytest.mark.parametrize("p, n", [(2, 8), (3, 3), (7, 4), (10007, 2)])
@pytest.mark.parametrize("T", [40, 200])
def test_mul_routes_match_brute_force_at_real_sizes(monkeypatch, p, n, T):
    # both product routes, and the density switch between them, against the
    # schoolbook oracle at the sizes the Breuil-module checks use
    routes = {"sparse": 0, "packed": 0}
    for name in routes:
        kernel = getattr(series, f"_mul_{name}")

        def counted(*args, kernel=kernel, name=name):
            routes[name] += 1
            return kernel(*args)

        monkeypatch.setattr(series, f"_mul_{name}", counted)
    prec = Precision(p, n, T)
    rng = random.Random(f"mul-{p}-{n}-{T}")
    K = series._SPARSE_K
    shapes = [(T, T), (T, 3), (1, T), (T, K), (T - 1, K), (T, K + 1), (T // 2, 2 * K)]
    expected = {"sparse": 0, "packed": 0}
    for na, nb in shapes:
        expected["sparse" if na * nb <= K * T else "packed"] += 1
        a, b = _operand(rng, prec, na), _operand(rng, prec, nb)
        assert a * b == brute_mul(prec, a, b)
    # (T, K) and (T // 2, 2K) sit exactly on the switch, (T, K + 1) just past it
    assert routes == expected and expected["packed"] == 2
    # all-maximal coefficients fill every packed slot as far as it can go
    top = TruncatedSeries(prec, (prec.modulus - 1,) * T)
    assert top * top == brute_mul(prec, top, top)


def test_invert_and_prepare_at_real_size():
    prec = Precision(2, 8, 200)
    rng = random.Random("invert-prepare-2-8-200")
    for _ in range(3):
        cs = [rng.randrange(prec.modulus) for _ in range(prec.T)]
        cs[0] |= 1
        a = TruncatedSeries(prec, tuple(cs))
        assert a * invert_unit(a) == TruncatedSeries.one(prec)
        cs[0] = 4 * rng.randrange(64)
        cs[1] = 4 * rng.randrange(64)
        cs[2] |= 1
        b = TruncatedSeries(prec, tuple(cs))
        w = weierstrass_prep(b)
        _check_weierstrass_shape(w, prec)
        assert w.degree == 2
        assert (w.unit * w.wpoly).scale(prec.p**w.content) == b


@given(series_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- frobenius ------------------------------------------------------------------------

def test_frobenius_examples():
    prec = Precision(2, 2, 5)
    assert frobenius(S(prec, 2, 1)) == S(prec, 2, 0, 1)  # u+2 -> u^2+2
    assert frobenius(TruncatedSeries.one(prec)) == TruncatedSeries.one(prec)
    # sum p^(n-i) u^(i-1) at p=2, n=2: 2 + u  ->  2 + u^2
    assert frobenius(S(prec, 2, 1, 0)) == S(prec, 2, 0, 1)


@given(series_pairs())
def test_frobenius_is_ring_map_at_allocated_precision(pair):
    # terms the truncation drops land at degree >= T after the twist as well
    a, b = pair
    assert frobenius(a + b) == frobenius(a) + frobenius(b)
    assert frobenius(a * b) == frobenius(a) * frobenius(b)


@given(precisions().flatmap(lambda pr: series_for(pr)))
def test_frobenius_input_precision_contract(a):
    # coefficients from ceil(T/p) on cannot affect the image
    t_min = -(-a.prec.T // a.prec.p)
    trimmed = TruncatedSeries.from_coeffs(a.prec, a.coeffs[:t_min])
    assert frobenius(trimmed) == frobenius(a)


# -- valuations -------------------------------------------------------------------------

def test_ord_u_examples():
    prec = Precision(2, 3, 6)
    assert S(prec, 0, 0, 0, 1, 2).ord_u() == 3
    assert TruncatedSeries.zero(prec).ord_u() is None
    assert S(prec, 0, 8).ord_u() is None  # 2^3 reduces to 0


def test_content_examples():
    prec = Precision(2, 3, 4)
    assert S(prec, 0, 2, 4).content_p() == 1
    assert TruncatedSeries.zero(prec).content_p() is None
    assert S(prec, 0, 2).content_p() == 1  # the non-p-power part of u^2+2u+2


@given(series_pairs())
def test_content_superadditive(pair):
    a, b = pair
    ca, cb = a.content_p(), b.content_p()
    cab = (a * b).content_p()
    if ca is None or cb is None:
        assert cab is None
        return
    assert cab is None or cab >= ca + cb


@given(precisions().flatmap(lambda pr: st.tuples(
    series_for(pr, max_support=pr.T // 2 or 1),
    series_for(pr, max_support=pr.T - (pr.T // 2 or 1)),
)))
def test_content_equality_without_truncation(pair):
    # with supports that cannot truncate, the product content is exactly the sum
    a, b = pair
    ca, cb = a.content_p(), b.content_p()
    if ca is None or cb is None:
        return
    if ca + cb < a.prec.n:
        assert (a * b).content_p() == ca + cb


# -- ideal membership ----------------------------------------------------------------------

def test_in_ideal_examples():
    prec = Precision(2, 3, 6)
    assert S(prec, 0, 4, 0, 1).in_ideal(2, 2)  # u^3 + 4u in (u^2, p^2)
    assert not S(prec, 0, 1).in_ideal(2, 1)  # u not in (u^2, p)
    prod = S(prec, -2, 0, 1) * S(prec, 2, 0, 1)
    assert prod.in_ideal(4, 2)  # u^4 - 4 lands in (u^4, p^2)


def test_in_ideal_errors():
    prec = Precision(2, 2, 3)
    with pytest.raises(PrecisionError):
        S(prec, 1).in_ideal(4)
    with pytest.raises(PrecisionError):
        S(prec, 1).in_ideal(1, 3)


@given(
    precisions().flatmap(lambda pr: series_for(pr)),
    st.data(),
)
def test_in_ideal_monotone(a, data):
    t = data.draw(st.integers(0, a.prec.T))
    np = data.draw(st.integers(0, a.prec.n))
    if a.in_ideal(t, np):
        t2 = data.draw(st.integers(0, t))
        np2 = data.draw(st.integers(0, np))
        assert a.in_ideal(t2, np2)


# -- unit inversion ---------------------------------------------------------------------------

@given(precisions().flatmap(lambda pr: series_for(pr)))
def test_invert_unit(a):
    if a.coeffs[0] % a.prec.p == 0:
        with pytest.raises(ValueError):
            invert_unit(a)
        return
    assert a * invert_unit(a) == TruncatedSeries.one(a.prec)


# -- Weierstrass preparation -------------------------------------------------------------------

def test_weierstrass_examples():
    w = weierstrass_prep(S(Precision(2, 3, 6), -2, 0, 1))
    assert (w.content, w.degree) == (0, 2)
    assert w.wpoly == S(Precision(2, 3, 6), 6, 0, 1)
    assert w.unit == TruncatedSeries.one(Precision(2, 3, 6))

    w = weierstrass_prep(S(Precision(2, 3, 4), 4, 2))
    assert (w.content, w.degree) == (1, 1)
    assert w.wpoly == S(Precision(2, 3, 4), 2, 1)
    assert w.unit == TruncatedSeries.one(Precision(2, 3, 4))

    w = weierstrass_prep(S(Precision(3, 2, 4), 3, 3))
    assert (w.content, w.degree) == (1, 0)
    assert w.wpoly == TruncatedSeries.one(Precision(3, 2, 4))
    assert w.unit == S(Precision(3, 2, 4), 1, 1)


def test_weierstrass_rejects_zero():
    with pytest.raises(ValueError):
        weierstrass_prep(TruncatedSeries.zero(Precision(2, 2, 3)))


def _check_weierstrass_shape(w, prec):
    assert w.wpoly.coeffs[w.degree] == 1
    assert all(c % prec.p == 0 for c in w.wpoly.coeffs[: w.degree])
    assert all(c == 0 for c in w.wpoly.coeffs[w.degree + 1 :])
    assert w.unit.coeffs[0] % prec.p != 0


@settings(max_examples=100)
@given(precisions().flatmap(lambda pr: series_for(pr)))
def test_weierstrass_round_trip(a):
    if a.is_zero():
        return
    w = weierstrass_prep(a)
    prec = a.prec
    _check_weierstrass_shape(w, prec)
    reassembled = (w.unit * w.wpoly).scale(prec.p**w.content)
    assert reassembled == a


def test_weierstrass_round_trip_dense():
    # a fixed saturation pass over every series at a tiny precision
    prec = Precision(2, 2, 3)
    count = 0
    for c0 in range(4):
        for c1 in range(4):
            for c2 in range(4):
                a = S(prec, c0, c1, c2)
                if a.is_zero():
                    continue
                w = weierstrass_prep(a)
                assert (w.unit * w.wpoly).scale(prec.p**w.content) == a
                count += 1
    assert count == 63
