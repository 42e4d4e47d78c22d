"""Truncated-ring arithmetic: frozen examples plus algebraic properties."""

import random
from array import array
from types import SimpleNamespace

import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from ramibound import breuil, oracle, series
from ramibound.eisenstein import EisensteinPolynomial
from ramibound.series import (
    Precision,
    PrecisionError,
    PrecisionMismatchError,
    TruncatedSeries,
    dot,
    frobenius,
    int_valuation,
    invert_unit,
    is_prime,
    weierstrass_prep,
)


def S(prec, *coeffs):
    return TruncatedSeries.from_coeffs(prec, list(coeffs))


def content(a):
    """The least p-adic valuation over the coefficients of a; None when a = 0."""
    return min((int_valuation(x, a.prec.p) for x in a.coeffs if x), default=None)


def brute_dot(xs, ys):
    """sum_i xs[i] * ys[i] as a series, by reference.schoolbook_dot."""
    prec = xs[0].prec
    return TruncatedSeries(prec, tuple(reference.schoolbook_dot(
        prec.modulus, prec.T, [x.coeffs for x in xs], [y.coeffs for y in ys])))


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


# -- the precision check: identity first, value behind it ------------------------------

BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "dot": lambda a, b: dot([a, b], [b, a]),
}


@pytest.mark.parametrize("zero", [False, True], ids=["nonzero", "zero"])
@pytest.mark.parametrize("op", BINARY)
def test_equal_but_distinct_precisions_are_accepted(op, zero):
    # operands are first compared by identity of their Precision; one built
    # apart but equal in value must still pass, with the same result, also
    # beside a zero operand, whose product runs no route
    shared, twin = Precision(3, 2, 5), Precision(3, 2, 5)
    assert twin == shared and twin is not shared
    a = TruncatedSeries.zero(shared) if zero else S(shared, 1, 4, 0, 7, 2)
    b = S(shared, 5, 0, 8, 1)
    b_twin = S(twin, 5, 0, 8, 1)
    assert BINARY[op](a, b_twin) == BINARY[op](a, b)
    assert BINARY[op](b_twin, a) == BINARY[op](b, a)


@pytest.mark.parametrize("other", [Precision(3, 2, 6), Precision(3, 3, 5), Precision(5, 2, 5)],
                         ids=["T", "n", "p"])
@pytest.mark.parametrize("zero", [False, True], ids=["nonzero", "zero"])
@pytest.mark.parametrize("op", BINARY)
def test_mismatched_precisions_are_refused(op, other, zero):
    # a zero operand is refused alike: the check runs before the zero test
    prec = Precision(3, 2, 5)
    a = TruncatedSeries.zero(prec) if zero else S(prec, 1, 4, 0, 7, 2)
    b = S(other, 5, 0, 8, 1)
    with pytest.raises(PrecisionMismatchError):
        BINARY[op](a, b)
    with pytest.raises(PrecisionMismatchError):
        BINARY[op](b, a)


@pytest.mark.parametrize("expr", [
    "a * 3", "a + 1", "a - 1", "a * lookalike", "a + lookalike", "a - lookalike",
    "dot([a], [3])", "dot([3], [a])", "dot([a, a], [a, 3])", "dot([a], [lookalike])",
    "z * 3", "z * lookalike", "a * hollow", "dot([z], [3])", "dot([3], [z])",
    "dot([z, z], [z, 3])", "dot([z], [lookalike])", "dot([a], [hollow])",
])
def test_non_series_operands_raise_type_error(expr):
    # not AttributeError: the identity test reads .prec only after the
    # class test, and an object that merely carries the same .prec is no
    # series, even when its coefficients, or the other operand's, are all zero
    a = S(Precision(3, 2, 5), 1, 4)
    z = TruncatedSeries.zero(a.prec)
    lookalike = SimpleNamespace(prec=a.prec, coeffs=a.coeffs)
    hollow = SimpleNamespace(prec=a.prec, coeffs=z.coeffs)
    names = {"a": a, "z": z, "lookalike": lookalike, "hollow": hollow}
    with pytest.raises(TypeError, match="expected TruncatedSeries"):
        eval(expr, {"dot": dot}, names)


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
    assert a * b == brute_dot([a], [b])


def _operand(rng, prec, nnz):
    cs = [0] * prec.T
    for i in rng.sample(range(prec.T), nnz):
        cs[i] = rng.randrange(1, prec.modulus)
    return TruncatedSeries(prec, tuple(cs))


def count_routes(monkeypatch) -> dict:
    """Count the calls of each product route from here on, and as "none"
    the products that _mul_raw answers with no terms (a zero operand)."""
    routes = {"sparse": 0, "packed": 0, "none": 0}
    for name in ("sparse", "packed"):
        kernel = getattr(series, f"_mul_{name}")

        def counted(*args, kernel=kernel, name=name):
            routes[name] += 1
            return kernel(*args)

        monkeypatch.setattr(series, f"_mul_{name}", counted)
    raw = series._mul_raw

    def counted_raw(*args):
        out = raw(*args)
        routes["none"] += not out
        return out

    monkeypatch.setattr(series, "_mul_raw", counted_raw)
    return routes


@pytest.mark.parametrize("p, n", [(2, 8), (3, 3), (7, 4), (10007, 2)])
@pytest.mark.parametrize("T", [40, 200])
def test_mul_routes_match_brute_force_at_real_sizes(monkeypatch, p, n, T):
    # both product routes, and the density switch between them, against the
    # schoolbook oracle at the sizes the Breuil-module checks use
    routes = count_routes(monkeypatch)
    prec = Precision(p, n, T)
    rng = random.Random(f"mul-{p}-{n}-{T}")
    K = series._SPARSE_K
    shapes = [(T, T), (3, 3), (1, T), (T, K), (T - 1, K), (T, K + 1), (T // 2, 2 * K)]
    expected = {"sparse": 0, "packed": 0, "none": 0}
    for na, nb in shapes:
        expected["sparse" if na * nb <= K * T else "packed"] += 1
        a, b = _operand(rng, prec, na), _operand(rng, prec, nb)
        assert a * b == brute_dot([a], [b])
    # (T, K) and (T // 2, 2K) sit exactly on the switch, (T, K + 1) just past it
    assert routes == expected and expected["packed"] == 2
    # all-maximal coefficients fill every packed slot as far as it can go
    top = TruncatedSeries(prec, (prec.modulus - 1,) * T)
    assert top * top == brute_dot([top], [top])


# (precision, nonzeros of a, the route a * a takes): sparse at T = 5, the
# word-packed route at 2^8 and the bytes route at 10007^3 (86-bit slots);
# dot's row sums take the same slot routes
ZERO_CASES = [(Precision(3, 2, 5), 3, "sparse"), (Precision(2, 8, 40), 40, "packed"),
              (Precision(2, 8, 200), 200, "packed"), (Precision(10007, 3, 40), 40, "packed")]
ZERO_IDS = [f"{pr.p}^{pr.n}-T{pr.T}" for pr, _, _ in ZERO_CASES]


@pytest.mark.parametrize("prec, nnz, route", ZERO_CASES, ids=ZERO_IDS)
def test_zero_operands_take_no_product_route(monkeypatch, prec, nnz, route):
    # a zero operand gives the zero series without either route; an operand
    # with one nonzero coefficient is no zero and takes the sparse route
    rng = random.Random(f"zero-{prec.p}-{prec.n}-{prec.T}")
    zero, a = TruncatedSeries.zero(prec), _operand(rng, prec, nnz)
    one_term = _operand(rng, prec, 1)
    routes = count_routes(monkeypatch)
    for x, y in [(a, zero), (zero, a), (zero, zero)]:
        r = x * y
        assert r == brute_dot([x], [y]) == zero and r.prec is prec
    assert routes == {"sparse": 0, "packed": 0, "none": 3}
    assert a * a == brute_dot([a], [a])
    expected = {"sparse": 0, "packed": 0, "none": 3, route: 1}
    assert routes == expected
    for x, y in [(a, one_term), (one_term, a), (one_term, one_term)]:
        assert x * y == brute_dot([x], [y])
    expected["sparse"] += 3
    assert routes == expected


# (p, n, T, b): b = bit_length(T * (q - 1)^2), the bits a packed slot needs,
# on both sides of each machine-word width and past the widest one
SLOT_WIDTHS = [
    (2, 2, 28, 8), (2, 2, 29, 9), (2, 3, 5, 8), (2, 3, 6, 9),
    (2, 6, 16, 16), (2, 6, 17, 17), (7, 2, 28, 16), (7, 2, 29, 17),
    (2, 14, 16, 32), (2, 14, 17, 33), (101, 2, 41, 32), (101, 2, 42, 33),
    (2, 30, 16, 64), (2, 30, 17, 65), (5, 13, 12, 64), (5, 13, 13, 65),
    (10007, 3, 40, 86),
]
SLOT_IDS = [f"{b}bit-{p}^{n}-T{T}" for p, n, T, b in SLOT_WIDTHS]
# (p, n, T, h, b): b = bit_length(h * T * (q - 1)^2), the bits a slot of an
# h-term row sum needs, on both sides of each machine-word width and past
# the widest one; one product alone needs fewer bits in every case
ROW_SLOT_WIDTHS = [
    (2, 2, 9, 3, 8), (2, 2, 10, 3, 9), (2, 6, 8, 2, 16), (2, 6, 9, 2, 17),
    (2, 14, 4, 4, 32), (2, 14, 5, 4, 33), (2, 30, 8, 2, 64), (2, 30, 9, 2, 65),
    (13, 10, 40, 3, 81),
]
ROW_SLOT_IDS = [f"{b}bit-{p}^{n}-T{T}-h{h}" for p, n, T, h, b in ROW_SLOT_WIDTHS]


@pytest.mark.parametrize("p, n, T, h, bits",
                         [(p, n, T, 1, b) for p, n, T, b in SLOT_WIDTHS] + ROW_SLOT_WIDTHS,
                         ids=SLOT_IDS + ROW_SLOT_IDS)
def test_packed_slots_hold_the_largest_sums(monkeypatch, p, n, T, h, bits):
    # all-(q - 1) entries fill every slot as far as it can go: slot k of a
    # sum of h squares is h * (k + 1) * (q - 1)^2, and slot T - 1 needs all
    # b bits; one product takes the packed route of *, and h of them dot's
    # row sum, which calls no route of *
    prec = Precision(p, n, T)
    q = prec.modulus
    assert series._slot_bits(h, T, q) == bits
    top = TruncatedSeries(prec, (q - 1,) * T)
    packed = series._pack(top.coeffs, bits)
    assert series._unpack(h * packed * packed, bits, T) == [
        h * (k + 1) * (q - 1) ** 2 for k in range(T)]
    square = brute_dot([top], [top])
    routes = count_routes(monkeypatch)
    if h == 1:
        assert top * top == square
        assert routes == {"sparse": 0, "packed": 1, "none": 0}
    else:
        assert dot([top] * h, [top] * h) == square.scale(h)
        assert routes == {"sparse": 0, "packed": 0, "none": 0}


@pytest.mark.parametrize("p, n, T, bits", SLOT_WIDTHS, ids=SLOT_IDS)
def test_packed_slot_widths_match_brute_force(p, n, T, bits):
    prec = Precision(p, n, T)
    q = prec.modulus
    rng = random.Random(f"slots-{p}-{n}-{T}")
    for _ in range(4):
        a = TruncatedSeries(prec, tuple(rng.randrange(q) for _ in range(T)))
        b = TruncatedSeries(prec, tuple(rng.randrange(q - q // 4, q) for _ in range(T)))
        assert a * b == brute_dot([a], [b])
        assert b * b == brute_dot([b], [b])


def test_slot_codes_are_the_narrowest_that_hold_each_width():
    sizes = {array(c).itemsize * 8 for c in "BHILQ"}
    for b, code in enumerate(series._SLOT_CODES):
        width = array(code).itemsize * 8
        assert width >= b and not any(b <= s < width for s in sizes)
    assert len(series._SLOT_CODES) == 65


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


# -- dot -----------------------------------------------------------------------------

def dot_operand(rng, prec):
    """A zero, all-(q - 1), sparse or dense series, in seeded proportions."""
    q, T = prec.modulus, prec.T
    kind = rng.choice(["zero", "top", "sparse", "dense", "dense"])
    if kind == "zero":
        return TruncatedSeries.zero(prec)
    if kind == "top":
        return TruncatedSeries(prec, (q - 1,) * T)
    if kind == "sparse":
        return _operand(rng, prec, rng.randint(1, 3))
    return TruncatedSeries(prec, tuple(rng.randrange(q) for _ in range(T)))


DOT_PRECISIONS = [Precision(p, n, T) for p, n in [(2, 8), (3, 3), (7, 4)] for T in (11, 40, 200)]


def count_row_sums(monkeypatch) -> list:
    """The (packed xs, packed ys, bits) of each _row_sum call from here on."""
    calls = []
    row_sum = series._row_sum

    def counted(prec, xs, ys, bits):
        calls.append((xs, ys, bits))
        return row_sum(prec, xs, ys, bits)

    monkeypatch.setattr(series, "_row_sum", counted)
    return calls


@pytest.mark.parametrize("prec", DOT_PRECISIONS, ids=lambda pr: f"{pr.p}^{pr.n}-T{pr.T}")
def test_dot_matches_schoolbook_sum(monkeypatch, prec):
    # dot runs no product route of *: each call is one row sum at the slot
    # width of its h products
    routes = count_routes(monkeypatch)
    rows = count_row_sums(monkeypatch)
    rng = random.Random(f"dot-{prec.p}-{prec.n}-{prec.T}")
    top = TruncatedSeries(prec, (prec.modulus - 1,) * prec.T)
    for h in range(1, 5):
        cases = [([top] * h, [top] * h)]
        cases += [([dot_operand(rng, prec) for _ in range(h)],
                   [dot_operand(rng, prec) for _ in range(h)]) for _ in range(8)]
        for xs, ys in cases:
            want = brute_dot(xs, ys)
            before, calls = dict(routes), len(rows)
            assert dot(xs, ys) == want
            assert routes == before and len(rows) == calls + 1
            assert rows[-1][2] == series._slot_bits(h, prec.T, prec.modulus)


@pytest.mark.parametrize("prec, nnz", [case[:2] for case in ZERO_CASES], ids=ZERO_IDS)
def test_dot_drops_terms_with_a_zero_operand(monkeypatch, prec, nnz):
    # a pair with a zero operand packs to a zero integer, which the row sum
    # skips; when every pair has one, the sum is the zero series
    rng = random.Random(f"dot-zero-{prec.p}-{prec.n}-{prec.T}")
    zero, a, b = (TruncatedSeries.zero(prec), _operand(rng, prec, nnz),
                  _operand(rng, prec, nnz))
    routes = count_routes(monkeypatch)
    rows = count_row_sums(monkeypatch)
    # (xs, ys, how many terms have no zero operand)
    cases = [([a, zero, b, a], [b, a, zero, a], 2), ([zero, a], [b, a], 1),
             ([zero, a, zero], [b, zero, zero], 0), ([zero], [zero], 0)]
    for xs, ys, computed in cases:
        before = dict(routes)
        r = dot(xs, ys)
        assert routes == before
        packed_xs, packed_ys, _ = rows[-1]
        assert sum(bool(x and y) for x, y in zip(packed_xs, packed_ys)) == computed
        assert r == brute_dot(xs, ys) and r.prec is prec
        assert r.is_zero() == (computed == 0)
    assert len(rows) == len(cases)


def test_dot_refuses_mixed_precisions_and_unpaired_input():
    a, b = S(Precision(2, 2, 4), 1, 1), S(Precision(2, 2, 5), 1, 1)
    c = S(Precision(2, 3, 4), 1, 1)
    with pytest.raises(PrecisionMismatchError):
        dot([a], [b])
    with pytest.raises(PrecisionMismatchError):
        dot([a, c], [a, c])  # each pair agrees, the second not with the first
    with pytest.raises(ValueError, match="paired nonempty"):
        dot([], [])
    with pytest.raises(ValueError, match="paired nonempty"):
        dot([a, a], [a])


@given(series_triples())
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_scale_returns_canonical_residues():
    # c = -2 is 7 mod q = 9, and 7*8 and 7*5 reach past q
    scaled = S(Precision(3, 2, 4), 8, 5, 1, 0).scale(-2)
    assert scaled.coeffs == (2, 8, 7, 0)


# -- frobenius ------------------------------------------------------------------------

@pytest.mark.parametrize("p, n, T", [(2, 2, 5), (3, 2, 7), (2, 2, 1), (3, 1, 1), (5, 1, 7),
                                     (2, 2, 6), (3, 2, 9)])
def test_frobenius_matches_a_plain_loop(p, n, T):
    # p does not divide T in the first five: the image has ceil(T/p) slots,
    # and the last one is a partial block
    prec = Precision(p, n, T)
    q = prec.modulus
    rng = random.Random(f"twist-{p}-{n}-{T}")
    inputs = [TruncatedSeries.from_coeffs(prec, [1 + i % (q - 1) for i in range(T)])]
    inputs += [TruncatedSeries.from_coeffs(prec, [rng.randrange(q) for _ in range(T)])
               for _ in range(20)]
    for a in inputs:
        assert list(frobenius(a).coeffs) == reference.twist(p, T, a.coeffs)


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
    assert content(S(prec, 0, 2, 4)) == 1
    assert content(TruncatedSeries.zero(prec)) is None
    assert content(S(prec, 0, 2)) == 1  # the non-p-power part of u^2+2u+2


@given(series_pairs())
def test_content_superadditive(pair):
    a, b = pair
    ca, cb = content(a), content(b)
    cab = content(a * b)
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
    ca, cb = content(a), content(b)
    if ca is None or cb is None:
        return
    if ca + cb < a.prec.n:
        assert content(a * b) == ca + cb


# -- ideal membership ----------------------------------------------------------------------

def test_in_ideal_examples():
    # membership is in (u^t, p^n) at the working n
    assert S(Precision(2, 2, 6), 0, 4, 0, 1).in_ideal(2)  # u^3 + 4u in (u^2, p^2)
    assert not S(Precision(2, 3, 6), 0, 4, 0, 1).in_ideal(2)  # but not in (u^2, p^3)
    assert not S(Precision(2, 1, 6), 0, 1).in_ideal(2)  # u not in (u^2, p)
    prec = Precision(2, 2, 6)
    prod = S(prec, -2, 0, 1) * S(prec, 2, 0, 1)
    assert prod.in_ideal(4)  # u^4 - 4 lands in (u^4, p^2)


def test_in_ideal_errors():
    prec = Precision(2, 2, 3)
    with pytest.raises(PrecisionError):
        S(prec, 1).in_ideal(4)
    # a negative exponent is refused: coeffs[:-3] would read a wrong prefix
    with pytest.raises(ValueError, match="must be >= 0"):
        S(Precision(2, 2, 4), 0, 1).in_ideal(-3)


def test_shift_down_examples_and_errors():
    prec = Precision(2, 2, 4)
    u3 = TruncatedSeries.monomial(prec, 3)
    assert u3.shift_down(2) == TruncatedSeries.monomial(prec, 1)
    assert u3.shift_down(3) == TruncatedSeries.one(prec)
    assert u3.shift_down(0) is u3
    with pytest.raises(ValueError, match="not divisible"):
        u3.shift_down(4)
    # unrefused, shift_down(-1) returns one coefficient at T = 4, and a
    # shift past T returns k coefficients, even on the zero series
    with pytest.raises(ValueError, match="must be >= 0"):
        u3.shift_down(-1)
    assert TruncatedSeries.zero(prec).shift_down(4) == TruncatedSeries.zero(prec)
    with pytest.raises(PrecisionError):
        TruncatedSeries.zero(prec).shift_down(6)


@given(
    precisions().flatmap(lambda pr: series_for(pr)),
    st.data(),
)
def test_in_ideal_monotone(a, data):
    t = data.draw(st.integers(0, a.prec.T))
    if a.in_ideal(t):
        assert a.in_ideal(data.draw(st.integers(0, t)))


@given(precisions().flatmap(lambda pr: series_for(pr)))
def test_in_ideal_agrees_with_ord_u(a):
    # ord_u scans for the lowest nonzero coefficient on its own
    order = a.ord_u()
    for t in range(a.prec.T + 1):
        assert a.in_ideal(t) == (order is None or order >= t)


# -- ring results skip the public check ---------------------------------------------------

def _rechecked(r):
    """r rebuilt through the public constructor, which checks its coefficients."""
    return TruncatedSeries(r.prec, r.coeffs)


@given(st.data())
def test_ring_results_pass_the_public_check(data):
    prec = data.draw(precisions())
    p, q, T = prec.p, prec.modulus, prec.T
    a, b = data.draw(series_for(prec)), data.draw(series_for(prec))
    pairs = data.draw(st.integers(1, 3))
    xs = [data.draw(series_for(prec)) for _ in range(pairs)]
    ys = [data.draw(series_for(prec)) for _ in range(pairs)]
    raw = data.draw(st.lists(st.integers(-3 * q, 3 * q), max_size=2 * T))
    c = data.draw(st.integers(-3 * q, 3 * q))
    k = data.draw(st.integers(0, T))
    unit = TruncatedSeries.from_coeffs(prec, (1 + p * a.coeffs[0],) + a.coeffs[1:])
    results = {
        "from_coeffs": TruncatedSeries.from_coeffs(prec, raw),
        "add": a + b,
        "neg": -a,
        "sub": a - b,
        "mul": a * b,
        "scale": a.scale(c),
        "shift_down": (a * TruncatedSeries.monomial(prec, k)).shift_down(k),
        "frobenius": frobenius(a),
        "dot": dot(xs, ys),
        "invert_unit": invert_unit(unit),
    }
    for name, r in results.items():
        assert _rechecked(r) == r, name


@pytest.mark.parametrize("coeffs", [[-1, -5, 3], [4, 9, 17, 2, 100], [3], [], list(range(-9, 9))],
                         ids=["negative", "unreduced", "short", "empty", "long"])
def test_from_coeffs_is_canonical_on_any_integers(coeffs):
    prec = Precision(2, 2, 5)
    r = TruncatedSeries.from_coeffs(prec, coeffs)
    assert _rechecked(r) == r
    padded = (coeffs + [0] * prec.T)[:prec.T]
    assert r.coeffs == tuple(c % prec.modulus for c in padded)


def test_ring_results_never_run_the_public_check(monkeypatch):
    # a depth scan and an apply_phi build only ring results, which skip the
    # constructor's check; a count, not a time, so it holds on any machine
    counts = {"checked": 0, "built": 0}
    check, build = TruncatedSeries.__post_init__, series._series

    def checked(self):
        counts["checked"] += 1
        check(self)

    def built(prec, coeffs):
        counts["built"] += 1
        return build(prec, coeffs)

    eis = EisensteinPolynomial(2, (2, 2, 0, 0))  # u^4 + 2u + 2
    prec = Precision(2, 2, 24)
    M = breuil.build_bt_module(prec, eis, d=1, h=2, seed=3)
    x = breuil.FractionalElement(pole=2, alphas=(S(prec, 1, 1), S(prec, 0, 3)))
    cfg = oracle.default_config(eis, 2)
    zero = TruncatedSeries.zero(prec)
    monkeypatch.setattr(TruncatedSeries, "__post_init__", checked)
    monkeypatch.setattr(series, "_series", built)
    TruncatedSeries.one(prec)
    assert counts == {"checked": 1, "built": 0}  # the counters see each route
    result = oracle.prop2_max_t(cfg)
    scanned = counts["built"]
    image = breuil.apply_phi(M, x)
    assert counts["checked"] == 1 and 0 < scanned < counts["built"]
    # a zero operand's product is a ring result too
    before = counts["built"]
    assert x.alphas[0] * zero == zero == dot([zero, x.alphas[1]], [x.alphas[0], zero])
    assert counts == {"checked": 1, "built": before + 2}
    assert (result.t_star, len(result.witnesses), image.pole) == (5, 64, 4)
    assert all(result.assertions.values())


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


def _assert_prep_matches_reference(a):
    prec = a.prec
    if a.is_zero():
        with pytest.raises(ValueError, match="cannot prepare the zero series"):
            weierstrass_prep(a)
        return
    w = weierstrass_prep(a)
    assert (w.content, w.degree, list(w.wpoly.coeffs), list(w.unit.coeffs)) == \
        reference.weierstrass_prep(prec.p, prec.n, a.coeffs)


@st.composite
def prep_inputs(draw):
    """Series of a chosen shape p^c * (p-divisible below u^d, a unit digit at
    u^d, anything above), or with every coefficient divisible by p, or zero."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n, T = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    prec = Precision(p, n, T)
    q = prec.modulus
    kind = draw(st.sampled_from(("shaped", "divisible", "zero")))
    if kind == "zero":
        return TruncatedSeries.zero(prec)
    if kind == "divisible":
        cs = draw(st.lists(st.integers(0, q // p - 1), min_size=T, max_size=T))
        return TruncatedSeries.from_coeffs(prec, [p * x for x in cs])
    c, d = draw(st.integers(0, n - 1)), draw(st.integers(0, T - 1))
    rest = draw(st.lists(st.integers(0, q - 1), min_size=T, max_size=T))
    lead = draw(st.integers(1, p - 1))
    cs = [p * x if i < d else x * p + lead if i == d else x for i, x in enumerate(rest)]
    return TruncatedSeries.from_coeffs(prec, [p**c * x for x in cs])


@settings(max_examples=300)
@given(prep_inputs())
def test_weierstrass_prep_matches_the_reference(a):
    _assert_prep_matches_reference(a)


@pytest.mark.parametrize("prec, coeffs", [
    (Precision(3, 4, 6), (1, 5, 0, 2, 80, 7)),     # d = 0
    (Precision(2, 5, 8), (0, 0, 16, 16, 0, 0, 0, 16)),  # c = n - 1, d = 2
    (Precision(5, 3, 3), (10, 5, 1)),              # T = d + 1
    (Precision(7, 3, 2), (49, 7)),                 # T = d + 1 at content 1
    (Precision(2, 3, 1), (6,)),                    # T = 1
    (Precision(2, 6, 5), (4, 8, 12, 60, 2)),       # every coefficient divisible by p
    (Precision(3, 2, 4), (0, 0, 0, 0)),            # zero raises alike
], ids=["d-zero", "content-n-minus-1", "T-is-d-plus-1", "T-is-d-plus-1-content",
        "T-one", "all-divisible-by-p", "zero"])
def test_weierstrass_prep_reference_corners(prec, coeffs):
    _assert_prep_matches_reference(TruncatedSeries.from_coeffs(prec, coeffs))


def test_weierstrass_degree_is_the_u_order_of_the_stripped_reduction():
    # degree is the u-order of (a / p^c) mod p, c the least valuation of a
    # coefficient: the first coefficient not divisible by p^(c+1)
    rng = random.Random("prep-degree")
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7))
        prec = Precision(p, rng.randint(1, 5), rng.randint(1, 30))
        q = prec.modulus
        cs = [rng.randrange(q) if rng.random() < 0.4 else 0 for _ in range(prec.T)]
        cs = [x * p ** rng.randint(0, 2) for x in cs]
        a = TruncatedSeries.from_coeffs(prec, cs)
        if a.is_zero():
            continue
        c = min(int_valuation(x, p) for x in a.coeffs if x)
        d = next(i for i, x in enumerate(a.coeffs) if x % p ** (c + 1))
        w = weierstrass_prep(a)
        assert (w.content, w.degree) == (c, d)


def test_weierstrass_prep_matches_reference_at_real_size():
    prec = Precision(2, 8, 200)
    q, rng = prec.modulus, random.Random("prep-reference-2-8-200")
    for k in range(6):
        d, c = (2, 0) if k < 3 else (rng.randrange(8), rng.randrange(4))
        cs = [rng.randrange(q) for _ in range(prec.T)]
        cs[:d] = [2 * x % q for x in cs[:d]]
        cs[d] |= 1
        _assert_prep_matches_reference(
            TruncatedSeries.from_coeffs(prec, [2**c * x for x in cs]))


@pytest.mark.parametrize("call, message", [
    (lambda: TruncatedSeries(Precision(2, 1, 3), (0, 0)), "expected 3 coefficients, got 2"),
    (lambda: TruncatedSeries(Precision(2, 1, 3), (0, 0, 2)),
     "coefficients must be canonical residues in [0, 2)"),
    (lambda: TruncatedSeries.monomial(Precision(2, 1, 3), -1), "monomial exponent must be >= 0"),
], ids=["length", "residue-range", "negative-monomial"])
def test_refusals_raise_their_documented_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message
