"""Exact arithmetic in the truncated ring (Z/p^n)[u]/(u^T).

A series is represented by a tuple of exactly T coefficients, each a
canonical residue in [0, p^n).  The tuple [c_0, c_1, ..., c_{T-1}]
corresponds to c_0 + c_1*u + ... + c_{T-1}*u^{T-1}; degrees >= T are
discarded by every operation.  The Frobenius map sends u to u^p and
fixes coefficients (residue field F_p, so the coefficient ring is Z/p^n
with trivial Frobenius).

Every value carries its precision (p, n, T) and binary operations
refuse to mix precisions: Frobenius multiplies u-degrees by p, so a
silently coerced truncation level is the dominant bug class here.
The public constructor TruncatedSeries(prec, coeffs) checks that it gets
T canonical residues.  A ring result (from_coeffs, +, -, *, scale,
shift_down, frobenius, dot, invert_unit) reduces every coefficient mod p^n
and keeps T of them by construction, so it is built by _series, which
skips that check; in a depth scan the check cost as much as the products.
Every ring result carries the Precision object of its inputs, so the
operands of one computation share it and pass the precision check of +, -,
* and dot by two identity tests; an equal Precision built apart is compared
by value (_require_prec).
Membership is asked only in (u^t, p^n) at the working n, so it reads the
first t coefficients as 0.  Next to BudgetExceededError sits the one size
rule every refusal shares, and the one place that raises it: a count is
compared with its budget without the power once its bit length settles it,
and printed into the caller's message, in decimal up to 256 bits.

A product costs what its operands need.  With nnz(x) = T - (zeros of x),
a pair with a zero operand costs no product: _mul_raw returns no terms, and
* builds the zero series directly.  A pair with nnz(a) * nnz(b) <=
_SPARSE_K * T is multiplied over its nonzero (index, coefficient) pairs
only.  Any denser pair is Kronecker-packed
(Harvey, J. Symbolic Comput. 2009): each operand becomes one integer whose
slots hold its coefficients, the two integers are multiplied once, and the
low T slots are read back and reduced mod q.  Slot k of the product is the
convolution sum over i + j = k of at most T terms, each at most (q-1)^2, so
it needs b = bit_length(T * (q-1)^2) bits: a slot of b bits or more never
carries into the next, and every slot read back is exact.  When b <= 64 a
slot is one item of the narrowest array typecode that holds b bits: each
operand is packed by one array(code, coeffs), read as an integer in the
host's byte order, and the product is written back in that order over
2T - 1 slots and read by one array() and tolist().  (On a big-endian host
both integers hold their slots in reverse, so the product does too, and
its first item is still c_0.)  Wider slots, which module files reach with
large p, are ceil(b / 8) bytes, packed and read one coefficient at a time.
_pack and _unpack are the one packing implementation, for * and row sums.
A row sum adds h packed products as integers: slot k of the sum holds at
most h * T terms, so its slots take b = bit_length(h * T * (q-1)^2) bits,
and the sum is unpacked and reduced mod q once per row.  dot(xs, ys) is
one row sum over its operands, each packed once, and skips the pairs with a
zero operand, so a sum of h products builds one series.  Breuil modules
pack phi once and take each coordinate of an image by one row sum.
"""

from __future__ import annotations

import sys
from array import array
from argparse import ArgumentTypeError
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import mul, sub


class PrecisionMismatchError(ValueError):
    """Two operands carry different (p, n, T) precisions."""


class PrecisionError(ValueError):
    """The working precision is too small to decide the question asked."""


class BudgetExceededError(RuntimeError):
    """The candidate space exceeds the configured evaluation budget."""


# Sizes of at most this many bits are computed and printed in decimal.
_EXACT_BITS = 256


def _oversize(p: int, k: int, size, text: str, budget: int, refusal: str) -> int:
    """The count size() when it is within the budget; otherwise raise
    BudgetExceededError with the count in place of {} in `refusal`.

    The count is at least p^k / 4 >= 2^(k*(bitlen(p) - 1) - 2); once that
    bound settles the comparison and the count is too long for decimal, it
    is printed as `text` without calling size()."""
    if k * (p.bit_length() - 1) - 2 <= max(budget.bit_length(), _EXACT_BITS):
        count = size()
        if count <= budget:
            return count
        if count.bit_length() <= _EXACT_BITS:
            text = str(count)
    raise BudgetExceededError(refusal.format(text))


class DecimalError(ValueError, ArgumentTypeError):
    """Text decimal() refuses; argparse prints an ArgumentTypeError's text."""


# D, the most digits decimal() reads, so that a product of two still prints
_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
DIGIT_CAP = _INT_LIMIT // 2 - 1 if _INT_LIMIT else float("inf")  # no limit, no cap


def decimal(text: str) -> int:
    """ASCII `-?[0-9]+` of at most DIGIT_CAP digits."""
    digits = text[text.startswith("-"):]
    if not (digits.isascii() and digits.isdigit()):
        raise DecimalError(f"{text!r} is not an integer")
    if len(digits) > DIGIT_CAP:
        raise DecimalError(f"a {len(digits)}-digit number is too long to read")
    return int(text)


# Miller-Rabin on the first 13 prime bases is exact below _PRIME_LIMIT
# (Sorenson & Webster, Math. Comp. 2017); larger p are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic primality test: Miller-Rabin on fixed bases.

    Raises ValueError for p >= 3317044064679887385961981, where those bases
    no longer certify the answer."""
    if p >= _PRIME_LIMIT:
        raise ValueError(f"p = {p} is too large: primality is certified only "
                         f"below {_PRIME_LIMIT}")
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """The one refusal of a p that is_prime does not accept."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def int_valuation(x: int, p: int) -> int | None:
    """p-adic valuation of an exact integer; None for x == 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def poly_text(coeffs) -> str:
    """Render ascending coefficients as polynomial text; the CLI parser
    reads it back."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if terms else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "u" if mag == 1 else f"{mag}*u"
        else:
            body = f"u^{i}" if mag == 1 else f"{mag}*u^{i}"
        terms.append(sign + body)
    return "".join(terms) if terms else "0"


@dataclass(frozen=True)
class Precision:
    """Working precision: prime p, p-adic precision n, u-adic precision T."""

    p: int
    n: int
    T: int

    def __post_init__(self):
        require_prime(self.p)
        if self.n < 1:
            raise ValueError(f"p-adic precision n = {self.n} must be >= 1")
        if self.T < 1:
            raise ValueError(f"u-adic precision T = {self.T} must be >= 1")

    @cached_property
    def modulus(self) -> int:
        return self.p**self.n


@dataclass(frozen=True, slots=True)
class TruncatedSeries:
    """An element of (Z/p^n)[u]/(u^T) with canonical residue coefficients."""

    prec: Precision
    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = self.coeffs
        if len(cs) != self.prec.T:
            raise ValueError(f"expected {self.prec.T} coefficients, got {len(cs)}")
        q = self.prec.modulus
        if min(cs) < 0 or max(cs) >= q:
            raise ValueError(f"coefficients must be canonical residues in [0, {q})")

    # -- constructors --------------------------------------------------

    @classmethod
    def from_coeffs(cls, prec: Precision, coeffs) -> "TruncatedSeries":
        """Build a series from any integer coefficients (reduced, padded, truncated)."""
        q, T = prec.modulus, prec.T
        cs = [c % q for c in coeffs[:T]]
        cs += [0] * (T - len(cs))
        return _series(prec, tuple(cs))

    @classmethod
    def zero(cls, prec: Precision) -> "TruncatedSeries":
        return cls(prec, (0,) * prec.T)

    @classmethod
    def one(cls, prec: Precision) -> "TruncatedSeries":
        return cls.monomial(prec, 0)

    @classmethod
    def monomial(cls, prec: Precision, k: int) -> "TruncatedSeries":
        """The series u^k (zero if k >= T)."""
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        cs = [0] * prec.T
        if k < prec.T:
            cs[k] = 1
        return cls(prec, tuple(cs))

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        prec = self.prec
        if other.__class__ is not TruncatedSeries or other.prec is not prec:
            _require_prec(prec, other)
        q = prec.modulus
        return _series(prec, tuple([(a + b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __neg__(self) -> "TruncatedSeries":
        q = self.prec.modulus
        return _series(self.prec, tuple([-a % q for a in self.coeffs]))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        prec = self.prec
        if other.__class__ is not TruncatedSeries or other.prec is not prec:
            _require_prec(prec, other)
        q = prec.modulus
        return _series(prec, tuple([(a - b) % q for a, b in zip(self.coeffs, other.coeffs)]))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        prec = self.prec
        if other.__class__ is not TruncatedSeries or other.prec is not prec:
            _require_prec(prec, other)
        q = prec.modulus
        out = _mul_raw(self.coeffs, other.coeffs, prec.T, q)
        return _series(prec, tuple([c % q for c in out]) if out else (0,) * prec.T)

    def scale(self, c: int) -> "TruncatedSeries":
        """Multiply by an integer scalar."""
        q = self.prec.modulus
        c %= q
        return _series(self.prec, tuple([c * a % q for a in self.coeffs]))

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Exact division by u^k; the k lowest coefficients must vanish.
        Raises ValueError for k < 0 and PrecisionError for k > T."""
        if not 0 <= k <= self.prec.T:
            if k < 0:
                raise ValueError(f"shift exponent must be >= 0, got {k}")
            raise PrecisionError(f"cannot divide by u^{k} at u-precision T = {self.prec.T}")
        if k == 0:
            return self
        if any(self.coeffs[:k]):
            raise ValueError(f"series is not divisible by u^{k}")
        return _series(self.prec, self.coeffs[k:] + (0,) * k)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def ord_u(self) -> int | None:
        """Index of the lowest nonzero coefficient; None when a = 0 (>= T)."""
        i = 0  # a counter costs less than enumerate at the T of a depth scan
        for c in self.coeffs:
            if c:
                return i
            i += 1
        return None

    def degree(self) -> int | None:
        """Index of the highest nonzero coefficient; None when a = 0."""
        for i in range(self.prec.T - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None

    def in_ideal(self, t: int) -> bool:
        """Membership in the ideal (u^t, p^n) at the working n: the
        coefficients are canonical residues mod p^n, so those of u^i, i < t,
        must be 0.  Raises ValueError for t < 0."""
        if not 0 <= t <= self.prec.T:
            if t < 0:
                raise ValueError(f"ideal exponent must be >= 0, got {t}")
            raise PrecisionError(f"cannot test (u^{t}, ...) at u-precision T = {self.prec.T}")
        return not any(self.coeffs[:t])

    def __str__(self) -> str:
        return poly_text(self.coeffs)


def _require_prec(prec: Precision, x) -> None:
    """The precision check of +, -, *, dot and breuil.apply_phi: x must be a
    TruncatedSeries (else TypeError) whose precision equals prec in value
    (else PrecisionMismatchError), so an equal but distinct Precision passes.

    Those operations first test `x.__class__ is TruncatedSeries and x.prec
    is prec` (apply_phi, whose coordinates are twisted into series, only
    the second half), which holds for operands sharing one Precision
    object, and call this only for an operand that fails it."""
    if not isinstance(x, TruncatedSeries):
        raise TypeError(f"expected TruncatedSeries, got {type(x).__name__}")
    if x.prec != prec:
        raise PrecisionMismatchError(f"precision mismatch: {prec} vs {x.prec}")


_new = object.__new__
_set_prec = TruncatedSeries.prec.__set__
_set_coeffs = TruncatedSeries.coeffs.__set__


def _series(prec: Precision, coeffs: tuple[int, ...]) -> TruncatedSeries:
    """The series of T canonical residues mod p^n that a ring operation built.

    Such a result passes the public constructor's check by construction, so
    it is built without __init__ and that check: the two slots are set
    directly on a bare instance.  In a depth scan at T <= 9 each ring call
    costs more in this wrapping than in arithmetic, so the callers build the
    coefficient tuple from a list, never from a generator."""
    s = _new(TruncatedSeries)
    _set_prec(s, prec)
    _set_coeffs(s, coeffs)
    return s


# Products with nnz(a) * nnz(b) <= _SPARSE_K * T take the sparse route.
# Timed per product on the same inputs (CHANGES.md), sparse / packed in us:
# at nnz(a) * nnz(b) = 2T the sparse route wins or ties at small T (0.92 / 1.08
# at T = 5, 1.15 / 1.16 at T = 9), and at 3T the packed route wins at every T
# (1.19 / 1.05 at T = 5, 1.76 / 1.17 at T = 9, 5.34 / 2.48 at T = 40,
# 29.7 / 13.2 at T = 200).
_SPARSE_K = 2

# _SLOT_CODES[b] is the narrowest array typecode whose items hold b bits,
# for b <= 64; a wider slot takes the bytes route.
_SLOT_CODES = tuple(min((array(c).itemsize * 8, c) for c in "BHILQ"
                        if array(c).itemsize * 8 >= b)[1] for b in range(65))


def _mul_raw(a, b, T, q):
    """Unreduced truncated convolution of residue tuples a and b, by the
    sparse route when nnz(a) * nnz(b) <= _SPARSE_K * T and packed otherwise.
    When a or b is all zero no route runs: the result is [], no terms, which
    the callers read as the zero series."""
    za, zb = a.count(0), b.count(0)
    if za == T or zb == T:
        return []
    if (T - za) * (T - zb) <= _SPARSE_K * T:
        return _mul_sparse(a, b, T) if za <= zb else _mul_sparse(b, a, T)
    return _mul_packed(a, b, T, q)


def _mul_sparse(a, b, T):
    """Unreduced truncated convolution over the nonzero pairs of a and b.

    Only b, the operand with more zeros, is listed as (index, coefficient)
    pairs; a is scanned in place."""
    out = [0] * T
    bs = list(compress(enumerate(b), b))
    for i, x in compress(enumerate(a), a):
        for j, y in bs:
            if i + j >= T:
                break
            out[i + j] += x * y
    return out


def _mul_packed(a, b, T, q):
    """Unreduced truncated convolution by Kronecker packing: one _pack per
    operand at bits = bit_length(T * (q-1)^2), one product, one _unpack."""
    bits = _slot_bits(1, T, q)
    return _unpack(_pack(a, bits) * _pack(b, bits), bits, T)


def _slot_bits(h, T, q):
    """Bits a slot needs to hold a sum of h packed products of T residues
    mod q: each of its at most h * T terms is at most (q-1)^2."""
    return (h * T * (q - 1) ** 2).bit_length()


def _pack(cs, bits):
    """The residues cs as one integer of slots that hold `bits` bits: one
    item of _SLOT_CODES[bits] each, in the host's byte order, when bits <=
    64, else ceil(bits / 8) little-endian bytes each."""
    if bits < len(_SLOT_CODES):
        return int.from_bytes(array(_SLOT_CODES[bits], cs), sys.byteorder)
    w = (bits + 7) // 8
    return int.from_bytes(b"".join(map(int.to_bytes, cs, repeat(w), repeat("little"))), "little")


def _unpack(x, bits, T):
    """The low T slots of x, a sum of products of two T-slot _pack(_, bits)
    integers: x has at most 2T - 1 slots, written out in the order _pack
    reads, of which the first T are kept."""
    if bits < len(_SLOT_CODES):
        out = array(_SLOT_CODES[bits])
        out.frombytes(x.to_bytes((2 * T - 1) * out.itemsize, sys.byteorder))
        del out[T:]
        return out.tolist()
    w = (bits + 7) // 8
    raw = x.to_bytes((2 * T - 1) * w, "little")
    return [int.from_bytes(raw[k:k + w], "little") for k in range(0, T * w, w)]


def _row_sum(prec, xs, ys, bits):
    """sum_i xs[i] * ys[i] as a series, for xs and ys packed by _pack(_,
    bits) with bits >= _slot_bits(len(xs), T, q): a pair with a zero operand
    adds no product, the others are added as integers, and the sum is
    unpacked and reduced mod p^n once."""
    acc = 0
    for a, b in zip(xs, ys):
        if a and b:
            acc += a * b
    if not acc:
        return _series(prec, (0,) * prec.T)
    q = prec.modulus
    return _series(prec, tuple([c % q for c in _unpack(acc, bits, prec.T)]))


def frobenius(a: TruncatedSeries) -> TruncatedSeries:
    """Frobenius twist: sum a_i u^i  ->  sum a_i u^(p*i), truncated at the input T.

    Coefficients are fixed.  Only a_i with i < ceil(T/p) reach the image, so
    callers wanting an untruncated image allocate T for the twisted degree.
    Positions 0, p, 2p, ... below T are exactly ceil(T/p) slots, so the
    image is written by one strided slice assignment."""
    prec = a.prec
    p, T = prec.p, prec.T
    cs = [0] * T
    cs[::p] = a.coeffs[:-(-T // p)]
    return _series(prec, tuple(cs))


def dot(xs, ys) -> TruncatedSeries:
    """sum_i xs[i] * ys[i] over paired series of one precision, as one row
    sum (_row_sum): each operand is packed once at the slot width of h
    products, and the products are added as integers and reduced mod p^n
    once.  Raises PrecisionMismatchError on mixed precisions, TypeError on
    an operand that is not a series, and ValueError on an empty or unpaired
    input.  Each pair takes the operators' identity test first, and every
    pair is checked before any is packed."""
    if not xs or len(xs) != len(ys):
        raise ValueError(f"dot needs paired nonempty inputs, got {len(xs)} and {len(ys)}")
    if not isinstance(xs[0], TruncatedSeries):
        raise TypeError(f"expected TruncatedSeries, got {type(xs[0]).__name__}")
    prec = xs[0].prec
    for x, y in zip(xs, ys):
        if not (x.__class__ is y.__class__ is TruncatedSeries and x.prec is prec and y.prec is prec):
            _require_prec(prec, x)
            _require_prec(prec, y)
    bits = _slot_bits(len(xs), prec.T, prec.modulus)
    return _row_sum(prec, [_pack(x.coeffs, bits) for x in xs],
                    [_pack(y.coeffs, bits) for y in ys], bits)


def invert_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a unit (constant coefficient coprime to p) in (Z/p^n)[u]/(u^T)."""
    q = a.prec.modulus
    c0 = a.coeffs[0]
    if c0 % a.prec.p == 0:
        raise ValueError("not a unit: constant coefficient divisible by p")
    inv0 = pow(c0, -1, q)
    out = [0] * a.prec.T
    out[0] = inv0
    cs = a.coeffs
    for k in range(1, a.prec.T):
        out[k] = (-inv0 * sum(map(mul, cs[k:0:-1], out))) % q
    return _series(a.prec, tuple(out))


@dataclass(frozen=True)
class WeierstrassFactorization:
    """a = p^content * unit * wpoly in (Z/p^n)[u]/(u^T), with wpoly monic of
    degree `degree`, its lower coefficients divisible by p, and unit a unit."""

    content: int
    wpoly: TruncatedSeries
    unit: TruncatedSeries

    @property
    def degree(self) -> int:
        return self.wpoly.degree()


def weierstrass_prep(a: TruncatedSeries) -> WeierstrassFactorization:
    """Factor a as p^c * U * W with W a Weierstrass polynomial and U a unit.

    b = a / p^c is refined digit by digit up the p-adic filtration; Newton
    iteration is deliberately avoided.  Mod p, d is the u-order of b, and
    U = v = (b / u^d) mod p, W = u^d.  Each of the n - c - 1 digit steps
    works on raw residue lists and reads only what it uses:
      - err = b - U*W, as one shifted row of U per nonzero coefficient of W
        (at most d + 1 rows of T); the step's digit is err / p^(k+1) mod p;
      - w_low, the d low coefficients of v^-1 * digit, by a d x d triangular
        convolution with v^-1 mod (p, u^d), which invert_unit computes once
        at Precision(p, 1, d);
      - u_digit = (digit - v*w_low) / u^d, as d shifted rows of v;
    and W, U gain p^(k+1) * w_low and p^(k+1) * u_digit.  Every coefficient
    stays below p^(n-c) <= p^n, so no reduction mod p^n is needed, and the
    two series are built once, at the end.  The digit steps cost O(n*d*T), and
    the inverse O(d^2)."""
    prec = a.prec
    if a.is_zero():
        raise ValueError("cannot prepare the zero series")
    p, T = prec.p, prec.T
    c = min(int_valuation(x, p) for x in a.coeffs if x)
    pc = p**c
    b = [x // pc for x in a.coeffs]
    d = next(i for i, x in enumerate(b) if x % p)  # exists: c is the least valuation

    v = [x % p for x in b[d:]]  # (b / u^d) mod p, less its top d coefficients (zero)
    v_inv = invert_unit(TruncatedSeries.from_coeffs(Precision(p, 1, d), v)).coeffs if d else ()
    unit = v + [0] * d
    w = [0] * d + [1]

    for k in range(prec.n - c - 1):
        pk = p ** (k + 1)
        err = b[:d] + list(map(sub, b[d:], unit))  # the row of the leading u^d
        for j in range(d):
            if w[j]:
                err[j:] = map(sub, err[j:], map(w[j].__mul__, unit))
        digit = [x // pk % p for x in err]
        if not any(digit):
            continue
        # solve u_digit*u^d + v*w_low = digit mod p, deg(w_low) < d
        w_low = [sum(map(mul, v_inv[i::-1], digit)) % p for i in range(d)]
        r = digit  # becomes digit - v*w_low in place
        for j, x in enumerate(w_low):
            if x:
                r[j:j + T - d] = map(sub, r[j:j + T - d], map(x.__mul__, v))
        unit[: T - d] = [u + x % p * pk for u, x in zip(unit, r[d:])]
        w[:d] = [y + x * pk for y, x in zip(w, w_low)]

    wpoly = TruncatedSeries(prec, tuple(w) + (0,) * (T - d - 1))
    return WeierstrassFactorization(content=c, wpoly=wpoly,
                                    unit=TruncatedSeries(prec, tuple(unit)))
