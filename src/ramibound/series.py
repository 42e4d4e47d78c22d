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
Membership is asked only in (u^t, p^n) at the working n, so it reads the
first t coefficients as 0.  Next to BudgetExceededError sits the one size
rule every refusal shares, and the one place that raises it: a count is
compared with its budget without the power once its bit length settles it,
and printed into the caller's message, in decimal up to 256 bits.

A product costs what its operands need.  With nnz(x) = T - (zeros of x),
a pair with nnz(a) * nnz(b) <= _SPARSE_K * T is multiplied over its nonzero
(index, coefficient) pairs only.  Any denser pair is Kronecker-packed
(Harvey, J. Symbolic Comput. 2009): each operand becomes one integer whose
w-byte slots hold its coefficients, w = ceil(bit_length(T * (q-1)^2) / 8),
the two integers are multiplied once, and the low T slots are read back and
reduced mod q.  Slot k of the product is the convolution sum over i + j = k
of at most T terms, each at most (q-1)^2, so it is below 2^(8w): no slot
carries into the next, and every slot read back is exact.  dot(xs, ys)
takes the same route per pair, adds the unreduced products up as integers
and reduces mod q once, so a sum of h products builds one series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import add, mul, sub


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
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
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
        q = prec.modulus
        cs = [c % q for c in coeffs[: prec.T]]
        cs.extend(0 for _ in range(prec.T - len(cs)))
        return cls(prec, tuple(cs))

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

    def _require_same_prec(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.prec != other.prec:
            raise PrecisionMismatchError(
                f"precision mismatch: {self.prec} vs {other.prec}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_prec(other)
        q = self.prec.modulus
        return TruncatedSeries(
            self.prec, tuple((a + b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "TruncatedSeries":
        q = self.prec.modulus
        return TruncatedSeries(self.prec, tuple((-a) % q for a in self.coeffs))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_prec(other)
        q = self.prec.modulus
        return TruncatedSeries(
            self.prec, tuple((a - b) % q for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._require_same_prec(other)
        q = self.prec.modulus
        out = _mul_raw(self.coeffs, other.coeffs, self.prec.T, q)
        return TruncatedSeries(self.prec, tuple([c % q for c in out]))

    def scale(self, c: int) -> "TruncatedSeries":
        """Multiply by an integer scalar."""
        q = self.prec.modulus
        c %= q
        return TruncatedSeries(self.prec, tuple((c * a) % q for a in self.coeffs))

    def shift_down(self, k: int) -> "TruncatedSeries":
        """Exact division by u^k; the k lowest coefficients must vanish."""
        if k == 0:
            return self
        if any(self.coeffs[:k]):
            raise ValueError(f"series is not divisible by u^{k}")
        return TruncatedSeries(self.prec, self.coeffs[k:] + (0,) * k)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def ord_u(self) -> int | None:
        """Index of the lowest nonzero coefficient; None when a = 0 (>= T)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def degree(self) -> int | None:
        """Index of the highest nonzero coefficient; None when a = 0."""
        for i in range(self.prec.T - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None

    def content_p(self) -> int | None:
        """Minimal p-adic valuation over the coefficients; None when a = 0 (>= n)."""
        p = self.prec.p
        best = None
        for c in self.coeffs:
            if c == 0:
                continue
            v = int_valuation(c, p)
            if best is None or v < best:
                best = v
                if best == 0:
                    break
        return best

    def in_ideal(self, t: int) -> bool:
        """Membership in the ideal (u^t, p^n) at the working n: the
        coefficients are canonical residues mod p^n, so those of u^i, i < t,
        must be 0."""
        if t > self.prec.T:
            raise PrecisionError(f"cannot test (u^{t}, ...) at u-precision T = {self.prec.T}")
        return not any(self.coeffs[:t])

    def __str__(self) -> str:
        return poly_text(self.coeffs)


# Products with nnz(a) * nnz(b) <= _SPARSE_K * T take the sparse route.
# Timed on the same inputs at T = 11, 40 and 200, the sparse route is still
# as fast at a ratio of 8 and loses from about 10 on (CHANGES.md).
_SPARSE_K = 8


def _mul_raw(a, b, T, q):
    """Unreduced truncated convolution of residue tuples a and b, by the
    sparse route when nnz(a) * nnz(b) <= _SPARSE_K * T and packed otherwise."""
    za, zb = a.count(0), b.count(0)
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
    """Unreduced truncated convolution by Kronecker packing into w-byte slots."""
    w = ((T * (q - 1) ** 2).bit_length() + 7) // 8
    order = repeat("little")
    x = int.from_bytes(b"".join(map(int.to_bytes, a, repeat(w), order)), "little")
    y = int.from_bytes(b"".join(map(int.to_bytes, b, repeat(w), order)), "little")
    raw = (x * y).to_bytes(2 * T * w, "little")
    return [int.from_bytes(raw[k:k + w], "little") for k in range(0, T * w, w)]


def frobenius(a: TruncatedSeries) -> TruncatedSeries:
    """Frobenius twist: sum a_i u^i  ->  sum a_i u^(p*i), truncated at the input T.

    Coefficients are fixed.  Only a_i with i < ceil(T/p) reach the image, so
    callers wanting an untruncated image allocate T for the twisted degree."""
    p, T = a.prec.p, a.prec.T
    cs = [0] * T
    for i, c in enumerate(a.coeffs[: -(-T // p)]):
        if c:
            cs[p * i] = c
    return TruncatedSeries(a.prec, tuple(cs))


def dot(xs, ys) -> TruncatedSeries:
    """sum_i xs[i] * ys[i] over paired series of one precision.

    The unreduced products are added up as integers and reduced mod p^n
    once, so h pairs build one series rather than 2h - 1.  Raises
    PrecisionMismatchError on mixed precisions, and ValueError on an empty
    or unpaired input."""
    if not xs or len(xs) != len(ys):
        raise ValueError(f"dot needs paired nonempty inputs, got {len(xs)} and {len(ys)}")
    prec = xs[0].prec
    T, q = prec.T, prec.modulus
    acc = None
    for x, y in zip(xs, ys):
        if x.prec != prec or y.prec != prec:
            raise PrecisionMismatchError(f"precision mismatch: {prec} vs {x.prec}, {y.prec}")
        out = _mul_raw(x.coeffs, y.coeffs, T, q)
        acc = out if acc is None else list(map(add, acc, out))
    return TruncatedSeries(prec, tuple([c % q for c in acc]))


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
    return TruncatedSeries(a.prec, tuple(out))


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

    b = a / p^c is lifted digit by digit up the p-adic filtration; Newton
    iteration is deliberately avoided.  Mod p, d is the u-order of b, and
    U = v = (b / u^d) mod p, W = u^d.  Each of the n - c - 1 lifting steps
    works on raw residue lists and reads only what it uses:
      - err = b - U*W, as one shifted row of U per nonzero coefficient of W
        (at most d + 1 rows of T); the step's digit is err / p^(k+1) mod p;
      - w_low, the d low coefficients of v^-1 * digit, by a d x d triangular
        convolution with v^-1 mod (p, u^d), which invert_unit computes once
        at Precision(p, 1, d);
      - u_digit = (digit - v*w_low) / u^d, as d shifted rows of v;
    and W, U gain p^(k+1) * w_low and p^(k+1) * u_digit.  Every coefficient
    stays below p^(n-c) <= p^n, so no reduction mod p^n is needed, and the
    two series are built once, at the end.  The lift costs O(n*d*T), and
    the inverse O(d^2)."""
    prec = a.prec
    if a.is_zero():
        raise ValueError("cannot prepare the zero series")
    c = a.content_p()
    p, T = prec.p, prec.T
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
