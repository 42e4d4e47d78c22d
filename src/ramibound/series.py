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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class PrecisionMismatchError(ValueError):
    """Two operands carry different (p, n, T) precisions."""


class PrecisionError(ValueError):
    """The working precision is too small to decide the question asked."""


class BudgetExceededError(RuntimeError):
    """The candidate space exceeds the configured evaluation budget."""


def is_prime(p: int) -> bool:
    """Deterministic primality test by trial division (desk-scale inputs)."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
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


@dataclass(frozen=True)
class TruncatedSeries:
    """An element of (Z/p^n)[u]/(u^T) with canonical residue coefficients."""

    prec: Precision
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.prec.T:
            raise ValueError(
                f"expected {self.prec.T} coefficients, got {len(self.coeffs)}"
            )
        q = self.prec.modulus
        if any(not (0 <= c < q) for c in self.coeffs):
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
        T = self.prec.T
        q = self.prec.modulus
        out = [0] * T
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(T - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = (out[i + j] + a * b) % q
        return TruncatedSeries(self.prec, tuple(out))

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

    def in_ideal(self, t: int, pexp: int | None = None) -> bool:
        """Membership in the ideal (u^t, p^pexp): every coefficient of u^i,
        i < t, must vanish mod p^pexp.  pexp defaults to the working n."""
        prec = self.prec
        if t > prec.T:
            raise PrecisionError(f"cannot test (u^{t}, ...) at u-precision T = {prec.T}")
        if pexp is None:
            pexp = prec.n
        if not 0 <= pexp <= prec.n:
            raise PrecisionError(f"cannot test p^{pexp} at p-precision n = {prec.n}")
        q = prec.p**pexp
        return all(c % q == 0 for c in self.coeffs[:t])

    def __str__(self) -> str:
        return poly_text(self.coeffs)


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


def invert_unit(a: TruncatedSeries) -> TruncatedSeries:
    """Inverse of a unit (constant coefficient coprime to p) in (Z/p^n)[u]/(u^T)."""
    q = a.prec.modulus
    c0 = a.coeffs[0]
    if c0 % a.prec.p == 0:
        raise ValueError("not a unit: constant coefficient divisible by p")
    inv0 = pow(c0, -1, q)
    out = [0] * a.prec.T
    out[0] = inv0
    for k in range(1, a.prec.T):
        acc = 0
        for j in range(k):
            acc += a.coeffs[k - j] * out[j]
        out[k] = (-inv0 * acc) % q
    return TruncatedSeries(a.prec, tuple(out))


@dataclass(frozen=True)
class WeierstrassFactorization:
    """a = p^content * unit * wpoly in (Z/p^n)[u]/(u^T), with wpoly monic of
    the stated degree, its lower coefficients divisible by p, and unit a unit."""

    content: int
    degree: int
    wpoly: TruncatedSeries
    unit: TruncatedSeries


def weierstrass_prep(a: TruncatedSeries) -> WeierstrassFactorization:
    """Factor a as p^c * U * W with W a Weierstrass polynomial and U a unit.

    The correction terms are lifted digit by digit up the p-adic filtration:
    reduce mod p, read off the degree d and the unit part there, then solve
    q*u^d + v*w = error  (mod p) once per p-digit, with deg(w) < d.  This
    terminates after n - c - 1 corrections at fixed finite precision; Newton
    iteration is deliberately avoided."""
    prec = a.prec
    if a.is_zero():
        raise ValueError("cannot prepare the zero series")
    c = a.content_p()
    sub_n = prec.n - c

    # b = a / p^c, canonical lift to the full working precision
    pc = prec.p**c
    b = TruncatedSeries(prec, tuple(x // pc for x in a.coeffs))

    b_modp = [x % prec.p for x in b.coeffs]
    d = next((i for i, x in enumerate(b_modp) if x), None)
    if d is None:
        raise PrecisionError("content-stripped reduction mod p vanishes below u^T")

    # v = (b / u^d) mod p and its inverse over F_p[u]/(u^T)
    p1 = Precision(prec.p, 1, prec.T)
    v = TruncatedSeries.from_coeffs(p1, b_modp[d:])
    v_inv = invert_unit(v)

    w = TruncatedSeries.monomial(prec, d)
    unit = TruncatedSeries.from_coeffs(prec, v.coeffs)

    for k in range(sub_n - 1):
        err = b - unit * w
        pk = prec.p ** (k + 1)
        if any(x % pk for x in err.coeffs):
            raise AssertionError("digit lifting lost a p-digit")  # unreachable
        digit = TruncatedSeries.from_coeffs(p1, [x // pk for x in err.coeffs])
        if digit.is_zero():
            continue
        # solve u_digit*u^d + v*w_low = digit over F_p[u]/(u^T), deg(w_low) < d
        w_low = TruncatedSeries.from_coeffs(p1, (v_inv * digit).coeffs[:d])
        u_digit = (digit - v * w_low).shift_down(d)
        w = w + TruncatedSeries.from_coeffs(prec, w_low.coeffs).scale(pk)
        unit = unit + TruncatedSeries.from_coeffs(prec, u_digit.coeffs).scale(pk)

    return WeierstrassFactorization(content=c, degree=d, wpoly=w, unit=unit)
