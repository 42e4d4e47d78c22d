"""Eisenstein polynomials and their uniformizer invariants.

A monic polynomial u^e + a_{e-1}u^{e-1} + ... + a_0 over Z_p is Eisenstein
when every a_i is divisible by p and a_0 is p times a unit.  Such a
polynomial pins down a uniformizer pi of a totally ramified degree-e
extension V of Z_p; this module computes the invariants attached to pi:

    m     = ord_p(e)
    E_0   = the part of E supported on exponents divisible by p (with a_e := 1)
    E_1   = E - E_0
    tau   = ord_p(E_1)  for m >= 1 (by fiat 1 when m = 0); infinity iff E_1 = 0
    iota  = smallest exponent attaining tau (by fiat 0 when m = 0)
    t_pi  = floor((tau*e + iota)/(p-1))

One tie rule gives (tau, iota): the least key ord_p(a_i)*e + i over the
nonzero a_i of E_1, so (tau, iota) = divmod(key, e) and t_pi = key // (p-1).
invariants() and the tau search both read it.

Changing the uniformizer to pi~ = c_0 p + c_1 pi + ... + c_{e-1} pi^{e-1}
(c_1 a unit) is realized exactly by the characteristic polynomial of the
multiplication-by-pi~ matrix on the basis 1, pi, ..., pi^{e-1} of
Z_p[u]/(E).  Its first column is the digit vector; each next column is pi
times the last, a shift up with one fold of the top entry through E.  The
charpoly is taken mod p^N with a division-free (Berkowitz) recurrence, since
Z/p^N admits no safe division.  One kernel returns its residues; substitute
wraps them in an EisensteinPolynomial.

Exhaustive search over digit-truncated changes gives a certified upper
bound for the minimal tau over all uniformizers.  Its result is that of a
lexicographic walk over the digit vectors, but it calls the kernel once per
key class: the winning key has tau <= m + 1, so it is read off the residues
mod p^(m+2), which fix c_0 mod p^(m+1) and the other digits mod p^(m+2);
once the digits reach p^(m+2), one class per orbit under scaling by units
(c_1 = 1) is enough.  The search works on the raw residues: it checks
inline that each charpoly is Eisenstein (raising what the constructor
would), reads (tau, iota) once, off the least E_1 key, and builds the
witness change only.  It is certified exact only at tau = 1.  A search over
more than TAU_SEARCH_CAP digit vectors is refused (BudgetExceededError)
before the first charpoly by series._oversize, the size rule that also
raises for the oracle's budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import add, mul

from .series import _oversize, int_valuation, is_prime, poly_text

INF = math.inf  # order sentinel only; never enters arithmetic

# Largest digit-vector count (p - 1) * p^(dp*e - 1) tau_v_search enumerates.
TAU_SEARCH_CAP = 10**6

# Largest Eisenstein degree taken from outside input, checked before the
# coefficient tuple is allocated; every pinned run uses degree 8 or less.
MAX_POLY_DEGREE = 256


class EisensteinValidationError(ValueError):
    """Raised with the complete list of violated Eisenstein conditions."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(violations))


@dataclass(frozen=True)
class EisensteinPolynomial:
    """Monic degree-e Eisenstein polynomial u^e + a_{e-1}u^{e-1} + ... + a_0.

    coeffs holds (a_0, ..., a_{e-1}); the leading 1 is implicit.  With
    precision=None the coefficients are exact integers (so tau = infinity is
    decidable); with precision=N they are canonical residues mod p^N and
    every reported valuation is capped accordingly."""

    p: int
    coeffs: tuple[int, ...]
    precision: int | None = None

    def __post_init__(self):
        violations = _eisenstein_violations(self.p, self.coeffs, self.precision)
        if violations:
            raise EisensteinValidationError(violations)

    @property
    def e(self) -> int:
        return len(self.coeffs)

    @property
    def m(self) -> int:
        return int_valuation(self.e, self.p)

    def all_coeffs(self) -> tuple[int, ...]:
        """(a_0, ..., a_{e-1}, 1) including the leading coefficient."""
        return self.coeffs + (1,)

    def split(self) -> "E0E1Split":
        """Separate E into the p-power-exponent part E_0 and the rest E_1."""
        e0 = [0] * (self.e + 1)
        e1 = [0] * (self.e + 1)
        for i, a in enumerate(self.all_coeffs()):
            if i % self.p == 0:
                e0[i] = a
            else:
                e1[i] = a
        return E0E1Split(tuple(e0), tuple(e1))

    def invariants(self) -> "UniformizerInvariants":
        """The tuple (m, tau, iota, t_pi) attached to the uniformizer."""
        p, e, m = self.p, self.e, self.m
        if m == 0:
            return UniformizerInvariants(m=0, tau=1, iota=0, t_pi=e // (p - 1))
        # the tie rule of the module docstring: least valuation, then lowest index
        keys = [int_valuation(a, p) * e + i for i, a in enumerate(self.coeffs) if a and i % p]
        if not keys:
            if self.precision is None:
                return UniformizerInvariants(m=m, tau=INF, iota=None, t_pi=INF)
            # residues mod p^N all vanish: the content is at least N - 1
            return UniformizerInvariants(m=m, tau=self.precision - 1, iota=None, t_pi=None)
        key = min(keys)
        tau, iota = divmod(key, e)
        return UniformizerInvariants(m=m, tau=tau, iota=iota, t_pi=key // (p - 1))

    def __str__(self) -> str:
        return poly_text(self.all_coeffs())


def _eisenstein_violations(p, coeffs, precision) -> list[str]:
    violations = []
    if not is_prime(p):
        return [f"p = {p} is not prime"]
    e = len(coeffs)
    if e < 1:
        return ["degree must be >= 1"]
    if precision is not None:
        if precision < 2:
            return ["precision must be >= 2 to certify the Eisenstein conditions"]
        q = p**precision
        if any(not (0 <= c < q) for c in coeffs):
            return [f"residue coefficients must lie in [0, {q})"]
    for i, a in enumerate(coeffs):
        if a % p != 0:
            violations.append(f"a_{i} = {a} is not divisible by p = {p}")
    a0 = coeffs[0]
    v0 = int_valuation(a0, p)
    if a0 == 0:
        violations.append("ord_p(a_0) must be exactly 1, got a_0 = 0")
    elif v0 != 1:
        violations.append(f"ord_p(a_0) must be exactly 1, got {v0}")
    return violations


@dataclass(frozen=True)
class E0E1Split:
    """E = E0 + E1 with E0 supported on exponents in pN (a_e := 1 included)."""

    e0: tuple[int, ...]
    e1: tuple[int, ...]


@dataclass(frozen=True)
class UniformizerInvariants:
    """(m, tau, iota, t_pi) for one uniformizer.

    tau is math.inf when E_1 vanishes exactly; iota is None whenever tau is
    not a finite exact value (0 by fiat when m = 0).  For residue-precision
    polynomials whose E_1 vanishes mod p^N, tau carries the certified lower
    bound N - 1 and t_pi is undecidable (None)."""

    m: int
    tau: int | float
    iota: int | None
    t_pi: int | float | None


@dataclass(frozen=True)
class UniformizerChange:
    """A new uniformizer pi~ = c_0 p + c_1 pi + ... + c_{e-1} pi^{e-1},
    with digits c_i given as residues mod p^precision."""

    p: int
    precision: int
    cs: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.precision < 1:
            raise ValueError("digit precision must be >= 1")
        q = self.p**self.precision
        if any(not (0 <= c < q) for c in self.cs):
            raise ValueError(f"digits must be canonical residues in [0, {q})")
        if len(self.cs) == 0:
            raise ValueError("at least one digit required")
        if len(self.cs) >= 2:
            if self.cs[1] % self.p == 0:
                raise ValueError("c_1 must be a unit for pi~ to be a uniformizer")
        elif self.cs[0] % self.p == 0:
            raise ValueError("c_0 must be a unit when e = 1")

    @classmethod
    def identity(cls, p: int, e: int, precision: int = 1) -> "UniformizerChange":
        """pi~ = pi (only meaningful for e >= 2; pi~ = p for e = 1)."""
        if e >= 2:
            return cls(p, precision, (0, 1) + (0,) * (e - 2))
        return cls(p, precision, (1,))


def berkowitz_charpoly(A: list[list[int]], q: int) -> list[int]:
    """det(x*I - A) over Z/q via the Samuelson-Berkowitz recurrence.

    Division-free on purpose: Z/q is not a domain, so elimination-style
    charpoly algorithms are unavailable.  Returns ascending coefficients
    [c_0, ..., c_{n-1}, 1]."""
    poly = [1]  # descending coefficients for the 0x0 leading block
    for r, row in enumerate(A):
        # row[:r] and col are the border of the leading r x r block; the
        # map() products stop at len(v) = r, so block rows need no slicing
        col = [A[i][r] for i in range(r)]
        qs = [1, -row[r] % q]
        v = col
        for k in range(r):
            qs.append(-sum(map(mul, row, v)) % q)
            if k < r - 1:  # the last product M^r * col is never read
                v = [sum(map(mul, A[i], v)) % q for i in range(r)]
        # Toeplitz step: poly <- (lower (r+2) x (r+1) Toeplitz of qs) * poly
        new = [0] * (r + 2)
        for j, c in enumerate(poly):
            if c:
                new[j:] = map(add, new[j:], map(c.__mul__, qs))
        poly = [x % q for x in new]
    poly.reverse()
    return poly


def _charpoly_residues(coeffs, x, q: int) -> list[int]:
    """(a_0, ..., a_{e-1}) mod q of the charpoly of multiplication by
    x_0 + x_1 pi + ... + x_{e-1} pi^{e-1} on the basis 1, pi, ..., pi^{e-1}
    of Z_p[u]/(E), where coeffs = (a_0, ..., a_{e-1}) of E.  For the
    uniformizer change pi~, x = (c_0 p, c_1, ..., c_{e-1})."""
    # column j is x * pi^j; multiplying a column by pi shifts it up one place
    # and folds the top entry through pi^e = -(a_0 + ... + a_{e-1} pi^{e-1}).
    # Column 0 may be unreduced: the charpoly reduces every product.
    col = x
    cols = [col]
    for _ in range(len(coeffs) - 1):
        top = col[-1]
        col = [(y - a * top) % q for y, a in zip((0, *col), coeffs)]  # zip drops the old top
        cols.append(col)
    # det(xI - B) = det(xI - B^T): the columns go in as rows
    return berkowitz_charpoly(cols, q)[:-1]


def substitute(E: EisensteinPolynomial, change: UniformizerChange, N: int) -> EisensteinPolynomial:
    """The Eisenstein polynomial (mod p^N) of the uniformizer pi~ given by
    `change`: the characteristic polynomial of multiplication by pi~ on the
    basis 1, pi, ..., pi^{e-1} of Z_p[u]/(E)."""
    if N < 2:
        raise ValueError("N >= 2 required to certify the Eisenstein conditions")
    if change.p != E.p:
        raise ValueError("prime mismatch between polynomial and change")
    if len(change.cs) != E.e:
        raise ValueError(f"expected {E.e} digits, got {len(change.cs)}")
    if E.precision is not None and E.precision < N:
        raise ValueError(f"input known only mod p^{E.precision}, cannot output mod p^{N}")
    x = (change.cs[0] * E.p, *change.cs[1:])
    char = _charpoly_residues(E.coeffs, x, E.p**N)
    return EisensteinPolynomial(E.p, tuple(char), precision=N)


@dataclass(frozen=True)
class TauSearchResult:
    """Enumerated minimum of tau over digit-truncated uniformizer changes.

    The value is always a certified upper bound for the true minimum over
    all uniformizers, and never exceeds ceiling = m + 1 (witnessed by the
    pair pi, pi + p).  It is certified exact only at the unconditional floor
    tau = 1, which the m = 0 fiat value also reads.  candidates counts the
    digit vectors searched; charpolys counts the key classes visited, one
    kernel call each (the orbit route re-checks its witness with one call
    more)."""

    tau: int
    iota: int
    witness: UniformizerChange
    ceiling: int
    candidates: int
    charpolys: int = field(compare=False)

    @property
    def certified_exact(self) -> bool:
        return self.tau == 1


def tau_v_search(E: EisensteinPolynomial, digit_precision: int) -> TauSearchResult:
    """Minimize (tau, iota) over all changes with digits mod p^digit_precision.

    The result is that of a lexicographic enumeration of the digit vectors
    (c_0, ..., c_{e-1}): the least (tau, iota) and the first vector attaining
    it.  Substituting at p-adic precision m + 3 decides every tau value up to
    the ceiling m + 1 exactly.  More than TAU_SEARCH_CAP vectors,
    (p - 1) * p^(dp*e - 1), are refused (BudgetExceededError) before any is
    visited.

    The search visits key classes instead of vectors.  With L = m + 2, the
    winning key has tau <= m + 1 and is read off the charpoly mod p^L, which
    depends only on c_0 mod p^(L-1) and the other digits mod p^L; the least
    member of a class comes first in digit order.  So c_0 runs below
    p^(L-1).  Once digit_precision >= L, scaling pi~ by a unit v of Z_p
    scales a_i by v^(e-i) and keeps (tau, iota); every orbit of classes
    holds one with c_1 = 1, so only those are visited, and the witness is
    the least class in the orbits of the minimizers.  Its charpoly is
    recomputed, checked like every other, and must reach the minimum."""
    if E.precision is not None:
        raise ValueError("tau search requires exact integer coefficients")
    if digit_precision < 1:
        raise ValueError("digit_precision must be >= 1")
    p, e, m = E.p, E.e, E.m
    if m == 0:
        return TauSearchResult(
            tau=1, iota=0, witness=UniformizerChange.identity(p, e, digit_precision),
            ceiling=m + 1, candidates=0, charpolys=0,
        )
    exponent = digit_precision * e - 1  # every digit vector with c_1 a unit
    candidates = _oversize(p, exponent + 1, lambda: (p - 1) * p**exponent,
                           f"{p - 1}*{p}^{exponent}", TAU_SEARCH_CAP,
                           f"the tau search at digit precision {digit_precision} would "
                           f"visit {{}} candidates, over the cap of {TAU_SEARCH_CAP}")
    N = m + 3
    q = p**N
    coeffs = tuple(a % q for a in E.coeffs)
    # one min() over the E1 indices reads the tie rule's key; a vanishing E1
    # residue reads N*e, above every key, since tau <= N - 1 mod p^N
    e1 = [i for i in range(1, e) if i % p]
    weight = [N * e] + [int_valuation(a, p) * e for a in range(1, q)]

    def key_of(x):
        """The key of the charpoly of x, checked inline to be Eisenstein
        (raising what the constructor would)."""
        res = _charpoly_residues(coeffs, x, q)
        if res[0] % (p * p) == 0 or any(map(p.__rmod__, res)):
            raise EisensteinValidationError(_eisenstein_violations(p, res, N))
        return min([weight[res[i]] + i for i in e1])

    R = p**(m + 2)  # p^L
    orbit = digit_precision >= m + 2
    digits = range(min(p**digit_precision, R))
    c1s = (1,) if orbit else [c for c in digits if c % p]  # c_1 must be a unit
    # one vector x = (c_0 p, c_1, ..., c_{e-1}) per class, in the
    # lexicographic digit order: c_0 below p^(L-1), and on the orbit route
    # c_1 = 1 and the other digits below p^L
    c0ps = range(0, min(p**(digit_precision + 1), R), p)
    best_key, ties, charpolys = N * e, [], 0
    for charpolys, x in enumerate(product(c0ps, c1s, *[digits] * (e - 2)), 1):
        key = key_of(x)
        if key < best_key:  # strict: the first minimizer in digit order
            best_key, ties = key, [x]
        elif key == best_key and orbit:
            ties.append(x)
    tau, iota = divmod(best_key, e)
    if tau > m + 1:
        raise AssertionError("tau ceiling m + 1 violated; pi and pi + p were enumerated")
    x = ties[0]
    if orbit:
        # the first digit vector of the class v*r is its residues: v r_0 mod
        # R (p times v c_0 mod p^(L-1)), then v, then v r_i mod R
        units = [v for v in range(1, R) if v % p]
        x = min((v * r[0] % R, v, *[v * c % R for c in r[2:]]) for r in ties for v in units)
        if key_of(x) != best_key:
            raise AssertionError("the witness's key differs from the minimum of its orbit")
    return TauSearchResult(
        tau=tau, iota=iota,
        witness=UniformizerChange(p, digit_precision, (x[0] // p, *x[1:])),
        ceiling=m + 1, candidates=candidates, charpolys=charpolys,
    )
