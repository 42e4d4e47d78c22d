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
charpoly is taken mod p^N by one O(n^3) kernel, charpoly_mod: a similarity
to Hessenberg form, then the Hessenberg recurrence (Cohen, GTM 138, 2.2).
Z/p^N admits no general division, but it is a chain ring: the ideal of an
entry is fixed by its valuation, so the entry of least valuation in a column
divides every other entry there, with a unit quotient part.  Elimination by
that pivot is a unimodular similarity, exact over Z/p^N.  substitute and
the search call charpoly_mod directly, as BreuilModule's det-unit gate does:
substitute hands it the columns of x, the search those of each tail plus
c_0 p on the diagonal, and each drops the leading 1 of the result.
berkowitz_charpoly, the division-free O(n^4) Samuelson-Berkowitz recurrence,
has no caller here: the tests keep it as the independent reference.

Exhaustive search over digit-truncated changes gives a certified upper
bound for the minimal tau over all uniformizers.  Its result is that of a
lexicographic walk over the digit vectors, but it reads one key per key
class: the winning key has tau <= m + 1, so it is read off the residues
mod p^(m+2), which fix c_0 mod p^(m+1) and the other digits mod p^(m+2).
The walk goes tail by tail, (c_1, ..., c_{e-1}) in digit order with c_0
innermost, and builds each tail's matrix once: x = y + c_0 p with
y = (0, c_1, ...) has the matrix of y plus c_0 p I.  Scaling pi~ by a unit
keeps the key, and the tails with c_1 = 1 come first, so a class with
c_1 != 1 reads the key of its multiple with c_1 = 1 when that multiple was
enumerated, and calls the kernel otherwise; once the digits reach
p^(m+2), every such class reads.  The search works on the raw residues: it
checks inline that each charpoly is Eisenstein (raising what the
constructor would), reads (tau, iota) once, off the least E_1 key, and
builds the witness change only.  Every witness it reports is then checked
by the public route, substitute and invariants(), which must give the same
(tau, iota).  It is certified exact only at tau = 1.
A search over more than TAU_SEARCH_CAP digit vectors is refused
(BudgetExceededError) before the first charpoly by series._oversize, the
size rule that also raises for the oracle's budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import add, mul

from .series import _oversize, int_valuation, poly_text, require_prime

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

    def split(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(E_0, E_1), ascending coefficients with a_e := 1 included: E_0 is
        supported on the exponents divisible by p, E_1 on the rest."""
        e0 = [0] * (self.e + 1)
        e1 = [0] * (self.e + 1)
        for i, a in enumerate(self.all_coeffs()):
            if i % self.p == 0:
                e0[i] = a
            else:
                e1[i] = a
        return tuple(e0), tuple(e1)

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
            # E_1 vanishes mod p^N, so every E_1 key is at least N*e: tau >= N
            return UniformizerInvariants(m=m, tau=self.precision, iota=None, t_pi=None)
        key = min(keys)
        tau, iota = divmod(key, e)
        return UniformizerInvariants(m=m, tau=tau, iota=iota, t_pi=key // (p - 1))

    def __str__(self) -> str:
        return poly_text(self.all_coeffs())


def _eisenstein_violations(p, coeffs, precision) -> list[str]:
    require_prime(p)
    violations = []
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
class UniformizerInvariants:
    """(m, tau, iota, t_pi) for one uniformizer.

    tau is math.inf when E_1 vanishes exactly; iota is None whenever tau is
    not a finite exact value (0 by fiat when m = 0).  For residue-precision
    polynomials whose E_1 vanishes mod p^N, tau carries the certified lower
    bound N and t_pi is undecidable (None)."""

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
        require_prime(self.p)
        if self.precision < 1:
            raise ValueError("digit precision must be >= 1")
        # c < 2^precision <= p^precision needs no power; a longer c does
        if any(c < 0 or c.bit_length() > self.precision and c >= self.p**self.precision
               for c in self.cs):
            raise ValueError(f"digits must be canonical residues in [0, {self.p**self.precision})")
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

    The division-free O(n^4) reference for charpoly_mod, which eliminates
    by least-valuation pivots instead: nothing in src/ calls it, the tests
    and perfbench's tracer do.  Returns ascending coefficients
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


def charpoly_mod(A: list[list[int]], q: int) -> list[int]:
    """det(x*I - A) over Z/q, q a prime power, in O(n^3).  Returns ascending
    coefficients [c_0, ..., c_{n-1}, 1], as berkowitz_charpoly does.

    A similarity to upper Hessenberg form H, then the recurrence
    p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_i.
    Each column k is cleared below the subdiagonal by its entry of least
    valuation, gcd(entry, q), moved to row k + 1 with the matching column
    swap.  In the chain ring Z/q that pivot divides every other entry x_i
    there: x_i = g_i * pivot with g_i = (x_i / gcd) * w^-1, w the unit part
    of the pivot.  Row i loses g_i times the pivot row, and column k + 1
    gains g_i times column i, so every step is a unimodular similarity.
    Entries are reduced mod q as they are rewritten; the recurrence reduces
    the rest."""
    n = len(A)
    H = list(map(list, A))
    for k in range(n - 2):
        r = k + 1
        piv, best = None, q  # gcd(0, q) = q: a column of zeros has no pivot
        for i in range(r, n):
            g = math.gcd(H[i][k], q)
            if g < best:
                piv, best = i, g
                if g == 1:
                    break
        if piv is None:
            continue
        if piv != r:
            H[piv], H[r] = H[r], H[piv]
            for row in H:
                row[piv], row[r] = row[r], row[piv]
        top = H[r]
        inv = pow(top[k] // best, -1, q)
        gs = [1]
        for i in range(r + 1, n):
            row = H[i]
            g = row[k] // best * inv % q
            gs.append(g)
            if g:  # below the subdiagonal, columns <= k are never read again
                for j in range(k + 1, n):
                    row[j] = (row[j] - g * top[j]) % q
        for row in H:  # column r += sum of g_i * column i
            row[r] = sum(map(mul, gs, row[r:])) % q
    polys = [[1]]  # p_0, ..., p_m: charpolys of the leading blocks of H
    for m in range(n):
        new = [0, *polys[m]]
        i, c, t = m, H[m][m], 1
        while True:
            if c:
                P = polys[i]
                for j in range(i + 1):
                    new[j] -= c * P[j]
            if not i:
                break
            t = t * H[i][i - 1] % q
            if not t:  # every longer product of the subdiagonal vanishes too
                break
            i -= 1
            c = H[i][m] * t
        polys.append([a % q for a in new])
    return polys[n]


def _columns(coeffs, x, q: int) -> list:
    """The columns x, x pi, ..., x pi^{e-1} of multiplication by
    x_0 + x_1 pi + ... + x_{e-1} pi^{e-1} on the basis 1, pi, ..., pi^{e-1}
    of Z_p[u]/(E), where coeffs = (a_0, ..., a_{e-1}) of E.  The first is x
    itself, which may be unreduced: the charpoly reduces every product."""
    # multiplying a column by pi shifts it up one place and folds the top
    # entry through pi^e = -(a_0 + ... + a_{e-1} pi^{e-1})
    col = x
    cols = [col]
    for _ in range(len(coeffs) - 1):
        top = col[-1]
        col = [(y - a * top) % q for y, a in zip((0, *col), coeffs)]  # zip drops the old top
        cols.append(col)
    return cols


def substitute(E: EisensteinPolynomial, change: UniformizerChange, N: int) -> EisensteinPolynomial:
    """The Eisenstein polynomial (mod p^N) of the uniformizer pi~ given by
    `change`: the characteristic polynomial of multiplication by pi~ on the
    basis 1, pi, ..., pi^{e-1} of Z_p[u]/(E).  charpoly_mod takes the
    columns of that matrix, from _columns, as its rows, since
    det(xI - B) = det(xI - B^T)."""
    if N < 2:
        raise ValueError("N >= 2 required to certify the Eisenstein conditions")
    if change.p != E.p:
        raise ValueError("prime mismatch between polynomial and change")
    if len(change.cs) != E.e:
        raise ValueError(f"expected {E.e} digits, got {len(change.cs)}")
    if E.precision is not None and E.precision < N:
        raise ValueError(f"input known only mod p^{E.precision}, cannot output mod p^{N}")
    x = (change.cs[0] * E.p, *change.cs[1:])
    q = E.p**N
    char = charpoly_mod(_columns(E.coeffs, x, q), q)
    return EisensteinPolynomial(E.p, tuple(char[:-1]), precision=N)


@dataclass(frozen=True)
class TauSearchResult:
    """Enumerated minimum of tau over digit-truncated uniformizer changes.

    The value is always a certified upper bound for the true minimum over
    all uniformizers, and never exceeds ceiling = m + 1 (witnessed by the
    pair pi, pi + p).  It is certified exact only at the unconditional floor
    tau = 1, which the m = 0 fiat value also reads.  candidates counts the
    digit vectors searched; charpolys counts the key classes whose key was
    computed, one kernel call each, not those that read the key of a unit
    multiple, nor the witness re-check through substitute."""

    tau: int
    iota: int
    witness: UniformizerChange
    ceiling: int
    candidates: int
    charpolys: int = field(compare=False)

    @property
    def certified_exact(self) -> bool:
        return self.tau == 1


def _valuation_weights(p: int, N: int, e: int) -> list[int]:
    """ord_p(a)*e for each residue a mod p^N, and N*e for a = 0, by a sieve:
    the multiples of p^k, 0 among them, are written once for each k <= N."""
    weight = [0] * p**N
    for k in range(1, N + 1):
        weight[::p**k] = [k * e] * p**(N - k)
    return weight


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
    p^(L-1), innermost, under each tail (c_1, ..., c_{e-1}), whose columns
    are built once; a class with c_0 != 0 hands charpoly_mod a copy of them
    with c_0 p added on the diagonal.  Scaling pi~ by a unit v of Z_p
    scales a_i by v^(e-i) and keeps (tau, iota).  The tails with c_1 = 1 come first and keep
    their keys; a class with c_1 != 1 reads the key of its multiple by
    v = 1/c_1 mod p^L when that multiple was enumerated, which it always
    was once digit_precision >= L.  The witness is the first minimizer of
    (key, digit vector).  Whether its key was read or computed, the change
    returned is substituted at precision m + 3, and its invariants() must
    give the minimum (AssertionError otherwise)."""
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
    # residue reads N*e, the bound invariants() reports, above the key of
    # every nonzero residue mod p^N
    e1 = [i for i in range(1, e) if i % p]
    weight = _valuation_weights(p, N, e)

    def key_of(res):
        """The key of the charpoly residues res, checked inline to be
        Eisenstein (raising what the constructor would)."""
        if res[0] % (p * p) == 0 or any(map(p.__rmod__, res)):
            raise EisensteinValidationError(_eisenstein_violations(p, res, N))
        return min([weight[res[i]] + i for i in e1])

    R = p**(m + 2)  # p^L
    digits = range(min(p**digit_precision, R))
    stop = min(p**(digit_precision + 1), R)
    c0ps = range(0, stop, p)
    D, C = len(digits), len(c0ps)
    # the key of each class with c_1 = 1, one small int per class in digit
    # order: those tails come first, so keys[i*C + c_0] is filled in order
    # for the i-th of them before any c_1 != 1 tail reads it
    keys = []
    best_key, best_x, charpolys = N * e, None, 0
    for tail in product([c for c in digits if c % p], *[digits] * (e - 2)):
        cols = _columns(coeffs, (0, *tail), q)
        # v pi~ with v = 1/c_1 mod R has c_1 = 1; the first digit vector of
        # its class is (v c_0 p mod R, 1, v c_2 mod R, ...), and its key was
        # kept when that vector was enumerated
        v = pow(tail[0], -1, R)
        rest = [v * c % R for c in tail[1:]]
        at = -1  # where the multiple's tail starts in keys, if enumerated
        if v != 1 and max(rest, default=0) < D:
            at = 0
            for c in rest:
                at = at * D + c
            at *= C
        for c0p in c0ps:
            y = v * c0p % R
            if at >= 0 and y < stop:
                key = keys[at + y // p]
            else:
                # x = (c_0 p, *tail): the tail's matrix plus c_0 p I
                shifted = cols
                if c0p:
                    shifted = [[*col] for col in cols]
                    for j, col in enumerate(shifted):
                        col[j] += c0p
                key = key_of(charpoly_mod(shifted, q)[:-1])
                charpolys += 1
                if v == 1:
                    keys.append(key)
            # the first minimizer in digit order
            if key < best_key or key == best_key and (c0p, *tail) < best_x:
                best_key, best_x = key, (c0p, *tail)
    tau, iota = divmod(best_key, e)
    if tau > m + 1:
        raise AssertionError("tau ceiling m + 1 violated; pi and pi + p were enumerated")
    witness = UniformizerChange(p, digit_precision, (best_x[0] // p, *best_x[1:]))
    # the reported change must reach the minimum itself, by the public route
    inv = substitute(E, witness, N).invariants()
    if (inv.tau, inv.iota) != (tau, iota):
        raise AssertionError("the witness's key differs from the minimum of its orbit")
    return TauSearchResult(tau=tau, iota=iota, witness=witness, ceiling=m + 1,
                           candidates=candidates, charpolys=charpolys)
