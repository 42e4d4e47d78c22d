"""Independent reference computations for the benchmark's output checks.

Nothing here imports ramibound: every value the program reports is
recomputed by a different route (plain integer convolution, Newton's
identities over Fraction, Gaussian elimination mod p) or compared against a
property the method must have.  Polynomials and series are plain lists of
integers in ascending degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def vp(x: int, p: int) -> int | None:
    """p-adic valuation of an integer; None for 0."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# -- series by plain convolution ---------------------------------------------


def conv(a, b, q: int, T: int) -> list[int]:
    """(a * b) mod (q, u^T)."""
    out = [0] * T
    for i, x in enumerate(a[:T]):
        if x:
            for j, y in enumerate(b[: T - i]):
                out[i + j] += x * y
    return [c % q for c in out]


def twist(a, p: int, T: int) -> list[int]:
    """u -> u^p, truncated at u^T."""
    out = [0] * T
    for i, c in enumerate(a):
        if p * i < T:
            out[p * i] = c
    return out


def ord_u(a) -> int | None:
    return next((i for i, c in enumerate(a) if c), None)


def twisted_product(e_coeffs, c, p: int) -> list[int]:
    """Untruncated integer coefficients of E(u) * C(u^p)."""
    out = [0] * (len(e_coeffs) + p * (len(c) - 1))
    for i, a in enumerate(e_coeffs):
        for l, b in enumerate(c):
            out[i + p * l] += a * b
    return out


def depth(e_coeffs, c, p: int, n: int, cap: int) -> int:
    """Largest t <= cap with E(u) * C(u^p) in (u^t, p^n)."""
    q = p**n
    prod = twisted_product(e_coeffs, c, p)
    for j in range(min(cap, len(prod))):
        if prod[j] % q:
            return j
    return cap


def multipliers(p: int, n: int, deg: int):
    """Every C with c_0 in [1, p^n) and deg C <= deg, in lexicographic order."""
    q = p**n
    return product(range(1, q), *([range(q)] * deg))


def max_depth_search(e_coeffs, p: int, n: int):
    """Exhaustive maximal depth over every C with c_0 in [1, p^n) and
    deg C <= n*e // p, the search space of the paper's Proposition 2.

    Returns (t_star, witnesses) with witnesses in lexicographic order."""
    cap = n * (len(e_coeffs) - 1) + 1
    best, wits = -1, []
    for c in multipliers(p, n, (cap - 1) // p):
        t = depth(e_coeffs, c, p, n, cap)
        if t > best:
            best, wits = t, [c]
        elif t == best:
            wits.append(c)
    return best, wits


def telescoping_witness(p: int, e: int, n: int) -> list[int]:
    """C with (u^e - p) * C(u^p) = u^(n e) - p^n when p | e:
    C = p^(n-1) + p^(n-2) u^(e/p) + ... + u^((n-1) e/p)."""
    step = e // p
    c = [0] * ((n - 1) * step + 1)
    for i in range(n):
        c[i * step] = p ** (n - 1 - i)
    return c


# -- Eisenstein invariants and the recursive exponent ---------------------------


def invariants(p: int, coeffs, precision: int | None = None):
    """(m, tau, iota) of u^e + a_{e-1}u^{e-1} + ... + a_0; tau is None when
    E_1 vanishes (exactly, or mod p^precision)."""
    e = len(coeffs)
    m = vp(e, p)
    if m == 0:
        return 0, 1, 0
    best = None
    for i in range(1, e):
        a = coeffs[i] if precision is None else coeffs[i] % p**precision
        if i % p and a:
            v = vp(a, p)
            if best is None or v < best[0]:
                best = (v, i)
    if best is None:
        return m, None, None
    return m, best[0], best[1]


def s_recursion(p: int, e: int, tau: int, iota: int) -> int:
    """The exponent s from the (t, s) recursion of the paper."""
    eps = 0 if e % p else 1
    t, s = (tau * e + iota) // (p - 1), 0
    while t - t // p > tau + eps:
        t, s = t // p, s + tau + eps
    return t + s


def s_closed_form(p: int, e: int) -> int:
    """1 + floor(log_p(e / (p - 1))) for p not dividing e, e >= p - 1."""
    v = 0
    while p ** (v + 1) * (p - 1) <= e:
        v += 1
    return 1 + v


def s_within_global_bound(p: int, e: int, s: int) -> bool:
    """s <= (2e - 1 + e*m) / (p - 1), compared exactly."""
    return s * (p - 1) <= 2 * e - 1 + e * vp(e, p)


# -- characteristic polynomials by Newton's identities --------------------------


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def change_matrix(e_coeffs, cs, p: int):
    """Exact integer matrix of multiplication by c_0 p + c_1 pi + ... on the
    basis 1, pi, ..., pi^(e-1), where pi is a root of the monic E."""
    e = len(e_coeffs) - 1
    comp = [[0] * e for _ in range(e)]
    for j in range(e - 1):
        comp[j + 1][j] = 1
    for i in range(e):
        comp[i][e - 1] = -e_coeffs[i]
    B = [[cs[0] * p if i == j else 0 for j in range(e)] for i in range(e)]
    power = [[int(i == j) for j in range(e)] for i in range(e)]
    for c in cs[1:]:
        power = _mat_mul(power, comp)
        for i in range(e):
            for j in range(e):
                B[i][j] += c * power[i][j]
    return B


def charpoly_newton(B) -> list[int]:
    """Ascending coefficients of det(x I - B) from the exact traces tr(B^k)
    and Newton's identities, over Fraction."""
    n = len(B)
    sums, power = [], B
    for k in range(n):
        if k:
            power = _mat_mul(power, B)
        sums.append(sum(power[i][i] for i in range(n)))
    el = [Fraction(1)]
    for k in range(1, n + 1):
        acc = sum((-1) ** (i - 1) * el[k - i] * sums[i - 1] for i in range(1, k + 1))
        el.append(acc / k)
    out = [0] * (n + 1)
    for k in range(n + 1):
        if el[k].denominator != 1:
            raise ArithmeticError("Newton's identities left a fraction")
        out[n - k] = (-1) ** k * el[k].numerator
    return out


def substituted(e_coeffs, cs, p: int, N: int) -> list[int]:
    """(a_0, ..., a_{e-1}) mod p^N of the Eisenstein polynomial of the
    uniformizer c_0 p + c_1 pi + ... + c_{e-1} pi^(e-1)."""
    q = p**N
    return [c % q for c in charpoly_newton(change_matrix(e_coeffs, cs, p))[:-1]]


def tau_search(e_coeffs, p: int, dp: int, N: int):
    """Exhaustive minimum of (tau, iota) over changes with digits mod p^dp
    and c_1 a unit; the first minimiser in lexicographic digit order."""
    e = len(e_coeffs) - 1
    best = None
    for cs in product(range(p**dp), repeat=e):
        if cs[1] % p == 0:
            continue
        _, tau, iota = invariants(p, substituted(e_coeffs, cs, p, N), precision=N)
        if tau is not None and (best is None or (tau, iota) < best[0]):
            best = ((tau, iota), cs)
    return best[0][0], best[0][1], best[1]


# -- modules ----------------------------------------------------------------------


def rank_mod_p(rows, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def unit_det_at_zero(V, p: int) -> bool:
    """det V(0) mod p != 0, i.e. V is invertible over the series ring."""
    return rank_mod_p([[entry[0] for entry in row] for row in V], p) == len(V)


def normal_decomposition_holds(phi, V, d: int, e_coeffs, p: int, n: int, T: int) -> bool:
    """phi == V * diag(E, ..., E, 1, ..., 1) with d copies of E, mod (p^n, u^T)."""
    q = p**n
    E = [c % q for c in e_coeffs]
    h = len(V)
    for i in range(h):
        for j in range(h):
            want = conv(V[i][j], E, q, T) if j < d else [c % q for c in V[i][j]]
            if list(phi[i][j]) != want:
                return False
    return True


def apply_phi_reference(phi, pole: int, alphas, p: int, n: int, T: int):
    """(pole, numerators) of the image of x = sum alphas[j]/u^pole e_j, in
    least-pole form."""
    q = p**n
    h = len(phi)
    nums = []
    for i in range(h):
        acc = [0] * T
        for j in range(h):
            for k, c in enumerate(conv(phi[i][j], twist(alphas[j], p, T), q, T)):
                acc[k] += c
        nums.append([c % q for c in acc])
    pole = p * pole
    orders = [o for o in map(ord_u, nums) if o is not None]
    if not orders:
        return 0, [[0] * T for _ in range(h)]
    strip = min(pole, min(orders))
    return pole - strip, [a[strip:] + [0] * strip for a in nums]


def least_inclusion_exponent(alphas, pole: int, p: int, n: int) -> int:
    """Least s with p^s * alpha in (u^pole, p^n) for every numerator."""
    s = 0
    for a in alphas:
        for c in a[:pole]:
            if c:
                s = max(s, n - vp(c, p))
    return s


def is_inverse(a, b, q: int, T: int) -> bool:
    return conv(a, b, q, T) == [1 % q] + [0] * (T - 1)


def weierstrass_holds(a, content: int, degree: int, wpoly, unit, p: int, n: int) -> bool:
    """a = p^content * unit * wpoly, wpoly monic of the stated degree with
    lower coefficients divisible by p, unit a unit."""
    q, T = p**n, len(a)
    if unit[0] % p == 0 or wpoly[degree] != 1 or any(wpoly[degree + 1:]):
        return False
    if any(c % p for c in wpoly[:degree]):
        return False
    scaled = [c * p**content % q for c in conv(unit, wpoly, q, T)]
    return scaled == [c % q for c in a]
