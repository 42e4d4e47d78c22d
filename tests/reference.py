"""The independent routes that the differential tests compare the library with.

They work on plain integers and lists and import nothing from ramibound
(test_layering.py pins that), so no library kernel is shared by its check.
A series mod (q, u^T) is its coefficient list [c_0, ..., c_{T-1}], an integer
polynomial its ascending coefficients, and an Eisenstein polynomial
u^e + a_{e-1}u^{e-1} + ... + a_0 its coeffs = (a_0, ..., a_{e-1}).
"""

import functools
import itertools
from operator import add


def valuation(x, p):
    """The p-adic valuation of an integer; None for 0."""
    return None if x == 0 else next(v for v in itertools.count() if x % p**(v + 1))


def admissible_pairs(p, e):
    """The (tau, iota) of a degree-e uniformizer: (1, 0) when p does not
    divide e, else tau <= ord_p(e) + 1 and 0 < iota < e prime to p."""
    m = valuation(e, p)
    if m == 0:
        return [(1, 0)]
    return [(tau, iota) for tau in range(1, m + 2) for iota in range(1, e) if iota % p]


def s_trace(p, e, tau, iota, variant):
    """The (t, s) recursion's pairs for an admissible (tau, iota): from
    (floor((tau*e + iota)/(p-1)), 0), step to (floor(t/p), s + tau + epsilon)
    while the drop t - floor(t/p) exceeds tau + epsilon, or (modified) while
    it is at least that; epsilon = 1 exactly when ord_p(e) > 0."""
    bump = tau + (valuation(e, p) > 0)
    pairs = [((tau * e + iota) // (p - 1), 0)]
    while True:
        t, s = pairs[-1]
        drop = t - t // p
        if drop < bump or drop == bump and variant == "standard":
            return pairs
        pairs.append((t // p, s + bump))


# -- series mod (q, u^T) -----------------------------------------------------------

def schoolbook_dot(q, T, xs, ys):
    """sum_t xs[t] * ys[t] mod (q, u^T), one shifted row of ys[t] per nonzero
    coefficient of xs[t]."""
    out = [0] * T
    for a, b in zip(xs, ys):
        for i, x in enumerate(a[:T]):
            if x:
                out[i:] = map(add, out[i:], map(x.__mul__, b))
    return [c % q for c in out]


def twist(p, T, a):
    """The Frobenius twist u -> u^p of a, truncated at u^T."""
    out = [0] * T
    for i, c in enumerate(a):
        if p * i < T:
            out[p * i] = c
    return out


def apply_phi(p, q, T, phi, pole, alphas):
    """The image of (alphas / u^pole) under the semilinear map with matrix phi
    (rows of coefficient lists), in least-pole form: (pole, numerators)."""
    twisted = [twist(p, T, a) for a in alphas]
    nums = [schoolbook_dot(q, T, row, twisted) for row in phi]
    strip = min([p * pole] + [next(i for i, c in enumerate(cs) if c) for cs in nums if any(cs)])
    return p * pole - strip, [cs[strip:] + [0] * strip for cs in nums]


def invert_unit(q, cs):
    """The inverse of cs mod (q, u^T), T = len(cs), cs[0] a unit mod q, by
    the recurrence g_k = -g_0 * sum_{j=1..k} cs[j] g_{k-j}."""
    g = [pow(cs[0], -1, q)]
    for k in range(1, len(cs)):
        g.append(-g[0] * sum(cs[j] * g[k - j] for j in range(1, k + 1)) % q)
    return g


def weierstrass_prep(p, n, a):
    """(c, d, W, U) with a = p^c U W mod (p^n, u^T), T = len(a), for a nonzero:
    W = u^d + (terms divisible by p), U a unit with zero top d coefficients,
    both lifted one p-adic digit at a time through U^-1 mod (p, u^d)."""
    T, q = len(a), p**n
    c = min(valuation(x, p) for x in a if x)
    b = [x // p**c for x in a]
    d = next(i for i, x in enumerate(b) if x % p)
    v = [x % p for x in b[d:]] + [0] * d  # U mod p
    v_inv = invert_unit(p, v[:d]) if d else []
    W, U = [0] * d + [1] + [0] * (T - d - 1), v
    for k in range(1, n - c):
        pk = p**k
        err = [(x - y) % q for x, y in zip(b, schoolbook_dot(q, T, [W], [U]))]
        assert not any(x % pk for x in err), "digit lifting lost a p-digit"
        digit = [x // pk % p for x in err]
        w_low = schoolbook_dot(p, d, [v_inv], [digit])
        rest = [(x - y) % p for x, y in zip(digit, schoolbook_dot(p, T, [w_low], [v]))]
        W = [(x + pk * y) % q for x, y in zip(W, w_low + [0] * (T - d))]
        U = [(x + pk * y) % q for x, y in zip(U, rest[d:] + [0] * d)]
    return c, d, W, U


# -- integer polynomials and matrices ----------------------------------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    return list(map(sum, itertools.zip_longest(a, b, fillvalue=0)))


def taylor_shift(coeffs, delta):
    """E(u + delta) for E = u^e + coeffs, by Horner; ascending, with the 1."""
    res = [1]
    for a in reversed(coeffs):
        res = poly_add(poly_mul(res, [delta, 1]), [a])
    return res


def mat_mul(A, B):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*B)] for row in A]


def charpoly_by_cofactors(A):
    """det(xI - A) over Z[x], ascending, by cofactor expansion along the first
    row.  A minor on the last rows is cached by its columns, so an 8 x 8
    matrix expands 2^8 minors, not 8!."""
    n = len(A)
    M = [[[-A[i][j], 1] if i == j else [-A[i][j]] for j in range(n)] for i in range(n)]

    @functools.cache
    def det(cols):
        if not cols:
            return [1]
        row, total = n - len(cols), [0]
        for k, j in enumerate(cols):
            term = poly_mul(M[row][j], det(cols[:k] + cols[k + 1:]))
            total = poly_add(total, [-t for t in term] if k % 2 else term)
        return total

    return det(tuple(range(n)))


# -- the tau search, candidate by candidate ----------------------------------------

def charpoly(coeffs, x):
    """The charpoly over Z of x_0 + x_1 pi + ... + x_{e-1} pi^{e-1}, pi a root
    of E = u^e + coeffs, ascending with its leading 1, from traces alone and
    with no matrix: Tr(pi^j) from E by Newton's identities, the power sums
    Tr(x^k) = sum_j (x^k mod E)_j Tr(pi^j), and the charpoly from them by
    Newton's identities again, each division exact (Cohen, GTM 138, 4.3)."""
    e = len(coeffs)
    # s_k + a_{e-1} s_{k-1} + ... + a_{e-k+1} s_1 + k a_{e-k} = 0
    traces = [e]
    for k in range(1, e):
        traces.append(-sum(coeffs[e - i] * traces[k - i] for i in range(1, k)) - k * coeffs[e - k])
    sums, power = [], [1]
    for _ in range(e):
        power = poly_mul(power, x)
        while len(power) > e:  # fold the top term through u^e = -(a_0 + ...)
            top = power.pop()
            for i, a in enumerate(coeffs):
                power[len(power) - e + i] -= a * top
        sums.append(sum(c * t for c, t in zip(power, traces)))
    # x^e + b_1 x^{e-1} + ... + b_e has k b_k = -(P_k + b_1 P_{k-1} + ...)
    b = [1]
    for k in range(1, e + 1):
        b_k, r = divmod(-sum(b[i] * sums[k - 1 - i] for i in range(k)), k)
        assert r == 0
        b.append(b_k)
    return b[::-1]


def tau_search(p, coeffs, dp, residues=None):
    """(tau, iota, the first digit vector reaching it, the vectors visited) for
    the least key over pi~ = c_0 p + c_1 pi + ..., digits below p^dp and c_1 a
    unit, in lexicographic order, p | e.  A vector's key is read off
    residues(x), x = (c_0 p, c_1, ...), by default its charpoly's residues
    mod p^(m+3); a vector whose E_1 residues all vanish is passed over."""
    e = len(coeffs)
    q = p**(valuation(e, p) + 3)
    residues = residues or (lambda x: [c % q for c in charpoly(coeffs, x)[:-1]])
    best, visited = (float("inf"), ()), 0
    for cs in itertools.product(range(p**dp), repeat=e):
        if cs[1] % p:
            visited += 1
            res = residues((cs[0] * p, *cs[1:]))
            keys = [valuation(res[i], p) * e + i for i in range(1, e) if i % p and res[i]]
            if keys:  # the first least key: a tie compares the later, larger cs
                best = min(best, (min(keys), cs))
    return (*divmod(best[0], e), best[1], visited)


def tau_search_charpolys(p, e, dp):
    """The key classes tau_v_search computes a charpoly for (m >= 1): c_0 below
    p^(m+1), the other digits below p^(m+2), less the classes with c_1 != 1
    whose multiple by 1/c_1 is an enumerated class with c_1 = 1."""
    R = p**(valuation(e, p) + 2)
    digits = range(min(p**dp, R))
    c0s = range(min(p**dp, R // p))
    stored = set(itertools.product(c0s, [1], *[digits] * (e - 2)))
    computed = 0
    for c0, c1, *rest in itertools.product(c0s, [c for c in digits if c % p],
                                           *[digits] * (e - 2)):
        v = pow(c1, -1, R)
        multiple = (v * c0 % (R // p), 1, *[v * c % R for c in rest])
        computed += c1 == 1 or multiple not in stored
    return computed


def brute_prop2(E, p, n):
    """Prop 2's depth scan over every digit vector c_0..c_d, c_0 a nonzero
    residue, the depth read off E(u) C(u^p) by plain convolution, with E
    ascending and its leading 1: (t*, witnesses in order, vectors scanned)."""
    q, e = p**n, len(E) - 1
    t_max, d = n * e + 1, n * e // p
    best_t, best, count = -1, [], 0
    for c in itertools.product(range(1, q), *[range(q)] * d):
        count += 1
        # coefficient j of E(u) * C(u^p) is the sum of E[j - p*l] * c_l
        t = next((j for j in range(t_max)
                  if sum(E[j - p * l] * x for l, x in enumerate(c)
                         if 0 <= j - p * l <= e) % q), t_max)
        if t > best_t:
            best_t, best = t, []
        if t == best_t:
            best.append(c)
    return best_t, best, count
