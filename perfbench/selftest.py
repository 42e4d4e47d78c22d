"""Self-test of the independent checks: each must accept a known answer and
reject a deliberately wrong one.  Runs before every benchmark run, and alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import sys

import checks

# E = u^4 - 2 at p = 2, n = 2, and its telescoping witness C = 2 + u^2:
# (u^4 - 2)(2 + u^4) = u^8 - 4, so the depth is n*e = 8.
U4M2 = [-2, 0, 0, 0, 1]
TELESCOPING = [2, 0, 1]

# A rank-2 module at p = 2, n = 1, T = 8 with E = u^2 + 2 and d = 1:
# V = [[1, u], [0, 1]], phi = V * diag(E, 1) = [[u^2, u], [0, 1]] mod 2.
T8 = 8


def _s(*cs):
    return list(cs) + [0] * (T8 - len(cs))


V2 = [[_s(1), _s(0, 1)], [_s(0), _s(1)]]
PHI2 = [[_s(0, 0, 1), _s(0, 1)], [_s(0), _s(1)]]


def _altered(phi, i, j, k, value):
    out = [[list(x) for x in row] for row in phi]
    out[i][j][k] = value
    return out


def _det_by_formula(B):
    if len(B) == 2:
        (a, b), (c, d) = B
        return [a * d - b * c, -(a + d), 1]
    (a, b, c), (d, e, f), (g, h, i) = B
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    minors = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    return [-det, minors, -(a + e + i), 1]


def cases():
    """(name, predicate, right answer, wrong answers)."""
    rng = random.Random("selftest")
    mats = [[[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)] for k in (2, 3, 3)]
    yield ("depth of the telescoping witness",
           lambda t: checks.depth(U4M2, TELESCOPING, 2, 2, 9) == t, 8, [7, 9])
    yield ("exhaustive maximal depth of u^4 - 2",
           lambda t: checks.max_depth_search(U4M2, 2, 2)[0] == t, 8, [7, 9])
    found = checks.max_depth_search(U4M2, 2, 2)[1]
    yield ("witness list of u^4 - 2",
           lambda w: checks.max_depth_search(U4M2, 2, 2)[1] == w, found,
           [found[:-1], found + [(1,) * len(found[0])]])
    for B in mats:
        want = _det_by_formula(B)
        wrong = list(want)
        wrong[0] += 1
        yield (f"Newton charpoly of a {len(B)}x{len(B)} matrix",
               lambda c, B=B: checks.charpoly_newton(B) == c, want, [wrong])
    # pi~ = pi + 2 with pi^2 = 2: (x - 2)^2 - 2 = x^2 - 4x + 2, mod 2^4
    yield ("substituted u^2 - 2 under pi + 2",
           lambda c: checks.substituted([-2, 0, 1], (1, 1), 2, 4) == c, [2, 12], [[2, 13], [3, 12]])
    yield ("tau search on u^2 - 2 (tau = 2, iota = 1)",
           lambda ti: checks.tau_search([-2, 0, 1], 2, 2, 4)[:2] == ti, (2, 1), [(1, 1), (2, 2)])
    yield ("s recursion at p = 2, e = 2, tau = 2, iota = 1",
           lambda s: checks.s_recursion(2, 2, 2, 1) == s, 5, [4, 6])
    yield ("closed form at p = 2, e = 3",
           lambda s: checks.s_recursion(2, 3, 1, 0) == checks.s_closed_form(2, 3) == s, 2, [1, 3])
    yield ("global bound at p = 2, e = 2", lambda s: checks.s_within_global_bound(2, 2, s),
           5, [6])
    yield ("normal decomposition multiply-out",
           lambda phi: checks.normal_decomposition_holds(phi, V2, 1, [2, 0, 1], 2, 1, T8),
           PHI2, [_altered(PHI2, 1, 1, 0, 0), _altered(PHI2, 0, 0, 3, 1)])
    yield ("unit determinant of V(0)", lambda V: checks.unit_det_at_zero(V, 2),
           V2, [[[_s(1), _s(1)], [_s(1), _s(1)]]])
    yield ("apply_phi reference on e_1 / u",
           lambda r: checks.apply_phi_reference(PHI2, 1, [_s(1), _s(0)], 2, 1, T8) == r,
           (0, [_s(1), _s(0)]), [(1, [_s(0, 1), _s(0)]), (0, [_s(1), _s(1)])])
    yield ("Example 3 inclusion exponent at p = 2, n = 3",
           lambda s: checks.least_inclusion_exponent([[4, 2, 1, 0]], 3, 2, 3) == s, 3, [2, 4])
    yield ("series product", lambda c: checks.conv([1, 2, 3], [3, 1, 0], 8, 3) == c,
           [3, 7, 3], [[3, 7, 4]])
    yield ("unit inverse", lambda b: checks.is_inverse([1, 1, 0], b, 4, 3),
           [1, 3, 1], [[1, 3, 0]])
    # a = U * W mod (8, u^4) for a unit U and a Weierstrass polynomial W of degree 2
    unit, wpoly = [3, 1, 2, 5], [2, 4, 1, 0]
    w_a = checks.conv(unit, wpoly, 8, 4)
    yield ("Weierstrass factorisation", lambda f: checks.weierstrass_holds(w_a, *f, 2, 3),
           (0, 2, wpoly, unit), [(0, 2, wpoly, [3, 2, 2, 5]), (1, 2, wpoly, unit),
                                 (0, 2, [2, 5, 1, 0], unit)])


def run() -> list[str]:
    problems = []
    for name, check, right, wrongs in cases():
        if not check(right):
            problems.append(f"self-test {name}: rejects the right answer {right}")
        for wrong in wrongs:
            if check(wrong):
                problems.append(f"self-test {name}: accepts the wrong answer {wrong}")
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
