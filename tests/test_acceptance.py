"""Acceptance gate: nine criteria, each with pinned exact expectations and a
runtime ceiling, printing one pass/fail line per criterion (run with -s)."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from reference import admissible_pairs, taylor_shift

from ramibound import breuil, oracle, suites
from ramibound.bounds import bound_f11, compute_s
from ramibound.eisenstein import (
    EisensteinPolynomial,
    UniformizerChange,
    substitute,
    tau_v_search,
)


@contextmanager
def criterion(num: int, limit_s: float, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {summary}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num}: PASS - {summary} ({elapsed:.2f}s)", flush=True)
    assert elapsed < limit_s, f"criterion {num} took {elapsed:.2f}s >= {limit_s}s"


def test_criterion_1_small_degree_zero_exponent():
    with criterion(1, 1.0, "s = 0 whenever e <= p - 2"):
        for p in (3, 5, 7, 11, 13):
            for e in range(1, p - 1):
                assert compute_s(p, e, 1, 0).s == 0


def test_criterion_2_unramified_closed_form():
    with criterion(2, 1.0, "modified recursion matches 1 + floor(log_p(e/(p-1)))"):
        for p in (2, 3, 5, 7):
            for e in range(1, 301):
                if e % p == 0 or e < p - 1:
                    continue
                s = compute_s(p, e, 1, 0, variant="modified").s
                # independent route: largest v with p^v * (p-1) <= e
                v = 0
                while p ** (v + 1) * (p - 1) <= e:
                    v += 1
                assert s == 1 + v
                assert (s == 1) == (p - 1 <= e <= p * p - p - 1)


def test_criterion_3_global_bound_sweep():
    with criterion(3, 5.0, "s <= (2e-1+e*m)/(p-1) and sums strictly decrease"):
        for p in (2, 3, 5):
            for e in range(1, 61):
                cap = bound_f11(p, e)
                for tau, iota in admissible_pairs(p, e):
                    trace = compute_s(p, e, tau, iota)
                    assert Fraction(trace.s) <= cap
                    sums = [t + s for t, s in trace.pairs]
                    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_criterion_4_cascade_family():
    with criterion(4, 30.0, "telescoping identity, tau search = 2, s caps for u^p - p"):
        for p in (2, 3, 5):
            rep = suites.suite_example3(p, 8)
            assert rep["ok"] and rep["assertions"]["telescoping-identity"]["pass"] == 8
        for p in (2, 3):
            eis = EisensteinPolynomial(p, (-p,) + (0,) * (p - 1))
            found = tau_v_search(eis, digit_precision=2)
            assert found.tau == 2 and not found.certified_exact
        # s stays under the cap for every invariant pair the search could return
        for p, cap in ((3, 4), (5, 3)):
            e = p
            worst = max(
                compute_s(p, e, tau, iota).s
                for tau in (1, 2)
                for iota in range(1, e)
                if iota % p != 0
            )
            assert worst <= cap


def test_criterion_5_exhaustive_depth_oracle():
    with criterion(5, 60.0, "depth and witness profile over the p = 2 grid"):
        polys = witnesses = eligible = 0
        for e in (2, 4):
            for n in (1, 2):
                for eis in oracle.eisenstein_grid(2, e, n):
                    polys += 1
                    cfg = oracle.default_config(eis, n)
                    res = oracle.prop2_max_t(cfg)
                    inv = eis.invariants()
                    if math.isinf(inv.tau):
                        assert res.t_star <= n * e
                    else:
                        assert res.t_star <= min(inv.tau * e + inv.iota, n * e)
                    witnesses += len(res.witnesses)
                    assert all(res.assertions.values())
                    for w in res.witnesses:
                        try:
                            report = oracle.lemma4_check(cfg, w.coeffs, res.t_star)
                        except ValueError:
                            continue
                        eligible += 1
                        assert all(report.checks.values())
        assert polys == 2 + 8 + 8 + 128
        assert eligible > 0 and witnesses > 0


def test_criterion_6_pole_growth_membership():
    with criterion(6, 30.0, "twist membership on 200 seeded modules"):
        for p in (2, 3):
            rep = suites.suite_lemma1(p, 2, seeds=100)
            assert rep["ok"]
            tallies = rep["assertions"]
            assert tallies["twist-membership"]["fail"] == 0
            assert tallies["twist-membership"]["pass"] >= 100


def test_criterion_7_inclusion_exponents_and_stability():
    with criterion(7, 5.0, "cascade inclusions are tight; stability tables match"):
        for p in (2, 3):
            for n in range(1, 6):
                M, gen = breuil.example3_module(p, n)
                assert breuil.verify_inclusion_p_s(M, [gen], n)
                assert not breuil.verify_inclusion_p_s(M, [gen], n - 1)
            for e in range(1, 9):
                if e == 1:
                    eis = EisensteinPolynomial(p, (p,))
                else:
                    eis = EisensteinPolynomial(p, (p, p) + (0,) * (e - 2))
                assert oracle.descent_minimal_s(eis) == [
                    (a // (p - 1), 0 if a < p - 1 else 1) for a in range(e + 1)
                ]


def test_criterion_8_heights():
    with criterion(8, 5.0, "h4 matches the decomposition on modules and extensions"):
        rep = suites.suite_heights(seeds=50)
        assert rep["ok"]
        # 25 seeded modules at n = 1 and 50 extensions
        assert rep["assertions"] == {"h4-matches-decomposition": {"pass": 75, "fail": 0}}


def test_criterion_9_substitution_cross_route():
    with criterion(9, 5.0, "matrix route equals direct shift on 100 random pairs"):
        rng = random.Random(20260810)
        N = 5
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            e = rng.randint(2, 4)
            while True:
                a0 = p * rng.randint(-6, 6)
                if a0 and (a0 // p) % p != 0:
                    break
            eis = EisensteinPolynomial(
                p, (a0,) + tuple(p * rng.randint(-6, 6) for _ in range(e - 1))
            )
            q = p**N
            c0 = rng.randrange(q)
            out = substitute(eis, UniformizerChange(p, N, (c0, 1) + (0,) * (e - 2)), N)
            expected = taylor_shift(eis.coeffs, -c0 * p)
            assert out.coeffs == tuple(c % q for c in expected[:e])
