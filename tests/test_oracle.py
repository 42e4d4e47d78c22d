"""Exhaustive searches: frozen instances, completeness counting, determinism,
and the full small-parameter grid against a brute-force reference scan."""

import dataclasses
import random
import re
import tracemalloc
from itertools import product

import pytest
from mutants import NoPower
from reference import brute_prop2

from ramibound import breuil, oracle, suites
from ramibound.eisenstein import EisensteinPolynomial
from ramibound.oracle import (
    OracleViolationError,
    SearchConfig,
    WitnessReport,
    check_budget,
    check_scan_budget,
    cor5_check,
    default_config,
    descent_minimal_s,
    eisenstein_grid,
    lemma4_check,
    prop2_max_t,
    weierstrass_degree,
    weierstrass_polys,
)
from ramibound.series import BudgetExceededError, Precision, TruncatedSeries

E22 = EisensteinPolynomial(2, (-2, 0))       # tau infinite
E221 = EisensteinPolynomial(2, (2, 2))       # tau = 1, iota = 1


def searched(cfg):
    """prop2_max_t, with every assertion of its map holding."""
    r = prop2_max_t(cfg)
    assert all(r.assertions.values()), (cfg.eis, cfg.n, r.assertions)
    return r


# -- maximal depth ---------------------------------------------------------------

def test_prop2_examples():
    r = searched(default_config(E221, 1))
    assert r.t_star == 2  # min(tau*e + iota, n*e) = min(3, 2)
    assert (1, 0) in [w.coeffs for w in r.witnesses]

    r = searched(default_config(E22, 2))
    assert r.t_star == 4  # n*e, tau infinite
    assert (2, 1, 0) in [w.coeffs for w in r.witnesses]  # C = u + 2

    r = searched(default_config(E22, 1))
    assert r.t_star == 2
    assert (1, 0) in [w.coeffs for w in r.witnesses]


def test_prop2_counts_cover_the_space():
    for eis, n in [(E221, 1), (E221, 2), (E22, 2)]:
        cfg = default_config(eis, n)
        r = searched(cfg)
        assert r.candidates_visited == r.space_size
        q = eis.p**n
        assert r.space_size == (q - 1) * q**cfg.degree_bound


def test_prop2_u4_minus_2_at_n3_pinned_with_small_peak():
    cfg = default_config(EisensteinPolynomial(2, (-2, 0, 0, 0)), 3)
    tracemalloc.start()
    try:
        r = searched(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.t_star == 12 and len(r.witnesses) == 256
    assert r.candidates_visited == r.space_size == check_budget(2, 4, 3, cfg.budget) == 7 * 8**6
    assert peak < 10 * 2**20  # only the cylinders tied at the best depth are kept


def test_prop2_witness_list_peak_memory():
    # 16384 witnesses; each keeps its coefficient tuple and no map of checks
    cfg = default_config(EisensteinPolynomial(2, (2, 2, 0, 0)), 3)
    tracemalloc.start()
    try:
        r = searched(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.t_star == 5 and len(r.witnesses) == 16384
    assert peak < 4.5 * 2**20


def test_prop2_determinism():
    a = searched(default_config(E22, 2))
    b = searched(default_config(E22, 2))
    assert [w.coeffs for w in a.witnesses] == [w.coeffs for w in b.witnesses]
    assert a.t_star == b.t_star


def test_prop2_budget_guard():
    with pytest.raises(BudgetExceededError):
        prop2_max_t(default_config(E22, 2, budget=3))


def test_prop2_witnesses_reverified_through_the_ring():
    r = searched(default_config(E22, 2))
    assert r.assertions["witnesses-reverified"] is True


def test_prop2_reverification_catches_a_wrong_twist(monkeypatch):
    # the walk reads raw residues and never twists, so a twist that also
    # multiplies by u leaves t* and the witnesses alone, but every product
    # then has u-order t* + 1 and the depth re-check fails on every witness
    cfg = default_config(E22, 2)
    good = searched(cfg)
    real = oracle.frobenius
    monkeypatch.setattr(oracle, "frobenius",
                        lambda s: real(s) * TruncatedSeries.monomial(s.prec, 1))
    bad = prop2_max_t(cfg)
    assert (bad.t_star, bad.witnesses) == (good.t_star, good.witnesses)
    assert bad.assertions == {**good.assertions, "witnesses-reverified": False}


def test_prop2_reverification_keeps_a_failure_before_the_last_witness(monkeypatch):
    # only the first of several witnesses is twisted wrongly: the verdict
    # folds every witness, not just the last one re-checked
    cfg = default_config(E22, 2)
    real, calls = oracle.frobenius, []

    def first_wrong(s):
        calls.append(s)
        twisted = real(s)
        return twisted * TruncatedSeries.monomial(s.prec, 1) if len(calls) == 1 else twisted

    monkeypatch.setattr(oracle, "frobenius", first_wrong)
    r = prop2_max_t(cfg)
    assert len(calls) == len(r.witnesses) > 1
    assert r.assertions == {"t-le-ne": True, "witnesses-reverified": False}


def test_prop2_kill_check_catches_a_wrong_tau(monkeypatch):
    # u^2 + 2u + 2 has tau = 1, so at n = 2 the kill p^(tau+1) = 4 is 0 and
    # every twisted witness passes; with tau read one too small the kill is
    # 2, which leaves some 2 * twist(C) outside (u^t*, 4)
    cfg = default_config(E221, 2)
    assert searched(cfg).assertions["witnesses-reverified"] is True
    real = EisensteinPolynomial.invariants
    monkeypatch.setattr(EisensteinPolynomial, "invariants",
                        lambda self: dataclasses.replace(real(self), tau=real(self).tau - 1))
    r = prop2_max_t(cfg)
    assert r.assertions["witnesses-reverified"] is False


def test_prop2_reports_a_walk_that_reaches_the_cap(monkeypatch):
    # t_max = n*e + 1, so a walk reaching it breaks t <= n*e, which t-le-ne
    # reports; the witnesses' true depth is below the cap, so their
    # re-check fails too
    cfg = default_config(E22, 2)
    real = oracle._walk

    def capped(cfg):
        _, cylinders, visited = real(cfg)
        return cfg.t_max, cylinders, visited

    monkeypatch.setattr(oracle, "_walk", capped)
    res = prop2_max_t(cfg)
    assert res.t_star == cfg.t_max
    assert res.assertions == {"t-le-ne": False, "witnesses-reverified": False}


def test_prop2_raises_on_an_incomplete_walk(monkeypatch):
    # the one failure prop2_max_t raises instead of returning in its map
    real = oracle._walk

    def short(cfg):
        best_t, cylinders, visited = real(cfg)
        return best_t, cylinders, visited - 1

    monkeypatch.setattr(oracle, "_walk", short)
    with pytest.raises(OracleViolationError, match="enumeration incomplete: visited 47 of 48"):
        prop2_max_t(default_config(E22, 2))


def test_prop2_witnesses_carry_coefficients_only():
    r = searched(default_config(E22, 2))
    assert all(type(w) is WitnessReport and w.checks is None for w in r.witnesses)
    assert not hasattr(r.witnesses[0], "__dict__")


# -- u-precision: each series check at the least T holding what it reads ----------------

def _search_wide(cfg):
    """The search-wide u-precision every check once ran at: it holds each
    product whole (E or E_2 of degree at most e, C of degree at most
    degree_bound), so the sized checks are compared against it."""
    return max(cfg.e + cfg.p * cfg.degree_bound, cfg.t_max) + 1


def _verdicts(cfg, wide):
    """prop2_max_t, lemma4_check on every witness, and cor5_check of each
    staircase witness against every Weierstrass E_2 of degree below e; with
    wide=True every series check runs at the search-wide u-precision.

    Returns the search result, the (T, u-order) that each depth re-check
    read, and the lemma4 and cor5 verdicts in witness order."""
    p, e, n = cfg.p, cfg.e, cfg.n
    depths, lemma4, cor5, ord_u = [], [], [], TruncatedSeries.ord_u
    with pytest.MonkeyPatch.context() as mp:
        if wide:
            T = _search_wide(cfg)
            mp.setattr(oracle, "Precision", lambda p, n, _: Precision(p, n, T))
        mp.setattr(TruncatedSeries, "ord_u",
                   lambda s: depths.append((s.prec.T, ord_u(s))) or depths[-1][1])
        res = prop2_max_t(cfg)
        for w in res.witnesses:
            try:
                checks = lemma4_check(cfg, w.coeffs, res.t_star, strict=False).checks
            except ValueError as err:
                lemma4.append(str(err))
                continue
            lemma4.append(checks)
            if all(checks.values()):
                cor5.append([cor5_check(p, n, e2, w.coeffs, res.t_star)
                             for l in range(e) for e2 in weierstrass_polys(p, n, l)])
    return res, depths, lemma4, cor5


def _same_at_both_precisions(cfg):
    """The sized checks and the search-wide ones agree on every verdict.
    Returns the number of cor5 instances compared."""
    res, depths, lemma4, cor5 = _verdicts(cfg, wide=False)
    ref, ref_depths, ref_lemma4, ref_cor5 = _verdicts(cfg, wide=True)
    assert res.assertions == ref.assertions and all(res.assertions.values())
    assert (res.t_star, res.candidates_visited) == (ref.t_star, ref.candidates_visited)
    assert [w.coeffs for w in res.witnesses] == [w.coeffs for w in ref.witnesses]
    T = max(res.t_star, cfg.e) + 1
    assert depths == [(T, res.t_star)] * len(res.witnesses)
    assert ref_depths == [(_search_wide(cfg), res.t_star)] * len(res.witnesses)
    assert (lemma4, cor5) == (ref_lemma4, ref_cor5)
    return sum(map(len, cor5))


@pytest.mark.parametrize("p, e, n, instances", [(2, 2, 2, 24), (2, 4, 2, 2880),
                                                (3, 3, 2, 6318)])
def test_sized_checks_match_the_search_wide_scope_on_the_grid(p, e, n, instances):
    # every polynomial of the grid; the (2, 4, 2) scan meets each staircase
    # witness with every Weierstrass E_2 of degree below 4
    assert sum(_same_at_both_precisions(default_config(eis, n))
               for eis in eisenstein_grid(p, e, n)) == instances


def test_sized_checks_match_the_search_wide_scope_on_u4_2u_2_at_n3():
    # 16384 witnesses at T = 6 against the search-wide T = 17
    cfg = default_config(EisensteinPolynomial(2, (2, 2, 0, 0)), 3)
    assert _search_wide(cfg) == 17
    _same_at_both_precisions(cfg)


@pytest.mark.parametrize("eis, n", [(E22, 2), (E221, 2),
                                    (EisensteinPolynomial(2, (2, 2, 0, 0)), 2),
                                    (EisensteinPolynomial(3, (3, 0, 0)), 2)])
def test_prop2_depth_recheck_reads_coefficient_t_star(monkeypatch, eis, n):
    # a walk that reports its witnesses one shallower than they really are:
    # each product vanishes through the reported t*, so only a re-check that
    # keeps coefficient t* (T = t* + 1 here) sees that none has u-order t*
    cfg = default_config(eis, n)
    good = searched(cfg)
    real = oracle._walk

    def shallow(cfg):
        t, cylinders, visited = real(cfg)
        return t - 1, cylinders, visited

    monkeypatch.setattr(oracle, "_walk", shallow)
    bad = prop2_max_t(cfg)
    assert bad.t_star == good.t_star - 1 >= cfg.e
    assert bad.assertions == {**good.assertions, "witnesses-reverified": False}


@pytest.mark.parametrize("p, e, n", [(2, 2, 1), (2, 4, 2), (3, 3, 2), (5, 2, 3), (2, 2, 40),
                                     (7, 3, 30), (1009, 2, 2), (2, 500, 3), (1009, 60, 1),
                                     (1009, 100, 1)])
@pytest.mark.parametrize("budget", [1, 10, 767, 768, 10**8, 2**300, 2**600])
def test_check_budget_matches_the_closed_forms(p, e, n, budget):
    # the exponent shortcut never changes a verdict: compare with the sizes
    d = n * e // p
    space = (p**n - 1) * p**(n * d)
    total = (p - 1) * p**(n * e - 1) * space
    if space > budget:
        with pytest.raises(BudgetExceededError, match="the prop2 search at"):
            check_budget(p, e, n, budget, sweep=True)
    elif total > budget:
        assert check_budget(p, e, n, budget) == space
        with pytest.raises(BudgetExceededError, match="the prop2 sweep over"):
            check_budget(p, e, n, budget, sweep=True)
    else:
        assert check_budget(p, e, n, budget, sweep=True) == space


def test_check_budget_prints_huge_sizes_as_powers():
    with pytest.raises(BudgetExceededError,
                       match=re.escape("would visit (2^3000 - 1)*2^9000000 candidates")):
        check_budget(2, 2, 3000, 10**8)
    with pytest.raises(BudgetExceededError,
                       match=re.escape("would visit 1008*1009^99*(1009^1 - 1)*1009^0 candidates")):
        check_budget(1009, 100, 1, 10**8, sweep=True)
    with pytest.raises(BudgetExceededError, match="would visit 3758096384 candidates"):
        check_budget(2, 4, 3, 10**8, sweep=True)
    check_budget(2, 4, 3, 3758096384, sweep=True)


@pytest.mark.parametrize("p, e, n", [(2, 2, 1), (2, 2, 2), (3, 3, 2), (2, 4, 3), (5, 5, 2)])
@pytest.mark.parametrize("witnesses", [0, 1, 6])
def test_check_scan_budget_counts_every_multiplier(p, e, n, witnesses):
    # the closed form against the multipliers the scan enumerates
    calls = witnesses * sum(1 for l in range(e) for _ in weierstrass_polys(p, n, l))
    assert check_scan_budget(p, e, n, witnesses, calls) == calls
    if calls:
        with pytest.raises(BudgetExceededError, match=f"would make {calls} cor5_check"):
            check_scan_budget(p, e, n, witnesses, calls - 1)


def test_check_scan_budget_prints_huge_counts_as_powers():
    with pytest.raises(BudgetExceededError,
                       match=re.escape("would make 3*(2^25344 - 1)/(2^99 - 1) cor5_check")):
        check_scan_budget(2, 256, 100, 3, 10**8)


def test_prop2_gate_comes_before_any_power_of_p():
    # p**n at n = 10^11 would not finish; the gate prices the space by exponent
    with pytest.raises(BudgetExceededError, match=re.escape("would visit (2^100000000000 - 1)")):
        prop2_max_t(default_config(E22, NoPower(10**11)))


def test_config_validation():
    with pytest.raises(ValueError, match="n must be"):
        SearchConfig(eis=E22, n=0)
    with pytest.raises(ValueError, match="exact"):
        SearchConfig(eis=EisensteinPolynomial(2, (2,), precision=3), n=1)
    cfg = SearchConfig(eis=EisensteinPolynomial(3, (3, 0, 0, 0)), n=2)
    assert (cfg.t_max, cfg.degree_bound) == (9, 2)
    assert check_budget(cfg.p, cfg.e, cfg.n, cfg.budget) == prop2_max_t(cfg).space_size == 8 * 9**2


# -- the Weierstrass witness profile ------------------------------------------------

def test_lemma4_examples():
    cfg = default_config(E22, 2)
    rep = lemma4_check(cfg, (2, 1, 0), 4)  # C = u + 2, d = 1 = (n-1)e/p
    assert all(rep.checks.values())

    cfg1 = default_config(E22, 1)
    rep = lemma4_check(cfg1, (1, 0), 2)  # C = 1, d = 0 at n = 1
    assert all(rep.checks.values())

    with pytest.raises(ValueError, match="u\\^t"):
        lemma4_check(cfg, (2, 1, 0), 5)  # depth 4 witness fails at t = 5
    with pytest.raises(ValueError, match="Weierstrass"):
        lemma4_check(cfg, (1, 1, 0), 4)  # constant term not divisible by p


def test_lemma4_staircase_fails_on_a_wrong_valuation(monkeypatch):
    # one more than the true valuation puts ord_p(c_0) of C = u + 2 off the
    # staircase n - 1 = 1; the other checks do not read valuations
    real = oracle.int_valuation
    monkeypatch.setattr(oracle, "int_valuation", lambda x, p: real(x, p) + 1)
    cfg = default_config(E22, 2)
    rep = lemma4_check(cfg, (2, 1), 4, strict=False)
    assert rep.checks == {"lemma4-degree": True, "f3-valuations": False, "t-le-ne": True}
    with pytest.raises(OracleViolationError,
                       match=re.escape("violated: ['f3-valuations'] for C = (2, 1), t = 4")):
        lemma4_check(cfg, (2, 1), 4)


def test_lemma4_requires_p_dividing_e():
    eis = EisensteinPolynomial(3, (3, 0))  # e = 2, p = 3
    cfg = default_config(eis, 1)
    with pytest.raises(ValueError, match="divides"):
        lemma4_check(cfg, (1,), 2)


@pytest.mark.parametrize("call, message", [
    # C = (4, 1) reduces to u mod 4: Weierstrass of degree 1, but c_0 = 0
    (lambda: lemma4_check(default_config(E22, 2), (4, 1), 3),
     "constant term vanishes mod p^n"),
], ids=["lemma4-c0-vanishes"])
def test_refusals_raise_their_documented_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value) == message


@pytest.mark.parametrize("p, e, n, eligible", [(2, 4, 2, 192), (2, 2, 3, 16), (3, 3, 2, 486)])
def test_tied_cylinders_leave_the_depth_to_their_prefix(p, e, n, eligible):
    # (a) a tail digit l of a tied cylinder has p*l >= p*len(prefix) > t*, so it
    # cannot touch a coefficient up to u^t*; (b) hence every witness that
    # lemma4_check accepts (p*deg C < t*) is a cylinder's zero-tail representative;
    # (c) the lemma4 suite, which chooses witnesses by Lemma 4's hypotheses
    # instead of by this exception filter, finds exactly the same count
    q = p**n
    accepted = 0
    for eis in eisenstein_grid(p, e, n):
        cfg = default_config(eis, n)
        t_star, cylinders, _ = oracle._walk(cfg)
        res = searched(cfg)
        assert res.t_star == t_star
        assert all(p * len(prefix) > t_star for prefix, free in cylinders if free > 0)
        split = [(prefix, tail) for prefix, free in cylinders
                 for tail in product(range(q), repeat=free)]
        assert [prefix + tail for prefix, tail in split] == [w.coeffs for w in res.witnesses]
        for prefix, tail in split:
            try:
                lemma4_check(cfg, prefix + tail, t_star, strict=False)
            except ValueError:
                continue
            assert not any(tail), (eis, prefix, tail)
            accepted += 1
    assert accepted == eligible
    report = suites.suite_lemma4(p, n, e=e)
    assert report["ok"] and report["config"]["eligible_witnesses"] == eligible


# -- low-degree multipliers -----------------------------------------------------------

def test_cor5_examples():
    # n = 1: C is the constant 1, so membership forces the degree
    assert cor5_check(2, 1, (0, 1), (1,), 1)
    # the full scan at p=2, n=2, e=2, l=1 with the staircase witness u+2
    for e2 in weierstrass_polys(2, 2, 1):
        assert cor5_check(2, 2, e2, (2, 1), 4)
    # degenerate t = 0 is vacuous
    assert cor5_check(2, 2, (0, 1), (2, 1), 0)


def test_weierstrass_degree():
    assert weierstrass_degree((2, 1, 0), 2) == 1
    assert weierstrass_degree((1,), 2) == 0
    assert weierstrass_degree((0, 4, 1), 2) == 2
    assert weierstrass_degree((1, 1), 2) is None  # constant term not divisible by p
    assert weierstrass_degree((2, 3), 2) is None  # not monic
    assert weierstrass_degree((0, 0), 2) is None  # zero


def test_cor5_rejects_non_weierstrass():
    with pytest.raises(ValueError):
        cor5_check(2, 2, (1, 1), (2, 1), 1)  # constant not divisible by p


def test_weierstrass_poly_generator():
    assert list(weierstrass_polys(2, 2, 1)) == [(0, 1), (2, 1)]
    assert list(weierstrass_polys(2, 1, 2)) == [(0, 0, 1)]
    assert list(weierstrass_polys(2, 2, 0)) == [(1,)]


# -- rank-1 stability tables ------------------------------------------------------------

def test_descent_examples():
    rows = descent_minimal_s(E22)
    assert rows[2] == (2, 1)
    assert rows[0] == (0, 0)
    assert rows[1] == (1, 1)

    rows = descent_minimal_s(EisensteinPolynomial(3, (3, 3, 0)))
    assert rows[0] == (0, 0)
    assert rows[1] == (0, 0)  # j = 1 needs (p-1)*1 <= a
    assert rows[3] == (1, 1)


@pytest.mark.parametrize("p", [2, 251])
def test_descent_sizes_each_module_by_the_poles_it_tests(monkeypatch, p):
    # pole j needs T = max(p*j, e + 1); a row is rebuilt only when a pole
    # needs more, so p = 251 stays at T <= 2p where a table-wide T would
    # be p(e+1) + e + 1 = 64,764
    e, sizes = 256, []
    build = breuil.BreuilModule

    def sized(**kwargs):
        sizes.append(kwargs["prec"].T)
        return build(**kwargs)

    monkeypatch.setattr(breuil, "BreuilModule", sized)
    rows = descent_minimal_s(EisensteinPolynomial(p, (p, p) + (0,) * (e - 2)))
    assert rows == [(a // (p - 1), 0 if a < p - 1 else 1) for a in range(e + 1)]
    top = max(p * (j + 1) for j, _ in rows)
    assert max(sizes) == max(top, e + 1)
    assert e + 1 <= len(sizes) <= 2 * (e + 1)


# -- grids -------------------------------------------------------------------------------

def test_eisenstein_grid_counts():
    assert len(list(eisenstein_grid(2, 2, 1))) == 2
    assert len(list(eisenstein_grid(2, 2, 2))) == 8
    assert len(list(eisenstein_grid(2, 4, 2))) == 128
    assert len(list(eisenstein_grid(3, 3, 2))) == 486


@pytest.mark.parametrize("p, e, n", [(2, 2, 2), (2, 4, 2), (3, 3, 2), (5, 2, 1)])
def test_grid_size_closed_form(p, e, n):
    # the count check_budget multiplies the per-search space by
    assert len(list(eisenstein_grid(p, e, n))) == (p - 1) * p**(n * e - 1)


@pytest.mark.parametrize("e,n", [(0, 1), (2, 0), (-1, 2)])
def test_eisenstein_grid_rejects_degenerate_sizes(e, n):
    with pytest.raises(ValueError, match="grid needs"):
        eisenstein_grid(2, e, n)


def test_prop2_full_small_grid():
    # every Eisenstein polynomial on the coefficient grid, every assertion held;
    # the walk matches the brute scan on every grid but (3, 4, 2), where it
    # is compared on a fixed sample of 200 polynomials
    sample = set(random.Random(0).sample(range(4374), 200))
    for p in (2, 3):
        for e in (2, 3, 4):
            for n in (1, 2):
                for k, eis in enumerate(eisenstein_grid(p, e, n)):
                    r = searched(default_config(eis, n))
                    if (p, e, n) == (3, 4, 2) and k not in sample:
                        continue
                    t, wits, count = brute_prop2(eis.all_coeffs(), p, n)
                    assert r.t_star == t
                    assert [w.coeffs for w in r.witnesses] == wits
                    assert r.candidates_visited == count
