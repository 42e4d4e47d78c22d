"""Exhaustive desk-scale searches over twist-multiplier polynomials.

The central question: given an Eisenstein polynomial E, a p-adic precision
n, and a polynomial C whose constant term is nonzero mod p^n, how deep can
E * twist(C) sit inside the ideal (u^t, p^n)?  prop2_max_t answers it over
every C up to the degree bound of SearchConfig and reports the maximal t
together with all witnesses attaining it.

Coefficient j of E(u) * C(u^p) depends only on c_0..c_{floor(j/p)}, so the
search is one depth-first walk over the digits c_0, c_1, ... in
lexicographic order: choosing c_k fixes the coefficients j in
[p*k, p*(k+1)).  At the first nonzero coefficient every completion of the
prefix has that depth, so the walk accounts for the whole cylinder
(q^free candidates, q = p^n) at once and goes no deeper.  Only the
cylinders tied at the running best depth are kept; at the end they are
expanded into the explicit witness list, which inherits the lexicographic
order.

The walk runs on raw residues; every reported witness is then re-verified
through TruncatedSeries arithmetic (E * twist(C) of u-order exactly t*, and
twist(C) in (u^t*, p^n) after the p-power kill), so the fast path never
silently vouches for itself.  Each series check runs mod u^T for the least T
holding the coefficients it reads.  Reduction mod u^T is a ring map that
commutes with the twist (u^T goes to u^(pT), inside (u^T)), so u-order t* is
decided by coefficients 0..t* (T = max(t*, e) + 1: E needs T > e) and
membership in (u^t, p^n) by coefficients 0..t-1 (T = t, or 1 when t = 0).
Witnesses carry only coefficients; their re-checks fold into
witnesses-reverified.  The tests check the walk against a plain brute-force
scan.  search_key names the polynomials one search answers for.

The invariants of the surrounding theory (t <= n*e, t <= tau*e + iota when
tau is finite, the re-checks; lemma4_check adds the Weierstrass witness
profile when p | e) come back in an assertion map for the suites to tally;
a violation would falsify the implementation rather than the theory.
OracleViolationError is raised only for a walk that misses part of the
space, and by a strict lemma4_check.  check_budget refuses an oversized
search, or sweep over a grid, before any power of p is computed, and
check_scan_budget so refuses an oversized cor5 scan; both refuse through
series._oversize, the one size rule, as the tau search does its cap.  Each
gate returns the size it priced, which is the one its caller reports:
prop2_max_t's space_size and suite_cor5's instances.
lemma4_check reads ord_p of each witness coefficient once and the
valuation staircase off that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from . import breuil
from .eisenstein import EisensteinPolynomial
from .series import Precision, TruncatedSeries, _oversize, frobenius, int_valuation


class OracleViolationError(AssertionError):
    """An asserted invariant failed during an exhaustive run."""


DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class SearchConfig:
    """Scope of one exhaustive run over multipliers C = c_0 + ... + c_d u^d.

    Every depth up to n*e is probed: t_max = n*e + 1 exposes a violation of
    t <= n*e instead of hiding it.  degree_bound = floor(n*e / p) is the
    largest d with p*d < t_max; a monomial c_l u^l with p*l >= t_max cannot
    touch a coefficient below u^t_max of E * twist(C), so truncating C to
    degree d keeps its depth.  The space holds c_0 in [1, p^n) and
    c_1..c_d in [0, p^n); check_budget bounds its size before any work."""

    eis: EisensteinPolynomial
    n: int
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.eis.precision is not None:
            raise ValueError("searches need exact integer Eisenstein input")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def p(self) -> int:
        return self.eis.p

    @property
    def e(self) -> int:
        return self.eis.e

    @property
    def t_max(self) -> int:
        return self.n * self.e + 1

    @property
    def degree_bound(self) -> int:
        return (self.n * self.e) // self.p


def default_config(eis: EisensteinPolynomial, n: int,
                   budget: int = DEFAULT_BUDGET) -> SearchConfig:
    """SearchConfig(eis, n, budget), as perfbench and the tests call it."""
    return SearchConfig(eis=eis, n=n, budget=budget)


@dataclass(slots=True)
class WitnessReport:
    """A witness by its coefficients; only lemma4_check attaches checks."""

    coeffs: tuple[int, ...]
    checks: dict[str, bool] | None = None


@dataclass
class Prop2Result:
    t_star: int
    witnesses: list[WitnessReport]
    candidates_visited: int
    space_size: int
    assertions: dict[str, bool]


def weierstrass_degree(c: tuple[int, ...], p: int) -> int | None:
    """deg C when C is monic with every lower coefficient divisible by p,
    else None (the zero polynomial included)."""
    deg = next((i for i in range(len(c) - 1, -1, -1) if c[i]), None)
    if deg is None or c[deg] != 1 or any(x % p for x in c[:deg]):
        return None
    return deg


def check_budget(p: int, e: int, n: int, budget: int, sweep: bool = False) -> int:
    """The candidate count of one prop2 search at (p, e, n).  Refuse a
    search over more than budget candidates, and with sweep=True one over
    every polynomial of eisenstein_grid(p, e, n), by raising
    BudgetExceededError before any work.

    One search visits (q - 1) * q^d candidates, q = p^n and d = n*e // p;
    the grid holds (p - 1) * p^(n*e - 1) polynomials.  The single search
    is checked first, so its message is the one a sweep of oversized
    searches reports."""
    d = n * e // p
    space = _oversize(p, n * (d + 1), lambda: (p**n - 1) * p**(n * d),
                      f"({p}^{n} - 1)*{p}^{n * d}", budget,
                      f"the prop2 search at n = {n} would visit {{}} candidates, "
                      f"over the budget of {budget}")
    if sweep:
        _oversize(p, n * (e + d + 1),
                  lambda: (p - 1) * p**(n * e - 1) * (p**n - 1) * p**(n * d),
                  f"{p - 1}*{p}^{n * e - 1}*({p}^{n} - 1)*{p}^{n * d}", budget,
                  f"the prop2 sweep over the degree-{e} grid at n = {n} would visit {{}} "
                  f"candidates, over the budget of {budget}")
    return space


def check_scan_budget(p: int, e: int, n: int, witnesses: int, budget: int) -> int:
    """The cor5_check call count of a cor5 scan, refused before its first
    call when over budget: each staircase witness meets the p^((n-1)l)
    Weierstrass polynomials of each degree l < e, p^((n-1)(e-1)) or more."""
    per = f"({p}^{(n - 1) * e} - 1)/({p}^{n - 1} - 1)" if n > 1 else str(e)
    return _oversize(p, (n - 1) * (e - 1) if witnesses else 0,
                     lambda: witnesses * sum(p**((n - 1) * l) for l in range(e)),
                     f"{witnesses}*{per}", budget,
                     f"the cor5 scan at n = {n} would make {{}} cor5_check calls, "
                     f"over the budget of {budget}")


def _walk(cfg: SearchConfig):
    """Depth-first walk over the digits c_0..c_d in lexicographic order.

    Returns (best_t, cylinders, covered): the cylinders (prefix, free digit
    count) tied at the maximal depth, in walk order, and the number of
    candidates accounted for by all cylinders met."""
    p, d, t_max = cfg.p, cfg.degree_bound, cfg.t_max
    q = p**cfg.n
    e_mod = [a % q for a in cfg.eis.all_coeffs()]
    e_len = len(e_mod)
    best_t, best, covered = -1, [], 0

    def visit(prefix):
        nonlocal best_t, best, covered
        k = len(prefix)
        lo = p * k
        hi = p * (k + 1) if k < d else t_max
        # coefficient j in [lo, hi) is base[j - lo] + slope[j - lo] * c_k
        base = [sum(e_mod[j - p * l] * x for l, x in enumerate(prefix) if j - p * l < e_len)
                for j in range(lo, hi)]
        slope = [e_mod[i] if i < e_len else 0 for i in range(hi - lo)]
        free = d - k
        size = q**free
        for c in range(1 if k == 0 else 0, q):
            cylinder = prefix + (c,)
            t = next((lo + i for i, (b, s) in enumerate(zip(base, slope))
                      if (b + s * c) % q), hi)
            if t == hi and k < d:
                visit(cylinder)
                continue
            covered += size
            if t > best_t:
                best_t, best = t, [(cylinder, free)]
            elif t == best_t:
                best.append((cylinder, free))

    visit(())
    return best_t, best, covered


def prop2_max_t(cfg: SearchConfig) -> Prop2Result:
    """Exhaustive maximal depth and all witnesses, with the invariants in the
    returned assertion map.  The budget check comes before any power of p;
    past it, it raises only when the walk misses part of the space."""
    p, e, n = cfg.p, cfg.e, cfg.n
    space = check_budget(p, e, n, cfg.budget)
    q = p**n
    best_t, cylinders, visited = _walk(cfg)
    if visited != space:
        raise OracleViolationError(f"enumeration incomplete: visited {visited} of {space}")

    inv = cfg.eis.invariants()
    assertions = {"t-le-ne": best_t <= n * e}
    if not math.isinf(inv.tau):
        assertions["t-le-taue-iota"] = best_t <= inv.tau * e + inv.iota

    # re-verify each witness in the series ring, independent of the walk
    prec = Precision(p, n, max(best_t, e) + 1)
    E_s = breuil.eisenstein_series(cfg.eis, prec)
    witnesses, reverified = [], True
    kill = p ** (1 if inv.m == 0 else (inv.tau + 1 if not math.isinf(inv.tau) else 0))
    # the walk is lexicographic, so the expanded witnesses come out sorted
    for c in (prefix + tail for prefix, free in cylinders
              for tail in product(range(q), repeat=free)):
        twisted = frobenius(TruncatedSeries.from_coeffs(prec, c))
        reverified &= (E_s * twisted).ord_u() == best_t
        if kill > 1:
            reverified &= twisted.scale(kill).in_ideal(best_t)
        witnesses.append(WitnessReport(c))
    assertions["witnesses-reverified"] = reverified
    return Prop2Result(
        t_star=best_t, witnesses=witnesses, candidates_visited=visited,
        space_size=space, assertions=assertions,
    )


def search_key(eis: EisensteinPolynomial, n: int) -> tuple:
    """The key (E mod p^n, tau, iota) under which a grid sweep searches once.

    eisenstein_grid enumerates E mod p^(n+1), yet the key is exact:
    prop2_max_t reads E through its coefficients mod p^n (the walk and
    E_s) and through (tau, iota) (t-le-taue-iota and the kill exponent, with
    m fixed by p and e); lemma4_check reads E_0 mod p^n; cor5_check does
    not read E."""
    q = eis.p**n
    inv = eis.invariants()
    return tuple(a % q for a in eis.coeffs), inv.tau, inv.iota


def _twisted_in_ideal(p: int, n: int, a: tuple[int, ...], c: tuple[int, ...], t: int) -> bool:
    """Whether A * twist(C) lies in (u^t, p^n), read mod u^max(t, 1)."""
    prec = Precision(p, n, max(t, 1))
    a_s, c_s = TruncatedSeries.from_coeffs(prec, a), TruncatedSeries.from_coeffs(prec, c)
    return (a_s * frobenius(c_s)).in_ideal(t)


def lemma4_check(cfg: SearchConfig, c: tuple[int, ...], t: int,
                 strict: bool = True) -> WitnessReport:
    """Profile checks for a Weierstrass witness when p divides e.

    Preconditions (error when unmet): p | e, C Weierstrass with constant
    term nonzero mod p^n, p*deg(C) < t, and E_0 * twist(C) in (u^t, p^n).
    Checked conclusions: deg(C) = (n-1)e/p, the valuation staircase
    ord_p(c_{ie/p}) = n-i-1 with ord_p(c_j) >= n-i below each step, and
    t <= n*e."""
    p, e, n = cfg.p, cfg.e, cfg.n
    q = p**n
    if e % p != 0:
        raise ValueError("the Weierstrass profile applies only when p divides e")
    c = tuple(x % q for x in c)
    d = weierstrass_degree(c, p)
    if d is None:
        raise ValueError("witness is not a Weierstrass polynomial mod p^n")
    if c[0] == 0:
        raise ValueError("constant term vanishes mod p^n")
    if p * d >= t:
        raise ValueError(f"need p*deg(C) = {p * d} < t = {t}")

    if not _twisted_in_ideal(p, n, cfg.eis.split()[0], c, t):
        raise ValueError("E_0 * twist(C) does not lie in (u^t, p^n)")

    # ord_p of each residue, a zero read as n: above every step's floor
    ep, ords = e // p, [int_valuation(x, p) if x else n for x in c]
    checks = {
        "lemma4-degree": d == (n - 1) * ep,
        "f3-valuations": all(i * ep <= d and ords[i * ep] == n - i - 1
                             and min(ords[:i * ep], default=n) >= n - i for i in range(n)),
        "t-le-ne": t <= n * e,
    }
    report = WitnessReport(coeffs=c, checks=checks)
    if strict and not all(checks.values()):
        bad = [k for k, v in checks.items() if not v]
        raise OracleViolationError(f"violated: {bad} for C = {c}, t = {t}")
    return report


def cor5_check(p: int, n: int, e2: tuple[int, ...], c: tuple[int, ...], t: int) -> bool:
    """One instance of: membership of E_2 * twist(C) in (u^t, p^n) forces
    deg(E_2) >= t, for Weierstrass E_2 of degree below e and C from the
    staircase family.  Returns the truth of the implication."""
    l = weierstrass_degree(e2, p)
    if l is None:
        raise ValueError("E_2 must be a Weierstrass polynomial")
    return not _twisted_in_ideal(p, n, e2, c, t) or l >= t


def weierstrass_polys(p: int, n: int, degree: int):
    """All Weierstrass polynomials of the exact degree mod p^n, ascending
    coefficient tuples (monic, lower coefficients divisible by p)."""
    q = p**n
    lower = [p * j for j in range(q // p)]
    for lows in product(lower, repeat=degree):
        yield lows + (1,)


def eisenstein_grid(p: int, e: int, n: int):
    """All Eisenstein polynomials of degree e whose coefficients lie in
    {p*j : 0 <= j < p^n}, in lexicographic coefficient order."""
    if e < 1 or n < 1:
        raise ValueError(f"grid needs e >= 1 and n >= 1, got e = {e}, n = {n}")
    choices = [p * j for j in range(p**n)]
    a0s = [a for a in choices if a and int_valuation(a, p) == 1]
    return (EisensteinPolynomial(p, coeffs)
            for coeffs in product(a0s, *([choices] * (e - 1))))


def descent_minimal_s(eis: EisensteinPolynomial) -> list[tuple[int, int]]:
    """Rank-1, n = 1 stability rows (j_max, s_required) for phi(e_1) = u^a,
    a = 0..e, by direct application of phi.

    j_max is the largest pole order j with u^-j M stable under the map;
    s_required is the least s with p^s times the stable overmodule inside M,
    0 or 1 since p = 0 at n = 1.  Row a reads neither E nor e beyond a <= e,
    so the rows of degree e hold those of every lower degree.  j_max never
    falls from one row to the next, so each pole is found stable once.
    Pole j needs T = max(p*j, e + 1): its twist reaches u^(p*j), and E and
    u^a need T > e.  A row's module is built at the T of the first pole it
    tests and rebuilt only when a later pole needs more, so T follows the
    poles found, not the closed form that suite_lemma2 checks the rows
    against: (floor(a/(p-1)), 0 if a < p-1 else 1)."""
    p, e = eis.p, eis.e

    def at_pole(M, a, j):
        """Row a's module, rebuilt if pole j needs a larger T, and u^-j e_1."""
        T = max(p * j, e + 1)
        if M is None or M.prec.T < T:
            prec = Precision(p, 1, T)
            M = breuil.BreuilModule(prec=prec, eis=eis,
                                    phi=((TruncatedSeries.monomial(prec, a),),))
        return M, breuil.FractionalElement(pole=j, alphas=(TruncatedSeries.one(M.prec),))

    rows, j_max = [], 0
    for a in range(e + 1):
        M = None
        # phi(u^-j e_1) has pole p*j - a, so a pole stable in row a - 1 is
        # stable in row a: the scan goes on from where the last row stopped
        while j_max <= e:
            M, x = at_pole(M, a, j_max + 1)
            if breuil.apply_phi(M, x).pole > j_max + 1:
                break
            j_max += 1
        M, gen = at_pole(M, a, j_max)
        rows.append((j_max, 0 if breuil.verify_inclusion_p_s(M, [gen], 0) else 1))
    return rows
