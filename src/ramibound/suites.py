"""Verification suites behind `ramibound verify`.

Each suite walks a family of instances, tallies named assertions, and
returns a plain report dict; the CLI serializes the report and exits
nonzero when any tally shows a failure.  Suites are deterministic: every
random object is derived from a seed string containing the parameters.

Each fact is tallied once: a Prop 2 witness carries only coefficients, its
re-checks folded into one witnesses-reverified tally per polynomial.  A grid
sweep over budget is refused before it is built; the budget counts the whole
grid, and cor5 refuses a multiplier scan of more calls after its searches.
The suites that build modules (lemma1, lemma2, example3) refuse an --n over
the n a module file may carry.  The oracles compute and the suites check,
as lemma2 does the stability rows.

A grid sweep searches once per residue class.  The depth of E * twist(C) in
(u^t, p^n) reads E only mod p^n, but eisenstein_grid enumerates E mod
p^(n+1), so the prop2, lemma4 and cor5 sweeps group the grid by the key
(E mod p^n, tau, iota).  The key is exact: prop2_max_t reads E through its
coefficients mod p^n (the walk and the series E_s) and through (tau, iota)
(t-le-taue-iota and the p-power-kill exponent, with m fixed by p and e);
lemma4_check reads E_0 mod p^n; cor5_check does not read E.  The first
member of each class in grid order is searched, and its results are tallied
once per member, so every count and the order of the tally names are those
of the per-polynomial loop.
"""

from __future__ import annotations

import inspect
import random
import time

from . import breuil, oracle
from .eisenstein import MAX_POLY_DEGREE, EisensteinPolynomial, EisensteinValidationError
from .series import Precision, TruncatedSeries, frobenius, int_valuation, is_prime


def _tally(assertions: dict, name: str, ok: bool, count: int = 1):
    slot = assertions.setdefault(name, {"pass": 0, "fail": 0})
    slot["pass" if ok else "fail"] += count


def _finish(suite: str, config: dict, assertions: dict, started: float) -> dict:
    ok = bool(assertions) and all(v["fail"] == 0 for v in assertions.values())
    return {
        "suite": suite,
        "config": config,
        "assertions": assertions,
        "ok": ok,
        "runtime_s": round(time.perf_counter() - started, 3),
    }


def _family(p: int, n: int, poly=None, e: int | None = None,
            budget: int = oracle.DEFAULT_BUDGET, staircase: str | None = None):
    """One polynomial, or the degree-e grid once its sweep fits the budget.
    A Weierstrass staircase suite, named by staircase, needs p | e: with p
    not dividing e it would check nothing, so that is refused up front (a p
    that is not prime is refused with the grid, or by the polynomial)."""
    if (poly is None) == (e is None):
        raise ValueError("this suite needs exactly one of --poly or --e")
    degree = e if poly is None else len(poly)
    if staircase is not None and is_prime(p) and degree % p:
        raise ValueError(f"{staircase} needs p | e, got p = {p}, e = {degree} (p ∤ e)")
    if poly is not None:
        return [EisensteinPolynomial(p, tuple(poly))]
    if not is_prime(p):
        raise EisensteinValidationError([f"p = {p} is not prime"])
    oracle.check_budget(p, e, n, budget, sweep=True)
    return list(oracle.eisenstein_grid(p, e, n))


def _classes(polys, n: int) -> list[tuple[EisensteinPolynomial, int]]:
    """(representative, size) per key (E mod p^n, tau, iota), in order of
    first appearance; the representative is the first member."""
    classes: dict = {}
    for eis in polys:
        q = eis.p**n
        inv = eis.invariants()
        key = (tuple(a % q for a in eis.coeffs), inv.tau, inv.iota)
        rep, size = classes.get(key, (eis, 0))
        classes[key] = (rep, size + 1)
    return list(classes.values())


def _prop2_tallied(eis, n, budget, assertions: dict, count: int) -> oracle.Prop2Result:
    res = oracle.prop2_max_t(oracle.SearchConfig(eis, n, budget), strict=False)
    for name, ok in res.assertions.items():
        _tally(assertions, name, ok, count)
    return res


def suite_prop2(p: int, n: int, poly=None, e: int | None = None,
                budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """Maximal-depth search over every candidate family member."""
    started = time.perf_counter()
    assertions: dict = {}
    polys = _family(p, n, poly, e, budget)
    t_stars = [_prop2_tallied(eis, n, budget, assertions, size).t_star
               for eis, size in _classes(polys, n)]
    config = {"p": p, "n": n, "polynomials": len(polys), "budget": budget}
    if len(polys) == 1:
        config["poly"] = str(polys[0])
        config["t_star"] = t_stars[0]
    return _finish("prop2", config, assertions, started)


def _eligible_witnesses(eis, n, budget, assertions: dict, count: int):
    """Lemma 4 on the prop2 witnesses C that are Weierstrass of degree d with
    p*d < t*.  Every witness meets the other hypotheses (c_0 != 0 mod p^n,
    p | e, and E_0 * twist(C) is E * twist(C) on exponents divisible by p),
    and lemma4_check raises should one fail.  Tallies, count times, the prop2
    assertions and Lemma 4's checks but t-le-ne, prop2's t* <= n*e once more."""
    res = _prop2_tallied(eis, n, budget, assertions, count)
    eligible = []
    for w in res.witnesses:
        d = oracle.weierstrass_degree(w.coeffs, eis.p)
        if d is None or eis.p * d >= res.t_star:
            continue
        report = oracle.lemma4_check(res.config, w.coeffs, res.t_star, strict=False)
        for name, ok in report.checks.items():
            if name != "t-le-ne":
                _tally(assertions, name, ok, count)
        eligible.append(report)
    return res, eligible


def suite_lemma4(p: int, n: int, poly=None, e: int | None = None,
                 budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """Degree and valuation staircase of eligible witnesses (p | e only)."""
    started = time.perf_counter()
    assertions: dict = {}
    polys = _family(p, n, poly, e, budget, staircase="lemma4")
    eligible_total = 0
    for eis, size in _classes(polys, n):
        _, eligible = _eligible_witnesses(eis, n, budget, assertions, size)
        eligible_total += size * len(eligible)
    config = {"p": p, "n": n, "polynomials": len(polys),
              "eligible_witnesses": eligible_total, "budget": budget}
    return _finish("lemma4", config, assertions, started)


def suite_cor5(p: int, n: int, poly=None, e: int | None = None,
               budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """Low-degree Weierstrass multipliers against the staircase witnesses
    whose Lemma 4 checks all pass; the prop2 and Lemma 4 tallies of every
    witness are reported as in lemma4."""
    started = time.perf_counter()
    assertions: dict = {}
    polys = _family(p, n, poly, e, budget, staircase="cor5")
    staircases = []  # (class size, C, t*) per witness whose checks all pass
    for eis, size in _classes(polys, n):
        res, eligible = _eligible_witnesses(eis, n, budget, assertions, size)
        passing = [r.coeffs for r in eligible if all(r.checks.values())]
        if passing:  # hold the scan tally's place in the per-polynomial order
            _tally(assertions, "membership-forces-degree", True, 0)
        staircases += [(size, c, res.t_star) for c in passing]
    degree = polys[0].e
    oracle.check_scan_budget(p, degree, n, sum(size for size, _, _ in staircases), budget)
    scanned = 0
    for size, c, t in staircases:
        for l in range(degree):
            for e2 in oracle.weierstrass_polys(p, n, l):
                scanned += size
                _tally(assertions, "membership-forces-degree",
                       oracle.cor5_check(p, n, e2, c, t), size)
    config = {"p": p, "n": n, "polynomials": len(polys),
              "instances": scanned, "budget": budget}
    return _finish("cor5", config, assertions, started)


def _random_eisenstein(rng: random.Random, p: int, n: int, e: int) -> EisensteinPolynomial:
    q = p**n
    while True:
        a0 = p * rng.randrange(1, max(q, 2))
        if int_valuation(a0, p) == 1:
            break
    coeffs = [a0] + [p * rng.randrange(q) for _ in range(e - 1)]
    return EisensteinPolynomial(p, tuple(coeffs))


def _seeded_module(rng: random.Random, p: int, n_i: int):
    """A seeded module at p-precision n_i, drawn by the caller, and the d it
    was built with.  The requested d is the independent side of
    h4-matches-decomposition; M.normal_decomp.d is what the build recorded,
    so reading it instead would weaken that check.

    The u-precision is T = max(40, 2p + 1 + deg phi), which leaves lemma1
    room to sample numerators up to u^2 at any p.  deg phi is at most
    4h + 2 + e <= 18 (2h elementary steps and a unit diagonal, each of
    degree <= 2, then E), so a build at T = 40 truncates nothing and reads
    the degree exactly; the build is repeated at the larger T only when
    40 is too small, which happens for p >= 11 only."""
    h = rng.randint(1, 3)
    d = rng.randint(0, h)
    e = rng.randint(2, 4)
    eis = _random_eisenstein(rng, p, n_i, e)
    seed = rng.randrange(2**30)

    def build(T):
        return breuil.build_bt_module(Precision(p, n_i, T), eis, d=d, h=h, seed=seed,
                                      max_entry_degree=2)

    M = build(40)
    T = 2 * p + 1 + M.phi_degree
    return (build(T) if T > 40 else M), d


def _module_cap(n: int):
    """A suite that builds modules bounds --n as a module file bounds its n."""
    if n > breuil.MODULE_FILE_LIMITS["n"]:
        raise ValueError(f"--n {n} gives modules of p-adic precision up to {n}, over the "
                         f"limit of {breuil.MODULE_FILE_LIMITS['n']}")


LEMMA1_TRIES = 8  # sampled elements per seeded module


def suite_lemma1(p: int, n: int, seeds: int = 200) -> dict:
    """Pole-growth membership: for x with pole t whose image keeps pole <= t,
    every coordinate numerator must satisfy E * twist(alpha) in (u^(t(p-1)), p^n).

    Samples mix a guaranteed-acceptance family (numerators divisible by a
    high enough power of u) with raw rejection sampling."""
    started = time.perf_counter()
    if p > MAX_POLY_DEGREE:  # T > 2p coefficients per series
        raise ValueError(f"--p {p} gives lemma1 series of u-precision above 2p, "
                         f"over the limit of p <= {MAX_POLY_DEGREE}")
    _module_cap(n)
    if not is_prime(p):
        raise EisensteinValidationError([f"p = {p} is not prime"])
    assertions: dict = {}
    for seed in range(seeds):
        rng = random.Random(f"lemma1-{p}-{n}-{seed}")
        M, _ = _seeded_module(rng, p, rng.randint(1, n))
        prec = M.prec
        E_s = breuil.eisenstein_series(M.eis, prec)
        cap = (prec.T - 1 - M.phi_degree) // prec.p  # >= 2 by the choice of T
        accepted_here = 0
        for k in range(LEMMA1_TRIES):
            t = rng.randint(1, 2)
            lift = -(-t * (prec.p - 1) // prec.p) if k % 2 == 0 else 0
            alphas = []
            for _ in range(M.h):
                cs = [0] * prec.T
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randint(lift, min(cap, lift + 3))
                    cs[pos] = rng.randrange(prec.modulus)
                alphas.append(TruncatedSeries.from_coeffs(prec, cs))
            x = breuil.FractionalElement(pole=t, alphas=tuple(alphas))
            if x.is_zero():
                continue
            if breuil.apply_phi(M, x).pole > t:
                continue  # hypothesis rejected
            accepted_here += 1
            ok = all(
                (E_s * frobenius(a)).in_ideal(t * (prec.p - 1))
                for a in x.alphas
            )
            _tally(assertions, "twist-membership", ok)
        _tally(assertions, "module-sampled", accepted_here > 0)
    config = {"p": p, "n": n, "seeds": seeds, "tries": LEMMA1_TRIES}
    return _finish("lemma1", config, assertions, started)


def _cascade_cap(p: int, n: int):
    """The cascade polynomial u^p - p is bounded like a --poly degree, and
    its modules like any other."""
    if p > MAX_POLY_DEGREE:
        raise ValueError(f"--p {p} gives the cascade polynomial u^p - p of degree "
                         f"{p}, over the limit of {MAX_POLY_DEGREE}")
    _module_cap(n)


def suite_lemma2(p: int, n: int, e: int = 8) -> dict:
    """Inclusion exponents: the cascade family is tight (p^n in, p^(n-1) out)
    and the rank-1 stability table of degree e matches its closed form.  Its
    rows 0..a are those of the table of degree a, so one table covers every
    degree up to e."""
    started = time.perf_counter()
    _cascade_cap(p, n)
    if e > MAX_POLY_DEGREE:  # the stability table builds a degree-e polynomial
        raise ValueError(f"--e {e} gives stability tables of degree up to {e}, "
                         f"over the limit of {MAX_POLY_DEGREE}")
    assertions: dict = {}
    for level in range(1, n + 1):
        M, gen = breuil.example3_module(p, level)
        _tally(assertions, "p-n-inclusion",
               breuil.verify_inclusion_p_s(M, [gen], level))
        _tally(assertions, "p-n-minus-1-excluded",
               not breuil.verify_inclusion_p_s(M, [gen], level - 1))
        image = breuil.apply_phi(M, gen)
        _tally(assertions, "map-lands-in-base-module", image.pole == 0)
    eis = EisensteinPolynomial(p, (p,) if e == 1 else (p, p) + (0,) * (e - 2))
    _tally(assertions, "stability-closed-form", oracle.descent_minimal_s(eis) ==
           [(a // (p - 1), 0 if a < p - 1 else 1) for a in range(e + 1)])
    config = {"p": p, "n": n, "e_max": e}
    return _finish("lemma2", config, assertions, started)


def suite_example3(p: int, n: int) -> dict:
    """The telescoping identity at every level up to n."""
    started = time.perf_counter()
    _cascade_cap(p, n)
    assertions: dict = {}
    for level in range(1, n + 1):
        lhs = breuil.example3_identity(p, level)
        rhs = TruncatedSeries.monomial(lhs.prec, p * level) - TruncatedSeries.from_coeffs(
            lhs.prec, [p**level])
        _tally(assertions, "telescoping-identity", lhs == rhs)
    return _finish("example3", {"p": p, "n": n}, assertions, started)


def suite_heights(seeds: int = 200) -> dict:
    """h4 against the d each module was built with, on seeded n = 1 modules
    and on block-triangular extensions, whose phi has the Smith exponents of
    both factors together.  h3 and order are not tallied: on the free
    modules built here they are the rank and n times the rank."""
    started = time.perf_counter()
    assertions: dict = {}
    for seed in range(seeds // 2):
        rng = random.Random(f"heights-{seed}")
        p = rng.choice([2, 3])
        if rng.randint(1, 2) == 1:
            M, d = _seeded_module(rng, p, 1)
            _tally(assertions, "h4-matches-decomposition", breuil.h4(M) == M.h - d)
    for seed in range(seeds):
        rng = random.Random(f"heights-ext-{seed}")
        p = rng.choice([2, 3])
        e = rng.randint(2, 3)
        eis = _random_eisenstein(rng, p, 1, e)
        prec = Precision(p, 1, 40)
        h1, h2 = rng.randint(1, 2), rng.randint(1, 2)

        def factor(h):
            d = rng.randint(0, h)
            return breuil.build_bt_module(prec, eis, d=d, h=h, seed=rng.randrange(2**30),
                                          max_entry_degree=2), h - d

        (M1, k1), (M2, k2) = factor(h1), factor(h2)
        M = breuil.extension_module(M1, M2, seed=rng.randrange(2**30))
        _tally(assertions, "h4-matches-decomposition", breuil.h4(M) == k1 + k2)
    return _finish("heights", {"seeds": seeds}, assertions, started)


SUITES = {
    "prop2": suite_prop2,
    "lemma4": suite_lemma4,
    "cor5": suite_cor5,
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "example3": suite_example3,
    "heights": suite_heights,
}

# Each suite's parameters, read once here: the CLI passes a suite exactly the
# flags it reads, and a wrapper later put in SUITES keeps them.
SUITE_FLAGS = {name: tuple(inspect.signature(f).parameters) for name, f in SUITES.items()}
