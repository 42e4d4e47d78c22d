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

A grid sweep searches once per class of oracle.search_key, the first
member of each class in grid order, and tallies its results once per
member, so every count and the order of the tally names are those of the
per-polynomial loop.
"""

from __future__ import annotations

import inspect
import random
import time

from . import breuil, oracle
from .eisenstein import MAX_POLY_DEGREE, EisensteinPolynomial
from .series import Precision, TruncatedSeries, frobenius, int_valuation, require_prime


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
    """(SearchConfig, count) per search: one for a polynomial, or one per
    search_key class of the degree-e grid once its sweep fits the budget,
    built for the first member and counting the class, in grid order.
    p must be prime, which is checked first.  A Weierstrass staircase suite,
    named by staircase, needs p | e: with p not dividing e it would check
    nothing, so that is refused up front too."""
    require_prime(p)
    if (poly is None) == (e is None):
        raise ValueError("this suite needs exactly one of --poly or --e")
    degree = e if poly is None else len(poly)
    if staircase is not None and degree % p:
        raise ValueError(f"{staircase} needs p | e, got p = {p}, e = {degree} (p ∤ e)")
    if poly is not None:
        return [(oracle.SearchConfig(EisensteinPolynomial(p, tuple(poly)), n, budget), 1)]
    oracle.check_budget(p, e, n, budget, sweep=True)
    classes: dict = {}
    for eis in oracle.eisenstein_grid(p, e, n):
        key = oracle.search_key(eis, n)
        cfg, count = classes.get(key) or (oracle.SearchConfig(eis, n, budget), 0)
        classes[key] = (cfg, count + 1)
    return list(classes.values())


def _prop2_tallied(cfg, assertions: dict, count: int) -> oracle.Prop2Result:
    res = oracle.prop2_max_t(cfg)
    for name, ok in res.assertions.items():
        _tally(assertions, name, ok, count)
    return res


def suite_prop2(p: int, n: int, poly=None, e: int | None = None,
                budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """Maximal-depth search over every candidate family member."""
    started = time.perf_counter()
    assertions: dict = {}
    family = _family(p, n, poly, e, budget)
    t_stars = [_prop2_tallied(cfg, assertions, count).t_star for cfg, count in family]
    polys = sum(count for _, count in family)
    config = {"p": p, "n": n, "polynomials": polys, "budget": budget}
    if polys == 1:
        config["poly"] = str(family[0][0].eis)
        config["t_star"] = t_stars[0]
    return _finish("prop2", config, assertions, started)


def _eligible_witnesses(cfg, assertions: dict, count: int):
    """Lemma 4 on the prop2 witnesses C that are Weierstrass of degree d with
    p*d < t*.  Every witness meets the other hypotheses (c_0 != 0 mod p^n,
    p | e, and E_0 * twist(C) is E * twist(C) on exponents divisible by p),
    and lemma4_check raises should one fail.  Tallies, count times, the prop2
    assertions and Lemma 4's checks but t-le-ne, prop2's t* <= n*e once more."""
    res = _prop2_tallied(cfg, assertions, count)
    eligible = []
    for w in res.witnesses:
        d = oracle.weierstrass_degree(w.coeffs, cfg.p)
        if d is None or cfg.p * d >= res.t_star:
            continue
        report = oracle.lemma4_check(cfg, w.coeffs, res.t_star, strict=False)
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
    family = _family(p, n, poly, e, budget, staircase="lemma4")
    eligible_total = 0
    for cfg, count in family:
        _, eligible = _eligible_witnesses(cfg, assertions, count)
        eligible_total += count * len(eligible)
    config = {"p": p, "n": n, "polynomials": sum(count for _, count in family),
              "eligible_witnesses": eligible_total, "budget": budget}
    return _finish("lemma4", config, assertions, started)


def suite_cor5(p: int, n: int, poly=None, e: int | None = None,
               budget: int = oracle.DEFAULT_BUDGET) -> dict:
    """Low-degree Weierstrass multipliers against the staircase witnesses
    whose Lemma 4 checks all pass; the prop2 and Lemma 4 tallies of every
    witness are reported as in lemma4."""
    started = time.perf_counter()
    assertions: dict = {}
    family = _family(p, n, poly, e, budget, staircase="cor5")
    staircases = []  # (class size, C, t*) per witness whose checks all pass
    for cfg, count in family:
        res, eligible = _eligible_witnesses(cfg, assertions, count)
        passing = [r.coeffs for r in eligible if all(r.checks.values())]
        if passing:  # hold the scan tally's place in the per-polynomial order
            _tally(assertions, "membership-forces-degree", True, 0)
        staircases += [(count, c, res.t_star) for c in passing]
    degree = family[0][0].e
    calls = oracle.check_scan_budget(p, degree, n, sum(s for s, _, _ in staircases), budget)
    for size, c, t in staircases:
        for l in range(degree):
            for e2 in oracle.weierstrass_polys(p, n, l):
                _tally(assertions, "membership-forces-degree",
                       oracle.cor5_check(p, n, e2, c, t), size)
    config = {"p": p, "n": n, "polynomials": sum(count for _, count in family),
              "instances": calls, "budget": budget}
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

    deg phi is at most 4h + 2 + e (2h elementary steps and a unit diagonal,
    each of degree <= 2, then E), so the module is built once, at
    T = max(40, 2p + 1 + 4h + 2 + e): that truncates nothing and leaves
    lemma1 room to sample numerators up to u^2 at any p.  T is 40 for
    p <= 7; the entry positions are capped at 2 whatever T is."""
    h = rng.randint(1, 3)
    d = rng.randint(0, h)
    e = rng.randint(2, 4)
    eis = _random_eisenstein(rng, p, n_i, e)
    T = max(40, 2 * p + 1 + 4 * h + 2 + e)
    return breuil.build_bt_module(Precision(p, n_i, T), eis, d=d, h=h,
                                  seed=rng.randrange(2**30), max_entry_degree=2), d


def _module_cap(n: int):
    """A suite that builds modules bounds --n as a module file bounds its n."""
    if n > breuil.MODULE_FILE_LIMITS["n"]:
        raise ValueError(f"--n {n} gives modules of p-adic precision up to {n}, over the "
                         f"limit of {breuil.MODULE_FILE_LIMITS['n']}")


LEMMA1_TRIES = 8  # sampled elements per seeded module


def suite_lemma1(p: int, n: int, seeds: int = 200) -> dict:
    """Pole-growth membership: for x with pole t whose image keeps pole <= t,
    every coordinate numerator must satisfy E * twist(alpha) in (u^(t(p-1)), p^n).

    Numerators are drawn raw, and an x whose image has a larger pole is
    rejected.  On these modules phi = V * diag(E,...,E,1,...,1) with V
    invertible, so phi(x) has pole <= t exactly when E * twist(alpha_i) is
    in (u^((p-1)t)) for i < d and twist(alpha_i) is for i >= d, and the
    conclusion follows from that in one line.  The suite is thus a
    differential check of apply_phi against coordinatewise membership; a
    run that accepts no element reports twist-membership pass 0."""
    started = time.perf_counter()
    require_prime(p)
    if p > MAX_POLY_DEGREE:  # T > 2p coefficients per series
        raise ValueError(f"--p {p} gives lemma1 series of u-precision above 2p, "
                         f"over the limit of p <= {MAX_POLY_DEGREE}")
    _module_cap(n)
    assertions: dict = {}
    _tally(assertions, "twist-membership", True, 0)
    for seed in range(seeds):
        rng = random.Random(f"lemma1-{p}-{n}-{seed}")
        M, _ = _seeded_module(rng, p, rng.randint(1, n))
        prec = M.prec
        E_s = breuil.eisenstein_series(M.eis, prec)
        cap = (prec.T - 1 - M.phi_degree) // prec.p  # >= 2 by the choice of T
        for _ in range(LEMMA1_TRIES):
            t = rng.randint(1, 2)
            alphas = []
            for _ in range(M.h):
                cs = [0] * prec.T
                for _ in range(rng.randint(1, 3)):
                    cs[rng.randint(0, min(cap, 3))] = rng.randrange(prec.modulus)
                alphas.append(TruncatedSeries.from_coeffs(prec, cs))
            x = breuil.FractionalElement(pole=t, alphas=tuple(alphas))
            if x.is_zero() or breuil.apply_phi(M, x).pole > t:
                continue  # hypothesis rejected
            _tally(assertions, "twist-membership", all(
                (E_s * frobenius(a)).in_ideal(t * (prec.p - 1)) for a in x.alphas))
    config = {"p": p, "n": n, "seeds": seeds, "tries": LEMMA1_TRIES}
    return _finish("lemma1", config, assertions, started)


def _cascade_cap(p: int, n: int):
    """The cascade polynomial u^p - p is bounded like a --poly degree, and
    its modules like any other."""
    require_prime(p)
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
        M, d = _seeded_module(rng, rng.choice([2, 3]), 1)
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
