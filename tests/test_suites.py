"""Report contract of the verification suites."""

import random
import re

import pytest

from ramibound import breuil, cli, oracle, suites
from ramibound.eisenstein import EisensteinPolynomial, EisensteinValidationError
from ramibound.series import Precision, PrecisionError, TruncatedSeries


REPORT_KEYS = {"suite", "config", "assertions", "ok", "runtime_s"}


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("prop2", dict(p=2, n=1, e=2)),
        ("lemma4", dict(p=2, n=2, e=2)),
        ("cor5", dict(p=2, n=2, e=2)),
        ("lemma1", dict(p=2, n=1, seeds=10)),
        ("lemma2", dict(p=2, n=3, e=4)),
        ("example3", dict(p=3, n=4)),
        ("heights", dict(seeds=10)),
    ],
)
def test_suite_reports_are_well_formed(name, kwargs):
    report = suites.SUITES[name](**kwargs)
    assert set(report) == REPORT_KEYS
    assert report["suite"] == name
    assert report["ok"] is True
    assert report["assertions"]
    for tally in report["assertions"].values():
        assert set(tally) == {"pass", "fail"}
        assert tally["fail"] == 0 and tally["pass"] >= 1


def test_suites_are_deterministic():
    a = suites.suite_lemma1(2, 2, seeds=15)
    b = suites.suite_lemma1(2, 2, seeds=15)
    assert a["assertions"] == b["assertions"]
    a = suites.suite_heights(seeds=8)
    b = suites.suite_heights(seeds=8)
    assert a["assertions"] == b["assertions"]


@pytest.mark.parametrize("p", [2, 3, 11, 13, 17, 23, 251])
def test_seeded_module_precision_grows_with_p(p):
    # T = max(40, 2p + 1 + deg phi) gives lemma1 room for numerators up to
    # u^2; a widened build is the T = 40 build with zeros appended
    for seed in range(30):
        rng = random.Random(f"seeded-{p}-{seed}")
        M, _ = suites._seeded_module(rng, p, rng.randint(1, 2))
        T = M.prec.T
        assert T == max(40, 2 * p + 1 + M.phi_degree)
        assert (T - 1 - M.phi_degree) // p >= 2
        if 2 * p + 1 + 18 <= 40:  # deg phi <= 4h + 2 + e <= 18
            assert T == 40
        if T > 40:
            rng = random.Random(f"seeded-{p}-{seed}")
            narrow = build_at_40(rng, p)
            assert [[x.coeffs for x in row] for row in M.phi] == [
                [x.coeffs + (0,) * (T - 40) for x in row] for row in narrow.phi]


def build_at_40(rng, p):
    """_seeded_module's draws, built at T = 40 whatever p is."""
    n_i = rng.randint(1, 2)
    h = rng.randint(1, 3)
    d = rng.randint(0, h)
    e = rng.randint(2, 4)
    eis = suites._random_eisenstein(rng, p, n_i, e)
    return breuil.build_bt_module(Precision(p, n_i, 40), eis, d=d, h=h,
                                  seed=rng.randrange(2**30), max_entry_degree=2)


def test_lemma1_refuses_a_p_that_is_not_prime():
    # at p = 0 and p = 1 no constant term has valuation 1, so the draw would not end
    for p in (0, 1, 4, -3):
        with pytest.raises(EisensteinValidationError, match="not prime"):
            suites.suite_lemma1(p, 1, seeds=1)


@pytest.mark.parametrize("call, message", [
    (lambda: suites.suite_example3(257, 1), "cascade polynomial u^p - p of degree 257"),
    (lambda: suites.suite_lemma2(257, 1), "cascade polynomial u^p - p of degree 257"),
    (lambda: suites.suite_lemma2(2, 1, e=257), "stability tables of degree up to 257"),
    (lambda: suites.suite_lemma1(257, 1), "lemma1 series of u-precision above 2p"),
    (lambda: suites.suite_example3(2, 65), "--n 65 gives modules of p-adic precision up "
                                           "to 65, over the limit of 64"),
    (lambda: suites.suite_lemma2(2, 65), "--n 65 gives modules of p-adic precision up "
                                         "to 65, over the limit of 64"),
    (lambda: suites.suite_lemma1(2, 65), "--n 65 gives modules of p-adic precision up "
                                         "to 65, over the limit of 64"),
], ids=["example3-p257", "lemma2-p257", "lemma2-e257", "lemma1-p257",
        "example3-n65", "lemma2-n65", "lemma1-n65"])
def test_suites_refuse_past_the_degree_cap_before_allocating(monkeypatch, call, message):
    # every route by which these suites build a polynomial or a module raises
    # if reached, so the cap must come first
    class Allocated(Exception):
        pass

    def allocate(*args, **kwargs):
        raise Allocated

    for owner, name in [(breuil, "example3_identity"), (breuil, "example3_module"),
                        (suites, "_seeded_module"), (suites, "EisensteinPolynomial")]:
        monkeypatch.setattr(owner, name, allocate)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_family_requires_target():
    with pytest.raises(ValueError):
        suites.suite_prop2(p=2, n=1)


def _fail_prop2_reverification(monkeypatch):
    real = oracle.prop2_max_t

    def patched(cfg, strict=True):
        res = real(cfg, strict=strict)
        res.assertions["witnesses-reverified"] = False
        return res

    monkeypatch.setattr(oracle, "prop2_max_t", patched)
    return "witnesses-reverified", 8, 24  # failed on each of the 8 polynomials


def _fail_first_lemma4_degree(monkeypatch):
    real, calls = oracle.lemma4_check, []

    def patched(cfg, c, t, strict=True):
        report = real(cfg, c, t, strict=strict)
        calls.append(c)
        if len(calls) == 1:
            report.checks["lemma4-degree"] = False
        return report

    monkeypatch.setattr(oracle, "lemma4_check", patched)
    # the first call checks the witness of the first class, u^2 + 2 and
    # u^2 + 6, so both members' witnesses (3 instances each) are left out
    return "lemma4-degree", 2, 18


@pytest.mark.parametrize("fail", [_fail_prop2_reverification, _fail_first_lemma4_degree],
                         ids=["prop2-assertion", "lemma4-check"])
def test_cor5_fails_when_its_hypotheses_fail(monkeypatch, fail):
    # cor5 reports the prop2 and Lemma 4 tallies that lemma4 reports, so a
    # failed hypothesis fails both suites; cor5 still scans only the
    # witnesses whose checks all pass
    name, failed, instances = fail(monkeypatch)
    report = suites.suite_cor5(2, 2, e=2)
    assert report["ok"] is False and report["assertions"][name]["fail"] == failed
    assert report["config"]["instances"] == instances
    assert report["assertions"]["membership-forces-degree"]["fail"] == 0


def test_cor5_scans_low_degree_multipliers():
    report = suites.suite_cor5(p=2, n=2, e=2)
    # degrees l in {0, 1} with two Weierstrass choices at l = 1
    assert report["assertions"]["membership-forces-degree"]["fail"] == 0
    assert report["config"]["instances"] >= 3


# u^7 + 7 at n = 2: the search visits 48 * 49^2 = 115248 candidates and
# finds one staircase witness, which meets (7^7 - 1)/6 = 137257 multipliers
E7 = (7, 0, 0, 0, 0, 0, 0)


def test_cor5_scan_over_budget_is_refused_before_any_check(monkeypatch):
    def unreachable(*args):
        raise AssertionError("cor5_check ran")

    monkeypatch.setattr(oracle, "cor5_check", unreachable)
    with pytest.raises(oracle.BudgetExceededError,
                       match="would make 137257 cor5_check calls, over the budget of 137256"):
        suites.suite_cor5(7, 2, poly=E7, budget=137256)


def test_cor5_scan_within_budget_makes_the_counted_calls(monkeypatch):
    calls = []
    monkeypatch.setattr(oracle, "cor5_check", lambda *args: calls.append(args) or True)
    report = suites.suite_cor5(7, 2, poly=E7, budget=137257)
    assert report["config"]["instances"] == len(calls) == 137257


def test_staircase_suites_let_a_lemma4_fault_through(monkeypatch):
    # Lemma 4 runs only on witnesses meeting its hypotheses, and nothing is
    # caught around it, so a fault inside it ends the suite instead of
    # silently shrinking the eligible set
    real, calls = oracle.lemma4_check, []

    def patched(cfg, c, t, strict=True):
        report = real(cfg, c, t, strict=strict)
        calls.append(c)
        if len(calls) == 1:
            raise PrecisionError("injected fault on the first accepted witness")
        return report

    monkeypatch.setattr(oracle, "lemma4_check", patched)
    with pytest.raises(PrecisionError, match="injected fault"):
        suites.suite_lemma4(2, 2, e=2)


def test_staircase_suites_run_lemma4_once_per_eligible_witness(monkeypatch):
    real, calls = oracle.lemma4_check, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "lemma4_check", counted)
    report = suites.suite_lemma4(2, 2, e=4)
    # Lemma 4 runs once per eligible witness of each of the 12 classes of the
    # 128 polynomials; its tallies still count every polynomial's witnesses
    assert report["ok"] and len(calls) == 16
    assert report["config"]["eligible_witnesses"] == 192
    # t-le-ne is tallied once per polynomial, by prop2, not again per witness
    assert report["assertions"]["t-le-ne"] == {"pass": 128, "fail": 0}
    assert report["assertions"]["lemma4-degree"] == {"pass": 192, "fail": 0}


def test_lemma2_tallies_each_stability_table_once():
    report = suites.suite_lemma2(3, 2)
    assert "stable-pole-inclusion" not in report["assertions"]
    assert report["assertions"]["stability-closed-form"] == {"pass": 1, "fail": 0}


def _stability_polynomial(p, e):
    # the degree-e polynomial suite_lemma2 builds its stability table on
    return EisensteinPolynomial(p, (p,) if e == 1 else (p, p) + (0,) * (e - 2))


@pytest.mark.parametrize("p", [2, 3])
def test_stability_rows_do_not_depend_on_the_degree(p):
    # suite_lemma2 builds only the table of degree e, which holds the table
    # of every lower degree as its first rows
    top = oracle.descent_minimal_s(_stability_polynomial(p, 8))
    for d in range(1, 9):
        assert oracle.descent_minimal_s(_stability_polynomial(p, d)) == top[:d + 1]


def test_stability_closed_form_fails_on_a_wrong_inclusion(monkeypatch, capsys):
    # an inclusion test that always holds gives s_required = 0 on rows with
    # a pole, which the closed form refuses
    monkeypatch.setattr(breuil, "verify_inclusion_p_s", lambda M, gens, s: True)
    report = suites.suite_lemma2(3, 2)
    assert report["assertions"]["stability-closed-form"] == {"pass": 0, "fail": 1}
    code = cli.main(["verify", "--suite", "lemma2", "--p", "3", "--n", "2"])
    assert code == cli.EXIT_ASSERTION
    assert "stability-closed-form.fail = 1" in capsys.readouterr().out


def test_stability_closed_form_fails_on_a_wrong_pole_order(monkeypatch, capsys):
    # the suite, not the oracle, checks j_max = floor(a/(p-1)): one row off
    # by one fails the tally
    real = oracle.descent_minimal_s

    def off_by_one(eis):
        rows = real(eis)
        j_max, s_required = rows[-1]
        return rows[:-1] + [(j_max + 1, s_required)]

    monkeypatch.setattr(oracle, "descent_minimal_s", off_by_one)
    report = suites.suite_lemma2(3, 2)
    assert report["assertions"]["stability-closed-form"] == {"pass": 0, "fail": 1}
    code = cli.main(["verify", "--suite", "lemma2", "--p", "3", "--n", "2"])
    assert code == cli.EXIT_ASSERTION
    assert "stability-closed-form.fail = 1" in capsys.readouterr().out


def test_telescoping_identity_fails_on_a_wrong_product(monkeypatch, capsys):
    # the suite, not the library, checks the product against u^(pn) - p^n:
    # one level's product off by u fails the tally once
    real = breuil.example3_identity

    def wrong_at_level_2(p, n):
        out = real(p, n)
        return out + TruncatedSeries.monomial(out.prec, 1) if n == 2 else out

    monkeypatch.setattr(breuil, "example3_identity", wrong_at_level_2)
    report = suites.suite_example3(2, 3)
    assert report["assertions"]["telescoping-identity"] == {"pass": 2, "fail": 1}
    code = cli.main(["verify", "--suite", "example3", "--p", "2", "--n", "3"])
    assert code == cli.EXIT_ASSERTION
    assert "telescoping-identity.fail = 1" in capsys.readouterr().out


def test_heights_builds_only_the_seeded_modules_it_tallies(monkeypatch):
    real, built = suites._seeded_module, []

    def recorded(rng, p, n_i):
        built.append(n_i)
        return real(rng, p, n_i)

    monkeypatch.setattr(suites, "_seeded_module", recorded)
    report = suites.suite_heights(seeds=20)
    assert built and set(built) == {1}
    # one tally per extension and one per seeded module built
    assert report["assertions"]["h4-matches-decomposition"]["pass"] == 20 + len(built)


def test_descent_runs_the_s0_inclusion_once_per_row(monkeypatch):
    real, calls = breuil.verify_inclusion_p_s, []

    def counted(M, gens, s):
        calls.append(s)
        return real(M, gens, s)

    monkeypatch.setattr(breuil, "verify_inclusion_p_s", counted)
    rows = oracle.descent_minimal_s(EisensteinPolynomial(2, (2, 2, 0)))
    # p = 0 at n = 1, so the p^1 inclusion cannot fail and is not run
    assert calls.count(0) == len(rows) and calls.count(1) == 0


def test_staircase_eligibility_stops_short_of_p_deg_equal_t(monkeypatch):
    # Lemma 4 needs p*deg(C) < t*; no witness on the small grids sits at
    # p*deg(C) = t*, so one is appended to the prop2 result of u^2 - 2 at
    # n = 2 (t* = 4): C = u^2 + 2 must be left out, not handed to lemma4_check
    real = oracle.prop2_max_t

    def with_boundary_witness(cfg, strict=True):
        res = real(cfg, strict=strict)
        res.witnesses.append(oracle.WitnessReport(coeffs=(2, 0, 1)))
        return res

    before = suites.suite_lemma4(2, 2, poly=(-2, 0))
    monkeypatch.setattr(oracle, "prop2_max_t", with_boundary_witness)
    after = suites.suite_lemma4(2, 2, poly=(-2, 0))
    assert after["ok"] and after["config"]["eligible_witnesses"] == \
        before["config"]["eligible_witnesses"] == 1


# The grids on which grouped sweeps are checked against the per-polynomial
# loop, as (p, e, n); every one has p | e, so lemma4 and cor5 run on each.
SMALL_GRIDS = [(2, 2, 2), (2, 4, 2), (2, 2, 3), (3, 3, 2)]


def _reference_sweep(suite, p, e, n, budget=oracle.DEFAULT_BUDGET):
    """The sweep as a plain loop that searches every polynomial of the grid."""
    assertions: dict = {}

    def tally(name, ok):
        slot = assertions.setdefault(name, {"pass": 0, "fail": 0})
        slot["pass" if ok else "fail"] += 1

    polys = list(oracle.eisenstein_grid(p, e, n))
    eligible_total = scanned = 0
    for eis in polys:
        res = oracle.prop2_max_t(oracle.default_config(eis, n, budget=budget),
                                 strict=False)
        for name, ok in res.assertions.items():
            tally(name, ok)
        if suite == "prop2":
            continue
        for w in res.witnesses:
            d = oracle.weierstrass_degree(w.coeffs, p)
            if d is None or p * d >= res.t_star:
                continue
            report = oracle.lemma4_check(res.config, w.coeffs, res.t_star, strict=False)
            for name, ok in report.checks.items():
                if name != "t-le-ne":
                    tally(name, ok)
            eligible_total += 1
            if suite == "cor5" and all(report.checks.values()):
                for l in range(e):
                    for e2 in oracle.weierstrass_polys(p, n, l):
                        scanned += 1
                        tally("membership-forces-degree",
                              oracle.cor5_check(p, n, e2, report.coeffs, res.t_star))
    config = {"p": p, "n": n, "polynomials": len(polys)}
    if suite == "lemma4":
        config["eligible_witnesses"] = eligible_total
    if suite == "cor5":
        config["instances"] = scanned
    config["budget"] = budget
    ok = bool(assertions) and all(v["fail"] == 0 for v in assertions.values())
    return {"suite": suite, "config": config, "assertions": assertions, "ok": ok}


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=str)
@pytest.mark.parametrize("suite", ["prop2", "lemma4", "cor5"])
def test_grouped_sweeps_match_the_per_polynomial_loop(suite, grid):
    p, e, n = grid
    grouped = suites.SUITES[suite](p, n, e=e)
    del grouped["runtime_s"]
    expected = _reference_sweep(suite, p, e, n)
    assert grouped == expected
    # dict equality ignores order, but the report prints tallies in order
    assert list(grouped["assertions"]) == list(expected["assertions"])
    assert list(grouped["config"]) == list(expected["config"])


def _class_members(p, e, n):
    """The grid's polynomials grouped by the sweep key (E mod p^n, tau, iota)."""
    q = p**n
    members: dict = {}
    for eis in oracle.eisenstein_grid(p, e, n):
        inv = eis.invariants()
        key = (tuple(a % q for a in eis.coeffs), inv.tau, inv.iota)
        members.setdefault(key, []).append(eis)
    return list(members.values())


def _search_profile(eis, n):
    """What a sweep reads off one search: t*, witnesses, assertions and the
    Lemma 4 report of every eligible witness."""
    res = oracle.prop2_max_t(oracle.default_config(eis, n), strict=False)
    lemma4 = []
    for w in res.witnesses:
        d = oracle.weierstrass_degree(w.coeffs, eis.p)
        if d is not None and eis.p * d < res.t_star:
            report = oracle.lemma4_check(res.config, w.coeffs, res.t_star, strict=False)
            lemma4.append((report.coeffs, report.checks))
    return res.t_star, [w.coeffs for w in res.witnesses], res.assertions, lemma4


@pytest.mark.parametrize("grid", SMALL_GRIDS, ids=str)
def test_sweep_key_fixes_every_search_result(grid):
    p, e, n = grid
    for members in _class_members(p, e, n):
        first = _search_profile(members[0], n)
        assert all(_search_profile(eis, n) == first for eis in members[1:])


@pytest.mark.parametrize("grid,count", [((2, 2, 2), 3), ((2, 4, 2), 12), ((2, 2, 3), 10),
                                        ((3, 3, 2), 22), ((3, 4, 2), 54)], ids=str)
def test_sweep_class_counts(grid, count):
    p, e, n = grid
    polys = list(oracle.eisenstein_grid(p, e, n))
    classes = suites._classes(polys, n)
    assert len(classes) == count and sum(size for _, size in classes) == len(polys)
    assert [rep for rep, _ in classes] == [m[0] for m in _class_members(p, e, n)]


def test_sweep_key_needs_tau():
    # u^2 + 2 and u^2 + 4u + 2 agree mod 4, but E_1 vanishes only in the
    # first (tau infinite), so only the second asserts t <= tau*e + iota
    plain, twisted = EisensteinPolynomial(2, (2, 0)), EisensteinPolynomial(2, (2, 4))
    polys = list(oracle.eisenstein_grid(2, 2, 2))
    assert plain in polys and twisted in polys
    assert [a % 4 for a in plain.coeffs] == [a % 4 for a in twisted.coeffs]
    found = [oracle.prop2_max_t(oracle.default_config(eis, 2), strict=False)
             for eis in (plain, twisted)]
    assert "t-le-taue-iota" not in found[0].assertions
    assert "t-le-taue-iota" in found[1].assertions
    reps = [rep for rep, _ in suites._classes(polys, 2)]
    assert plain in reps and twisted in reps
