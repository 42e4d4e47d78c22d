"""Report contract of the verification suites."""

import pytest

from ramibound import breuil, oracle, suites
from ramibound.eisenstein import EisensteinPolynomial
from ramibound.series import PrecisionError


REPORT_KEYS = {"suite", "config", "assertions", "ok", "runtime_s"}


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("prop2", dict(p=2, n=1, e=2)),
        ("lemma4", dict(p=2, n=2, e=2)),
        ("cor5", dict(p=2, n=2, e=2)),
        ("lemma1", dict(p=2, n=1, seeds=10)),
        ("lemma2", dict(p=2, n=3, e_max=4)),
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
    return "lemma4-degree", 1, 21  # one of the 8 witnesses (3 instances each) left out


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
    assert report["ok"] and len(calls) == report["config"]["eligible_witnesses"] == 192
    # t-le-ne is tallied once per polynomial, by prop2, not again per witness
    assert report["assertions"]["t-le-ne"] == {"pass": 128, "fail": 0}
    assert report["assertions"]["lemma4-degree"] == {"pass": 192, "fail": 0}


def test_lemma2_tallies_each_stability_table_once():
    report = suites.suite_lemma2(3, 2)
    assert "stable-pole-inclusion" not in report["assertions"]
    assert report["assertions"]["stability-closed-form"] == {"pass": 8, "fail": 0}


def test_descent_runs_the_s0_inclusion_once_per_row(monkeypatch):
    real, calls = breuil.verify_inclusion_p_s, []

    def counted(M, gens, s):
        calls.append(s)
        return real(M, gens, s)

    monkeypatch.setattr(breuil, "verify_inclusion_p_s", counted)
    table = oracle.descent_minimal_s(EisensteinPolynomial(2, (2, 2, 0)))
    ones = sum(row.s_required == 1 for row in table.rows)
    assert calls.count(0) == len(table.rows) and calls.count(1) == ones


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
