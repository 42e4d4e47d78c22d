"""Report contract of the verification suites."""

import pytest

from ramibound import oracle, suites


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
