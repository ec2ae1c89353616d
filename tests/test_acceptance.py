"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line; criteria share a module-scoped context
so expensive growth-dimension estimates are computed once.
"""

import json

import pytest

from matweight import verify


@pytest.fixture(scope="module")
def ctx():
    return verify.Context(seed=7)


def _run(name, ctx):
    res = verify.run_criterion(name, ctx)
    line = f"[{'PASS' if res.passed else 'FAIL'}] acceptance::{name} ({res.seconds:.1f}s)"
    print(line)
    if not res.passed:
        print(json.dumps(verify_details(res), indent=1, default=str))
    return res


def verify_details(res):
    return {"tier": res.tier, **res.details}


def test_01_exact_filter_identity(ctx):
    res = _run("filter_identity", ctx)
    assert res.passed, res.details
    assert res.details["calderon_defect"] <= 1e-12
    assert res.details["build_under_1s"]


def test_02_reconstruction(ctx):
    res = _run("reconstruction", ctx)
    assert res.passed, res.details
    assert res.details["max_rel_sup_err"] <= 1e-8
    assert res.seconds < 30.0


def test_03_embedding_chain(ctx):
    res = _run("embedding_chain", ctx)
    assert res.passed, res.details
    assert res.details["violations"] == 0
    assert res.details["draws"] == 1000


def test_04_supercritical_equality(ctx):
    res = _run("supercritical_equality", ctx)
    assert res.passed, res.details
    assert res.details["max_rel_err"] <= 1e-12


def test_05_critical_definitional_identity(ctx):
    res = _run("lf_identity", ctx)
    assert res.passed, res.details
    assert res.details["max_rel_err"] <= 1e-12


def test_06_dimension_recovery(ctx):
    res = _run("dimension_recovery", ctx)
    assert res.passed, res.details
    assert 0.4 <= res.details["power_neg"]["d"] <= 0.6
    assert -0.05 <= res.details["power_pos"]["d"] <= 0.1
    assert 0.4 <= res.details["power_neg_p1"]["d"] <= 0.6


def test_07_log_perturbation_nonattainment(ctx):
    res = _run("log_perturbation", ctx)
    assert res.passed, res.details
    assert res.details["ratio_i2_to_i8"] >= 1.5


def test_08_duality_dimension(ctx):
    res = _run("duality_dimension", ctx)
    assert res.passed, res.details
    assert abs(res.details["d"] - 0.4) <= 0.1
    assert abs(res.details["dtilde"] - 0.3) <= 0.1
    assert res.details["dual_route_gap"] <= 0.15


def test_09_growth_envelope(ctx):
    res = _run("growth_envelope", ctx)
    assert res.passed, res.details
    for label in ("power_neg", "two_sing", "conjugated"):
        assert res.details[label]["max_ratio"] <= 10.0
        assert res.details[label]["pairs"] >= 500
    for label in ("power_neg", "two_sing"):
        seq = res.details[label]["lowered_sequence"]
        assert seq[0] < seq[1] < seq[2]


def test_10_reducing_validation(ctx):
    res = _run("reducing_validation", ctx)
    assert res.passed, res.details
    assert res.details["mvee_vs_exact_rel_err"] <= 0.05
    for lo, hi in res.details["family_brackets"].values():
        assert 0.1 <= lo <= hi <= 10.0
    assert res.details["exchange_identity_worst"] <= 1e-12


def test_11_ratio_suites(ctx):
    res = _run("ratio_suites", ctx)
    assert res.passed, res.details
    for suite in res.details["suites"].values():
        for ti in suite[10]:
            for lbl, stats in suite[10][ti].items():
                assert stats["spread"] <= 50.0
                drift = abs(suite[11][ti][lbl]["spread"] - stats["spread"])
                assert drift < 0.2 * stats["spread"]


def test_12_doubling_exponent(ctx):
    res = _run("doubling", ctx)
    assert res.passed, res.details
    assert abs(res.details["identity"] - 1.0) <= 1e-9
    for label in ("power_neg", "power_pos", "two_sing", "conjugated"):
        assert res.details[label] >= 1.0 - 0.05
    assert res.details["power_neg_d_hat"] < res.details["power_neg"]
    assert res.details["power_pos_d_hat"] < res.details["power_pos"]


def test_13_cli_determinism(verify_exact_pair):
    (rc1, report1), (rc2, report2) = verify_exact_pair
    passed = rc1 == 0 and rc2 == 0 and report1 == report2
    print(f"[{'PASS' if passed else 'FAIL'}] acceptance::cli_determinism")
    assert passed
