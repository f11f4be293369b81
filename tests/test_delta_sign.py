"""Sign certification of the scaled defect: walking, certificates, replay."""

import dataclasses
import math
import random

import pytest

from mobius_bounds import delta_sign
from mobius_bounds.bounds import delta_q
from mobius_bounds.delta_sign import (
    CERTIFIED,
    FAILED,
    UNDECIDED,
    caps_scan,
    certificate_from_json,
    certificate_to_json,
    certify_sign,
    derivative_bound,
    interval_max,
    replay_certificate,
)


def test_derivative_bound_frozen():
    assert derivative_bound(1, 10) == pytest.approx(3.4425235618920125, abs=1e-15)
    # q = 1: the envelope is log(N+1) plus the interior slope maximum
    assert derivative_bound(1, 10) == pytest.approx(
        math.log(11) + 1.044628289093642, abs=1e-14
    )
    # prime-log surcharge enters through q
    assert derivative_bound(6, 10) > 3.0 * derivative_bound(1, 10)
    with pytest.raises(ValueError):
        derivative_bound(1, 0)


def test_interval_max_frozen(table_small):
    t = interval_max(table_small, 10, 1, 0.0)
    assert t == pytest.approx(0.0007197750798366709, abs=1e-18)
    t2 = interval_max(table_small, 10, 1, 0.0, x_hi=10.8)
    assert t2 == pytest.approx(-0.0009403850853809681, abs=1e-15)
    assert t2 < 0.0 < t


def test_interval_max_dominates_samples(table_small):
    rng = random.Random(7)
    for N in (2, 5, 10, 29, 46):
        for eps in (0.0, 0.001, 0.1, 0.7, 1.0):
            sup = interval_max(table_small, N, 1, eps)
            # the endpoint X = N itself
            assert delta_q(table_small, float(N), 1, eps).value <= sup + 1e-12
            for _ in range(4):
                x = N + rng.random() * 0.999999
                v = delta_q(table_small, x, 1, eps).value
                assert v <= sup + 1e-9, (N, eps, x)


def test_interval_max_guards(table_small):
    with pytest.raises(ValueError):
        interval_max(table_small, 0, 1, 0.0)
    with pytest.raises(ValueError):
        interval_max(table_small, 10, 1, 1.5)
    with pytest.raises(ValueError):
        interval_max(table_small, 10, 1, 0.0, x_hi=12.0)


def test_certify_low_range(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    assert cert.status == CERTIFIED
    assert cert.certified
    assert len(cert.records) == 10
    assert cert.worst_value() < 0.0
    # every step value recorded along the way is within budget of negative
    for rec in cert.records:
        assert rec.steps[0][0] == 0.0
        for _, t in rec.steps:
            assert t < 0.0


def test_certify_failure_at_eleven(table_small):
    cert = certify_sign(table_small, 1, 11.0)
    assert cert.status == FAILED
    n, eps, t = cert.failure
    assert (n, eps) == (10, 0.0)
    assert t == pytest.approx(0.0007197750798366709, abs=1e-18)
    assert not cert.certified


def test_certify_failure_at_ten_ninety_seven(table_small):
    cert = certify_sign(table_small, 1, 10.97)
    assert cert.status == FAILED
    n, eps, t = cert.failure
    assert n == 10
    assert t == pytest.approx(0.0004726847383442756, abs=1e-15)


def test_certify_guards(table_small):
    with pytest.raises(ValueError):
        certify_sign(table_small, 1, 1.0)
    with pytest.raises(ValueError):
        certify_sign(table_small, 1, 10.0, error_budget=1e-12)
    with pytest.raises(ValueError):  # no step value compares with NaN
        certify_sign(table_small, 1, 10.8, error_budget=math.nan)
    with pytest.raises(ValueError):
        certify_sign(table_small, 1, 10.0, eps_max=1.5)


def test_certify_inconclusive_on_coarse_budget(table_small):
    # the worst step value near X=10.8 is about -4.6e-5, inside the
    # 10x-budget dead zone for budget 1e-5
    cert = certify_sign(table_small, 1, 10.8, error_budget=1e-5)
    assert cert.status == UNDECIDED
    assert cert.reason != ""


def test_certificate_json_round_trip(table_small):
    for x0 in (10.8, 11.0):
        cert = certify_sign(table_small, 1, x0)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        # serialization is deterministic
        assert certificate_to_json(back) == text


def test_replay_accepts_genuine_certificates(table_small):
    for q, x0 in ((1, 10.8), (1, 11.0), (2, 20.0)):
        cert = certify_sign(table_small, q, x0)
        assert replay_certificate(table_small, cert) == []


def test_replay_rejects_tampering(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    rec = cert.records[3]
    steps = list(rec.steps)
    eps, t = steps[1]
    steps[1] = (eps, t - 1e-6)
    bad_rec = dataclasses.replace(rec, steps=tuple(steps))
    bad = dataclasses.replace(
        cert, records=cert.records[:3] + (bad_rec,) + cert.records[4:]
    )
    assert replay_certificate(table_small, bad) != []


@pytest.mark.parametrize("eps", [1.5, -0.5, math.nan])
def test_replay_reports_out_of_range_steps(table_small, eps):
    cert = certify_sign(table_small, 1, 4.0)
    rec = cert.records[-1]
    bad_rec = dataclasses.replace(rec, steps=rec.steps + ((eps, -0.1),))
    bad = dataclasses.replace(cert, records=cert.records[:-1] + (bad_rec,))
    problems = replay_certificate(table_small, bad)
    assert any("outside [0, 1]" in p for p in problems), problems


@pytest.mark.parametrize("eps", [1.5, math.nan])
def test_replay_reports_out_of_range_witness(table_small, eps):
    cert = certify_sign(table_small, 1, 11.0)
    n, _, t = cert.failure
    bad = dataclasses.replace(cert, failure=(n, eps, t))
    problems = replay_certificate(table_small, bad)
    assert any("outside the range" in p for p in problems), problems


def test_replay_rejects_understated_slope(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    rec = cert.records[0]
    bad_rec = dataclasses.replace(rec, M=rec.M * 0.5)
    bad = dataclasses.replace(cert, records=(bad_rec,) + cert.records[1:])
    assert replay_certificate(table_small, bad) != []


def test_replay_rejects_forged_understated_slope(table_small, monkeypatch):
    # certified with half the proven slope bound, the chain is consistent
    # with its own M: only M itself can give the forgery away
    true_bound = delta_sign.derivative_bound
    monkeypatch.setattr(
        delta_sign, "derivative_bound", lambda q, N: 0.5 * true_bound(q, N)
    )
    forged = certify_sign(table_small, 1, 6.0)
    monkeypatch.setattr(delta_sign, "derivative_bound", true_bound)
    assert forged.status == CERTIFIED
    problems = replay_certificate(table_small, forged)
    assert len(problems) == len(forged.records)
    assert all("is below" in p for p in problems)


def test_certify_q2_to_41(table_small):
    cert = certify_sign(table_small, 2, 41.0)
    assert cert.status == CERTIFIED
    assert len(cert.records) == 40


def test_caps_scan_frozen(table_small):
    scan = caps_scan(table_small, 1, 47.0)
    assert scan.grid_max == pytest.approx(0.0030213400425418424, abs=1e-15)
    assert (scan.arg_n, scan.arg_eps) == (29, 0.0)
    assert scan.grid_max <= scan.rigorous_cap <= 0.014
    for q in (11, 13, 17):
        s = caps_scan(table_small, q, 46.999)
        assert s.grid_max <= 5e-5, (q, s.grid_max)


def test_mean_value_soundness(table_small):
    # between recorded steps the chained slope bound must keep t <= 0
    cert = certify_sign(table_small, 1, 10.8)
    rng = random.Random(11)
    for rec in cert.records[:4] + cert.records[-2:]:
        pairs = list(rec.steps)
        for _ in range(5):
            i = rng.randrange(len(pairs))
            eps, t = pairs[i]
            if i + 1 < len(pairs):
                hi = pairs[i + 1][0]
            else:
                hi = min(1.0, eps - t / rec.M)
            star = eps + rng.random() * (hi - eps)
            x_hi = min(float(rec.N + 1), 10.8)
            t_star = interval_max(table_small, rec.N, 1, star, x_hi=x_hi)
            assert t_star <= t + rec.M * (star - eps) + 1e-12


def test_suites(table_small):
    assert set(delta_sign.SUITES) == {"certify", "caps"}
    rows = delta_sign.SUITES["caps"](table_small)
    assert rows and all(r.verdict == "pass" for r in rows)
