"""Sign certification of the scaled defect: walking, certificates, replay."""

import dataclasses
import functools
import json
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from mobius_bounds import bounds, delta_sign
from mobius_bounds.analytic import eps_zeta
from mobius_bounds.arith import Modulus, build_table, mu_support
from mobius_bounds.util import EPS, CapacityError
from mobius_bounds.bounds import delta_q
from mobius_bounds.delta_sign import (
    CERTIFIED,
    FAILED,
    UNDECIDED,
    caps_scan,
    certificate_from_json,
    certificate_to_json,
    certify_sign,
    curvature_bound,
    derivative_bound,
    interval_max,
    interval_weights,
    pair_bound,
    replay_certificate,
)


def test_derivative_bound_frozen():
    assert derivative_bound(1, 10) == pytest.approx(3.4424917781901287, abs=1e-15)
    # q = 1: the envelope is log(N+1) plus the interior slope maximum
    assert derivative_bound(1, 10) == pytest.approx(
        math.log(11) + 1.0445965053917583, abs=1e-14
    )
    # prime-log surcharge enters through q
    assert derivative_bound(6, 10) > 3.0 * derivative_bound(1, 10)
    with pytest.raises(ValueError):
        derivative_bound(1, 0)


# the claim and cap moduli
MODULI = (1, 2, 6, 15, 30, 2310, 11, 13, 17)
# (a_min, b_max) and G2 as the 100,001-point grid of eps_zeta gave them,
# before the closed forms; none of the closed forms may be looser
GRID_ENVELOPES = (0.0759508877317533, 1.044628289093642)
GRID_CURVATURE = {
    1: 0.6064768030096908, 2: 5.698587058200837, 6: 16.359190972735327,
    15: 8.113747872357218, 30: 29.586543356781632, 2310: 58.160374548358845,
    11: 1.7311383882812, 13: 1.6177235960584992, 17: 1.4616473588235708,
}


def _f(e):
    return mpmath.mpf(1) if e == 0 else e * mpmath.zeta(1 + e)


@functools.lru_cache(maxsize=None)
def _f_oracle(e):
    """F, F', F'' at eps = e for the entire F(eps) = eps zeta(1+eps): mpmath's
    zeta, and central differences of step 1e-6 (good to about 1e-12)."""
    h = mpmath.mpf("1e-6")
    lo, mid, hi = _f(e - h), _f(e), _f(e + h)
    return mid, (hi - lo) / (2 * h), (hi - 2 * mid + lo) / h**2


def _g2_oracle(primes, e):
    """|g''(e)| for g = R/F, R = prod_{p|q} u_p with u_p = p^s/(p^s - 1),
    s = 1 + e, by the product rule over the factors."""
    f, f1, f2 = _f_oracle(e)
    r, r1, r2 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
    for p in primes:
        # u = 1 + 1/v with v = p^s - 1, v' = p^s log p, v'' = p^s log^2 p
        lp, ps = mpmath.log(p), mpmath.power(p, 1 + e)
        v = ps - 1
        u, u1, u2 = 1 + 1 / v, -ps * lp / v**2, 2 * (ps * lp) ** 2 / v**3 - ps * lp**2 / v**2
        r, r1, r2 = r * u, r1 * u + r * u1, r2 * u + 2 * r1 * u1 + r * u2
    return abs(r2 / f - 2 * r1 * f1 / f**2 + r * (2 * f1**2 - f * f2) / f**3)


def _located_max(fn, n=400, rounds=12):
    """max of fn on n + 1 points of [0, 1] and on a golden-section search
    of the two grid steps around the best of them."""
    xs = [mpmath.mpf(k) / n for k in range(n + 1)]
    vals = [fn(x) for x in xs]
    i = max(range(n + 1), key=vals.__getitem__)
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, n)]
    phi = (mpmath.sqrt(5) - 1) / 2
    a, b = hi - phi * (hi - lo), lo + phi * (hi - lo)
    fa, fb = fn(a), fn(b)
    best = max(vals[i], fa, fb)
    for _ in range(rounds):
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - phi * (hi - lo)
            fa = fn(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + phi * (hi - lo)
            fb = fn(b)
        best = max(best, fa, fb)
    return best


def test_envelopes_and_curvature_against_mpmath():
    a_min, b_max = delta_sign._envelope_extrema()
    with mpmath.workdps(30):
        a_inf = -_located_max(lambda e: -1 / (2 * (1 + e) ** 2 * _f_oracle(e)[0]))
        b_sup = _located_max(lambda e: (1 + 2 * e) / ((1 + e) * _f_oracle(e)[0]))
        assert GRID_ENVELOPES[0] <= a_min <= a_inf
        assert b_sup <= b_max <= GRID_ENVELOPES[1]
        for q in MODULI:
            primes = Modulus.coerce(q).primes
            sup = _located_max(lambda e: _g2_oracle(primes, e))
            g2 = delta_sign._main_curvature(q)
            assert sup <= g2 <= GRID_CURVATURE[q], (q, g2, sup)
            if q == 1:
                assert g2 <= 1.02 * sup, (g2, sup)


# prints the closed forms; run in a child with numpy's AVX512 dispatch off
_DISPATCH_PROBE = """
import random
import numpy as np
from mobius_bounds import delta_sign
from mobius_bounds.analytic import eps_zeta, eps_zeta_grid

def report(moduli):
    rng = random.Random(4242)
    sample = [rng.random() for _ in range(2000)] + [0.0, 1.0]
    lines = [repr([eps_zeta(e) for e in sample])]
    lines.append(repr(eps_zeta_grid(np.array(sample)).tolist()))
    for q in moduli:
        bounds = (delta_sign.derivative_bound(q, 10), delta_sign._main_curvature(q))
        lines.append(f"{q} {bounds!r}")
    return "\\n".join(lines)
"""


def test_closed_forms_do_not_depend_on_numpy_dispatch(without_avx512):
    scope = {}
    exec(_DISPATCH_PROBE, scope)
    want = scope["report"](MODULI)
    code = _DISPATCH_PROBE + f"\nprint(report({MODULI!r}), end='')"
    assert without_avx512(code) == want


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
    for eps in (5e-324, 1e-320, 1e-310):  # subnormal: -eps log n underflows
        with pytest.raises(ValueError, match="subnormal"):
            interval_max(table_small, 9999, 1, eps)


def _dense_weights(table, N, q):
    """(mu(n)/n with 0.0 where gcd(n, q) > 1, log n) for every n <= N."""
    mu = table.mu[: N + 1].astype(np.float64)
    mu[~Modulus.coerce(q).coprime_mask(N)] = 0.0
    nn = np.arange(N + 1, dtype=np.float64)
    nn[0] = 1.0
    return mu[1:] / nn[1:], np.log(nn[1:])


@pytest.mark.parametrize("N", [1, 10, 46, 1000, 100_000])
def test_defect_on_the_support_is_the_dense_defect_bit_for_bit(table_mid, N):
    for q in (1, 2, 30, 2310, 30030):
        qm = Modulus.coerce(q)
        w, ln = interval_weights(table_mid, N, qm)
        n = np.rint(np.exp(ln)).astype(np.int64)
        assert n[0] == 1 and np.all(np.diff(n) > 0)
        assert np.all(w != 0.0) and all(math.gcd(int(k), q) == 1 for k in n)
        w_all, ln_all = _dense_weights(table_mid, N, q)
        assert np.count_nonzero(w_all) == w.size
        for x_hi in (N + 1.0, N + 0.5):
            log_y = math.log(x_hi)
            for eps in (0.0, 1e-9, 1e-3, 0.5, 1.0):
                got = delta_sign.IntervalKernel(w, ln, log_y, qm).at(eps)
                want = delta_sign.IntervalKernel(w_all, ln_all, log_y, qm).at(eps)
                assert got.hex() == want.hex(), (N, q, x_hi, eps)
            m2 = curvature_bound(w, ln, qm, log_y)
            assert m2 == curvature_bound(w_all, ln_all, qm, log_y), (N, q, x_hi)


# the seven claims of delta-sign:certify and the four of delta-sign:caps
CLAIMS = (
    [(1, 10.8, 0.0), (1, 11.0, 0.0)]
    + [(q, 41.0, 0.0) for q in (2, 6, 15, 30, 2310)]
    + [(1, 47.0, 0.014)]
    + [(q, 46.999, 5e-5) for q in (11, 13, 17)]
)


_CROSS_DISPATCH = """
import json
from mobius_bounds.arith import build_table
from mobius_bounds.delta_sign import (certificate_from_json, certificate_to_json,
                                      certify_sign, replay_certificate)

table = build_table(1000)
theirs = [certificate_from_json(d) for d in json.load(open(PATH))]
print(json.dumps({
    "problems": [replay_certificate(table, c) for c in theirs],
    "docs": [certificate_to_json(certify_sign(table, q, x0, cap=cap)) for q, x0, cap in CLAIMS],
}))
"""


def test_certificates_replay_across_numpy_dispatch(without_avx512, tmp_path):
    """The eleven claims, certified on a 1e3 table under each numpy dispatch,
    replay under the other with no problem and the same M2 in every
    record.  The step values may differ in their last bits (numpy's log
    and expm1 do), so the documents are not compared byte for byte.  This
    process's documents go to the child through a file: they are too long
    for its argv."""
    table = build_table(1000)
    ours = [certify_sign(table, q, x0, cap=cap) for q, x0, cap in CLAIMS]
    path = tmp_path / "certificates.json"
    path.write_text(json.dumps([certificate_to_json(c) for c in ours]))
    head = f"CLAIMS = {CLAIMS!r}\nPATH = {str(path)!r}\n"
    child = json.loads(without_avx512(head + _CROSS_DISPATCH))
    assert child["problems"] == [[] for _ in CLAIMS]
    theirs = [certificate_from_json(d) for d in child["docs"]]
    assert [replay_certificate(table, c) for c in theirs] == [[] for _ in CLAIMS]
    for mine, other in zip(ours, theirs):
        assert [(r.N, r.M2) for r in mine.records] == [(r.N, r.M2) for r in other.records]


def test_batched_replay_rederives_every_step_bit_for_bit(table_small, monkeypatch):
    certs = [certify_sign(table_small, q, x0, cap=cap) for q, x0, cap in CLAIMS]
    for batch in (delta_sign._BATCH, 16):
        # 16 entries split the records into batches of one to three rows, and
        # send the supports longer than 16 (q = 1 from N = 26 on) through at()
        monkeypatch.setattr(delta_sign, "_BATCH", batch)
        for cert in certs:
            assert replay_certificate(table_small, cert) == []
            qm = Modulus.coerce(cert.q)
            for rec in cert.records:
                kernel = delta_sign._interval_invariants(
                    table_small, rec.N, qm, min(rec.N + 1.0, cert.x0)
                )
                values = kernel.at_each([e for e, _ in rec.steps])
                assert [v.hex() for v in values] == [t.hex() for _, t in rec.steps]


def test_certify_low_range(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    assert cert.status == CERTIFIED
    assert cert.certified
    assert len(cert.records) == 10
    assert cert.proven_bound() <= -cert.error_budget
    # every chain runs from eps = 0 exactly to eps_max through negative values
    for rec in cert.records:
        assert rec.steps[0][0] == 0.0
        assert rec.steps[-1][0] == cert.eps_max
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
    problems = replay_certificate(table_small, bad)
    assert any("vs replay" in p for p in problems), problems


def test_replay_rejects_a_nan_step_value(table_small):
    # JSON parsing accepts NaN; a recorded NaN matches no re-derived value,
    # the failure witness (the last step, exempt from the cap rules) included
    for x0, i, k in ((10.8, 3, 2), (11.0, -1, 0)):
        cert = certify_sign(table_small, 1, x0)
        rec = cert.records[i]
        steps = list(rec.steps)
        steps[k] = (steps[k][0], math.nan)
        bad = _with_record(cert, i, dataclasses.replace(rec, steps=tuple(steps)))
        problems = replay_certificate(table_small, bad)
        assert any("recorded nan vs replay" in p for p in problems), (x0, problems)


def _with_record(cert, i, rec):
    records = list(cert.records)
    records[i] = rec
    return dataclasses.replace(cert, records=tuple(records))


def test_replay_rejects_a_gap_in_the_chain(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    rec = cert.records[9]
    # dropping a middle step leaves a pair too long for the curvature bound
    steps = rec.steps[:5] + rec.steps[6:]
    problems = replay_certificate(
        table_small, _with_record(cert, 9, dataclasses.replace(rec, steps=steps))
    )
    assert problems == ["N=10: steps 4, 5 break the pair rule"]


def test_replay_rejects_short_coverage(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    rec = cert.records[2]
    short = dataclasses.replace(rec, steps=rec.steps[:-1])
    problems = replay_certificate(table_small, _with_record(cert, 2, short))
    assert problems == ["N=3: coverage stops short of eps_max"]


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
    # the witness of a failure is the last step of its last record
    cert = certify_sign(table_small, 1, 11.0)
    rec = cert.records[-1]
    bad_rec = dataclasses.replace(rec, steps=rec.steps[:-1] + ((eps, rec.steps[-1][1]),))
    bad = _with_record(cert, -1, bad_rec)
    assert bad.failure[1] is eps
    problems = replay_certificate(table_small, bad)
    assert f"N=10: step 0 has eps={eps!r} outside [0, 1]" in problems, problems


def test_replay_rejects_a_witness_below_the_cap(table_small):
    # a failure claimed at N = 9, where the defect stays well below the cap
    cert = certify_sign(table_small, 1, 11.0)
    bad = dataclasses.replace(cert, records=cert.records[:-1])
    assert bad.status == FAILED and bad.failure[0] == 9
    problems = replay_certificate(table_small, bad)
    assert problems == ["last step does not reproduce a value at the cap"], problems


def test_replay_reports_a_failure_without_a_last_step(table_small):
    cert = certify_sign(table_small, 1, 11.0)
    assert replay_certificate(table_small, dataclasses.replace(cert, records=())) == [
        "fail status without a last step"
    ]
    rec = dataclasses.replace(cert.records[-1], steps=())
    bad = _with_record(cert, -1, rec)
    assert bad.failure is None
    assert replay_certificate(table_small, bad) == ["N=10: no steps recorded"]


# each X range is [1, x0]: the v3 format records only x0
@pytest.mark.parametrize("x_range", [
    (1.0, math.inf), (1.0, math.nan), (1.0, 1e12), (1.0, 10_001.5), (1.0, 1.0), (1.0, 0.5),
])
def test_replay_reports_an_x_range_the_table_does_not_reach(table_small, x_range):
    cert = certify_sign(table_small, 1, 10.8)
    # a record past the table's reach, which no interval could be built for
    last = dataclasses.replace(cert.records[-1], N=10_001)
    bad = dataclasses.replace(cert, x0=x_range[1], records=cert.records + (last,))
    tracemalloc.start()
    try:
        problems = replay_certificate(table_small, bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(problems) == 1 and problems[0].startswith("X range"), problems
    assert peak <= 1 << 20, peak


def test_replay_checks_the_tiling_without_a_list_of_intervals(table_mid):
    # a range the table reaches but the records do not cover: 1e5 intervals
    # would be about 4 MB as a list of ints, 9 MB as the old schedule
    cert = certify_sign(table_mid, 1, 10.8)
    bad = dataclasses.replace(cert, x0=100_000.0)
    tracemalloc.start()
    try:
        problems = replay_certificate(table_mid, bad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the last record, clipped at 10.8, no longer matches [10, 11] either
    assert problems[0] == "interval list does not tile the X range"
    assert peak <= 1 << 20, peak


def test_certify_refuses_an_x0_the_table_does_not_reach(table_small):
    for x0 in (10_001.5, 1e12, math.inf):
        with pytest.raises(CapacityError, match="past the table"):
            certify_sign(table_small, 1, x0)
    with pytest.raises(ValueError, match="x0 must exceed 1"):
        certify_sign(table_small, 1, math.nan)


def test_replay_reports_a_record_outside_the_x_range(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    stray = dataclasses.replace(cert.records[-1], N=11)
    problems = replay_certificate(
        table_small, dataclasses.replace(cert, records=cert.records + (stray,))
    )
    assert problems == [
        "interval list does not tile the X range",
        "N=11: interval outside the X range",
    ]


def test_replay_rejects_understated_curvature(table_small):
    cert = certify_sign(table_small, 1, 10.8)
    rec = cert.records[4]
    bad = _with_record(cert, 4, dataclasses.replace(rec, M2=rec.M2 * 0.5))
    problems = replay_certificate(table_small, bad)
    assert any("recorded M2=" in p and "is below" in p for p in problems), problems


def test_replay_rejects_forged_understated_curvature(table_small, monkeypatch):
    # certified with half the curvature bound, every pair meets the rule
    # with its own M2: only M2 itself can give the forgery away
    true_bound = delta_sign.curvature_bound
    monkeypatch.setattr(
        delta_sign, "curvature_bound", lambda *a: 0.5 * true_bound(*a)
    )
    forged = certify_sign(table_small, 1, 6.0)
    monkeypatch.setattr(delta_sign, "curvature_bound", true_bound)
    assert forged.status == CERTIFIED
    problems = replay_certificate(table_small, forged)
    assert len(problems) == len(forged.records)
    assert all("recorded M2=" in p and "is below" in p for p in problems)


@pytest.mark.parametrize("q, x0, cap", [(1, 47.0, 0.014), (11, 46.999, 5e-5)])
def test_replay_accepts_cap_certificates(table_small, q, x0, cap):
    cert = certify_sign(table_small, q, x0, cap=cap)
    assert cert.certified
    assert cert.proven_bound() <= cap - cert.error_budget
    assert replay_certificate(table_small, cert) == []
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert and back.cap == cap


def test_replay_rejects_a_raised_cap(table_small):
    # the defect reaches 0.003 below X = 47: the 0.014 chain proves no sign
    cert = certify_sign(table_small, 1, 47.0, cap=0.014)
    problems = replay_certificate(table_small, dataclasses.replace(cert, cap=0.0))
    assert any("above cap - budget" in p for p in problems)
    assert any("break the pair rule" in p for p in problems)


def test_certificate_from_json_requires_version_3(table_small):
    doc = json.loads(certificate_to_json(certify_sign(table_small, 1, 4.0)))
    assert doc["version"] == 3
    for version in (None, 1, 2, "3"):
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        with pytest.raises(ValueError, match="version 3"):
            certificate_from_json(json.dumps(doc))


def test_certificate_from_json_rejects_inexact_fields(table_small):
    """An integer field must be an exact JSON integer and a float field a
    JSON number, never a bool: int() would read "q": 2.9 as 2, a
    certificate other than the one the document states, and replay it
    cleanly."""
    text = certificate_to_json(certify_sign(table_small, 2, 11.0))
    assert replay_certificate(table_small, certificate_from_json(text)) == []
    # a float field may be written as a JSON integer
    assert certificate_from_json(text.replace('"x0":11.0}', '"x0":11}')) == (
        certificate_from_json(text)
    )
    for old, new in (
        ('"q":2,', '"q":2.9,'),
        ('"q":2,', '"q":true,'),
        ('"N":10,', '"N":10.7,'),
        ('"N":10,', '"N":true,'),
        ('"x0":11.0}', '"x0":true}'),
        ('"cap":0.0,', '"cap":"0.0",'),
        ('"steps":[[0.0,', '"steps":[[false,'),
    ):
        assert text.count(old) >= 1, old
        with pytest.raises(ValueError):
            certificate_from_json(text.replace(old, new, 1))


_GONE = object()


def _edit(*path, to=_GONE):
    """An edit of a certificate document: the field at path becomes to, or
    goes."""
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if to is _GONE:
            del doc[last]
        else:
            doc[last] = to
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(lambda d: (d.clear(), d.update(version=3)),
                     "lacks the field 'records'", id="version-only"),
        pytest.param(_edit("cap"), "lacks the field 'cap'", id="no-cap"),
        pytest.param(_edit("records", 0, "M2"), "lacks the field 'M2'", id="no-M2"),
        pytest.param(_edit("records", 0, "steps", 1, to=1.0),
                     r"N=1: steps must be \[eps, t\]", id="step-float"),
        pytest.param(_edit("records", 0, "steps", 1, to=[0.5, 0.1, 0.2]), "N=1: steps",
                     id="step-triple"),
        pytest.param(_edit("records", 0, "steps", to=5), "N=1: steps", id="steps-number"),
        pytest.param(_edit("records", to={"a": 1}), "records must be a JSON array",
                     id="records-object"),
        pytest.param(_edit("records", to=[1]), "a record must be a JSON object",
                     id="record-number"),
        pytest.param(_edit("status", to=7), "status must be", id="status-number"),
        pytest.param(_edit("status", to="certified"), "status must be", id="status-unknown"),
        pytest.param(_edit("reason", to=7), "reason must be a JSON string", id="reason-number"),
    ],
)
def test_certificate_from_json_names_each_malformed_field(table_small, edit, message):
    """A malformed document raises ValueError naming the problem, never a
    KeyError or TypeError, and no status outside the three parses."""
    doc = json.loads(certificate_to_json(certify_sign(table_small, 1, 4.0)))
    assert doc["records"][0]["N"] == 1 and len(doc["records"][0]["steps"]) >= 2
    edit(doc)
    with pytest.raises(ValueError, match=message):
        certificate_from_json(json.dumps(doc))


def test_certify_q2_to_41(table_small):
    cert = certify_sign(table_small, 2, 41.0)
    assert cert.status == CERTIFIED
    assert len(cert.records) == 40


def test_caps_scan_frozen(table_small):
    scan = caps_scan(table_small, 1, 47.0)
    assert scan.grid_max == pytest.approx(0.0030213400425418424, abs=1e-15)
    assert (scan.arg_n, scan.arg_eps) == (29, 0.0)
    assert scan.grid_max <= scan.rigorous_cap <= 0.014
    # the pair rule's pad on the grid, plus the 1e-9 budget, proves each published cap
    assert scan.rigorous_cap == pytest.approx(0.0030256376417969375 + 1e-9, abs=1e-12)
    pads = {11: -8.011180762014351e-05, 13: -7.808007023221597e-05, 17: -0.00011410013400443424}
    for q in (11, 13, 17):
        s = caps_scan(table_small, q, 46.999)
        assert s.grid_max <= 5e-5, (q, s.grid_max)
        assert s.rigorous_cap == pytest.approx(pads[q] + 1e-9, abs=1e-12), q
        assert s.grid_max <= s.rigorous_cap < 5e-5, q


@pytest.mark.parametrize("q, x_max", [(1, 47.0), (11, 46.999)])
def test_caps_scan_rigorous_cap_dominates_samples(table_small, q, x_max):
    """The defect at seeded (N, eps) off the grid stays at or below the
    rigorous cap.  Sampling cannot see an understated M2 (the pair rule's
    soundness rests on test_curvature_bound_against_mpmath); this checks
    the pad's assembly."""
    cap = caps_scan(table_small, q, x_max).rigorous_cap
    rng = random.Random(41)
    for _ in range(48):
        N = rng.randrange(1, 47)
        t = interval_max(table_small, N, q, rng.random(), x_hi=min(N + 1.0, x_max))
        assert t <= cap, (q, N, t, cap)


def test_caps_scan_checks_x_max_before_any_interval(monkeypatch):
    """An x_max past the table (inf too) raises CapacityError, and NaN or
    one at or below 1 (whose [1, x_max] holds no unit interval, so no cap
    was checked) ValueError, before any interval is scanned or any schedule
    is built."""
    table = build_table(300)

    def no_interval(*args):
        raise AssertionError("an interval was scanned")

    monkeypatch.setattr(delta_sign, "_interval_invariants", no_interval)
    for x_max, err in ((302.0, CapacityError), (400.0, CapacityError), (1e9, CapacityError),
                       (math.inf, CapacityError), (math.nan, ValueError),
                       (1.0, ValueError), (0.5, ValueError)):
        tracemalloc.start()
        try:
            with pytest.raises(err):
                caps_scan(table, 1, x_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, (x_max, peak)
    monkeypatch.undo()
    assert caps_scan(table, 1, 301.0).x_max == 301.0  # the last interval ends at limit + 1


def test_caps_scan_checks_eps_max_before_any_interval(monkeypatch):
    """An eps_max outside (0, 1], NaN too, raises certify_sign's ValueError
    before any interval is scanned."""
    table = build_table(300)

    def no_interval(*args):
        raise AssertionError("an interval was scanned")

    monkeypatch.setattr(delta_sign, "_interval_invariants", no_interval)
    for eps_max in (-0.5, 0.0, -0.0, math.nan, 1.5, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"eps_max must lie in \(0, 1\]"):
            caps_scan(table, 1, 100.0, eps_max)
    monkeypatch.undo()
    assert caps_scan(table, 1, 100.0, 1e-3).eps_max == 1e-3


def test_mean_value_soundness(table_small):
    # between recorded steps the chained slope bound must keep t <= 0
    cert = certify_sign(table_small, 1, 10.8)
    rng = random.Random(11)
    for rec in cert.records[:4] + cert.records[-2:]:
        m = derivative_bound(1, rec.N)
        pairs = list(rec.steps)
        for _ in range(5):
            i = rng.randrange(len(pairs))
            eps, t = pairs[i]
            if i + 1 < len(pairs):
                hi = pairs[i + 1][0]
            else:
                hi = min(1.0, eps - t / m)
            star = eps + rng.random() * (hi - eps)
            x_hi = min(float(rec.N + 1), 10.8)
            t_star = interval_max(table_small, rec.N, 1, star, x_hi=x_hi)
            assert t_star <= t + m * (star - eps) + 1e-12


@pytest.mark.parametrize("q, x0, cap", [(1, 10.8, 0.0), (6, 30.5, 0.0), (13, 46.999, 5e-5)])
def test_majorant_soundness(table_small, q, x0, cap):
    # between recorded steps the defect stays below the pair bound
    cert = certify_sign(table_small, q, x0, cap=cap)
    assert cert.certified
    rng = random.Random(13)
    for rec in rng.sample(cert.records, 8):
        x_hi = min(float(rec.N + 1), x0)
        for _ in range(6):
            i = rng.randrange(len(rec.steps) - 1)
            (e0, t0), (e1, t1) = rec.steps[i], rec.steps[i + 1]
            star = e0 + rng.random() * (e1 - e0)
            t_star = interval_max(table_small, rec.N, q, star, x_hi=x_hi)
            assert t_star <= pair_bound(t0, t1, e1 - e0, rec.M2) + 1e-12


def _second_derivative_oracle(w, ln, q, log_y, eps):
    """t''(eps) of the defect at 30 digits, t analytic through eps = 0."""
    primes = Modulus.coerce(q).primes
    with mpmath.workdps(30):
        b = mpmath.mpf(log_y)
        terms = [(mpmath.mpf(x), mpmath.mpf(a)) for x, a in zip(w, ln) if x != 0.0]

        def t(e):
            main = mpmath.mpf(1)
            for p in primes:
                main /= 1 - mpmath.power(p, -1 - e)
            if e == 0:
                return mpmath.fsum(x * (b - a) for x, a in terms) - main
            kernel = mpmath.fsum(
                x * (mpmath.exp(-e * a) - mpmath.exp(-e * b)) for x, a in terms
            )
            return kernel / e - main / (e * mpmath.zeta(1 + e))

        return float(mpmath.diff(t, mpmath.mpf(eps), 2))


def test_curvature_bound_against_mpmath(table_small):
    rng = random.Random(17)
    # N = 1 at eps = 0 is where the bound is tightest (within 2% for q = 2310)
    points = [(2310, 1, 0.0), (30, 1, 0.0), (1, 10, 1.0), (2310, 46, 1.0)]
    while len(points) < 40:
        eps = rng.choice((0.0, 1.0, rng.random(), rng.random() * 1e-3))
        points.append((rng.choice((1, 2, 6, 11, 30, 2310)), rng.randint(1, 46), eps))
    for q, N, eps in points:
        w, ln = interval_weights(table_small, N, Modulus.coerce(q))
        for x_hi in (N + 1.0, N + 0.5):
            log_y = delta_sign._interval_invariants(
                table_small, N, Modulus.coerce(q), x_hi
            ).log_y
            t2 = _second_derivative_oracle(w.tolist(), ln.tolist(), q, log_y, eps)
            assert curvature_bound(w, ln, q, log_y) >= abs(t2), (q, N, eps, x_hi)
    # mu cancels within table weights; a lone negative weight adds its kernel
    # curvature to the main term's, so both parts of the bound are tight here
    w, ln = np.array([-1.0]), np.array([0.0])
    for y in (2.0, 47.0):
        t2 = _second_derivative_oracle([-1.0], [0.0], 1, math.log(y), 0.0)
        m2 = curvature_bound(w, ln, 1, math.log(y))
        assert abs(t2) <= m2 <= 1.2 * abs(t2), (y, m2, t2)


def test_caps_scan_forms_each_main_term_once(table_small, monkeypatch):
    """The main term does not depend on N: one eps_zeta call per grid point
    at eps > 0 (1,000 of the 1,001), not one per interval and point."""
    calls = []

    def counting(eps):
        calls.append(eps)
        return eps_zeta(eps)

    monkeypatch.setattr(delta_sign, "eps_zeta", counting)
    caps_scan(table_small, 1, 47.0)
    assert len(calls) == 1000 and len(set(calls)) == 1000


def _kernel_twin(terms, log_x, primes, eps):
    """(S, t) at the working precision: S = sum_n mu(n)/n (n^(-eps) -
    X^(-eps))/eps, or sum_n mu(n)/n log(X/n) at eps = 0, and t = S - M,
    from terms = [(mu(n)/n, log n)] over the support and log_x = log X."""
    e = mpmath.mpf(eps)
    if eps == 0.0:
        s = mpmath.fsum(c * (log_x - a) for c, a in terms)
        main = mpmath.mpf(1)
    else:
        ey = mpmath.expm1(-e * log_x)
        s = mpmath.fsum(c * (mpmath.expm1(-e * a) - ey) for c, a in terms) / e
        main = 1 / (e * mpmath.zeta(1 + e)) if eps > 1e-30 else 1 / (1 + mpmath.euler * e)
    for p in primes:
        main /= 1 - mpmath.power(p, -1 - e)
    return s, s - main


def test_kernel_sum_and_defect_within_stated_radius(table_small):
    """A 40-digit twin of the kernel sum S and of t = S - M at seeded X <= 2000
    (X in (1, 2) too, and X = 1, where S and r_S are exactly 0): each error
    is within its stated radius, r_S for S and r_S + r_M + EPS |t| for t.
    eps = 1e-310 puts every product -eps log n below 2^-1022, where r_S's
    underflow term carries the bound."""
    rng = random.Random(4201)
    xs = [1.0, 1.000001, 1.0 + rng.random(), 1.0 + rng.random(), 2000.0]
    xs += [rng.uniform(2.0, 200.0), rng.uniform(200.0, 2000.0)]
    worst = {"S": 0.0, "t": 0.0}
    with mpmath.workdps(40):
        for X in xs:
            for q in (1, 2, 30, 30030):
                qm = Modulus.coerce(q)
                k, _ = mu_support(table_small, math.floor(X), qm)
                terms = [(mpmath.mpf(int(table_small.mu[n])) / n, mpmath.log(n))
                         for n in k.tolist()]
                log_x = mpmath.log(mpmath.mpf(X))
                for eps in (0.0, 1e-310, 1e-12, 1e-9, 0.01, 0.5, 1.0):
                    s, r_s = bounds._defect_sum(table_small, X, qm, eps)
                    m = delta_sign.main_term(qm, eps)
                    r_t = r_s + delta_sign.MAIN_TERM_REL_ERR * m + EPS * abs(s - m)
                    s_twin, t_twin = _kernel_twin(terms, log_x, qm.primes, eps)
                    err_s, err_t = abs(s - s_twin), abs(s - m - t_twin)
                    assert err_s <= r_s and err_t <= r_t, (X, q, eps, err_s, r_s, err_t, r_t)
                    assert (r_s == 0.0) == (X == 1.0), (X, q, eps)
                    if r_s:
                        worst["S"] = max(worst["S"], float(err_s / r_s))
                    worst["t"] = max(worst["t"], float(err_t / r_t))
    print(f"worst error/radius: S {worst['S']:.3g}, t {worst['t']:.3g}")


def test_suites(table_small):
    assert set(delta_sign.SUITES) == {"certify", "caps"}
    rows = delta_sign.SUITES["caps"](table_small)
    assert rows and all(r.verdict == "pass" for r in rows)
