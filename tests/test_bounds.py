"""Envelope verifications: easy moments, eps-family, special line, |m| caps,
the y0 bracket and the certified comparison they all rest on."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mobius_bounds import analytic, arith, bounds, delta_sign
from mobius_bounds.analytic import ComplexParameter, constants
from mobius_bounds.identities import CATALOG_SPECS, catalog_check, evaluate_ofd
from mobius_bounds.arith import (
    Modulus,
    build_table,
    log_moment_sum,
    mu_support,
    prefix_log_moment,
    support_blocks,
    sweep_prefix_min,
)
from mobius_bounds.util import (
    EPS,
    FAIL,
    INCONCLUSIVE,
    PASS,
    Approx,
    BracketError,
    CapacityError,
    approx_add,
    approx_div,
    approx_mul,
    cert_le,
    floor_int,
    fsum_blocks,
)


def test_verify_easy_frozen_row(table_small):
    row = bounds.verify_easy(table_small, 1000.0, 6, 2, 1.0)
    assert row.verdict == PASS
    assert row.lhs == pytest.approx(30.575597320432678, abs=1e-12)
    assert row.bound == pytest.approx(41.44653167389282, abs=1e-12)


def test_verify_easy_guards(table_small):
    with pytest.raises(ValueError):
        bounds.verify_easy(table_small, 0.5, 1, 1, 1.0)
    with pytest.raises(ValueError):
        bounds.verify_easy(table_small, 10.0, 1, 0, 1.0)
    with pytest.raises(ValueError):
        bounds.verify_easy(table_small, 10.0, 1, 1, 0.9)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma must be finite"):
            bounds.verify_easy(table_small, 100.0, 1, 1, sigma)
    for k in (1.5, True):
        with pytest.raises(TypeError, match="k must be an integer"):
            bounds.verify_easy(table_small, 100.0, 1, k, 1.0)
    # a k whose float64 sums can overflow is refused before any sum: the
    # point sums up to 1e4 take k <= 318, up to 1e5 k <= 289
    for X, k, limit in ((1e4, 319, 318), (1e5, 300, 289)):
        with pytest.raises(ValueError, match=f"k = {k} can overflow float64 .* <= {limit}"):
            bounds.verify_easy(table_small, X, 1, k, 1.0)
    with np.errstate(over="raise", invalid="raise"):
        assert math.isfinite(bounds.verify_easy(table_small, 1e4, 1, 318, 1.0).lhs)
        # the scan's column form up to 1e4 takes k <= 242
        assert all(map(math.isfinite, bounds.easy_scan(table_small, 10_000, 1, 242, 1.0)))


def test_easy_scan_nonnegative_and_bounded(table_small):
    for q in (1, 2, 6, 30):
        for k in (1, 2, 3):
            for sigma in (1.0, 1.5, 2.0):
                lo, _, margin, arg = bounds.easy_scan(table_small, 10_000, q, k, sigma)
                assert lo >= -1e-12, (q, k, sigma)
                # equality at X=1 for k >= 2: both sides are exactly zero
                assert margin >= 0.0, (q, k, sigma, arg)
                if k == 1:
                    assert margin > 0.0, (q, k, sigma, arg)


@pytest.mark.parametrize("q", [1, 6, 30030])
def test_column_form_of_the_log_moment_agrees_with_the_point_sum(table_mid, q):
    """The scans' column form of L_k(X; sigma) (bounds._log_moment on the
    prefix_log_moment columns read at [X]) against log_moment_sum, which
    forms and sums its terms another way, within a derived bound.

    Let u = EPS/2 and take libm's log and pow within one ulp, two roundings.
    A term mu(n) n^-sigma (-log n)^i of column i takes the pow n^-sigma (2),
    log n (2 in each of its i factors), the power (2) and one product (1):
    at most 2k + 5 roundings.  The cumsum adds at most N = [X] (Higham's
    gamma_N).  Term j of the combination takes log X (2 in each of its j
    factors), the power (2), the binomial and column products (2) and at
    most k additions: at most 3k + 4.  So the column form is within
    gamma_{N+5k+9} S_abs of L_k, with S_abs = sum_j C(k,j) (log X)^j
    sum_{n<=X,(n,q)=1} |mu(n)| log^(k-j) n / n^sigma, and log_moment_sum
    within its err.  That err alone does not cover the difference (the
    largest one here is 1.6 times it, at q = 6, sigma = 1.5, k = 0, X = 1e5):
    it bounds the point sum's roundings, not the column form's cumsums.
    """
    u = EPS / 2.0
    xs = np.exp(np.linspace(0.0, math.log(1e5), 40))
    ns = np.floor(xs).astype(np.int64)
    lxs = np.log(xs)
    qm = Modulus(q)
    n, _ = mu_support(table_mid, int(ns[-1]), qm)
    logs = np.log(n.astype(np.float64))
    ends = np.searchsorted(n, ns, "right")
    for sigma in (1.0, 1.5):
        cols = prefix_log_moment(table_mid, int(ns[-1]), qm, sigma, (0, 1, 2, 3), at=ns)
        base = n.astype(np.float64) ** -sigma
        mass = [np.array([fsum_blocks((base * logs**i)[:e]) for e in ends]) for i in range(4)]
        for k in range(4):
            got = bounds._log_moment(k, lxs, cols)
            s_abs = sum(math.comb(k, j) * lxs**j * mass[k - j] for j in range(k + 1))
            for m, X in enumerate(xs):
                want, err = log_moment_sum(table_mid, float(X), qm, sigma, k)
                steps = int(ns[m]) + 5 * k + 9
                tol = steps * u / (1.0 - steps * u) * s_abs[m] + err
                assert abs(got[m] - want) <= tol, (sigma, k, X)


def _defect(table, X, q, eps):
    """Delta_q(X, eps)/X^eps as verify_mqeps reads it: the kernel sum less the
    main term."""
    qm = Modulus(q)
    return bounds._defect_sum(table, X, qm, eps)[0] - delta_sign.main_term(qm, eps)


def test_defect_frozen_and_floor(table_small):
    assert bounds.verify_mqeps(table_small, 11.0, 1, 0.0).lhs == pytest.approx(
        0.0007197750798366709, abs=1e-16
    )
    assert _defect(table_small, 11.0, 1, 0.0) == pytest.approx(0.0007197750798366709, abs=1e-16)
    # minimum of the eps=0 defect sits at X=2: log2 - 1
    assert _defect(table_small, 2.0, 1, 0.0) == pytest.approx(math.log(2) - 1.0, abs=1e-15)
    # never below -q/phi(q)
    for X in (1.0, 2.0, 5.5, 29.0, 100.0, 6000.0):
        for q in (1, 6):
            for eps in (0.0, 0.05, 0.3, 1.0):
                qp = q / (1 if q == 1 else 2)  # phi(1)=1, phi(6)=2
                assert _defect(table_small, X, q, eps) >= -qp - 1e-12, (X, q, eps)


def test_verify_integral_guards(table_small):
    for X in (0.5, 0.0, -5.0, math.nan):
        with pytest.raises(ValueError, match="X must be >= 1"):
            bounds.verify_integral(table_small, X, 1)


# each domain check refuses a NaN X with its own message, before any sum;
# those that read util.x_domain refuse X = inf too
_NAN_X_CALLS = {
    "constants": (lambda t, X: constants(ComplexParameter(1.5, 0.5), X), "X must be >= 1"),
    "verify_easy": (lambda t, X: bounds.verify_easy(t, X, 1, 1, 1.0), "X must be >= 1"),
    "verify_mqeps": (lambda t, X: bounds.verify_mqeps(t, X, 1, 0.05), "X must be >= 1"),
    "mqeps_scan": (lambda t, X: bounds.mqeps_scan(t, X, 1, 0.05), "X must be >= 1"),
    "verify_mcheckqeps": (
        lambda t, X: bounds.verify_mcheckqeps(t, X, 1, 0.05), "starts at X = 15"
    ),
    "small_m_bounds": (lambda t, X: bounds.small_m_bounds(t, X, 1), "X must be >= 1"),
    "verify_dex": (
        lambda t, X: bounds.verify_dex(t, X, 1, ComplexParameter(1.5, 0.5), "mqdex"),
        "X must be >= 1",
    ),
    "verify_integral": (lambda t, X: bounds.verify_integral(t, X, 1), "X must be >= 1"),
    "catalog_check": (lambda t, X: catalog_check(t, "meissel", X), "X must be >= 1"),
    "evaluate_ofd": (
        lambda t, X: evaluate_ofd(t, CATALOG_SPECS["meissel"], X), "X must be >= 1"
    ),
}


@pytest.mark.parametrize("name", _NAN_X_CALLS)
def test_domain_checks_refuse_a_nan_X(table_small, name):
    call, message = _NAN_X_CALLS[name]
    for X in (math.nan, math.inf) if message == "X must be >= 1" else (math.nan,):
        with pytest.raises(ValueError, match=message):
            call(table_small, X)


def test_verify_integral_decides_within_the_envelopes_rounding(table_small, monkeypatch):
    """verify_integral's row is a closed-form row: its envelope carries the
    8 EPS |bound| radius of _row, so a value 36 EPS past the bound, within
    the two radii (32 EPS (1 + val) and 8 EPS bound), is inconclusive."""
    bound = bounds.integral_abs_mq_bound(100.0, 1)
    monkeypatch.setattr(bounds, "integral_abs_mq", lambda *args: bound * (1.0 + 36.0 * EPS))
    assert bounds.verify_integral(table_small, 100.0, 1).verdict == INCONCLUSIVE


def test_defect_guards(table_small):
    with pytest.raises(ValueError):
        bounds.verify_mqeps(table_small, 10.0, 1, 1.5)
    with pytest.raises(ValueError):
        bounds.verify_mqeps(table_small, 0.5, 1, 0.0)
    # the smallest normal eps stays on the expm1 route (interval_max refuses a
    # subnormal one)
    assert _defect(table_small, 9999.5, 1, 1e-300) == pytest.approx(2.7767e-5, rel=1e-4)


def test_verify_mqeps_passes(table_small):
    for X in (100.0, 1000.0, 9999.5):
        for q in (1, 2, 6):
            for eps in (0.0, 0.01, 0.3, 1.0):
                row = bounds.verify_mqeps(table_small, X, q, eps)
                assert row.verdict == PASS, (X, q, eps)


@pytest.mark.parametrize("eps, selections", [(0.0, 1), (0.05, 1)])
def test_verify_mqeps_selects_the_support_once_per_sum(table_small, monkeypatch, eps,
                                                        selections):
    """One verify_mqeps row builds one kernel: its sum S gives |Delta| and,
    as eps·S = m_q(X; 1+eps) - m_q(X) X^(-eps), the companion bound, so the
    mu support is selected once at every eps (support_blocks, which
    mu_support reads too)."""
    calls = []

    def counting(*args):
        calls.append(args[1])
        return support_blocks(*args)

    monkeypatch.setattr(arith, "support_blocks", counting)
    monkeypatch.setattr(bounds, "support_blocks", counting)
    row = bounds.verify_mqeps(table_small, 9999.5, 30, eps)
    assert row.verdict == PASS
    assert calls == [9999] * selections


@pytest.mark.parametrize("sigma", [1.05, 1.0, 2.0])
def test_mcheck_main_sums_eta_once(monkeypatch, sigma):
    """_mcheck_main reads inv_zeta and zp_over_z2 at one sigma; both come
    from one _zeta_family pass, so eta is summed once, with the values of
    two separate passes bit for bit."""
    analytic._zeta_family.cache_clear()
    apart = (analytic.inv_zeta(sigma), analytic.zp_over_z2(sigma))
    calls = []
    true_pair = analytic._eta_pair

    def counting(s):
        calls.append(s)
        return true_pair(s)

    monkeypatch.setattr(analytic, "_eta_pair", counting)
    analytic._zeta_family.cache_clear()
    main, err, _ = bounds._mcheck_main(Modulus(1), sigma)
    assert calls == [complex(sigma)]
    assert (main(2.0), err(2.0)) == (
        2.0 * apart[0].value.real - apart[1].value.real,
        2.0 * apart[0].err + apart[1].err,
    )


@pytest.mark.parametrize("q", [1, 2, 30, 30030])
def test_verify_mqeps_decides_the_companion_near_X_1(table_small, q):
    """At X = 1.000001 and eps = 1e-12 the companion bound holds by
    S ~ log X ~ 1e-6, far above S's radius; the two sums it compares,
    m_q(X; 1+eps) and m_q(X) X^(-eps), agree to about 1e-18, so only the
    kernel sum S decides it."""
    assert bounds.verify_mqeps(table_small, 1.000001, q, 1e-12).verdict == PASS


def test_verify_mcheckqeps_passes_and_guards(table_small):
    for X in (15.0, 200.0, 9999.5):
        for q in (1, 6):
            for eps in (0.0, 0.05, 0.1):
                row = bounds.verify_mcheckqeps(table_small, X, q, eps)
                assert row.verdict == PASS, (X, q, eps)
    with pytest.raises(ValueError):
        bounds.verify_mcheckqeps(table_small, 10.0, 1, 0.0)
    with pytest.raises(ValueError):
        bounds.verify_mcheckqeps(table_small, 100.0, 1, 0.2)


def test_scans_positive_margins(table_small):
    for eps in (0.0, 0.05, 0.5):
        margin, _, floor_slack = bounds.mqeps_scan(table_small, 10_000, 2, eps)
        assert margin > 0.0
        assert floor_slack > 0.0
    for eps in (0.0, 0.05, 0.1):
        margin, _ = bounds.mcheckqeps_scan(table_small, 10_000, 2, eps)
        assert margin > 0.0


@pytest.mark.parametrize("eps", [1e-12, 1e-9])
@pytest.mark.parametrize("q", [1, 2, 6])
def test_mqeps_scan_margin_is_the_kernel_defect(table_small, q, eps):
    """At its argmin the scan's margin is mqeps_bound - |S - M|, with S from
    _defect_sum and M from main_term, within r_S + r_M.  A defect formed as
    the 1/eps difference of two prefix columns misses it at these eps by
    5e4 to 8e7 such radii."""
    qm = Modulus(q)
    margin, X, _ = bounds.mqeps_scan(table_small, 10_000, q, eps)
    s, r_s = bounds._defect_sum(table_small, X, qm, eps)
    m = delta_sign.main_term(qm, eps)
    want = bounds.mqeps_bound(X, qm, eps) - abs(s - m)
    assert abs(margin - want) <= r_s + delta_sign.MAIN_TERM_REL_ERR * m


def test_mqeps_scan_grid_stays_in_range(table_small):
    """The grid starts at X = 2, so n_max = 1 has no grid point in range."""
    with pytest.raises(ValueError, match=r"\[2, n_max\]"):
        bounds.mqeps_scan(table_small, 1, 1, 0.5)
    # at n_max = 2 every grid point is X = 2, where Delta + 1 = m_check_1(2) = log 2
    _, arg, floor_slack = bounds.mqeps_scan(table_small, 2, 1, 0.0)
    assert arg == pytest.approx(2.0, abs=1e-12)
    assert floor_slack == pytest.approx(math.log(2.0), abs=1e-15)


@pytest.mark.parametrize("n_max", [1000, 32768, 10**6])
def test_scan_grid_reads_floor_int_of_each_x(n_max):
    """The eps scans' grid reads [X] as the point checkers do, by
    floor_int's snap: its top X, exp(log n_max), lies a few ulps below
    n_max at these n_max and reads n_max, not n_max - 1."""
    for x_lo in (2.0, 15.0):
        xs, _, idx = bounds._scan_grid(n_max, x_lo)
        assert idx.tolist() == [min(floor_int(x), n_max) for x in xs.tolist()]
        assert idx[-1] == n_max


def test_integral_envelope(table_small):
    val = bounds.integral_abs_mq(table_small, 100.0)
    assert 0.0 < val <= bounds.integral_abs_mq_bound(100.0)
    # integral of |m| is nondecreasing in X
    v2 = bounds.integral_abs_mq(table_small, 200.0)
    assert v2 >= val
    for X in (50.0, 500.0, 5000.0):
        assert bounds.integral_abs_mq(table_small, X) <= bounds.integral_abs_mq_bound(X)


def test_verify_dex_both_kinds(table_small):
    for s in (complex(1.5), 1 + 2j, 0.9 + 5j):
        p = ComplexParameter(s, 0.5)
        for X in (100.0, 5000.0):
            r1 = bounds.verify_dex(table_small, X, 1, p, "mqdex")
            r2 = bounds.verify_dex(table_small, X, 1, p, "mcheckqdex")
            assert r1.verdict == PASS, (s, X)
            assert r2.verdict == PASS, (s, X)


def test_verify_special(table_small):
    for X in (15.0, 100.0, 9999.5):
        for sigma in (1.0, 1.01, 1.04):
            row = bounds.verify_special(table_small, X, sigma)
            assert row.verdict == PASS
            assert row.margin > 0.0
    with pytest.raises(ValueError):
        bounds.verify_special(table_small, 14.0, 1.0)
    with pytest.raises(ValueError):
        bounds.verify_special(table_small, 100.0, 1.05)


def _twin_lhs(table, theorem, X, q, param):
    """A row's lhs at the working precision: its sums from the table's mu,
    zeta, zeta' and the Euler factors from mpmath, and at s = 1 the limits
    1/zeta = 0 and zeta'/zeta^2 = -1."""
    import mpmath

    fields = dict(item.split("=") for item in param.split(","))
    scale = 1
    if theorem in ("mqdex", "mcheckqdex"):
        s = complex(fields["s"])
    elif theorem == "mcheckqeps":
        eps = float(fields["eps"])
        s, scale = 1.0 + eps, mpmath.power(X, eps)
    else:
        s = float(fields["sigma"])
    S, lx = mpmath.mpc(s), mpmath.log(X)
    support = [k for k in range(1, int(X) + 1) if table.mu[k] and math.gcd(k, q) == 1]
    terms = [int(table.mu[k]) * mpmath.power(k, -S) for k in support]
    if s == 1.0:
        invz, zz2 = 0, -1
    else:
        z = mpmath.zeta(S)
        invz, zz2 = 1 / z, mpmath.zeta(S, derivative=1) / z**2
    primes = Modulus.coerce(q).primes
    pr = mpmath.fprod(1 / (1 - mpmath.power(p, -S)) for p in primes)
    if theorem == "mqdex":
        mq = mpmath.fsum(mpmath.mpf(int(table.mu[k])) / k for k in support)
        return abs(mpmath.fsum(terms) - mq * mpmath.power(X, 1 - S) - pr * invz)
    mc = mpmath.fsum(t * (lx - mpmath.log(k)) for t, k in zip(terms, support))
    lps = mpmath.fsum(mpmath.log(p) / (mpmath.power(p, S) - 1) for p in primes)
    return scale * abs(mc - pr * (lx * invz - zz2 - invz * lps))


def test_complex_and_log_weighted_rows_against_a_40_digit_twin(monkeypatch):
    # every row of bounds:dex, bounds:mcheckqeps and bounds:special at limit
    # 1e3: its lhs lies within its radius, as bound_row receives it, of the
    # same lhs recomputed at 40 digits
    mpmath = pytest.importorskip("mpmath")
    table = build_table(1000)
    rows = []
    real = bounds.bound_row

    def recording(theorem_id, X, q, param, lhs, bound, lhs_err=0.0, **kw):
        rows.append((theorem_id, X, q, param, lhs, lhs_err))
        return real(theorem_id, X, q, param, lhs, bound, lhs_err, **kw)

    monkeypatch.setattr(bounds, "bound_row", recording)
    for name in ("dex", "mcheckqeps", "special"):
        bounds.SUITES[name](table)
    assert len(rows) == 95
    with mpmath.workdps(40):
        for theorem_id, X, q, param, lhs, lhs_err in rows:
            twin = _twin_lhs(table, theorem_id, X, q, param)
            assert abs(lhs - twin) <= lhs_err, (theorem_id, X, q, param)


def test_special_scan(table_small):
    margin, arg = bounds.special_scan(table_small, 10_000, 1.0)
    assert margin > 0.0
    assert 15 <= arg <= 10_000


def test_special_scan_needs_one_interval(table_small):
    """[15, 16) is the first interval, so n_max = 15 leaves none."""
    with pytest.raises(ValueError, match=r"\[15, n_max - 1\]"):
        bounds.special_scan(table_small, 15, 1.0)
    _, arg = bounds.special_scan(table_small, 16, 1.0)
    assert arg == 16.0


def test_solve_y0_small_case():
    res = bounds.solve_y0(100.0)
    # root satisfies its defining equation
    assert bounds.t_of(res.y0, 100.0) == pytest.approx(res.t_max, rel=1e-9)
    assert res.t_max > 1.0
    with pytest.raises(ValueError):
        bounds.solve_y0(2.0)


@pytest.mark.parametrize("A", [100.0, 1e12])
def test_solve_y0_brackets_the_root(A):
    mpmath = pytest.importorskip("mpmath")
    res = bounds.solve_y0(A)
    with mpmath.workdps(40):
        li_A = mpmath.li(A)
        root = mpmath.findroot(
            lambda y: y - (mpmath.log(y) - 1) * (mpmath.li(y) - li_A), res.y0
        )
        assert res.y_lo <= root <= res.y_hi
    assert (res.y_hi - res.y_lo) / res.y_lo <= 1e-9
    assert res.y0 == 0.5 * (res.y_lo + res.y_hi)
    assert bounds.solve_y0(A) == res


def test_li_enclosure_holds_mpmath_li():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(7)
    for y in [3.0, 1e12, 1e300] + [10.0 ** rng.uniform(0.5, 300.0) for _ in range(40)]:
        got = bounds._li(y)
        with mpmath.workdps(40):
            assert abs(mpmath.li(y) - got.value) <= got.err, y
        assert got.err <= 1e-11 * got.value, y


def test_solve_y0_without_a_float_bracket():
    # y0 / A grows with A (about 1365 at 1e12), so at A = 1e306 the root
    # lies past the largest float and the doubling search overflows
    with pytest.raises(BracketError):
        bounds.solve_y0(1e306)
    with pytest.raises(ValueError):
        bounds.solve_y0(math.inf)


def _exact_verdict(a, b, strict):
    lo = Fraction(b.value) - Fraction(b.err) - Fraction(a.value) - Fraction(a.err)
    hi = Fraction(a.value) - Fraction(a.err) - Fraction(b.value) - Fraction(b.err)
    if lo > 0 or (lo == 0 and not strict):
        return PASS
    if hi > 0 or (hi == 0 and strict):
        return FAIL
    return INCONCLUSIVE


def test_cert_le_decides_on_the_exact_sign_of_each_gap():
    one = Approx(1.0, 0.0)
    # lower end 1 - 2^-60: rounding each gap to nearest read pass (and, as
    # the strict mirror, fail) where the exact gap is 2^-60 short
    wide = Approx(1.0 + 2.0**-52, 2.0**-52 + 2.0**-60)
    assert cert_le(one, wide) == INCONCLUSIVE
    assert cert_le(wide, one, strict=True) == INCONCLUSIVE
    tie = Approx(1.0 + 2.0**-52, 2.0**-52)  # lower end exactly 1
    assert cert_le(one, tie) == PASS
    assert cert_le(tie, one, strict=True) == FAIL
    assert cert_le(one, tie, strict=True) == INCONCLUSIVE
    assert cert_le(tie, one) == INCONCLUSIVE
    assert cert_le(Approx(math.inf, math.inf), one) == INCONCLUSIVE  # inf - inf
    # near-ties: each gap within a few ulp of 0, with radii that do not
    # round away, against the exact gaps
    rng = random.Random(20261018)
    for _ in range(2000):
        av = rng.uniform(-4.0, 4.0)
        a = Approx(av, rng.choice((0.0, math.ldexp(rng.random(), rng.randint(-70, -40)))))
        berr = math.ldexp(rng.random(), rng.randint(-70, -40))
        edge = av + a.err + berr if rng.random() < 0.5 else av - a.err - berr
        b = Approx(edge + rng.randint(-3, 3) * math.ulp(edge), berr)
        for strict in (False, True):
            assert cert_le(a, b, strict) == _exact_verdict(a, b, strict), (a, b)


def _parts(z):
    """(real, imaginary) of a float or complex as exact Fractions."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


# the exact operations on (real, imaginary) Fraction pairs
EXACT_OPS = {
    approx_add: lambda a, b: (a[0] + b[0], a[1] + b[1]),
    approx_mul: lambda a, b: (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]),
    approx_div: lambda a, b: (
        (a[0] * b[0] + a[1] * b[1]) / (b[0] ** 2 + b[1] ** 2),
        (a[1] * b[0] - a[0] * b[1]) / (b[0] ** 2 + b[1] ** 2),
    ),
}


def _encloses(got, exact):
    v = _parts(got.value)
    return (exact[0] - v[0]) ** 2 + (exact[1] - v[1]) ** 2 <= Fraction(got.err) ** 2


def _operand(rng, complex_value):
    """A seeded Approx: real or complex, of any scale, radius 0 or small."""
    scale = 2.0 ** rng.randint(-30, 30)
    value = rng.uniform(-4.0, 4.0) * scale
    if complex_value:
        value = complex(value, rng.uniform(-4.0, 4.0) * scale)
    err = rng.choice((0.0, abs(value) * math.ldexp(rng.random(), rng.randint(-60, -20))))
    return Approx(value, err)


def _corners(x):
    """Points within x.err of x.value: the ends, or eight on the circle."""
    if not isinstance(x.value, complex):
        return [_parts(x.value + sign * x.err) for sign in (-1, 1)]
    v, r = _parts(x.value), Fraction(x.err)
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1), (Fraction(3, 5), Fraction(4, 5)),
            (Fraction(-4, 5), Fraction(3, 5)), (Fraction(-3, 5), Fraction(-4, 5)),
            (Fraction(4, 5), Fraction(-3, 5))]
    return [(v[0] + r * c, v[1] + r * s) for c, s in dirs]


def test_approx_ops_add_their_own_rounding():
    """0.1 + 0.2 rounds, so its radius is not 0; and on a seeded sample of
    real and complex operands the exact result, for the operands' values and
    for points within their radii, lies inside the returned radius."""
    tenth, fifth = Approx(0.1, 0.0), Approx(0.2, 0.0)
    got = approx_add(tenth, fifth)
    exact = Fraction(0.1) + Fraction(0.2)
    assert got.value == 0.30000000000000004 and Fraction(got.value) != exact
    assert got.err > 0.0 and _encloses(got, (exact, 0))
    rng = random.Random(19)
    for _ in range(3000):
        op = rng.choice(list(EXACT_OPS))
        a, b = (_operand(rng, rng.random() < 0.5) for _ in range(2))
        got = op(a, b)
        assert _encloses(got, EXACT_OPS[op](_parts(a.value), _parts(b.value))), (op, a, b)
        for pa in _corners(a)[::3]:
            for pb in _corners(b)[::3]:
                assert _encloses(got, EXACT_OPS[op](pa, pb)), (op, a, b, pa, pb)


def test_small_m_bounds_update_point(table_small):
    rows = bounds.small_m_bounds(table_small, 9000.0, 2)
    ids = {r.theorem_id for r in rows}
    assert "small-m2-sqrt" in ids and "small-m2-log" in ids
    for r in rows:
        assert r.verdict == PASS, r
    # the q=1 update envelope only applies past its threshold
    ids1 = {r.theorem_id for r in bounds.small_m_bounds(table_small, 9000.0, 1)}
    assert "small-m-update" not in ids1


def test_small_m_scan_margins(table_small):
    out = bounds.small_m_scan(table_small, 10_000, 2)
    for name, (margin, arg) in out.items():
        # sqrt(3/X) touches |m_2| = 1 exactly as X -> 3^-, so the
        # right-endpoint sweep reports a zero margin there
        assert margin >= 0.0, (name, arg)
    assert out["small-m2-sqrt"][1] == 2
    out1 = bounds.small_m_scan(table_small, 10_000, 6)
    assert all(m > 0 for m, _ in out1.values())


@pytest.fixture(scope="module")
def table_e7():
    return build_table(10_000_000)


def _dense_small_m_scan(table, n_max, q):
    """small_m_scan as a sweep of every block's margins, with no floors."""
    qm = Modulus.coerce(q)
    checks = [
        (name, int(x_lo), envelope)
        for name, only, x_lo, _, envelope, swept in bounds.SMALL_M
        if swept and only in (None, qm.q) and n_max >= x_lo
    ]
    if not checks:
        return {}

    def margins(lo, hi, cols, logs):
        rights = np.arange(lo + 2, hi + 2, dtype=np.float64)
        lr = np.log(rights)
        vals = np.abs(cols[0])
        out = []
        for _, first, envelope in checks:
            margin = envelope(qm, rights, lr) - vals
            margin[: max(first - 1 - lo, 0)] = np.inf
            out.append(margin)
        return out

    mins = sweep_prefix_min(table, n_max, qm, 1.0, 0, margins)
    return {name: (float(m), i + 1) for (name, _, _), (m, i) in zip(checks, mins)}


def _divisors_30030():
    out = [1]
    for p in (2, 3, 5, 7, 11, 13):
        out += [d * p for d in out]
    return out


@pytest.mark.parametrize("n", [100_000, (1 << 15) - 1, (1 << 15) + 1, 617_989, 617_991, 1_000_000])
def test_small_m_scan_is_the_dense_sweep(table_big, n):
    """The block floors skip work only: every q | 30030, across block edges
    and either side of the update envelope's start, bit for bit."""
    for q in _divisors_30030():
        got = bounds.small_m_scan(table_big, n, q)
        assert repr(got) == repr(_dense_small_m_scan(table_big, n, q)), q


@pytest.mark.parametrize("q", [1, 2])
def test_small_m_scan_is_the_dense_sweep_at_1e7(table_e7, q):
    got = bounds.small_m_scan(table_e7, 10_000_000, q)
    assert repr(got) == repr(_dense_small_m_scan(table_e7, 10_000_000, q))


def test_small_m_floors_bound_every_block(table_big, table_e7, monkeypatch):
    """Swept over every block, each block's floors lie at or below the least
    entry of its margins, for the 64 q at 1e6 and q = 1, 2 at 1e7."""
    checked = []

    def every_block(table, n, q, sigma, j, margins_of, floors_of):
        def margins(lo, hi, cols, logs):
            out = margins_of(lo, hi, cols, logs)
            if lo:
                floors = floors_of(lo, hi, cols, logs)
                assert len(floors) == len(out)
                for f, arr in zip(floors, out):
                    assert f <= arr.min(), (lo, f, arr.min())
                checked.append(lo)
            return out

        return sweep_prefix_min(table, n, q, sigma, j, margins)

    monkeypatch.setattr(bounds, "sweep_prefix_min", every_block)
    for q in _divisors_30030():
        bounds.small_m_scan(table_big, 1_000_000, q)
    for q in (1, 2):
        bounds.small_m_scan(table_e7, 10_000_000, q)
    assert len(checked) == 64 * 30 + 2 * 305


def test_small_m_scan_prunes_blocks(table_big, monkeypatch):
    """At 1e6 for q = 1 the envelope margins run on block 0 and on the block
    where the update envelope starts; the other 29 blocks are skipped."""
    blocks = []

    def counting(table, n, q, sigma, j, margins_of, floors_of=None):
        def margins(lo, hi, cols, logs):
            blocks.append(lo)
            return margins_of(lo, hi, cols, logs)

        return sweep_prefix_min(table, n, q, sigma, j, margins, floors_of)

    monkeypatch.setattr(bounds, "sweep_prefix_min", counting)
    bounds.small_m_scan(table_big, 1_000_000, 1)
    assert 0 < len(blocks) <= 3, blocks


BAD_SCAN_REQUESTS = [
    ("small-m-negative", lambda t: bounds.small_m_scan(t, -1, 1), ValueError),
    ("small-m-past-table", lambda t: bounds.small_m_scan(t, t.limit + 1, 1), CapacityError),
    ("small-m-float", lambda t: bounds.small_m_scan(t, 2.5, 1), TypeError),
    ("small-m-bool", lambda t: bounds.small_m_scan(t, True, 1), TypeError),
    ("easy-past-table", lambda t: bounds.easy_scan(t, t.limit + 1, 1, 1, 1.0), CapacityError),
    # special_scan reads the prefix up to n_max - 1
    ("special-past-table", lambda t: bounds.special_scan(t, t.limit + 2, 1.0), CapacityError),
    ("easy-nan-sigma", lambda t: bounds.easy_scan(t, 1000, 1, 1, math.nan), ValueError),
    ("easy-inf-sigma", lambda t: bounds.easy_scan(t, 1000, 1, 1, math.inf), ValueError),
    ("easy-bool-k", lambda t: bounds.easy_scan(t, 1000, 1, True, 1.0), TypeError),
    ("easy-overflowing-k", lambda t: bounds.easy_scan(t, 10_000, 1, 243, 1.0), ValueError),
]


@pytest.mark.parametrize(
    "call,err", [case[1:] for case in BAD_SCAN_REQUESTS], ids=[case[0] for case in BAD_SCAN_REQUESTS]
)
def test_scans_refuse_a_bad_request(table_small, monkeypatch, call, err):
    """A full-range scan checks its prefix request before any margin, also
    where small_m_scan has no envelope to sweep; n_max = 0 sweeps nothing."""
    margins = []
    for name in ("easy_bound", "special_bound"):
        monkeypatch.setattr(bounds, name, lambda *args: margins.append(args))
    with pytest.raises(err):
        call(table_small)
    assert margins == []
    for q in (1, 2, 6):
        assert bounds.small_m_scan(table_small, 0, q) == {}


def test_suite_registry_shape(table_small):
    assert set(bounds.SUITES) == {
        "easy", "mqeps", "mcheckqeps", "dex", "special", "small-m", "integral",
    }
    rows = bounds.SUITES["integral"](table_small)
    assert rows and all(r.verdict != FAIL for r in rows)
