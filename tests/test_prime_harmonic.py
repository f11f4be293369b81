"""Prime harmonic sum vs log X: kernels, sawtooth masses, defect envelope."""

import math

import numpy as np
import pytest

from mobius_bounds import harmonic
from mobius_bounds.arith import BLOCK, sweep_min
from mobius_bounds.harmonic import (
    alpha,
    beta,
    f_of,
    g_of,
    hanson_scan,
    kernel_identity_check,
    lambda_harmonic_sum,
    neg_alpha_integral,
    sawtooth_log_integral,
    stirling_eps,
    verify_harmonic,
)
from mobius_bounds.util import GAMMA


def test_alpha_beta_pointwise():
    assert alpha(0.5) == -1.0
    assert alpha(0.25) == -1.0
    assert alpha(1.5) == pytest.approx(-1.0 / 9.0, abs=1e-16)
    assert alpha(3.0) == pytest.approx(1.0 / 3.0, abs=1e-16)
    assert beta(1.5) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert beta(2.0) == 0.0
    with pytest.raises(ValueError):
        alpha(0.0)
    with pytest.raises(ValueError):
        beta(-1.0)


def test_alpha_beta_triangular_relation():
    # k(k+1)/t^2 - 1 and ({t}-{t}^2)/t tie together through 1 + alpha = 2*avg
    for t in (1.25, 2.5, 3.75, 10.1, 99.9):
        k = math.floor(t)
        tri = k * (k + 1) / 2.0
        assert (1.0 + alpha(t)) * t * t / 2.0 == pytest.approx(tri, rel=1e-14)


def test_sawtooth_piece_invariants():
    # on [k, k+1) alpha changes sign once, at k + t_k = sqrt(k(k+1)); the
    # kernel integrals cut their pieces there
    for k in (1, 2, 10, 999):
        t_k = math.sqrt(k * (k + 1.0)) - k
        assert 0.0 < t_k < 0.5
        assert abs(alpha(k + t_k)) < 1e-12
        assert alpha(k + t_k - 1e-6) > 0.0
        assert alpha(k + t_k + 1e-6) < 0.0


def test_neg_alpha_integral_values():
    assert neg_alpha_integral(0) == 0.0
    assert neg_alpha_integral(1) == pytest.approx(0.5 * (math.log(2) - 0.5), abs=1e-17)
    assert neg_alpha_integral(1) == pytest.approx(0.09657359027997264, abs=1e-17)
    with pytest.raises(ValueError):
        neg_alpha_integral(-1)


def test_neg_alpha_integral_takes_integers_only():
    """A float K used to count the terms of arange(1, K + 1): 2.5 read the
    K = 3 sum, and inf died inside numpy."""
    for K in (2.5, 3.0, math.inf, True):
        with pytest.raises(TypeError):
            neg_alpha_integral(K)
    assert neg_alpha_integral(np.int64(3)) == neg_alpha_integral(3)


def test_neg_alpha_integral_equals_one_fsum_across_blocks():
    """Summed in chunks, the mass is fsum over one array of all the terms."""
    for K in (1, 2**15, 2**15 + 1, 3 * 2**15 + 7):
        k = np.arange(1, K + 1, dtype=np.float64)
        terms = 0.5 * (np.log1p(1.0 / k) - 1.0 / (k + 1.0))
        assert neg_alpha_integral(K).hex() == math.fsum(terms.tolist()).hex(), K


def test_neg_alpha_integral_limit():
    K = 10**6
    val = neg_alpha_integral(K)
    lim = (1.0 - GAMMA) / 2.0
    diff = lim - val
    # remainder lies in (0, 1/(2(K+1)))
    assert 0.0 < diff < 0.5 / (K + 1)
    assert diff < 1e-6


def test_stirling_eps():
    assert stirling_eps(1.0) == pytest.approx(0.08106146679532722, abs=1e-16)
    for t in (1.0, 2.5, 7.0, 100.3, 5000.0):
        assert abs(stirling_eps(t)) <= 1.0 / (8.0 * t), t
    with pytest.raises(ValueError):
        stirling_eps(0.5)


def test_sawtooth_log_integral_against_quadrature():
    mpmath = pytest.importorskip("mpmath")

    def antiderivative(c, t):
        # of (c - t) log t, the sawtooth on [k, k + 1) with c = k + 1/2
        return c * (t * mpmath.log(t) - t) - (t * t * mpmath.log(t) / 2 - t * t / 4)

    for X in (1.0, 1.5, 9.5, 11.0, 100.25, 2000.5):
        with mpmath.workdps(50):
            want = mpmath.mpf(0)
            for k in range(1, math.ceil(X)):
                c, hi = mpmath.mpf(k) + 0.5, min(mpmath.mpf(k + 1), mpmath.mpf(X))
                want += antiderivative(c, hi) - antiderivative(c, mpmath.mpf(k))
        assert sawtooth_log_integral(X) == pytest.approx(float(want), abs=5e-9), X
        assert abs(sawtooth_log_integral(X)) <= math.log(max(X, math.e)) / 8.0 + 1e-12


def test_sawtooth_log_integral_series_matches_closed_form():
    # the m >= 11 series path and the closed antiderivative agree where
    # both are exact enough to compare
    lo = sawtooth_log_integral(10.999999999)
    hi = sawtooth_log_integral(11.000000001)
    assert lo == pytest.approx(hi, abs=1e-8)


@pytest.mark.parametrize("kind", ["psi", "indicator_test"])
@pytest.mark.parametrize("X", [1.0, 2.0, 3.5, 10.0, 100.0, 999.5])
def test_kernel_identity(table_small, kind, X):
    assert abs(kernel_identity_check(table_small, X, kind)) <= 1e-9


# the public functions of X (or t), each with the argument its ValueError names
_DOMAIN_CALLS = {
    "alpha": (lambda t, x: alpha(x), "t"),
    "beta": (lambda t, x: beta(x), "t"),
    "stirling_eps": (lambda t, x: stirling_eps(x), "t"),
    "sawtooth_log_integral": (lambda t, x: sawtooth_log_integral(x), "X"),
    "psi_alpha_integral": (lambda t, x: harmonic.psi_alpha_integral(t, x), "X"),
    "lambda_harmonic_sum": (lambda t, x: lambda_harmonic_sum(t, x), "X"),
    "kernel_identity_check": (lambda t, x: kernel_identity_check(t, x), "X"),
    "f_of": (lambda t, x: f_of(t, x), "X"),
    "g_of": (lambda t, x: g_of(x), "X"),
    "verify_harmonic": (lambda t, x: verify_harmonic(t, x), "x_max"),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _DOMAIN_CALLS)
def test_functions_of_X_refuse_non_finite_input_by_name(table_small, name, x):
    """NaN and +-inf raise a ValueError that names the argument, from the
    domain check before any arithmetic: no nan comes back, and no
    OverflowError or float-to-integer error escapes."""
    call, arg = _DOMAIN_CALLS[name]
    with pytest.raises(ValueError, match=rf"^{arg} must be "):
        call(table_small, x)


def test_kernel_identity_unknown_kind(table_small):
    with pytest.raises(ValueError):
        kernel_identity_check(table_small, 10.0, "nope")


def test_f_exact_values(table_small):
    assert f_of(table_small, 1.0) == 0.0
    assert f_of(table_small, 1.5) == pytest.approx(-math.log(1.5), abs=1e-13)
    assert f_of(table_small, 4.0) == pytest.approx(-0.5002298794772289, abs=1e-13)
    with pytest.raises(ValueError):
        f_of(table_small, 0.5)


@pytest.mark.parametrize("X", [1.0, 1.5, 4.0, 12.0, 144.5, 1e4])
def test_harmonic_identity_residual(table_small, X):
    lhs = lambda_harmonic_sum(table_small, X)
    assert abs(lhs - math.log(X) - f_of(table_small, X)) <= 1e-9


def test_g_envelope(table_small):
    assert g_of(12.0) == pytest.approx(-0.011679182088564576, abs=1e-15)
    assert g_of(12.0) == pytest.approx(-0.011679, abs=1e-6)
    for X in (1.0, 12.0, 50.0, 1e3, 1e4):
        assert f_of(table_small, X) <= g_of(X), X
        assert g_of(X) > g_of(2.0 * X), X
    # envelope decreases toward its limit value
    assert g_of(1e9) > math.log(3) - 1.5 + (1 - GAMMA) * math.log(3) / 2


def test_verify_harmonic_rows(table_small):
    rows = verify_harmonic(table_small, 10_000.0)
    assert all(r.verdict == "pass" for r in rows)
    listed = {r.X for r in rows if r.param == ""}
    assert {2.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0, 11.0} <= listed
    scan = [r for r in rows if r.param.startswith("scan")]
    assert len(scan) == 1


def _recorded_sweep(monkeypatch, call):
    """(best, margins) of the one harmonic.sweep_min that call runs."""
    seen = []

    def recording(n, margins_of, floors_of=None):
        def margins(lo, hi):
            out = margins_of(lo, hi)
            seen.append(out[0].copy())
            return out

        best = sweep_min(n, margins, floors_of)
        seen.insert(0, best)
        return best

    monkeypatch.setattr(harmonic, "sweep_min", recording)
    rows = call()
    monkeypatch.undo()
    return rows, seen[0][0], np.concatenate(seen[1:])


def _dense_harmonic(table, n):
    """(min, argmin N) and the margin at every N in [2, n]: the sweep over
    every integer, with its cumsum of the dense Lambda(N)/N."""
    carry = 0.0
    every = []

    def margins(lo, hi):  # N = lo+2 .. hi+1
        nonlocal carry
        nn = np.arange(lo + 2, hi + 2, dtype=np.float64)
        csum = table.mangoldt(lo + 2, hi + 2) / nn
        csum[0] += carry
        np.cumsum(csum, out=csum)
        carry = csum[-1]
        every.append(np.log(nn) - csum)
        return (every[-1],)

    ((v, i),) = sweep_min(n - 1, margins)
    return (v, i + 2), np.concatenate(every)


@pytest.mark.parametrize("n", [2, 3, 383_922, 383_923, 383_924, 1_000_000])
def test_verify_harmonic_is_the_sweep_over_every_integer(table_big, monkeypatch, n):
    """The prime-power scan finds the every-integer sweep's first minimum,
    and its margins are the dense ones at the prime powers, bit for bit;
    between prime powers the dense margin never decreases."""
    powers, _ = table_big.prime_powers_upto(n)
    assert table_big.prime_powers[BLOCK - 1] == 383_923  # the scan's first block edge
    rows, (v, i), sparse = _recorded_sweep(
        monkeypatch, lambda: verify_harmonic(table_big, float(n))
    )
    (want_v, want_n), dense = _dense_harmonic(table_big, n)
    assert (v.hex(), int(powers[i])) == (want_v.hex(), want_n)
    assert rows[-1].X == float(want_n) and rows[-1].param == f"scan n<={n}"
    assert sparse.tobytes() == dense[powers - 2].tobytes()
    stretch = np.ones(n - 2, dtype=bool)  # N -> N + 1 with no prime power at N + 1
    stretch[powers[1:] - 3] = False
    assert np.all(np.diff(dense)[stretch] >= 0.0)


def test_hanson_scan(table_small):
    margin, arg = hanson_scan(table_small)
    assert margin == pytest.approx(math.log(3) - 0.0, abs=1e-12)
    assert arg == 1
    assert margin > 0.0


def test_suites(table_small):
    assert set(harmonic.SUITES) == {"harmonic", "defect"}
    rows = harmonic.SUITES["defect"](table_small)
    assert rows and all(r.verdict == "pass" for r in rows)
