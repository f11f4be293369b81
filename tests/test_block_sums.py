"""Whole-range sums read one block at a time, against their whole-array
formulas.

Each oracle below is the formula the function used while it built arrays as
long as X, kept here as it was.  The streamed function must equal it bit for
bit at block and window edges, and its traced peak must not grow with X.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mobius_bounds import bounds, harmonic
from mobius_bounds.arith import (
    BLOCK,
    Modulus,
    log_moment_sum,
    m_check_q_s,
    m_q,
    m_q_s,
    prefix_m_q,
)
from mobius_bounds.delta_sign import IntervalKernel
from mobius_bounds.util import floor_int, fsum_blocks

# BLOCK edges of the support blocks, of the prefix blocks and of the
# sawtooth periods, a window edge of the alpha-kernel cuts (2 BLOCK + 0.5
# has three windows), and the top of table_mid
EDGES = (BLOCK - 1.0, float(BLOCK), BLOCK + 1.0, 2 * BLOCK + 0.5, 100_000.0)
# table_big's BLOCK-th prime power, the first block edge of its prime powers
POWER_EDGE = 383_923


def _bits(value):
    """The exact bits of a float, a complex or a tuple of them."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def _support(table, x, q):
    n = floor_int(x)
    mu = table.mu[: n + 1]
    keep = (mu != 0) & Modulus.coerce(q).coprime_mask(n)
    k = np.nonzero(keep)[0]
    return k, mu[k] / k


def _terms(table, x, q, s, j):
    k, terms = _support(table, x, q)
    if j == 0 and s == 1:
        return terms
    logs = np.log(k.astype(np.float64))
    if j:
        weights = math.log(x) - logs
        terms = terms * (weights if j == 1 else weights ** j)
    if s != 1:
        terms = terms * np.exp(-(s - 1.0) * logs)
    return terms


def _complex_sum(table, x, q, s, j):
    terms = _terms(table, x, q, complex(s), j)
    if s == 1.0:
        return complex(fsum_blocks(terms))
    return complex(fsum_blocks(terms.real), fsum_blocks(terms.imag))


def _log_moment(table, x, q, sigma, k):
    terms = _terms(table, x, q, sigma, k)
    mass = fsum_blocks(np.abs(terms))
    return fsum_blocks(terms), 8.0 * (2.0 + k) * np.finfo(float).eps * mass


def _integral_abs_mq(table, X, q):
    n = floor_int(X)
    pref = np.abs(prefix_m_q(table, n, q))
    return fsum_blocks(pref[1:n]) + float(pref[n]) * (X - n)


def _alpha_kernel_integral(X, start, jumps, values_at):
    if X <= start:
        return 0.0
    k = np.arange(1, int(X / start) + 2, dtype=np.float64)
    pts = np.concatenate([X / k, X / np.sqrt(k * (k + 1.0)), np.asarray(jumps, float)])
    pts = pts[(pts > start) & (pts < X)]
    bps = np.sort(np.concatenate([[start], pts, [X]]))
    bps = bps[np.concatenate(([True], bps[1:] != bps[:-1]))]
    a, b = bps[:-1], bps[1:]
    mid = 0.5 * (a + b)
    kk = np.floor(X / mid)
    return fsum_blocks(values_at(mid) * (b - a) * ((kk * kk + kk) / (X * X) - 1.0 / (a * b)))


def _psi_alpha_integral(table, X):
    jumps = table.prime_powers_upto(floor_int(X))[0].astype(np.int64).astype(np.float64)
    psi = table.psi_prefix
    return _alpha_kernel_integral(
        X, 2.0, jumps, lambda mid: psi[np.searchsorted(jumps, mid, "right")]
    )


def _sawtooth_log_integral(X):
    m_top = math.floor(X)
    parts = []
    for m in range(1, min(m_top, 10) + 1):
        hi = min(m + 1.0, X)
        if hi > m:
            parts.append(harmonic._sawtooth_log_piece_closed(m, float(m), hi))
    acc = np.zeros(0)
    if m_top > 10:
        full = np.arange(11, m_top, dtype=np.float64)
        if full.size:
            acc = np.zeros_like(full)
            sign = -1.0
            for j in range(1, 19):
                acc += sign / (2.0 * (j + 1) * (j + 2)) * full ** (-float(j))
                sign = -sign
        if X > m_top:
            parts.append(harmonic._sawtooth_log_piece_series(m_top, X - m_top))
    return fsum_blocks(np.array(parts), acc)


def _lambda_harmonic_sum(table, X):
    powers, logs = table.prime_powers_upto(floor_int(X))
    return fsum_blocks(logs / powers.astype(np.int64))


@pytest.mark.parametrize("x", EDGES)
@pytest.mark.parametrize("q", [1, 6])
def test_point_sums_equal_the_whole_array_sums(table_mid, x, q):
    assert _bits(m_q(table_mid, x, q)) == _bits(fsum_blocks(_terms(table_mid, x, q, 1, 0)))
    for s in (1.0, 1.5, 2 + 1j, 0.5 + 14j):
        assert _bits(m_q_s(table_mid, x, q, s)) == _bits(_complex_sum(table_mid, x, q, s, 0))
        assert _bits(m_check_q_s(table_mid, x, q, s)) == _bits(
            _complex_sum(table_mid, x, q, s, 1)
        )
    for sigma in (1.0, 1.5):
        for k in (0, 1, 2, 3):
            assert _bits(log_moment_sum(table_mid, x, q, sigma, k)) == _bits(
                _log_moment(table_mid, x, q, sigma, k)
            )
    assert _bits(bounds.integral_abs_mq(table_mid, x, q)) == _bits(
        _integral_abs_mq(table_mid, x, q)
    )


@pytest.mark.parametrize("X", EDGES)
@pytest.mark.parametrize("q", [1, 30])
def test_defect_sum_equals_the_held_kernel(table_mid, X, q):
    """verify_mqeps' kernel sum S, read one support block at a time, is the
    kernel over the whole support's sum_at, and so is its radius."""
    qm = Modulus.coerce(q)
    k, w = _support(table_mid, X, qm)
    held = IntervalKernel(w, np.log(k), math.log(X), qm)
    for eps in (0.0, 1e-12, 0.01, 0.5, 1.0):
        s, r_s = bounds._defect_sum(table_mid, X, qm, eps)
        assert _bits((s, r_s)) == _bits((held.sum_at(eps), held.sum_radius(eps)))


@pytest.mark.parametrize(
    "X", [*EDGES, POWER_EDGE - 1.0, float(POWER_EDGE), POWER_EDGE + 1.0, 1_000_000.0]
)
def test_harmonic_sums_equal_the_whole_array_sums(table_big, X):
    assert _bits(harmonic.psi_alpha_integral(table_big, X)) == _bits(
        _psi_alpha_integral(table_big, X)
    )
    assert _bits(harmonic.lambda_harmonic_sum(table_big, X)) == _bits(
        _lambda_harmonic_sum(table_big, X)
    )
    assert _bits(harmonic.sawtooth_log_integral(X)) == _bits(_sawtooth_log_integral(X))
    ones = _alpha_kernel_integral(X, 1.0, np.empty(0), np.ones_like)
    assert _bits(harmonic._alpha_kernel_integral(X, 1.0, np.empty(0), np.ones(1))) == _bits(ones)


# calls whose traced peak must not grow with X, each on table_big
FLAT_CALLS = {
    "m_q": lambda t, x: m_q(t, x, 6),
    "m_q_s": lambda t, x: m_q_s(t, x, 6, 2 + 1j),
    "m_check_q_s": lambda t, x: m_check_q_s(t, x, 1, 1.5),
    "log_moment_sum": lambda t, x: log_moment_sum(t, x, 1, 1.5, 3),
    "verify_mqeps": lambda t, x: bounds.verify_mqeps(t, x, 1, 0.01),
    "integral_abs_mq": lambda t, x: bounds.integral_abs_mq(t, x, 1),
    "f_of": harmonic.f_of,
}


@pytest.mark.parametrize("name", sorted(FLAT_CALLS))
def test_whole_range_sums_hold_one_block(table_big, name):
    """The traced peak at X = 1e6 is that at X = 2e5 within one BLOCK of
    float64: every sum holds one block, whatever X.  While each built arrays
    as long as X, m_check_q_s read 24.3 bytes per n and m_q 11.8."""
    call = FLAT_CALLS[name]
    table_big.psi_prefix  # noqa: B018 -- built once, before any peak is read
    peaks = []
    tracemalloc.start()
    try:
        for X in (2e5, 1e6):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call(table_big, X)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * BLOCK, (name, peaks)
