"""Partial sums of Lambda(n)/n measured against log X.

The driver is an exact integral identity: for a step function phi vanishing
near 0,

    int_0^X phi(t) dt/t^2
        = (2/X^2) int_0^X (sum_n phi(t/n)) dt
          - int_0^X phi(t) alpha(X/t) dt/t^2,

where alpha is the sawtooth kernel (2/X^2) sum_{n<=X} n - 1.  Applying it
to phi = psi (the Chebyshev step) and integrating the Stirling formula
turns sum_{n<=X} Lambda(n)/n - log X into a defect f(X) made of explicitly
integrable pieces; f is bounded by a smooth decreasing envelope g that is
negative from X = 12 on, and the finitely many integers below that are
checked directly.  Everything here integrates step-by-rational pieces in
closed form -- the final inequality has margin about 0.01 at X = 12, which
quadrature noise could eat.  Each sum over a range reads one BLOCK at a
time (the alpha-kernel cuts one window of _cut_windows), so its working set
does not grow with X, and each is exactly rounded, so the blocks do not
change its value.

A linear envelope psi(X) <= a*X with a < 3/(3 - gamma) = 1.23824... would
also close the argument from some threshold onward; that variant is only
noted here, not implemented.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .arith import ArithmeticTable, _integer, chebyshev_psi, sweep_min
from .reports import BoundRow, bound_row
from .util import (
    BLOCK,
    GAMMA,
    LOG_2PI_HALF,
    CapacityError,
    ExactSum,
    floor_int,
    fsum_stream,
)

LOG3 = math.log(3.0)

# limit of the negative alpha mass int_1^inf |alpha|_- dx/x
ALPHA_NEG_MASS = (1.0 - GAMMA) / 2.0

# pieces of one alpha-kernel integral.  The cuts are read one window at a
# time, so memory does not grow with the cap; it bounds a call's work (about
# 2 X / start pieces) where no table bounds X, as for kind
# "indicator_test", and keeps k (k + 1) exact in float64 (k < 2^26)
_PIECE_CAP = 4_000_000
# points that a window of _cut_windows takes from each of its three runs, so
# that the window's raw points fit one BLOCK
_RUN_WINDOW = BLOCK // 4


def _domain(name: str, value: float) -> None:
    """ValueError naming the argument unless 1 <= value < inf (NaN fails
    the comparison too), before any arithmetic on it."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 1 and finite, got {value!r}")


# ----------------------------------------------------------------------
# The sawtooth kernel alpha and its primitive beta.


def alpha(t: float) -> float:
    """(1 - 2{t})/t - ({t} - {t}^2)/t^2, evaluated as k(k+1)/t^2 - 1 with
    k = [t]; right-continuous at integers, identically -1 on (0, 1)."""
    if not 0.0 < t < math.inf:  # NaN too
        raise ValueError(f"t must be > 0 and finite, got {t!r}")
    k = math.floor(t)
    return k * (k + 1.0) / (t * t) - 1.0


def beta(t: float) -> float:
    """({t} - {t}^2)/t; alpha is its right derivative."""
    if not 0.0 < t < math.inf:  # NaN too
        raise ValueError(f"t must be > 0 and finite, got {t!r}")
    u = t - math.floor(t)
    return (u - u * u) / t


def neg_alpha_integral(K: int) -> float:
    """Mass of the negative part: sum_{k<=K} int over {alpha < 0} of
    |alpha(x)| dx/x on [k, k+1).

    Each piece integrates in closed form to (1/2)(log(1 + 1/k) - 1/(k+1)),
    which is positive and below 1/(2k(k+1)), so the partial sums increase
    to (1 - gamma)/2 with remainder in (0, 1/(2(K+1))).  K is an integer
    (not a bool); the terms are formed BLOCK at a time into one ExactSum,
    so the sum is exactly rounded.
    """
    K = _integer("K", K)
    if K < 0:
        raise ValueError("K must be >= 0")

    def terms(lo: int) -> np.ndarray:
        k = np.arange(lo, min(lo + BLOCK, K + 1), dtype=np.float64)
        return 0.5 * (np.log1p(1.0 / k) - 1.0 / (k + 1.0))

    return fsum_stream(map(terms, range(1, K + 1, BLOCK)))


# ----------------------------------------------------------------------
# Integrated Stirling formula.


def stirling_eps(t: float) -> float:
    """Remainder of sum_{n<=t} log n against
    t log t - t + (1/2 - {t}) log t + log(2 pi)/2; satisfies
    |stirling_eps(t)| <= 1/(8t)."""
    _domain("t", t)
    n = math.floor(t)
    lt = math.log(t)
    main = t * lt - t + (0.5 - (t - n)) * lt + LOG_2PI_HALF
    return math.lgamma(n + 1.0) - main


def sawtooth_log_integral(X: float) -> float:
    """int_1^X (1/2 - {t}) log t dt, exact piecewise.

    Small pieces use the polynomial antiderivative; from m = 11 on the
    per-period value expands as sum_j (-1)^j / (2 (j+1)(j+2) m^j), which
    avoids the m^2 log m cancellation of the antiderivative route; those
    periods m = 11 .. [X] - 1 are formed one BLOCK of m at a time.  The
    result stays within log(X)/8 in absolute value.
    """
    _domain("X", X)
    m_top = math.floor(X)
    parts = []
    for m in range(1, min(m_top, 10) + 1):
        hi = min(m + 1.0, X)
        if hi > m:
            parts.append(_sawtooth_log_piece_closed(m, float(m), hi))
    if m_top > 10 and X > m_top:
        parts.append(_sawtooth_log_piece_series(m_top, X - m_top))

    def periods(lo: int) -> np.ndarray:
        full = np.arange(lo, min(lo + BLOCK, m_top), dtype=np.float64)
        acc = np.zeros_like(full)
        sign = -1.0
        for j in range(1, 19):
            acc += sign / (2.0 * (j + 1) * (j + 2)) * full ** (-float(j))
            sign = -sign
        return acc

    # the sum is exactly rounded, so its order does not matter
    return fsum_stream(
        itertools.chain([np.array(parts)], map(periods, range(11, m_top, BLOCK)))
    )


def _sawtooth_log_piece_closed(m: int, a: float, b: float) -> float:
    # int_a^b (1/2 + m - t) log t dt on [m, m+1] via the antiderivative
    # (1/2 + m)(t log t - t) - t^2/2 log t + t^2/4; fine for small m only
    def anti(t: float) -> float:
        lt = math.log(t)
        return (0.5 + m) * (t * lt - t) - 0.5 * t * t * lt + 0.25 * t * t

    return anti(b) - anti(a)


def _sawtooth_log_piece_series(m: int, u1: float) -> float:
    # int_0^{u1} (1/2 - u) log(m + u) du with log(m+u) split off log m;
    # the log1p part expands in u1^j / m^j, alternating from j covering
    # the omitted tail
    head = math.log(m) * 0.5 * u1 * (1.0 - u1)
    acc = 0.0
    sign = 1.0
    for j in range(1, 40):
        term = (u1 ** (j + 1) / (2.0 * (j + 1)) - u1 ** (j + 2) / (j + 2)) / (
            j * float(m) ** j
        )
        acc += sign * term
        sign = -sign
        if abs(term) < 1e-18:
            break
    return head + acc


# ----------------------------------------------------------------------
# Exact integrals of step * alpha(X/t) / t^2.


def _alpha_kernel_integral(X, start, jumps, steps):
    """int_start^X step(t) alpha(X/t) dt/t^2, for the step function
    step(t) = steps[number of jumps <= t], jumps ascending.

    alpha(X/t) = (k^2+k) t^2/X^2 - 1 on the t-piece where k = [X/t], so a
    piece [a, b] with step value P contributes exactly
    P (b - a) ((k^2+k)/X^2 - 1/(a b)).  Breakpoints: the jumps, X/k, and
    the sign-change points X/(k + t_k) = X/sqrt(k(k + 1)), met one window of
    _cut_windows at a time; each piece is formed entry by entry and the
    sum is exactly rounded, so the value does not depend on the windows.
    """
    if X <= start:
        return 0.0
    k_top = int(X / start) + 1
    if 2 * k_top + len(jumps) > _PIECE_CAP:
        raise CapacityError(f"breakpoint count near {2 * k_top} exceeds cap")
    total = ExactSum()
    last = start
    for pts, chunk, before in _cut_windows(X, start, k_top, jumps):
        bps = np.concatenate(([last], pts))
        last = bps[-1]
        a, b = bps[:-1], bps[1:]
        mid = 0.5 * (a + b)
        kk = np.floor(X / mid)
        # jumps <= mid: the `before` read in earlier windows and those of chunk
        vals = steps[before + np.searchsorted(chunk, mid, "right")]
        total.add(vals * (b - a) * ((kk * kk + kk) / (X * X) - 1.0 / (a * b)))
    return float(total)


def _cut_windows(X, start, k_top, jumps):
    """The cut points in (start, X], ascending and distinct, one window of
    at most W = _RUN_WINDOW at a time, as (points, chunk, before): chunk
    holds the jumps read for the window as float64, and before counts those
    read in earlier windows.

    The cuts come from three ascending runs: X/k and X/sqrt(k(k + 1)) as k
    falls from k_top to 1 (X/1 = X is the last cut), and the jumps.  As in
    identities._grid_blocks, a window takes the next W of each run and
    keeps the W smallest distinct points: a run that goes on past the window
    gave it W distinct points, so no point of any run at or below the
    window's last is left for a later window.  So the windows hold
    every distinct float of the runs in (start, X] once, and the jumps at or
    below any piece of a window are the `before` and those of its chunk.
    """
    k_frac = k_sqrt = k_top  # the next k of each falling run
    i = 0  # the next jump
    w = _RUN_WINDOW
    while k_frac >= 1 or k_sqrt >= 1 or i < len(jumps):
        fracs = X / np.arange(k_frac, max(k_frac - w, 0), -1, dtype=np.float64)
        kk = np.arange(k_sqrt, max(k_sqrt - w, 0), -1, dtype=np.float64)
        roots = X / np.sqrt(kk * (kk + 1.0))
        chunk = jumps[i : i + w].astype(np.float64)
        # sorted and distinct, as np.unique gives them (it would load numpy.ma)
        pts = np.concatenate((fracs, roots, chunk))
        pts.sort()
        pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))][:w]
        k_frac -= int(np.searchsorted(fracs, pts[-1], "right"))
        k_sqrt -= int(np.searchsorted(roots, pts[-1], "right"))
        step = int(np.searchsorted(chunk, pts[-1], "right"))
        pts = pts[(pts > start) & (pts <= X)]
        if pts.size:
            yield pts, chunk, i
        i += step


def psi_alpha_integral(table: ArithmeticTable, X: float) -> float:
    """int_0^X psi(t) alpha(X/t) dt/t^2, exact piecewise; psi steps at the
    prime powers and vanishes below 2, and psi_prefix holds its values."""
    _domain("X", X)
    powers = table.prime_powers_upto(floor_int(X))[0]
    return _alpha_kernel_integral(X, 2.0, powers, table.psi_prefix)


def _prime_power_sum(table: ArithmeticTable, n: int, term) -> float:
    """The exactly rounded sum of term(powers, logs) over the prime powers
    <= n and log p at each, one BLOCK of them at a time; the zero terms of
    the n that are no prime power leave an exactly rounded sum unchanged."""
    powers, logs = table.prime_powers_upto(n)
    return fsum_stream(
        term(powers[lo : lo + BLOCK], logs[lo : lo + BLOCK])
        for lo in range(0, powers.size, BLOCK)
    )


def lambda_harmonic_sum(table: ArithmeticTable, X: float) -> float:
    """sum_{n<=X} Lambda(n)/n."""
    _domain("X", X)
    return _prime_power_sum(table, floor_int(X), lambda powers, logs: logs / powers)


def kernel_identity_check(table: ArithmeticTable, X: float, kind: str = "psi") -> float:
    """Residual of the two-route evaluation of int_0^X phi(t) dt/t^2.

    Left route: the integral directly (phi steps, so it is an exact sum).
    Right route: (2/X^2) int_0^X (sum_n phi(t/n)) dt minus the alpha-kernel
    integral.  kind "psi" takes phi = the Chebyshev step, for which
    sum_n phi(t/n) = log([t]!); kind "indicator_test" takes phi = 1_{t>=1},
    for which it is [t].  Both routes are closed-form; the residual should
    sit at float noise (<= 1e-9).
    """
    _domain("X", X)
    n = floor_int(X)
    if kind == "psi":
        lhs = _prime_power_sum(table, n, lambda pk, logs: logs * (1.0 / pk - 1.0 / X))
        # int_0^X log([t]!) dt: unit pieces j = 1 .. n-1, log(j!) = lgamma(j + 1),
        # plus the clipped last one; math.lgamma reads each int as its float
        unit = map(math.lgamma, range(2, n + 1))
        area = math.fsum(itertools.chain(unit, [(X - n) * math.lgamma(n + 1.0)]))
        rhs = 2.0 / (X * X) * area - psi_alpha_integral(table, X)
        return lhs - rhs
    if kind == "indicator_test":
        lhs = 1.0 - 1.0 / X
        area = 0.5 * n * (n - 1.0) + (X - n) * n  # int_0^X [t] dt
        kernel = _alpha_kernel_integral(X, 1.0, np.empty(0), np.ones(1))
        rhs = 2.0 / (X * X) * area - kernel
        return lhs - rhs
    raise ValueError(f"unknown kind {kind!r}")


# ----------------------------------------------------------------------
# The defect f and its envelope g.


def f_of(table: ArithmeticTable, X: float) -> float:
    """Defect of the prime harmonic sum: sum_{n<=X} Lambda(n)/n - log X,
    assembled from its closed-form pieces.

        f(X) = psi(X)/X - 3/2 - int_0^X psi(t) alpha(X/t) dt/t^2
               + log(2 pi)/X + (2/X^2) int_1^X (1/2 - {t}) log t dt
               - 1/(2 X^2) + 2 eps(X)/X + ({X} - {X}^2)/X^2

    with eps = stirling_eps.  Matches the direct sum to float noise.
    """
    _domain("X", X)
    u = X - math.floor(X)
    return math.fsum(
        [
            chebyshev_psi(table, X) / X,
            -1.5,
            -psi_alpha_integral(table, X),
            2.0 * LOG_2PI_HALF / X,
            2.0 * sawtooth_log_integral(X) / (X * X),
            -0.5 / (X * X),
            2.0 * stirling_eps(X) / X,
            (u - u * u) / (X * X),
        ]
    )


def g_of(X: float) -> float:
    """Decreasing envelope of the defect:
    log 3 - 3/2 + (1 - gamma) log(3)/2 + log(2 pi)/X + log(X)/(4 X^2);
    negative from X = 12 on."""
    _domain("X", X)
    return math.fsum(
        [
            LOG3 - 1.5,
            ALPHA_NEG_MASS * LOG3,
            2.0 * LOG_2PI_HALF / X,
            math.log(X) / (4.0 * X * X),
        ]
    )


# ----------------------------------------------------------------------
# The inequality itself.


def verify_harmonic(table: ArithmeticTable, x_max: float) -> list[BoundRow]:
    """sum_{n<=X} Lambda(n)/n <= log X for all X in [1, x_max].

    The left side jumps only at integers and log grows, so checking each
    integer N (sum taken inclusive of Lambda(N)) covers the continuum.
    Returns rows for the small cases plus one aggregate row at the integer
    with the least slack.

    The scan reads the prime powers N <= x_max only, one BLOCK of them at a
    time, with its cumsum S of Lambda(N)/N carried from block to block.  It
    finds the first minimum of the float margin log N - S(N) over every
    integer N in [2, x_max], bit for bit: the dense cumsum adds +0.0 between
    prime powers to a positive sum, which leaves it unchanged, so S is the
    same at each prime power; and from one prime power to the next S is
    constant while np.log N never decreases (its error is far below
    log(N + 1) - log N >= 1/(N + 1) at these N), so on each such stretch,
    and 2 starts the first, the first minimum lies at the prime power.
    """
    _domain("x_max", x_max)
    n = floor_int(x_max)
    table._check_range(n)
    rows = []
    for small in (1, 2, 3, 4, 5, 7, 8, 9, 11):
        if small > n:
            continue
        lhs = lambda_harmonic_sum(table, float(small))
        rows.append(
            bound_row("harmonic", float(small), 1, "", lhs=lhs, bound=math.log(small))
        )
    if n >= 2:
        powers, logs = table.prime_powers_upto(n)
        carry = 0.0  # Lambda(n)/n summed over n < 2 is exactly 0

        def margins(lo: int, hi: int):  # the prime powers powers[lo:hi]
            nonlocal carry
            nn = powers[lo:hi].astype(np.float64)
            csum = logs[lo:hi] / nn
            csum[0] += carry
            np.cumsum(csum, out=csum)
            carry = csum[-1]
            return (np.log(nn) - csum,)

        worst = int(powers[sweep_min(powers.size, margins)[0][1]])
        lhs = lambda_harmonic_sum(table, float(worst))
        rows.append(
            bound_row(
                "harmonic",
                float(worst),
                1,
                f"scan n<={n}",
                lhs=lhs,
                bound=math.log(worst),
                lhs_err=float(n) * 4e-16,
            )
        )
    return rows


def hanson_scan(table: ArithmeticTable, n_max: int | None = None) -> tuple[float, int]:
    """min over integers 1..n_max of (X log 3 - psi(X)); positive iff the
    linear psi envelope with slope log 3 holds on the range.

    psi is constant from X = 1 to the first prime power and from each prime
    power to the next, and on such a stretch the float margin X*log 3 - psi
    cannot decrease as X grows (both roundings are monotone), so the first
    minimum over every integer lies at X = 1 or at a prime power; only those
    are evaluated, and the result is that of the sweep over every X.
    """
    n = table.limit if n_max is None else _integer("n_max", n_max)
    if n < 1:
        raise ValueError("sweep over an empty range")
    powers, _ = table.prime_powers_upto(n)
    psi = table.psi_prefix[1:]  # psi at each prime power
    best = (LOG3, 1)  # X = 1, where psi is 0.0
    if powers.size:

        def margins(lo: int, hi: int):
            return (powers[lo:hi] * LOG3 - psi[lo:hi],)

        ((margin, i),) = sweep_min(powers.size, margins)
        if margin < LOG3:
            best = (float(margin), int(powers[i]))
    return best


# ----------------------------------------------------------------------
# Suites.


def _suite_harmonic(table: ArithmeticTable) -> list[BoundRow]:
    return verify_harmonic(table, float(min(table.limit, 100_000)))


def _suite_defect(table: ArithmeticTable) -> list[BoundRow]:
    lim = table.limit
    rows = []
    for X in (1.0, 1.5, 4.0, 12.0, 144.5, 1e4):
        if X > lim:
            continue
        resid = abs(lambda_harmonic_sum(table, X) - math.log(X) - f_of(table, X))
        rows.append(bound_row("harmonic-f", X, 1, "sum identity", lhs=resid, bound=1e-9))
    for X in (1.0, 12.0, 50.0, 1e3, 1e5):
        if X > lim:
            continue
        rows.append(
            bound_row(
                "harmonic-fg", X, 1, "f below g", lhs=f_of(table, X), bound=g_of(X)
            )
        )
    for X in (1.0, 2.0, 10.0, 1e3):
        if X > lim:
            continue
        for kind in ("psi", "indicator_test"):
            resid = abs(kernel_identity_check(table, X, kind))
            rows.append(
                bound_row("kernel-identity", X, 1, kind, lhs=resid, bound=1e-9)
            )
    margin, arg = hanson_scan(table)
    rows.append(
        bound_row(
            "hanson",
            float(arg),
            1,
            f"scan n<={lim}",
            lhs=chebyshev_psi(table, arg),
            bound=arg * LOG3,
            lhs_err=float(lim) * 4e-16,
        )
    )
    K = 10**6
    rows.append(
        bound_row(
            "alpha-mass",
            float(K),
            1,
            "negative part",
            lhs=abs(neg_alpha_integral(K) - ALPHA_NEG_MASS),
            bound=0.5 / (K + 1),
        )
    )
    return rows


SUITES = {
    "harmonic": _suite_harmonic,
    "defect": _suite_defect,
}
