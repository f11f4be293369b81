"""Checkers for the explicit estimates on restricted Mobius sums.

Each estimate's envelope, main term and domain guard is written once and
serves two evaluators of its left side.  verify_* takes exactly rounded
sums (util.ExactSum, fed one block at a time, so a point check holds one
block whatever X) at one point and renders a three-way verdict
through the certified comparison in util: pass only when the margin clears
the accumulated evaluation error, fail only when the violation does.  The
*_scan sweeps evaluate the left side from cumsum prefixes, each log moment
L_k(X; sigma) through its one column form (_log_moment), at every integer
of a range or, for the eps families, on one log grid of SCAN_POINTS points
(_scan_grid, which reads [X] by util's snapped floor, as the point
checkers do, so its top point reads the sums at n_max).  The full-range
sweeps hand their prefix request to sweep_prefix_min, which reads the
prefixes one block at a time, and the eps families read running sums at
the grid's floors only, both through
arith.support_prefix, the one sampled read: mcheckqeps_scan the log moment
columns (prefix_log_moment with at=), mqeps_scan the two sums of the
scaled defect's kernel sum (delta_sign.IntervalKernel and main_term are its
one evaluator, as for verify_mqeps).  So no scan
builds an array of length n_max, and the prefix values are those of the
full prefix arrays, bit for bit; easy_scan and special_scan read log X and
its powers from the prefix block's log table.  small_m_scan also bounds
each block's margins from below and skips the blocks that cannot hold a
new first minimum, with the same results.  The easy family refuses a k
whose float64 sums could overflow (_easy_domain states the bound).  Scan
margins are uncertified floats: they carry no error radius and no caller
re-verifies them (ROADMAP item 4).

Envelopes take log X from their caller, as math.log at a point and np.log
in a scan (the two differ in the last bit on some inputs).  Indicator
terms that switch on at 1e12 or 1e14 keep their published constants; at
desk scale they are 0.  THEOREMS maps each --theorem name to its checker,
grid axes and suite grid; the command line and SUITES derive from it.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

# eps_zeta has no caller here: perfbench/tracer.py names it as a boundary
from .analytic import ComplexParameter, eps_zeta, inv_zeta, phi_ratio, phi_s, zp_over_z2
from .arith import (
    ONE,
    ArithmeticTable,
    Modulus,
    _integer,
    _prefix_request,
    _prefix_runs,
    log_moment_sum,
    m_check_q_s,
    m_q,
    m_q_s,
    prefix_log_moment,
    prefix_m_q,  # no caller here: perfbench/tracer.py names it as a boundary
    support_blocks,
    support_prefix,
    sweep_prefix_min,
)
from .reports import BoundRow, bound_row, label_num
from .util import (
    EPS,
    GAMMA,
    INCONCLUSIVE,
    PASS,
    THETA,
    XI,
    Approx,
    BracketError,
    ExactSum,
    _floor_array,
    as_approx,
    cert_le,
    combine_verdicts,
    expm1c,
    floor_int,
    fsum_stream,
    x_domain,
)

# points of the log grid of X that the eps-family scans sweep
SCAN_POINTS = 200

# weights attached to the even part of the modulus
G0_EVEN = math.sqrt(3.0) * (math.sqrt(2.0) - 1.0) / 2.0
G1_EVEN = 1.4378 * (1.0 - 2.0 ** (-XI))


def g0(q: Modulus | int) -> float:
    return G0_EVEN if Modulus.coerce(q).q % 2 == 0 else 1.0


def g1(q: Modulus | int) -> float:
    return G1_EVEN if Modulus.coerce(q).q % 2 == 0 else 1.0


def _phi_main(q: Modulus, s: complex) -> complex:
    """q^s / phi_s(q), valid for complex s with Re s > 0."""
    if q.q == 1:
        return 1.0 + 0j
    return cmath.exp(s * math.log(q.q)) / phi_s(q, s)


def _log_p_sum(q: Modulus, s: complex) -> complex:
    """sum over p | q of log p / (p^s - 1); empty product modulus gives 0."""
    out = 0j
    for p in q.primes:
        out += math.log(p) / expm1c(s * math.log(p))
    return out


def _exp(z):
    """math.exp for a point check, np.exp for a scan (see the module docstring)."""
    return np.exp(z) if isinstance(z, np.ndarray) else math.exp(z)


def _plus_beyond(base, X, threshold: float, term):
    """base + term(log X) where X >= threshold.  Such terms switch on at 1e12
    or 1e14, past every sieve table, so a scan never adds one."""
    if np.max(X) < threshold:
        return base
    return base + term(math.log(X))


def _row(theorem_id, X, q, param, lhs, bound, lhs_err) -> BoundRow:
    """A row whose closed-form envelope carries a few roundings of its own."""
    return bound_row(
        theorem_id,
        X,
        q,
        param,
        lhs=lhs,
        bound=bound,
        lhs_err=lhs_err,
        bound_err=8.0 * EPS * abs(bound),
    )


def _log_moment(k: int, lx, cols):
    """L_k(X; sigma) = sum_{n<=X,(n,q)=1} mu(n) log^k(X/n)/n^sigma as sum_j
    C(k,j) lx^j cols[k-j], from lx = log X, or a sweep block's log table
    lx[j] = (log X)^j, and the prefix_log_moment columns cols[j] =
    P_{sigma,j}(X); no factor 1 or power 1 is formed."""
    lhs = cols[k]
    for j in range(1, k + 1):
        c, power = math.comb(k, j), lx[j] if isinstance(lx, list) else lx if j == 1 else lx**j
        lhs = lhs + (power if c == 1 else c * power) * cols[k - j]
    return lhs


def _scan_grid(n_max: int, x_lo: float):
    """(X, log X, [X]) on the log grid of SCAN_POINTS values of X in
    [x_lo, n_max], [X] read by floor_int's snap, as the point checkers read
    it: the top X, exp(log n_max) a few ulps off n_max, reads n_max."""
    xs = np.exp(np.linspace(math.log(x_lo), math.log(float(n_max)), SCAN_POINTS))
    return xs, np.log(xs), np.minimum(_floor_array(xs), n_max)


# ----------------------------------------------------------------------
# Nonnegative log-weighted sums.


def _easy_domain(X: float, k: int, sigma: float, spread: int) -> None:
    """X >= 1, an integer k >= 1, a finite sigma >= 1, and a k whose float64
    evaluation cannot overflow up to X.  With sigma >= 1 a point term is at
    most (log X)^k / n, so the point sum and its mass are at most (log X)^k
    sum_{n<=X} 1/n <= (log X)^k (1 + log X) (spread = 1).  In the scan's
    column form each prefix P_{k-j} is at most (log X)^(k-j) (1 + log X), so
    a term C(k,j) lx^j P_{k-j}, and their sum as the C(k,j) add to 2^k, is
    at most 2^k (log X)^k (1 + log X) (spread = 2).  k is refused unless
    spread^k max(1, log X)^k (1 + log X) < 2^1023, half the largest double,
    which leaves room for rounding and keeps each C(k,j) a finite float."""
    x_domain("X", X)
    if _integer("k", k) < 1:
        raise ValueError("k must be >= 1")
    if not 1.0 <= sigma < math.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and >= 1, got {sigma!r}")
    lx = math.log(X)
    growth = math.log2(spread * max(1.0, lx))
    if growth and k > (limit := math.floor((1023.0 - math.log2(1.0 + lx)) / growth)):
        raise ValueError(
            f"k = {k} can overflow float64 at X = {X:g}: k must be <= {limit} there"
        )


def easy_bound(q: Modulus | int, k: int, sigma: float, lx):
    """Upper envelope const*(q/phi(q))*(k + (sigma-1) log X)*(log X)^(k-1)
    with lx = log X, or a sweep block's log table (see _log_moment)."""
    lx, power = (lx[1], lx[k - 1]) if isinstance(lx, list) else (lx, lx ** (k - 1))
    const = 1.00303 if k == 1 else 1.0
    q_over_phi = Modulus.coerce(q).q_over_phi
    return const * q_over_phi * (k + (sigma - 1.0) * lx) * power


def verify_easy(
    table: ArithmeticTable, X: float, q: Modulus | int, k: int, sigma: float
) -> BoundRow:
    """0 <= sum_{n<=X,(n,q)=1} mu(n) log^k(X/n)/n^sigma <= easy_bound."""
    _easy_domain(X, k, sigma, 1)
    qm = Modulus.coerce(q)
    lhs, err = log_moment_sum(table, X, qm, sigma, k)
    bound = easy_bound(qm, k, sigma, math.log(X))
    row = _row("easy", X, qm.q, f"k={k},sigma={label_num(sigma)}", lhs, bound, err)
    lower = cert_le(as_approx(0.0), as_approx(lhs, err))
    return replace(row, verdict=combine_verdicts(row.verdict, lower))


def easy_scan(
    table: ArithmeticTable, n_max: int, q: Modulus | int, k: int, sigma: float
) -> tuple[float, int, float, int]:
    """(min lhs, argmin, min margin, argmin) over all integer X in [1, n_max],
    lhs from the prefix columns j = 0..k at every X at once."""
    _easy_domain(float(n_max), k, sigma, 2)
    qm = Modulus.coerce(q)

    def margins(lo: int, hi: int, cols, logs):  # X = lo+1 .. hi
        lhs = _log_moment(k, logs, cols)
        return lhs, easy_bound(qm, k, sigma, logs) - lhs

    (lhs_min, i_lhs), (margin_min, i_mar) = sweep_prefix_min(
        table, n_max, qm, sigma, tuple(range(k + 1)), margins
    )
    return float(lhs_min), i_lhs + 1, float(margin_min), i_mar + 1


# ----------------------------------------------------------------------
# The scaled defect Delta_q(X, eps) / X^eps and its envelopes.


def _defect_domain(X: float, eps: float) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    x_domain("X", X)


def _defect_sum(table: ArithmeticTable, X: float, qm: Modulus, eps: float):
    """(S(eps), r_S) of the delta_sign.IntervalKernel of Delta_q(X, eps)/X^eps
    at this X, the counting sums at [X] read at y = X.  No support is held:
    delta_sign.kernel_terms forms the terms one block of support_blocks at
    a time into one exactly rounded sum, so S is the held kernel's sum_at,
    bit for bit, and the sum holds one block whatever X."""
    from .delta_sign import kernel_terms, sum_radius

    log_y = math.log(X)
    blocks = support_blocks(table, floor_int(X), qm)
    s = fsum_stream(kernel_terms(eps, log_y, w, np.log(k)) for k, w in blocks)
    return s, sum_radius(eps, log_y)


def mqeps_bound(X, q: Modulus | int, eps: float):
    """Envelope of |Delta_q(X,eps)/X^eps|; X is a point or an array."""
    qm = Modulus.coerce(q)
    two_eps = 2.0**eps
    main = (
        (4.1 * g0(qm) + (5.0 + eps * two_eps) / 2.0)
        * phi_ratio(qm, 0.5)
        * two_eps
        / np.sqrt(X)
    )
    return _plus_beyond(
        main, X, 1e12, lambda lx: 0.03 * g1(qm) * phi_ratio(qm, XI) / lx
    )


def verify_mqeps(
    table: ArithmeticTable, X: float, q: Modulus | int, eps: float
) -> BoundRow:
    """|Delta_q(X,eps)/X^eps| against its envelope, plus the companion
    lower bound m_q(X;sigma) >= m_q(X)/X^(sigma-1) folded into the verdict.
    One kernel sum serves both, read once: t = S - M from the kernel sum S
    (_defect_sum, one block of the support at a time) and the main term M.
    The lhs radius is S's stated r_S, plus M's MAIN_TERM_REL_ERR and EPS |t|
    for the subtraction.  eps·S is m_q(X; 1+eps) - m_q(X) X^(-eps) exactly,
    so at eps > 0 the companion is S >= 0, decided within r_S with no
    cancelling difference; at eps = 0 both sides are m_q(X) and it holds
    with equality."""
    from .delta_sign import MAIN_TERM_REL_ERR, main_term

    qm = Modulus.coerce(q)
    _defect_domain(X, eps)
    (s, r_s), m = _defect_sum(table, X, qm, eps), main_term(qm, eps)
    lhs_err = r_s + MAIN_TERM_REL_ERR * m + EPS * abs(s - m)
    bound = mqeps_bound(X, qm, eps)
    row = _row("mqeps", X, qm.q, f"eps={label_num(eps)}", abs(s - m), bound, lhs_err)
    lower = cert_le(0.0, as_approx(s, r_s)) if eps > 0.0 else PASS
    return replace(row, verdict=combine_verdicts(row.verdict, lower))


def mqeps_scan(
    table: ArithmeticTable,
    n_max: int,
    q: Modulus | int,
    eps: float,
) -> tuple[float, float, float]:
    """(min envelope margin, argmin X, min slack of value >= -q/phi(q))
    over a log grid of X in [2, n_max].

    The value is the kernel's t = S - M (delta_sign.IntervalKernel) with
    the counting sums at [X]: S = C - m expm1(-eps log X)/eps, where m(X)
    is the sum of w_n = mu(n)/n and C(X) that of the kernel's terms at
    log y = 0, w_n expm1(-eps log n)/eps (-w_n log n at eps = 0, where
    -log X stands for the quotient).  Both are running sums over the
    support read at [X] (support_prefix), so no 1/eps difference cancels."""
    from .delta_sign import kernel_terms, main_term

    _defect_domain(float(n_max), eps)
    if n_max < 2:
        raise ValueError(f"the grid runs over X in [2, n_max], got n_max = {n_max}")
    qm = Modulus.coerce(q)
    xs, lxs, idx = _scan_grid(n_max, 2.0)

    def columns(k, mu):
        w = mu / k
        return kernel_terms(eps, 0.0, w, np.log(k)), w

    c, m = support_prefix(table, n_max, qm, idx, columns)
    quotient = np.expm1(-eps * lxs) / eps if eps else -lxs
    delta = c - m * quotient - main_term(qm, eps)
    margin = mqeps_bound(xs, qm, eps) - np.abs(delta)
    i = int(np.argmin(margin))
    floor_slack = float(np.min(delta + qm.q_over_phi))
    return float(margin[i]), float(xs[i]), floor_slack


# ----------------------------------------------------------------------
# The log-weighted sum m_check_q(X; sigma) for real sigma.


def _mcheck_main(qm: Modulus, sigma: float):
    """Main term of m_check_q(X; sigma) and its error, as functions of
    lx = log X, plus q^sigma/phi_sigma(q):

        (q^sigma/phi_sigma(q)) (log X/zeta - zeta'/zeta^2
                                - (1/zeta) sum_{p|q} log p/(p^sigma - 1)).
    """
    invz = inv_zeta(complex(sigma))
    zz2 = zp_over_z2(complex(sigma))
    pr = phi_ratio(qm, sigma)
    lps = _log_p_sum(qm, sigma).real
    a, b = invz.value.real, zz2.value.real

    def value(lx):
        v = lx * a - b
        # q = 1 has pr = 1 and lps = 0, so the full form is bit-identical
        return v if not qm.primes else pr * (v - a * lps)

    def err(lx):
        return pr * ((lx + lps) * invz.err + zz2.err)

    return value, err, pr


def _mcheckqeps_domain(X: float, eps: float) -> None:
    if not X >= 15.0:  # NaN too
        raise ValueError("the estimate starts at X = 15")
    if not 0.0 <= eps <= 0.1:
        raise ValueError("eps must lie in [0, 1/10]")


def mcheckqeps_bound(X, q: Modulus | int, eps: float, lx):
    """Envelope of X^eps |m_check_q(X;1+eps) - main| with lx = log X."""
    qm = Modulus.coerce(q)
    two_eps = 2.0**eps
    main = (
        (4.86 * g0(qm) + 2.93 + 2.83 * eps * lx + 5.17 * eps)
        * phi_ratio(qm, 0.5)
        * two_eps
        / np.sqrt(X)
    )
    return _plus_beyond(
        main, X, 1e12, lambda l: 0.0336 * g1(qm) * two_eps * phi_ratio(qm, XI) / l
    )


def verify_mcheckqeps(
    table: ArithmeticTable, X: float, q: Modulus | int, eps: float
) -> BoundRow:
    """X^eps |m_check_q(X;1+eps) - main| against the explicit envelope."""
    _mcheckqeps_domain(X, eps)
    qm = Modulus.coerce(q)
    sigma = 1.0 + eps
    main, main_err, pr = _mcheck_main(qm, sigma)
    lx = math.log(X)
    mc = m_check_q_s(table, X, qm, sigma).real
    scale = math.exp(eps * lx)
    lhs = scale * abs(mc - main(lx))
    lhs_err = scale * (main_err(lx) + 64.0 * EPS * (1.0 + lx) * (1.0 + pr))
    bound = mcheckqeps_bound(X, qm, eps, lx)
    return _row("mcheckqeps", X, qm.q, f"eps={label_num(eps)}", lhs, bound, lhs_err)


def mcheckqeps_scan(
    table: ArithmeticTable,
    n_max: int,
    q: Modulus | int,
    eps: float,
) -> tuple[float, float]:
    """(min margin, argmin X) for the log-weighted envelope on [15, n_max]."""
    _mcheckqeps_domain(float(n_max), eps)
    qm = Modulus.coerce(q)
    sigma = 1.0 + eps
    xs, lxs, idx = _scan_grid(n_max, 15.0)
    cols = prefix_log_moment(table, n_max, qm, sigma, (0, 1), at=idx)
    main, _, _ = _mcheck_main(qm, sigma)
    lhs = np.exp(eps * lxs) * np.abs(_log_moment(1, lxs, cols) - main(lxs))
    margin = mcheckqeps_bound(xs, qm, eps, lxs) - lhs
    i = int(np.argmin(margin))
    return float(margin[i]), float(xs[i])


# ----------------------------------------------------------------------
# The real-sigma specialization with numeric constants.


def _special_domain(X: float, sigma: float) -> None:
    if not 15.0 <= X <= 1e8:
        raise ValueError("X must lie in [15, 1e8]")
    if not 1.0 <= sigma <= 1.04:
        raise ValueError("sigma must lie in [1, 1.04]")


def special_bound(sigma: float, lx):
    """(15.5 + 3.11 (sigma-1) log X) / X^(sigma-1/2) with lx = log X."""
    return (15.5 + 3.11 * (sigma - 1.0) * lx) / _exp((sigma - 0.5) * lx)


def verify_special(table: ArithmeticTable, X: float, sigma: float) -> BoundRow:
    """|m_check(X;sigma) - (log X / zeta - zeta'/zeta^2)| vs special_bound."""
    _special_domain(X, sigma)
    main, main_err, _ = _mcheck_main(ONE, sigma)
    lx = math.log(X)
    mc = m_check_q_s(table, X, 1, sigma).real
    lhs = abs(mc - main(lx))
    lhs_err = main_err(lx) + 64.0 * EPS * (1.0 + lx)
    bound = special_bound(sigma, lx)
    return _row("special", X, 1, f"sigma={label_num(sigma)}", lhs, bound, lhs_err)


def special_scan(
    table: ArithmeticTable, n_max: int, sigma: float
) -> tuple[float, float]:
    """Conservative whole-interval check of the real-sigma estimate.

    On [n, n+1) the defect D(log X) is linear in log X, so |D| peaks at an
    endpoint, while the envelope decreases in X; the interval is certified
    by bound(n+1) - max(|D(n)|, |D(n+1-)|) >= 0.  Returns (min margin,
    argmin X); a nonnegative result covers every real X in [15, n_max].
    Sweep entry i is the interval [i+1, i+2), and those below n = 15 read
    +inf, so the first minimum is that of the intervals from 15 on.
    """
    _special_domain(float(n_max), sigma)
    if n_max < 16:
        raise ValueError(
            f"the intervals [n, n+1) run over n in [15, n_max - 1], got n_max = {n_max}"
        )
    main, _, _ = _mcheck_main(ONE, sigma)

    def margins(lo: int, hi: int, cols, logs):  # intervals [n, n+1), n = lo+1 .. hi
        # log(n + 1) past the block's table: np.log of one entry, the same float
        lo_log = logs[1]
        hi_log = np.concatenate((lo_log[1:], np.log(np.array([hi + 1.0]))))
        d_left = np.abs(_log_moment(1, logs, cols) - main(lo_log))
        d_right = np.abs(_log_moment(1, hi_log, cols) - main(hi_log))
        margin = special_bound(sigma, hi_log) - np.maximum(d_left, d_right)
        margin[: max(14 - lo, 0)] = np.inf  # n < 15: out of range
        return (margin,)

    ((margin, i),) = sweep_prefix_min(table, n_max - 1, 1, sigma, (0, 1), margins)
    return float(margin), float(i + 2)


# ----------------------------------------------------------------------
# The |m_q| integral, and the complex-parameter estimates built on it.


def integral_abs_mq(table: ArithmeticTable, X: float, q: Modulus | int = 1) -> float:
    """Exact integral of |m_q(t)| over [1, X]: m_q is a step function, so
    this is sum_n |m_q(n)| (min(n+1, X) - n).  The prefix P = m_q(n) is read
    one block of _prefix_runs at a time, the values of prefix_m_q bit for
    bit, and the n < [X] go into one exactly rounded sum."""
    if X < 1.0:
        return 0.0
    n, qm, sigma, js = _prefix_request(table, floor_int(X), q, 1.0, 0)
    total = ExactSum()
    for lo, _, (run,), _ in _prefix_runs(table, n, qm, sigma, js):
        pref = np.abs(run)  # |P| at lo .. hi - 1
        total.add(pref[: n - lo])
    return float(total) + float(pref[-1]) * (X - n)


def integral_abs_mq_bound(X: float, q: Modulus | int = 1) -> float:
    """Envelope 0.010333 g1 q^xi/phi_xi * X 1_{X>=1e12}/log X + g0 sqrt(q)/
    phi_{1/2} sqrt(8X)."""
    qm = Modulus.coerce(q)
    base = g0(qm) * phi_ratio(qm, 0.5) * math.sqrt(8.0 * X)
    return _plus_beyond(
        base, X, 1e12, lambda lx: 0.010333 * g1(qm) * phi_ratio(qm, XI) * X / lx
    )


def verify_integral(table: ArithmeticTable, X: float, q: Modulus | int) -> BoundRow:
    """int_1^X |m_q(t)| dt against integral_abs_mq_bound, for X >= 1."""
    x_domain("X", X)
    qm = Modulus.coerce(q)
    val = integral_abs_mq(table, X, qm)
    bound = integral_abs_mq_bound(X, qm)
    return _row("integral-abs-mq", X, qm.q, "", val, bound, 32.0 * EPS * (1.0 + val))


def verify_dex(
    table: ArithmeticTable,
    X: float,
    q: Modulus | int,
    p,
    which: str,
) -> BoundRow:
    """Truncation estimates at a complex point s (which = mqdex or mcheckqdex).

    The remainder envelope splits as K_int/X^sigma * int_1^X |m_q| +
    K_tail/X^sigma0 * q^(sigma-sigma0)/phi_(sigma-sigma0)(q); all analytic
    constants come from analytic.constants, and for real s the sharpened
    first factor applies.  Two points are refused before any sum: q > 1 at
    Re s = sigma0, and mqdex at s = 1, where both of its sides are 0.
    """
    from .analytic import constants

    if which not in ("mqdex", "mcheckqdex"):
        raise ValueError("which must be mqdex or mcheckqdex")
    x_domain("X", X)
    qm = Modulus.coerce(q)
    s, sigma0 = p.s, p.sigma0
    if qm.q > 1 and s.real == sigma0:
        raise ValueError("q > 1 needs Re s > sigma0: q^w/phi_w(q) has a pole at w = 0")
    if which == "mqdex" and s == 1.0:
        raise ValueError("mqdex is 0 <= 0 at s = 1; mcheckqdex checks that point")
    cst = constants(p, X)
    sigma = s.real
    lx = math.log(X)
    invz = cst.invz
    pr = _phi_main(qm, s)
    intval = integral_abs_mq(table, X, qm)
    w = sigma - sigma0
    ratio = 1.0 if qm.q == 1 else phi_ratio(qm, w)

    if which == "mqdex":
        a = m_q_s(table, X, qm, s)
        b = m_q(table, X, qm) * cmath.exp((1.0 - s) * lx)
        lhs = abs(a - b - pr * invz.value)
        lhs_err = abs(pr) * invz.err + 64.0 * EPS * (1.0 + lx) * (
            1.0 + abs(a) + abs(b)
        )
        inv_cz = abs(s - 1.0) / abs(cst.C)  # 1/|c(s) zeta(s)|
        fac = 1.0 if s.imag == 0.0 else (sigma + abs(s)) / sigma
        rhs = fac * inv_cz * intval * math.exp(-sigma * lx) + (
            abs(cst.c) + 2.0**sigma0 * cst.e
        ) * inv_cz * ratio * math.exp(-sigma0 * lx)
    else:
        amc = m_check_q_s(table, X, qm, s)
        lps = _log_p_sum(qm, s)
        main = pr * (lx * invz.value - cst.zpz2.value - invz.value * lps)
        lhs = abs(amc - main)
        lhs_err = abs(pr) * (
            (lx + abs(lps)) * invz.err + cst.zpz2.err
        ) + 64.0 * EPS * (1.0 + lx) * (1.0 + abs(amc))
        xi1 = cst.Xi1_real if s.imag == 0.0 else cst.Xi1
        rhs = xi1 * intval * math.exp(-sigma * lx) + cst.Xi2 * ratio * math.exp(
            -sigma0 * lx
        )

    rhs_err = cst.err_budget * (
        1.0 + intval * math.exp(-sigma * lx) + ratio * math.exp(-sigma0 * lx)
    )
    return bound_row(
        which,
        X,
        qm.q,
        f"s={label_num(s.real)}{label_num(s.imag, '+')}j,sigma0={label_num(sigma0)}",
        lhs=lhs,
        bound=rhs,
        lhs_err=lhs_err,
        bound_err=rhs_err,
    )


# ----------------------------------------------------------------------
# The logarithmic-integral equation for the |m_q| integral envelope.


@dataclass(frozen=True)
class Y0Result:
    y0: float  # the bracket's midpoint
    t_max: float  # log y/(log y - 1) at y_lo, its largest value on the bracket
    y_lo: float
    y_hi: float


def _li(y: float) -> Approx:
    """li(y) = Ei(log y) for y > e, enclosed, by DLMF 6.6.1: Ei(x) = gamma +
    log x + sum_{k>=1} x^k/(k k!).  Every term is positive.  Term k takes
    2k + 1 roundings and the running sum k more, so the k terms sum to within
    3k EPS of their exact value, relative; 4 EPS more cover gamma, log x and
    the last two additions.  Once k > 2x each term is less than half the one
    before, so the sum stops there when its term falls below EPS times the
    sum, and the tail is at most that last term.  libm's log is assumed
    within 1 ulp (EPS log y) here and wherever log enters a radius; as
    Ei'(x) = e^x/x is about y/log y at x = log y, that moves Ei by at most
    2 EPS y.
    """
    x = math.log(y)
    s, a, term, k = 0.0, 1.0, 1.0, 0
    while k <= 2.0 * x or a > EPS * s:
        k += 1
        term = term * x / k
        a = term / k
        s += a
    lx = math.log(x)
    err = (3 * k + 4) * EPS * (GAMMA + abs(lx) + s) + a + 2.0 * EPS * y
    return Approx(GAMMA + lx + s, err)


def _y0_gap(y: float, li_A: Approx) -> Approx:
    """y - (log y - 1)(li(y) - li(A)), enclosed: log y - 1 is within 2 EPS
    log y, and each other rounding costs EPS times its result."""
    li_y, l1 = _li(y), math.log(y) - 1.0
    d = li_y.value - li_A.value
    d_err = li_y.err + li_A.err + EPS * abs(d)
    l1_err = 2.0 * EPS * (l1 + 1.0)
    p = l1 * d
    p_err = l1 * d_err + abs(d) * l1_err + l1_err * d_err + EPS * abs(p)
    return Approx(y - p, p_err + EPS * abs(y - p))


def t_of(y: float, A: float) -> float:
    """T(y) = (log y / y) * int_A^y dt/log t."""
    return math.log(y) / y * (_li(y).value - _li(A).value)


def solve_y0(A: float) -> Y0Result:
    """Bracket the root y0 > A of y = (log y - 1)(li(y) - li(A)), the
    maximizer of t_of.  The gap f(y) = y - (log y - 1)(li(y) - li(A)) is A > 0
    at y = A; hi doubles until f(hi) <= 0 is certified, then bisection moves
    an end only on a certified sign of f at the midpoint, and stops at the
    first inconclusive one or when the midpoint is no longer strictly inside.
    So [y_lo, y_hi] holds a root."""
    if not math.e < A < math.inf:
        raise ValueError("need finite A > e")
    li_A = _li(A)
    lo, hi = A, max(2.0 * A, 10.0)
    while cert_le(_y0_gap(hi, li_A), 0.0) != PASS:
        hi *= 2.0
        if hi == math.inf:
            raise BracketError("no certified sign change in the float range")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        verdict = cert_le(_y0_gap(mid, li_A), 0.0)
        if verdict == INCONCLUSIVE:
            break
        lo, hi = (lo, mid) if verdict == PASS else (mid, hi)
    t_max = math.log(lo) / (math.log(lo) - 1.0)
    return Y0Result(y0=0.5 * (lo + hi), t_max=t_max, y_lo=lo, y_hi=hi)


# ----------------------------------------------------------------------
# Pointwise |m_q| envelopes.


def _m_update(qm: Modulus, X, lx):
    return (0.010032 * lx - 0.0568) / lx**2


def _m2_sqrt(qm: Modulus, X, lx):
    return np.sqrt(3.0 / X)


def _m2_log(qm: Modulus, X, lx):
    return 0.0296 / lx


def _m_coprimality(qm: Modulus, X, lx):
    base = math.sqrt(2.0) * phi_ratio(qm, 0.5) / np.sqrt(X)
    return _plus_beyond(base, X, 1e14, lambda l: 0.010032 * phi_ratio(qm, THETA) / l)


def _m_basemq(qm: Modulus, X, lx):
    base = g0(qm) * phi_ratio(qm, 0.5) * math.sqrt(2.0) / np.sqrt(X)
    return _plus_beyond(
        base, X, 1e12, lambda l: 0.010032 * g1(qm) * phi_ratio(qm, XI) / l
    )


# The published |m_q(X)| envelopes: (theorem_id, the one q it covers or None
# for all, lowest X, highest X, envelope(qm, X, log X), swept by
# small_m_scan).  The coprimality envelope is not swept: below 1e12 it is the
# basemq envelope with g0 <= 1 raised to 1.
SMALL_M = (
    ("small-m-update", 1, 617990.0, math.inf, _m_update, True),
    ("small-m2-sqrt", 2, 1.0, 1e12, _m2_sqrt, True),
    ("small-m2-log", 2, 5379.0, math.inf, _m2_log, True),
    ("small-m-coprimality", None, 1.0, math.inf, _m_coprimality, False),
    ("small-m-basemq", None, 1.0, math.inf, _m_basemq, True),
)


def small_m_bounds(
    table: ArithmeticTable, X: float, q: Modulus | int
) -> list[BoundRow]:
    """Every published |m_q(X)| envelope applicable at (X, q)."""
    x_domain("X", X)
    qm = Modulus.coerce(q)
    val = abs(m_q(table, X, qm))
    lx = math.log(X)
    verr = 32.0 * EPS * (1.0 + lx)
    return [
        _row(name, X, qm.q, "", val, envelope(qm, X, lx), verr)
        for name, only, x_lo, x_hi, envelope, _ in SMALL_M
        if only in (None, qm.q) and x_lo <= X <= x_hi
    ]


def small_m_scan(
    table: ArithmeticTable, n_max: int, q: Modulus | int
) -> dict[str, tuple[float, int]]:
    """Right-endpoint sweep: on [n, n+1) the step value |m_q(n)| is checked
    against each decreasing envelope at its interval infimum X -> (n+1)-.
    Returns {theorem_id: (min margin, argmin n)}.

    Each block after the first gets a floor per envelope, envelope(hi + 1)
    (1 - 2^-30) - max |m_q| over the block (+inf while every step lies
    below the envelope's range), and the sweep skips a block whose floors
    all reach the best margins so far (sweep_min).  No margin of the block
    lies below its floor, for three reasons:
      - each envelope decreases on its range, and hi + 1 is the block's
        last right end: _m_update for log X > 2 * 0.0568 / 0.010032, that
        is X > 8.3e4, below its start at 617,990; the others everywhere
        (a table stops below 2^31, so no _plus_beyond term is on);
      - the float evaluation of an envelope, scan or point, is within a
        few units in the last place of its value, and 2^-30 covers that
        many times over;
      - rounded subtraction is monotone, so a smaller envelope and a
        larger |m_q| give a smaller computed margin.
    So the results are those of the sweep over every block, bit for bit.
    """
    qm = Modulus.coerce(q)
    checks = [
        (name, int(x_lo), envelope)
        for name, only, x_lo, _, envelope, swept in SMALL_M
        if swept and only in (None, qm.q) and n_max >= x_lo
    ]
    if not checks:
        _prefix_request(table, n_max, qm, 1.0, 0)  # a bad request raises all the same
        return {}

    def margins(lo: int, hi: int, cols, logs):  # steps n = lo+1 .. hi
        rights = np.arange(lo + 2, hi + 2, dtype=np.float64)
        lr = np.log(rights)
        vals = np.abs(cols[0])
        out = []
        for _, first, envelope in checks:
            margin = envelope(qm, rights, lr) - vals
            margin[: max(first - 1 - lo, 0)] = np.inf  # steps n < first: out of range
            out.append(margin)
        return out

    def floors(lo: int, hi: int, cols, logs):
        x = float(hi + 1)
        top = float(np.abs(cols[0]).max())
        return [
            math.inf if hi < first else envelope(qm, x, math.log(x)) * (1.0 - 2.0**-30) - top
            for _, first, envelope in checks
        ]

    mins = sweep_prefix_min(table, n_max, qm, 1.0, 0, margins, floors)
    return {name: (float(m), i + 1) for (name, _, _), (m, i) in zip(checks, mins)}


# ----------------------------------------------------------------------
# The theorem table, and the command-line suites derived from it.


def _dex_checker(which: str):
    def check(table: ArithmeticTable, X: float, q: int, s: complex, sigma0: float):
        return verify_dex(table, X, q, ComplexParameter(s, sigma0), which)

    return check


# --theorem name -> (checker, the grid axes it iterates, suite grid or None).
# Axes are named by their command-line flags and every grid starts with X;
# the checker takes the table and then one value per axis.
THEOREMS = {
    "easy": (
        verify_easy,
        ("X", "q", "k", "sigma"),
        ((1.0, 10.0, 100.0, 1e3, 1e4), (1, 2, 6, 30), (1, 2, 3), (1.0, 1.5)),
    ),
    "mqeps": (
        verify_mqeps,
        ("X", "q", "eps"),
        ((1.0, 10.0, 100.0, 5e3, 1e5), (1, 2, 3, 6, 30), (0.0, 0.01, 0.1, 0.5, 1.0)),
    ),
    "mcheckqeps": (
        verify_mcheckqeps,
        ("X", "q", "eps"),
        ((15.0, 100.0, 5e3, 1e5), (1, 2, 6, 30), (0.0, 0.02, 0.05, 0.1)),
    ),
    "mqdex": (_dex_checker("mqdex"), ("X", "q", "s", "sigma0"), None),
    "mcheckqdex": (_dex_checker("mcheckqdex"), ("X", "q", "s", "sigma0"), None),
    "special": (
        verify_special,
        ("X", "sigma"),
        ((15.0, 100.0, 1e3, 1e5, 1e6), (1.0, 1.01, 1.04)),
    ),
    "small-m": (
        small_m_bounds,
        ("X", "q"),
        ((1.0, 100.0, 1e4, 617990.0, 1e6), (1, 2, 6)),
    ),
    "integral": (verify_integral, ("X", "q"), ((1.0, 4.0, 10.0, 1e3, 1e5), (1, 2, 6))),
}


def grid_rows(table: ArithmeticTable, theorem: str, grids) -> list[BoundRow]:
    """Rows of one theorem over the product of its axis grids, in axis order."""
    check = THEOREMS[theorem][0]
    rows: list[BoundRow] = []
    for point in itertools.product(*grids):
        out = check(table, *point)
        rows.extend([out] if isinstance(out, BoundRow) else out)
    return rows


def _grid_suite(theorem: str):
    xs, *rest = THEOREMS[theorem][2]

    def suite(table: ArithmeticTable) -> list[BoundRow]:
        return grid_rows(table, theorem, [[X for X in xs if X <= table.limit], *rest])

    return suite


def _suite_dex(table: ArithmeticTable) -> list[BoundRow]:
    # explicit: the two estimates interleave per grid point
    rows = []
    points = [
        (complex(1.5, 0.0), 0.5),
        (complex(2.0, 0.0), 1.0),
        (complex(1.0, 2.0), 0.5),
        (complex(0.8, 5.0), 0.4),
        (complex(1.0, 0.0), 0.5),
    ]
    for X in (1.0, 50.0, 1e3, 1e4):
        if X > table.limit:
            continue
        for s, s0 in points:
            p = ComplexParameter(s, s0)
            for qv in (1, 6):
                rows.append(verify_dex(table, X, qv, p, "mcheckqdex"))
                if s != 1.0:  # the unweighted estimate degenerates at s = 1
                    rows.append(verify_dex(table, X, qv, p, "mqdex"))
    return rows


SUITES = {name: _grid_suite(name) for name, (_, _, grid) in THEOREMS.items() if grid}
SUITES["dex"] = _suite_dex
