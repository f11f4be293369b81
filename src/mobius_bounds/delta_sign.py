"""Sign certificates for the scaled defect Delta_q(X, eps) / X^eps.

The certifier walks unit intervals [N, N+1) in X.  Inside one interval the
counting sums freeze at N, so the supremum over X has a closed form and
only eps needs to be swept.  A uniform bound M2 on the second
eps-derivative turns pointwise values into interval statements: on a step
[eps_k, eps_{k+1}] of length h the defect stays below its chord plus
M2 h^2 / 8, so below max(t_k, t_{k+1}) + M2 h^2 / 8 (the pair bound).  A
chain from eps = 0 to eps_max whose pair bounds all stay at or below
cap - error_budget proves Delta_q(X, eps)/X^eps <= cap on the interval;
cap = 0 is the sign claim.  caps_scan reads the same kernel on a fixed eps
grid and pads it by the same pair rule, so the readers of IntervalKernel
share one evaluator of the scaled defect and one pair-bound chain
(_pair_bounds: pair_bound with M2 over consecutive steps), which serves a
certificate's proven bound, replay's pair rule and caps_scan's pad.  The
walk, replay and caps_scan set up each interval through one helper,
_interval, which returns the kernel and its M2.  The evaluator's value is
two parts composed, t = S - M: the kernel sum S over the support, whose
terms kernel_terms forms and whose rounding radius r_S sum_radius states,
both as functions of (eps, log y), and the main term M (main_term), which
does not depend on the interval; caps_scan forms M once per grid point,
bounds.verify_mqeps reads S through kernel_terms one support block at a
time with sum_radius and M, and bounds.mqeps_scan forms S at each grid X
from running sums of w_n and of kernel_terms at log y = 0.

The main term's share of M2 is a closed form: interval arithmetic on
enclosures of eps·zeta(1+eps) and its first two derivatives over
subintervals of [0, 1] (analytic.eps_zeta_enclosure).  The walk itself
uses no interval arithmetic.  Rounding is absorbed by an explicit
error_budget: a value at or above cap - error_budget is a failure witness,
and one within ten budgets of the cap aborts as inconclusive rather than
certifying on noise.  A certificate serializes to one line of JSON whose
floats are plain numbers (Python writes each by repr and reads it back bit
for bit), so a checker can re-derive every step.  Replay applies the
value and pair rules to the larger of each recorded value and its
re-derived one, so it decides on the values the walk proved.

certify_sign, caps_scan and replay_certificate read each rule on a claim
from one helper: the X-range rule (_check_x_range: 1 < x0 <= limit + 1)
and the claim rule (_claim_problem: error_budget in [MIN_BUDGET,
MAX_BUDGET], eps_max in (0, 1], a finite cap), which returns the rule a
claim breaks.  The two walkers raise it; replay reports it as its one
problem before any interval is built, so a document that states a budget
of 1e20 or an eps_max of 0 replays as broken, not as checked.
MAX_BUDGET's comment states why the budget is bounded above.  The
kernel's terms at eps > 0 are formed by one function, _expm1_terms, for one
eps and for a column of eps.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

# eps_zeta_grid has no caller here: perfbench/tracer.py names it as a boundary
from .analytic import eps_zeta, eps_zeta_enclosure, eps_zeta_grid, phi_ratio
from .arith import ArithmeticTable, Modulus, mu_support
from .reports import BoundRow, bound_row, label_num
from .util import EPS, CapacityError, floor_int, fsum_blocks

CERTIFIED = "certified_nonpositive"
FAILED = "fail"
UNDECIDED = "inconclusive"

CERT_VERSION = 3
# the smallest error_budget a claim may state, and certify_sign's default;
# caps_scan pads its grid by it
MIN_BUDGET = 1e-9
# The largest error_budget a claim may state.  A comparison with the budget
# (cap - t >= budget in the walk and in replay, |replayed - recorded| <=
# budget in replay) is tight where the difference it forms is about one
# budget, and there that difference rounds by at most u·budget (u = EPS/2),
# so the two comparisons a replayed value meets err by about 2u·budget =
# EPS·budget together.  That must stay far below r_S = 16 EPS L (1 + L),
# the kernel sum's radius that every proven bound carries: at 1e-3 it is
# under 1e-4 of r_S wherever L = log y >= log 2, so on every interval of a
# range with x0 >= 2.  With no bound, a budget of 1e20 lets a recorded step
# value of -1e20 replay as any value at all.
MAX_BUDGET = 1e-3
_STEP_CAP = 200_000
# share of the room below cap - budget that a proposed step's pair bound
# may use if the far value comes out as its slope predicts
_STEP_SHARE = 0.5
# eps grid spacing of caps_scan
CAPS_EPS_STEP = 1e-3
# most entries of one 2-D batch of IntervalKernel.at_each (at most BLOCK, so
# one batch's .tolist() is no longer than fsum_blocks' slices)
_BATCH = 1 << 12


# ----------------------------------------------------------------------
# Derivative envelopes in eps.


# subintervals of [0, 1] behind the slope envelopes and the curvature bound
_ENVELOPE_PIECES = 256
_CURVATURE_PIECES = 64
# relative allowance for the rounding of the few dozen float operations that
# form each bound below from its enclosures (each exact to a few ulps)
_ROUNDING = 2.0**-40


def _imul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    """The product of two intervals."""
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p), max(p)


# no verdict reads it: derivative_bound's envelope, kept as long as derivative_bound is
@lru_cache(maxsize=1)
def _envelope_extrema() -> tuple[float, float]:
    """(a_min, b_max): a_min <= inf a and b_max >= sup b on [0, 1] for

        a(e) = 1/(2 e (1+e)^2 zeta(1+e)) = 1/(2 (1+e)^2 F),
        b(e) = (1+2e)/(e (1+e) zeta(1+e)) = (1+2e)/((1+e) F),

    F = eps_zeta, extended by a(0) = 1/2 and b(0) = 1.  On each of 256
    subintervals [lo, hi] (dyadic, so 1 + lo and the like are exact),
    a >= 1/(2 (1+hi)^2 max F), and by the mean-value theorem b <= b(mid) +
    (hi - lo)/2 · sup|b'| with b' = (F - (1+e)(1+2e) F')/((1+e)^2 F^2);
    eps_zeta_enclosure encloses F, F' and F(mid), interval arithmetic the
    rest.
    """
    n = _ENVELOPE_PIECES
    a_min, b_max = math.inf, -math.inf
    for k in range(n):
        lo, hi, mid = k / n, (k + 1) / n, (k + 0.5) / n
        f = eps_zeta_enclosure(lo, hi)
        a_min = min(a_min, 1.0 / (2.0 * (1.0 + hi) ** 2 * f[1]))
        poly = _imul(
            ((1.0 + lo) * (1.0 + 2.0 * lo), (1.0 + hi) * (1.0 + 2.0 * hi)),
            eps_zeta_enclosure(lo, hi, 1),
        )
        slope = max(abs(f[0] - poly[1]), abs(f[1] - poly[0]))
        slope /= ((1.0 + lo) * f[0]) ** 2
        b_mid = (1.0 + 2.0 * mid) / ((1.0 + mid) * eps_zeta_enclosure(mid, mid)[0])
        b_max = max(b_max, b_mid + (hi - lo) / 2.0 * slope)
    return a_min * (1.0 - _ROUNDING), b_max * (1.0 + _ROUNDING)


# no verdict reads it: kept while perfbench's certify set-up calls derivative_bound(1, 1)
def derivative_bound(q: Modulus | int, N: int) -> float:
    """Uniform M >= |d/deps (Delta_q(X,eps)/X^eps)| for X in [N, N+1],
    eps in [0, 1].

    The derivative sits between -(q/phi)(log X + b(eps)) and
    (q/phi)(log X + sum_{p|q} log p/(p-1) - a(eps)) with a, b as in
    _envelope_extrema, so M = (q/phi)(log(N+1) + max(S_q - a_min, b_max)).
    """
    if N < 1:
        raise ValueError("interval index must be >= 1")
    qm = Modulus.coerce(q)
    a_min, b_max = _envelope_extrema()
    s_q = math.fsum(math.log(p) / (p - 1.0) for p in qm.primes)
    return qm.q_over_phi * (math.log(N + 1.0) + max(s_q - a_min, b_max))


def _euler_logs(primes: tuple[int, ...], eps: float) -> tuple[float, float, float]:
    """(R, l1, l2) at eps: R = phi_ratio(q, 1+eps), l1 = R'/R and l2 = l1'."""
    r, l1, l2 = 1.0, 0.0, 0.0
    for p in primes:
        lp = math.log(p)
        x = math.expm1((1.0 + eps) * lp)  # p^(1+eps) - 1
        r *= 1.0 + 1.0 / x
        l1 -= lp / x
        l2 += lp * lp * (x + 1.0) / (x * x)
    return r, l1, l2


@lru_cache(maxsize=None)
def _main_curvature(q: int) -> float:
    """G2 >= sup |g''| on [0, 1] for g(eps) = phi_ratio(q, 1+eps)/eps_zeta(eps).

    g = R h with R = prod_{p|q} (1 - p^(-1-eps))^(-1) and h = 1/F, so by
    Leibniz and the quotient rule

        g'' = R ((l2 + l1^2) h + 2 l1 h' + h''),
        h' = -F'/F^2,  h'' = (2 F'^2 - F F'')/F^3,

    with l1 = R'/R = -sum_{p|q} log p/(p^(1+eps) - 1) and l2 = l1' =
    sum log^2 p · p^(1+eps)/(p^(1+eps) - 1)^2.  R and l2 fall and l1 rises
    in eps, so on each of 64 subintervals their values at the two ends
    enclose them (widened by _ROUNDING for libm and rounding);
    eps_zeta_enclosure encloses F, F' and F'', and interval arithmetic the
    bracket.  G2 is the largest |bracket| times max R over the
    subintervals, plus _ROUNDING times the largest sum of the magnitudes
    of the bracket's products, which covers the rounding of the interval
    arithmetic itself.
    """
    primes = Modulus.coerce(q).primes
    n = _CURVATURE_PIECES
    up, down = 1.0 + _ROUNDING, 1.0 - _ROUNDING
    ends = [_euler_logs(primes, k / n) for k in range(n + 1)]
    best, mag = 0.0, 0.0
    for k in range(n):
        (r, l1_lo, l2_hi), (_, l1_hi, l2_lo) = ends[k], ends[k + 1]
        r *= up
        l1 = (l1_lo * up, l1_hi * down)  # l1 <= 0
        l2 = (l2_lo * down, l2_hi * up)
        f, f1, f2 = (eps_zeta_enclosure(k / n, (k + 1) / n, d) for d in range(3))
        h = (1.0 / f[1], 1.0 / f[0])
        h2 = _imul(h, h)
        h3 = _imul(h2, h)
        f1_sq, f_f2 = _imul(f1, f1), _imul(f, f2)
        terms = (
            _imul((l2[0] + l1[1] ** 2, l2[1] + l1[0] ** 2), h),  # (l2 + l1^2) h
            _imul(_imul((-2.0 * l1[1], -2.0 * l1[0]), f1), h2),  # 2 l1 h'
            _imul((2.0 * f1_sq[0] - f_f2[1], 2.0 * f1_sq[1] - f_f2[0]), h3),  # h''
        )
        lo, hi = sum(t[0] for t in terms), sum(t[1] for t in terms)
        best = max(best, r * max(abs(lo), abs(hi)))
        # what the roundings scale with: every product and sum in magnitude
        parts = [max(map(abs, t)) for t in terms[:2]]
        parts.append((2.0 * f1_sq[1] + max(map(abs, f_f2))) * h3[1])
        mag = max(mag, r * sum(parts))
    return best + _ROUNDING * mag


def curvature_bound(
    w: np.ndarray, ln: np.ndarray, q: Modulus | int, log_y: float
) -> float:
    """Uniform M2 >= |t''(eps)| on [0, 1] for t = IntervalKernel(w, ln, log_y, q).at.

    The kernel (n^(-eps) - y^(-eps))/eps = int_{log n}^{log y} e^(-eps u) du
    has second derivative int u^2 e^(-eps u) du in [0, (log^3 y - log^3 n)/3];
    the main term adds _main_curvature(q).
    """
    kernel = np.abs(w) * (log_y**3 - ln**3) / 3.0
    return fsum_blocks(kernel) + _main_curvature(Modulus.coerce(q).q)


# ----------------------------------------------------------------------
# Exact supremum over one unit interval in X.


def main_term(qm: Modulus, eps: float) -> float:
    """M(eps) = q^s/(phi_s(q) eps zeta(s)) at s = 1+eps, and q/phi(q) at
    eps = 0: the main term of the scaled defect, within MAIN_TERM_REL_ERR
    of its value."""
    return qm.q_over_phi if eps == 0.0 else phi_ratio(qm, 1.0 + eps) / eps_zeta(eps)


# main_term's relative radius: eps_zeta's stated 1.2e-14 (its value F is at
# least 1, so this bounds F's relative error too), plus _ROUNDING for
# phi_ratio's libm calls and products and the one division
MAIN_TERM_REL_ERR = 1.2e-14 + _ROUNDING


class IntervalKernel:
    """Delta_q(y, eps)/y^eps as a function of eps, the counting sums frozen
    at N = [y]: the kernel sum less the main term, t = S - M, with

        S(eps) = sum_n w_n (n^(-eps) - y^(-eps))/eps,   M = main_term(q, eps),

    w = mu(n)/n and ln = log n on the support (arith.mu_support), and S's
    terms those of kernel_terms at log y, so the kernel's rounding radius
    r_S is sum_radius(eps, log y).  S is assembled through expm1 so the
    1/eps pieces never cancel in floats; at eps = 0 it is sum_n w_n
    log(y/n), and small eps > 0 stays on the expm1 route, so each value is
    the defect at its own eps rather than a copy of the eps = 0 value.
    eps·S = m_q(y; 1+eps) - m_q(y) y^(-eps) exactly.
    """

    __slots__ = ("w", "ln", "log_y", "qm")

    def __init__(self, w: np.ndarray, ln: np.ndarray, log_y: float, qm: Modulus):
        self.w, self.ln, self.log_y, self.qm = w, ln, log_y, qm

    def sum_at(self, eps: float) -> float:
        """S(eps), one exactly rounded sum."""
        return fsum_blocks(kernel_terms(eps, self.log_y, self.w, self.ln))

    def sum_each(self, eps: list[float]) -> list[float]:
        """[sum_at(e) for e in eps], bit for bit, in 2-D batches of at most
        _BATCH entries: each entry meets sum_at()'s elementwise operations
        in sum_at()'s order, and numpy rounds each entry alone whatever the
        array's shape; the y-term is the same scalar call, and each row is
        one exactly rounded sum.  A support longer than _BATCH gains nothing
        from a batch, and takes sum_at() one eps at a time."""
        if self.w.size > _BATCH:
            return [self.sum_at(x) for x in eps]
        rows = _BATCH // self.w.size
        out = []
        for lo in range(0, len(eps), rows):
            e = eps[lo : lo + rows]
            d = np.array([x or 1.0 for x in e])[:, None]  # eps = 0 rows take sum_at(0.0)
            ys = np.array([math.expm1(-x * self.log_y) for x in e])[:, None]
            r = _expm1_terms(d, ys, self.w, self.ln).tolist()
            out += [self.sum_at(0.0) if x == 0.0 else math.fsum(row) for row, x in zip(r, e)]
        return out

    def at(self, eps: float) -> float:
        return self.sum_at(eps) - main_term(self.qm, eps)

    def at_each(self, eps: list[float]) -> list[float]:
        """[at(e) for e in eps], bit for bit: sum_each less main_term."""
        return [s - main_term(self.qm, x) for s, x in zip(self.sum_each(eps), eps)]


def kernel_terms(eps: float, log_y: float, w: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """The terms w_n (n^(-eps) - y^(-eps))/eps of the kernel sum S(eps) at
    log y, for the support entries with weights w and logs ln: an interval's
    whole support (IntervalKernel), one block of a support read block by
    block (bounds.verify_mqeps), or the running sums' columns at log y = 0
    (bounds.mqeps_scan).  Each is formed entry by entry, so its bits do not
    depend on the block that holds it."""
    if eps == 0.0:
        return w * (log_y - ln)
    return _expm1_terms(eps, math.expm1(-eps * log_y), w, ln)


def sum_radius(eps: float, log_y: float) -> float:
    """r_S at eps: |S(eps) - fl S(eps)| <= r_S for S summed exactly rounded
    from kernel_terms(eps, log y, ...) over the support at N <= y.

    It assumes that np.log, np.expm1, math.log and math.expm1 are each
    within 2 ulps (2 EPS relative) of the true value; numpy's own accuracy
    tests hold its float64 log and expm1 to 1 ulp of the correctly rounded
    value.  With l = log n <= L = log y and u = EPS/2, per term: log n errs
    by 2 EPS l; the product -eps·l adds u, so it errs by 2.6 EPS eps l;
    expm1 is 1-Lipschitz for arguments <= 0 and adds 2 EPS |expm1| <=
    2 EPS eps l, 4.7 EPS eps l in all, and the y-term 4.7 EPS eps L likewise
    (log_y taken as log y within 2 ulps); their difference rounds by u eps
    L; so the numerator errs by 9.91 EPS eps L, and after /eps and *w, each
    rounding u of a value below L (and w = mu(n)/n's own rounding u), the
    term errs by 11.5 EPS |w| L.  The exactly rounded sum adds u |S| <=
    u L sum|w|, and sum|w| <= sum_{n<=N} 1/n <= 1 + L.  At eps = 0 the term
    w (log y - log n) errs by 5.6 EPS |w| L.  In all under 12.1 EPS L
    (1 + L), so r_S = 16 EPS L (1 + L) in the normal range.  Where a product
    -eps·l underflows, it rounds by at most 2^-1075 and its expm1 by 2 ulps
    of 2^-1074, and the subtraction of subnormals is exact: under 2^-1071 a
    term, so r_S adds (1 + L) 2^-1070/eps at eps > 0.  At y = 1 (L = 0)
    every term is an exact 0, and so is r_S.
    """
    return (1.0 + log_y) * (16.0 * EPS * log_y + (2.0**-1070 / eps if eps and log_y else 0.0))


def _expm1_terms(eps, y_terms, w: np.ndarray, ln: np.ndarray) -> np.ndarray:
    """The kernel's terms at eps > 0, w (expm1(-eps ln) - y_term)/eps, with
    y_term = math.expm1(-eps log y): a float eps with its float y_term
    (kernel_terms), or a column of eps with its column of y_terms, one row
    per eps (IntervalKernel.sum_each).  Each entry meets the same
    operations in the same order whatever the shape, so a row equals the
    float form at its eps, bit for bit."""
    r = np.expm1(-eps * ln)
    r -= y_terms
    r /= eps
    r *= w
    return r


def _interval_invariants(
    table: ArithmeticTable, N: int, qm: Modulus, x_hi: float
) -> IntervalKernel:
    """The kernel for N <= X <= x_hi: mu(n)/n and log n on the support (the
    n <= N with mu(n) != 0 and gcd(n, q) = 1, in increasing order, as
    arith.mu_support selects them) and the log of the endpoint y where the
    defect peaks, since within the interval only -m_q(N) X^(-eps)/eps
    varies with X.  Off the support a term is an exact +-0.0, so every
    exactly rounded sum over the support is the sum over all n <= N, bit
    for bit."""
    if N < 1:
        raise ValueError("interval index must be >= 1")
    if not N < x_hi <= N + 1.0:
        raise ValueError("x_hi must lie in (N, N+1]")
    k, w = mu_support(table, N, qm)
    return IntervalKernel(w, np.log(k), math.log(x_hi if fsum_blocks(w) >= 0.0 else float(N)), qm)


def _interval(table: ArithmeticTable, N: int, qm: Modulus, x_hi: float):
    """(kernel, M2): the kernel for N <= X <= x_hi (_interval_invariants)
    and its curvature_bound, as the walk, replay and caps_scan read them."""
    kernel = _interval_invariants(table, N, qm, x_hi)
    return kernel, curvature_bound(kernel.w, kernel.ln, qm, kernel.log_y)


# no src caller: kept while perfbench/tracer.py names it as a boundary, and for its tests
def interval_max(
    table: ArithmeticTable,
    N: int,
    q: Modulus | int,
    eps: float,
    x_hi: float | None = None,
) -> float:
    """max of Delta_q(X,eps)/X^eps over N <= X <= x_hi (default N+1).

    Within the interval only -m_q(N) X^(-eps)/eps varies with X, so the
    maximum sits at the endpoint y selected by the sign of m_q(N): y = x_hi
    when m_q(N) >= 0 and y = N otherwise, where the interval's IntervalKernel reads it.
    Exact in X: nothing here discretises the interval.  A subnormal eps is
    refused (refuse_subnormal_eps).
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    refuse_subnormal_eps(eps)
    qm = Modulus.coerce(q)
    return _interval_invariants(table, N, qm, N + 1.0 if x_hi is None else x_hi).at(eps)


def refuse_subnormal_eps(eps: float) -> None:
    """Raise ValueError for a subnormal eps: there each product -eps log n
    underflows, and a point value of the defect, which carries no radius,
    reads 0.12 where the true value is 2.8e-5 (q = 1, X = 9999.5, eps =
    5e-324).  Rows that state r_S, and the certifier's walk, do not call
    this."""
    if 0.0 < eps < sys.float_info.min:
        raise ValueError(f"eps = {eps!r} is subnormal: -eps log n underflows")


# ----------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class IntervalRecord:
    N: int
    M2: float  # curvature bound, curvature_bound on the interval
    steps: tuple[tuple[float, float], ...]  # (eps_k, t_k) in step order


@dataclass(frozen=True)
class DeltaCertificate:
    q: int
    x0: float  # the X range is [1, x0]
    eps_max: float
    error_budget: float
    status: str
    records: tuple[IntervalRecord, ...]
    reason: str = ""
    cap: float = 0.0

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def failure(self) -> tuple[int, float, float] | None:
        """(N, eps, value) of a failed run's witness: the last step of its
        last record, where the walk stops on the value that failed."""
        if self.status != FAILED or not self.records or not self.records[-1].steps:
            return None
        rec = self.records[-1]
        return (rec.N, *rec.steps[-1])

    def proven_bound(self) -> float:
        """Largest pair bound max(t_k, t_{k+1}) + M2 h_k^2 / 8 over all
        recorded steps (-inf if none): on a certified range the defect
        stays below it, up to the rounding the budget absorbs."""
        chain = (b for rec in self.records for b in _pair_bounds(rec.steps, rec.M2))
        return reduce(max, chain, -math.inf)


def pair_bound(t0: float, t1: float, h: float, m2: float) -> float:
    """Upper bound over a step of length h with end values t0, t1 for a
    function with |t''| <= m2: the chord plus its error m2 h^2 / 8."""
    return max(t0, t1) + m2 * h * h / 8.0


def _pair_bounds(steps, m2: float) -> Iterator[float]:
    """The pair_bound of each consecutive pair of (eps, t) steps, in order:
    the chain that a certificate's proven bound, replay's pair rule and
    caps_scan's pad each read."""
    for (e0, t0), (e1, t1) in zip(steps, steps[1:]):
        yield pair_bound(t0, t1, e1 - e0, m2)


def _last_interval(x0: float) -> int:
    """The N of the last unit interval [N, min(N+1, x0)] tiling [1, x0].

    Delta/X^eps is left-continuous at integers (the entering term carries
    weight (1 - 1)/eps = 0), so closed right endpoints cost nothing extra.
    """
    top = floor_int(x0)
    return top - 1 if x0 <= float(top) else top


def _interval_schedule(x0: float) -> Iterator[tuple[int, float]]:
    # unit intervals tiling [1, x0], drawn from a range; the last one is clipped at x0
    return ((N, min(N + 1.0, x0)) for N in range(1, _last_interval(x0) + 1))


def _value_status(t: float, cap: float, budget: float, N: int, eps: float):
    """(status, reason) of one step value against the cap's budget rules."""
    margin = cap - t
    if margin <= budget:
        return FAILED, f"value {t!r} within budget of cap {cap!r} at N={N}, eps={eps!r}"
    if margin < 10.0 * budget:
        return UNDECIDED, f"margin {margin!r} within 10x budget at N={N}, eps={eps!r}"
    return CERTIFIED, ""


def _check_x_range(table: ArithmeticTable, name: str, x: float) -> None:
    """The X-range rule, 1 < x <= table.limit + 1 for the range [1, x]:
    ValueError for x <= 1 (NaN too), CapacityError past the table (inf
    too)."""
    if not x > 1.0:
        raise ValueError(f"{name} must exceed 1, got {x!r}")
    if not x <= table.limit + 1.0:
        raise CapacityError(f"{name}={x!r} needs sieve data past the table's {table.limit}")


def _claim_problem(eps_max: float, error_budget: float, cap: float) -> str | None:
    """The claim rule: the rule that a claim's eps_max, error_budget and cap
    break, or None.  The budget lies in [MIN_BUDGET, MAX_BUDGET], eps_max
    in (0, 1] and the cap is finite; NaN breaks each (no step value
    compares with a NaN budget)."""
    if not MIN_BUDGET <= error_budget <= MAX_BUDGET:
        return f"error_budget must lie in [{MIN_BUDGET:g}, {MAX_BUDGET:g}], got {error_budget!r}"
    if not 0.0 < eps_max <= 1.0:
        return "eps_max must lie in (0, 1]"
    if not math.isfinite(cap):
        return f"cap must be finite, got {cap!r}"


def _step_length(room: float, slope: float, m2: float) -> float:
    """Largest h with max(slope, 0) h + m2 h^2 / 8 <= room."""
    s = max(slope, 0.0)
    return 2.0 * room / (s + math.sqrt(s * s + m2 * room / 2.0))


def certify_sign(
    table: ArithmeticTable,
    q: Modulus | int,
    x0: float,
    error_budget: float = MIN_BUDGET,
    eps_max: float = 1.0,
    cap: float = 0.0,
) -> DeltaCertificate:
    """Certify Delta_q(X, eps)/X^eps <= cap for all X in [1, x0] and eps in
    [0, eps_max]; cap = 0 is the sign claim Delta_q <= 0.

    Per interval: evaluate t at eps = 0, then step towards eps_max, ending
    exactly there.  A step to eps' with value t' is kept when
    pair_bound(t, t', eps' - eps, M2) <= cap - error_budget, with M2 =
    curvature_bound; its length is sized from the slope of the previous
    step, and halved at least (refitting the slope) until it is kept.
    Every value evaluated, kept or not, meets the budget rules: one at or
    above cap - error_budget ends the run with status "fail" and the
    witness as its last step (a failure is a result, not an error); one
    within ten budgets of the cap aborts as "inconclusive" instead of
    certifying a margin thinner than the arithmetic deserves.
    """
    _check_x_range(table, "x0", x0)
    if problem := _claim_problem(eps_max, error_budget, cap):
        raise ValueError(problem)
    qm = Modulus.coerce(q)
    records: list[IntervalRecord] = []
    status, reason = CERTIFIED, ""
    for N, x_hi in _interval_schedule(x0):
        kernel, m2 = _interval(table, N, qm, x_hi)
        eps, slope = 0.0, 0.0
        t = kernel.at(eps)
        steps = [(eps, t)]
        status, reason = _value_status(t, cap, error_budget, N, eps)
        while status == CERTIFIED and eps < eps_max:
            if len(steps) >= _STEP_CAP:
                status, reason = UNDECIDED, f"step cap {_STEP_CAP} reached at N={N}"
                break
            room = _STEP_SHARE * (cap - error_budget - t)
            h = _step_length(room, slope, m2)
            while True:
                nxt = min(eps + h, eps_max)
                t_nxt = kernel.at(nxt)
                status, reason = _value_status(t_nxt, cap, error_budget, N, nxt)
                if status != CERTIFIED:
                    break
                if cap - pair_bound(t, t_nxt, nxt - eps, m2) >= error_budget:
                    break
                slope = (t_nxt - t) / (nxt - eps)
                h = min(0.5 * (nxt - eps), _step_length(room, slope, m2))
            steps.append((nxt, t_nxt))
            slope = (t_nxt - t) / (nxt - eps)
            eps, t = nxt, t_nxt
        records.append(IntervalRecord(N=N, M2=m2, steps=tuple(steps)))
        if status != CERTIFIED:
            break
    return DeltaCertificate(
        q=qm.q,
        x0=x0,
        eps_max=eps_max,
        error_budget=error_budget,
        status=status,
        records=tuple(records),
        reason=reason,
        cap=cap,
    )


# ----------------------------------------------------------------------
# Serialization: one line of JSON, floats as numbers (exact round trips).


def certificate_to_json(cert: DeltaCertificate) -> str:
    obj = {
        "version": CERT_VERSION,
        "q": cert.q,
        "x0": cert.x0,
        "eps_max": cert.eps_max,
        "error_budget": cert.error_budget,
        "cap": cert.cap,
        "status": cert.status,
        "records": [{"N": rec.N, "M2": rec.M2, "steps": rec.steps} for rec in cert.records],
        "reason": cert.reason,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_number(value, kind=float):
    """A field's value as kind, or ValueError: an integer field (kind=int)
    takes only an exact JSON integer, so no value is rounded into one the
    document does not state, and a float field any JSON number; neither
    takes a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ValueError(f"expected a JSON number ({kind.__name__}), got {value!r}")
    return kind(value)


def _json_record(rec) -> IntervalRecord:
    if not isinstance(rec, dict):
        raise ValueError(f"a record must be a JSON object, got {rec!r}")
    N = _json_number(rec["N"], int)
    try:
        steps = tuple((_json_number(e), _json_number(t)) for e, t in rec["steps"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"N={N}: steps must be [eps, t] pairs of JSON numbers: {exc}") from None
    return IntervalRecord(N=N, M2=_json_number(rec["M2"]), steps=steps)


def certificate_from_json(text: str) -> DeltaCertificate:
    """The certificate a version 3 document states, or ValueError naming
    what is malformed: a missing field, a field of the wrong JSON type, a
    step that is not a pair of numbers, a status other than the three, or
    a reason that is not a string.  A missing field is caught as the
    KeyError it raises, and a step that is not a pair as the TypeError or
    ValueError of its unpacking, so no step pays for a check."""
    obj = json.loads(text)
    if not isinstance(obj, dict) or obj.get("version") != CERT_VERSION:
        raise ValueError(f"not a version {CERT_VERSION} delta-sign certificate")
    try:
        if not isinstance(obj["records"], list):
            raise ValueError(f"records must be a JSON array, got {obj['records']!r}")
        cert = DeltaCertificate(
            q=_json_number(obj["q"], int),
            x0=_json_number(obj["x0"]),
            eps_max=_json_number(obj["eps_max"]),
            error_budget=_json_number(obj["error_budget"]),
            status=obj["status"],
            records=tuple(_json_record(rec) for rec in obj["records"]),
            reason=obj.get("reason", ""),
            cap=_json_number(obj["cap"]),
        )
    except KeyError as exc:
        raise ValueError(f"certificate lacks the field {exc}") from None
    if cert.status not in (CERTIFIED, FAILED, UNDECIDED):
        raise ValueError(f"status must be {CERTIFIED!r}, {FAILED!r} or {UNDECIDED!r}, "
                         f"got {cert.status!r}")
    if not isinstance(cert.reason, str):
        raise ValueError(f"reason must be a JSON string, got {cert.reason!r}")
    return cert


def replay_certificate(table: ArithmeticTable, cert: DeltaCertificate) -> list[str]:
    """Re-derive every recorded quantity; returns problems (empty = verified).

    Independent of certify_sign's control flow, though it shares its kernel:
    recomputes M2 per interval and requires each recorded value to be at
    least it, re-derives every t_k within error_budget, and checks the
    chain directly -- eps_0 = 0, every step in [0, 1], every certified t_k
    at or below cap - error_budget, every consecutive pair's pair_bound at
    or below cap - error_budget, the last step reaching eps_max on full
    intervals, and the interval list tiling [1, x0].  The final step of a
    certificate that is not certified (the value that stopped it) is exempt
    from the value and pair rules; on a "fail" certificate that step is the
    witness, and its re-derived value must lie within two budgets of the
    cap.  A step outside the certified range is a problem, not an error.
    So is an x0 that breaks the X-range rule (one the table does not reach,
    say) or a claim that breaks the claim rule (a budget past MAX_BUDGET,
    an eps_max outside (0, 1]), each read through the helper that
    certify_sign reads and reported alone, before any interval is built,
    and so is a q that Modulus refuses (q = 0, say).
    A record's step values come from one IntervalKernel.at_each call, which
    equals the walk's at(), value for value.

    The value and pair rules read, at each step in [0, 1], the larger of
    the recorded and the re-derived value (the recorded value elsewhere),
    so a recorded value up to one budget below the re-derived one proves
    nothing the walk did not: a clean replay proves the defect at most
    cap - budget + r_S, as the walk does.
    """
    budget, cap, x0 = cert.error_budget, cert.cap, cert.x0
    try:
        _check_x_range(table, "x0", x0)
    except ValueError as exc:  # CapacityError too
        return [f"X range [1, {x0!r}]: {exc}"]
    if problem := _claim_problem(cert.eps_max, budget, cap):
        return [problem]
    try:
        qm = Modulus.coerce(cert.q)
    except (TypeError, ValueError) as exc:
        return [f"q={cert.q!r}: {exc}"]
    problems: list[str] = []
    n_last = _last_interval(x0)
    if cert.status == CERTIFIED and (
        len(cert.records) != n_last
        or any(r.N != n for n, r in enumerate(cert.records, 1))
    ):
        problems.append("interval list does not tile the X range")
    for rec in cert.records:
        last = None  # the re-derived value of the record's last step
        if not 1 <= rec.N <= n_last:
            problems.append(f"N={rec.N}: interval outside the X range")
            continue
        kernel, m2 = _interval(table, rec.N, qm, min(rec.N + 1.0, x0))
        # an understated bound widens every step past what it covers
        if not rec.M2 >= m2:
            problems.append(f"N={rec.N}: recorded M2={rec.M2!r} is below {m2!r}")
        if not rec.steps:
            problems.append(f"N={rec.N}: no steps recorded")
            continue
        if rec.steps[0][0] != 0.0:
            problems.append(f"N={rec.N}: chain does not start at eps = 0")
        fresh = iter(kernel.at_each([e for e, _ in rec.steps if 0.0 <= e <= 1.0]))
        proved = []  # (eps, max(recorded, re-derived)) per step, the recorded t out of range
        for k, (eps, t) in enumerate(rec.steps):
            if not 0.0 <= eps <= 1.0:
                problems.append(f"N={rec.N}: step {k} has eps={eps!r} outside [0, 1]")
                last = None
            elif not abs((last := next(fresh)) - t) <= budget:  # NaN too
                problems.append(f"N={rec.N}, eps={eps!r}: recorded {t!r} vs replay {last!r}")
            proved.append((eps, t if last is None else max(t, last)))
        is_last_bad = cert.status != CERTIFIED and rec.N == cert.records[-1].N
        # the step that stopped a run (its witness, say) meets no rule
        kept = proved[:-1] if is_last_bad else proved
        for eps, t in kept:
            if not cap - t >= budget:
                problems.append(f"N={rec.N}, eps={eps!r}: value {t!r} above cap - budget")
        for k, bound in enumerate(_pair_bounds(kept, rec.M2)):
            if not cap - bound >= budget:
                problems.append(f"N={rec.N}: steps {k}, {k + 1} break the pair rule")
        if not is_last_bad and not rec.steps[-1][0] >= cert.eps_max:
            problems.append(f"N={rec.N}: coverage stops short of eps_max")
    if cert.status == FAILED:
        if not cert.records:
            problems.append("fail status without a last step")
        elif last is not None and not cap - last <= 2.0 * budget:
            problems.append("last step does not reproduce a value at the cap")
    return problems


# ----------------------------------------------------------------------
# Grid scan for the numeric caps.


@dataclass(frozen=True)
class CapsScan:
    q: int
    x_max: float
    eps_max: float
    eps_step: float
    grid_max: float
    arg_n: int
    arg_eps: float
    rigorous_cap: float  # the largest pair bound between grid points, plus the budget


def caps_scan(
    table: ArithmeticTable,
    q: Modulus | int,
    x_max: float,
    eps_max: float = 1.0,
) -> CapsScan:
    """sup over X <= x_max, eps on a step grid, of Delta_q(X,eps)/X^eps.

    X is never discretised: each unit interval's IntervalKernel reads the
    closed-form supremum over X (see interval_max) at every point of the
    eps grid (multiples of CAPS_EPS_STEP below eps_max, then eps_max):
    the main term once per grid point, the same at every interval, and
    each interval's kernel sum through sum_each, so each value is
    at_each's bit for bit.  grid_max is the largest value and (arg_n, arg_eps)
    where it lies.  rigorous_cap pads the grid as a certificate's pair rule
    does: the largest pair_bound of consecutive grid points, with the
    interval's curvature_bound M2, plus certify_sign's default error budget
    1e-9 for the rounding, so the supremum over all eps in [0, eps_max]
    lies below it.  An x_max at or below 1 (NaN too) raises ValueError, as
    certify_sign's x0 does, and one past the table (inf too) CapacityError;
    an eps_max outside (0, 1] (NaN too) raises ValueError, as in
    certify_sign.  All before any interval.
    """
    _check_x_range(table, "x_max", x_max)
    if problem := _claim_problem(eps_max, MIN_BUDGET, 0.0):
        raise ValueError(problem)
    qm = Modulus.coerce(q)
    grid = np.arange(0.0, eps_max, CAPS_EPS_STEP).tolist() + [eps_max]
    mains = [main_term(qm, e) for e in grid]  # the same at every N
    best, pad = -math.inf, -math.inf
    arg_n, arg_eps = 0, 0.0
    for N, x_hi in _interval_schedule(x_max):
        kernel, m2 = _interval(table, N, qm, x_hi)
        t = [s - m for s, m in zip(kernel.sum_each(grid), mains)]  # at_each(grid)
        i = max(range(len(t)), key=t.__getitem__)  # the first of equal maxima
        if t[i] > best:
            best, arg_n, arg_eps = t[i], N, grid[i]
        pad = max(pad, *_pair_bounds(list(zip(grid, t)), m2))
    return CapsScan(
        q=qm.q,
        x_max=x_max,
        eps_max=eps_max,
        eps_step=CAPS_EPS_STEP,
        grid_max=best,
        arg_n=arg_n,
        arg_eps=arg_eps,
        rigorous_cap=pad + MIN_BUDGET,
    )


# ----------------------------------------------------------------------
# Suites.


def _certify_row(
    table: ArithmeticTable, qv: int, x0: float, expect_fail: bool = False
) -> BoundRow:
    cert = certify_sign(table, qv, x0)
    if expect_fail:
        ok = cert.status == FAILED and cert.failure is not None
        lhs = -cert.failure[2] if ok else math.inf
        param = f"X0={label_num(x0)} expect=fail got={cert.status}"
    else:
        ok = cert.certified
        lhs = cert.proven_bound() if ok else math.inf
        param = f"X0={label_num(x0)} eps<={label_num(cert.eps_max)} got={cert.status}"
    return bound_row("delta-sign", x0, qv, param, lhs=lhs, bound=0.0, strict=True)


def _suite_certify(table: ArithmeticTable) -> list[BoundRow]:
    rows = [
        _certify_row(table, 1, 10.8),
        _certify_row(table, 1, 11.0, expect_fail=True),
        _certify_row(table, 2, 41.0),
    ]
    for qv in (6, 15, 30, 2310):
        rows.append(_certify_row(table, qv, 41.0))
    return rows


def _cap_row(table: ArithmeticTable, qv: int, x0: float, cap: float) -> BoundRow:
    """A cap certificate's proven bound against a published cap; without a
    certificate there is no bound (NaN), and the row is inconclusive."""
    cert = certify_sign(table, qv, x0, cap=cap)
    lhs = cert.proven_bound() if cert.certified else math.nan
    param = f"X0={label_num(x0)} eps<={label_num(cert.eps_max)} got={cert.status}"
    return bound_row("delta-caps", x0, qv, param, lhs=lhs, bound=cap)


def _suite_caps(table: ArithmeticTable) -> list[BoundRow]:
    caps = [(1, 47.0, 0.014)] + [(qv, 46.999, 0.00005) for qv in (11, 13, 17)]
    return [_cap_row(table, qv, x, cap) for qv, x, cap in caps]


SUITES = {
    "certify": _suite_certify,
    "caps": _suite_caps,
}
