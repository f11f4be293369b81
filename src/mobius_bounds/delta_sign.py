"""Sign certificates for the scaled defect Delta_q(X, eps) / X^eps.

The certifier walks unit intervals [N, N+1) in X.  Inside one interval the
counting sums freeze at N, so the supremum over X has a closed form and
only eps needs to be swept.  A uniform bound M on the eps-derivative turns
pointwise evaluations into interval statements: a value t_k < 0 at eps_k
keeps the defect nonpositive up to eps_{k+1} = eps_k - t_k / M.

No interval arithmetic is used.  Rounding is absorbed by an explicit
error_budget: a value at or above -error_budget is a failure witness, and
one within ten budgets of zero aborts as inconclusive rather than
certifying on noise.  Certificates serialize to JSON with floats written
as repr strings, so a round trip is bit-for-bit and an independent checker
can replay every step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import eps_zeta, eps_zeta_grid, phi_ratio
from .arith import ArithmeticTable, Modulus
from .reports import BoundRow, bound_row
from .util import floor_int

CERTIFIED = "certified_nonpositive"
FAILED = "fail"
UNDECIDED = "inconclusive"

_STEP_CAP = 200_000
# eps grid spacing of caps_scan; the caps rows print it as eps_step=0.001
CAPS_EPS_STEP = 1e-3


# ----------------------------------------------------------------------
# Derivative envelope in eps.


@lru_cache(maxsize=1)
def _envelope_extrema() -> tuple[float, float]:
    # a(e) = 1/(2 e (1+e)^2 zeta(1+e)) and b(e) = (1+2e)/(e (1+e) zeta(1+e))
    # extended by a(0) = 1/2, b(0) = 1; the grid extrema get a one-sided
    # slope pad (|a'|, |b'| < 4 on [0,1]) so a_min is below the true inf
    # and b_max above the true sup.  The slopes stay below 1.3; the spare 2.7
    # steps (2.7e-5) cover eps_zeta_grid's proven error, below 1e-12.
    grid = np.linspace(0.0, 1.0, 100_001)
    ez = eps_zeta_grid(grid)
    a = 1.0 / (2.0 * (1.0 + grid) ** 2 * ez)
    b = (1.0 + 2.0 * grid) / ((1.0 + grid) * ez)
    pad = 4.0 * (grid[1] - grid[0])
    return float(a.min() - pad), float(b.max() + pad)


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


# ----------------------------------------------------------------------
# Exact supremum over one unit interval in X.


def interval_weights(
    table: ArithmeticTable, N: int, qm: Modulus
) -> tuple[np.ndarray, np.ndarray]:
    """(mu(n)/n restricted to gcd(n, q) = 1, log n) for 1 <= n <= N."""
    table._check_range(N)
    mu = table.mu[: N + 1].astype(np.float64)
    if qm.primes:
        mu[~qm.coprime_mask(N)] = 0.0
    nn = np.arange(N + 1, dtype=np.float64)
    nn[0] = 1.0
    return mu[1:] / nn[1:], np.log(nn[1:])


def defect(
    w: np.ndarray, ln: np.ndarray, qm: Modulus, eps: float, log_y: float
) -> float:
    """Delta_q(y, eps)/y^eps with the counting sums frozen at N = [y]:

        sum_{n<=N} w_n (n^(-eps) - y^(-eps))/eps - (q^s/phi_s(q))/(eps zeta(s)),

    s = 1+eps, w and ln as from interval_weights, assembled through expm1
    so the 1/eps pieces never cancel in floats.  At eps = 0 the kernel
    degenerates to log(y/n) and the main term to q/phi(q); small eps > 0
    stays on the expm1 route, since substituting the eps = 0 value would
    cancel the certifier's step size and stall its chain.
    """
    if eps == 0.0:
        return math.fsum((w * (log_y - ln)).tolist()) - qm.q_over_phi
    ratio = (np.expm1(-eps * ln) - math.expm1(-eps * log_y)) / eps
    main = phi_ratio(qm, 1.0 + eps) / eps_zeta(eps)
    return math.fsum((w * ratio).tolist()) - main


def _interval_invariants(
    table: ArithmeticTable, N: int, qm: Modulus, x_hi: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """(w, ln, log y) for N <= X <= x_hi: the interval_weights and the log
    of the endpoint y where the defect peaks, since within the interval only
    -m_q(N) X^(-eps)/eps varies with X."""
    if N < 1:
        raise ValueError("interval index must be >= 1")
    if not N < x_hi <= N + 1.0:
        raise ValueError("x_hi must lie in (N, N+1]")
    w, ln = interval_weights(table, N, qm)
    return w, ln, math.log(x_hi if math.fsum(w.tolist()) >= 0.0 else float(N))


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
    when m_q(N) >= 0 and y = N otherwise, where it equals defect(..., log y).
    Exact in X: nothing here discretises the interval.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    qm = Modulus.coerce(q)
    w, ln, log_y = _interval_invariants(
        table, N, qm, N + 1.0 if x_hi is None else x_hi
    )
    return defect(w, ln, qm, eps, log_y)


# ----------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True)
class IntervalRecord:
    N: int
    M: float
    steps: tuple[tuple[float, float], ...]  # (eps_k, t_k) in step order


@dataclass(frozen=True)
class DeltaCertificate:
    q: int
    x_range: tuple[float, float]
    eps_max: float
    error_budget: float
    status: str
    records: tuple[IntervalRecord, ...]
    failure: tuple[int, float, float] | None = None  # (N, eps, value)
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.status == CERTIFIED

    def worst_value(self) -> float:
        """Largest t_k across all recorded steps (-inf if empty)."""
        worst = -math.inf
        for rec in self.records:
            for _, t in rec.steps:
                worst = max(worst, t)
        return worst


def _interval_schedule(x0: float) -> list[tuple[int, float]]:
    # unit intervals tiling [1, x0]; the last one is clipped at x0.
    # Delta/X^eps is left-continuous at integers (the entering term
    # carries weight (1 - 1)/eps = 0) so closed right endpoints cost
    # nothing extra.
    top = floor_int(x0)
    n_last = top - 1 if x0 <= float(top) else top
    return [(N, min(N + 1.0, x0)) for N in range(1, n_last + 1)]


def certify_sign(
    table: ArithmeticTable,
    q: Modulus | int,
    x0: float,
    error_budget: float = 1e-9,
    eps_max: float = 1.0,
) -> DeltaCertificate:
    """Certify Delta_q(X, eps) <= 0 for all X in [1, x0], eps in [0, eps_max].

    Per interval: evaluate t_0 at eps = 0, then chain
    eps_{k+1} = eps_k - t_k / M with M = derivative_bound(q, N) until
    eps_max is covered; the mean value theorem makes each hop sound.
    A value t_k >= -error_budget ends the run with status "fail" and the
    witness (a failure is a result, not an error); a negative t_k within
    ten budgets of zero aborts as "inconclusive" instead of certifying a
    margin thinner than the arithmetic deserves.
    """
    if x0 <= 1.0:
        raise ValueError("x0 must exceed 1")
    if not error_budget >= 1e-9:  # NaN too: no step value compares with it
        raise ValueError(f"error_budget must be at least 1e-9, got {error_budget!r}")
    if not 0.0 < eps_max <= 1.0:
        raise ValueError("eps_max must lie in (0, 1]")
    qm = Modulus.coerce(q)
    records: list[IntervalRecord] = []
    status, failure, reason = CERTIFIED, None, ""
    for N, x_hi in _interval_schedule(x0):
        M = derivative_bound(qm, N)
        w, ln, log_y = _interval_invariants(table, N, qm, x_hi)
        steps: list[tuple[float, float]] = []
        eps = 0.0
        while eps < eps_max:
            t = defect(w, ln, qm, eps, log_y)
            steps.append((eps, t))
            if t >= -error_budget:
                status, failure = FAILED, (N, eps, t)
                reason = f"positive-side value {t!r} at N={N}, eps={eps!r}"
            elif -t < 10.0 * error_budget:
                status = UNDECIDED
                reason = f"margin {-t!r} within 10x budget at N={N}, eps={eps!r}"
            elif len(steps) >= _STEP_CAP:
                status = UNDECIDED
                reason = f"step cap {_STEP_CAP} reached at N={N}"
            if status != CERTIFIED:
                break
            eps = eps - t / M
        records.append(IntervalRecord(N=N, M=M, steps=tuple(steps)))
        if status != CERTIFIED:
            break
    return DeltaCertificate(
        q=qm.q,
        x_range=(1.0, x0),
        eps_max=eps_max,
        error_budget=error_budget,
        status=status,
        records=tuple(records),
        failure=failure,
        reason=reason,
    )


# ----------------------------------------------------------------------
# Serialization: floats as repr strings so round trips are exact.


def certificate_to_json(cert: DeltaCertificate) -> str:
    obj = {
        "q": cert.q,
        "x_range": [repr(cert.x_range[0]), repr(cert.x_range[1])],
        "eps_max": repr(cert.eps_max),
        "error_budget": repr(cert.error_budget),
        "status": cert.status,
        "records": [
            {
                "N": rec.N,
                "M": repr(rec.M),
                "steps": [[repr(e), repr(t)] for e, t in rec.steps],
            }
            for rec in cert.records
        ],
        "failure": None
        if cert.failure is None
        else {
            "N": cert.failure[0],
            "eps": repr(cert.failure[1]),
            "value": repr(cert.failure[2]),
        },
        "reason": cert.reason,
    }
    return json.dumps(obj, indent=1, sort_keys=True)


def certificate_from_json(text: str) -> DeltaCertificate:
    obj = json.loads(text)
    records = tuple(
        IntervalRecord(
            N=int(rec["N"]),
            M=float(rec["M"]),
            steps=tuple((float(e), float(t)) for e, t in rec["steps"]),
        )
        for rec in obj["records"]
    )
    failure = None
    if obj.get("failure") is not None:
        f = obj["failure"]
        failure = (int(f["N"]), float(f["eps"]), float(f["value"]))
    return DeltaCertificate(
        q=int(obj["q"]),
        x_range=(float(obj["x_range"][0]), float(obj["x_range"][1])),
        eps_max=float(obj["eps_max"]),
        error_budget=float(obj["error_budget"]),
        status=str(obj["status"]),
        records=records,
        failure=failure,
        reason=str(obj.get("reason", "")),
    )


def replay_certificate(table: ArithmeticTable, cert: DeltaCertificate) -> list[str]:
    """Re-derive every recorded quantity; returns problems (empty = verified).

    Independent of certify_sign's control flow: recomputes each M and t_k,
    and checks the chaining invariants directly -- eps_0 = 0, each
    eps_{k+1} = eps_k - t_k / M, every certified t_k <= -error_budget,
    coverage reaching eps_max on full intervals, and the interval list
    tiling [1, x0].  Recomputed values must agree within error_budget.  A
    step or witness outside the certified range is a problem, not an error.
    """
    problems: list[str] = []
    budget = cert.error_budget
    qm = Modulus.coerce(cert.q)
    schedule = _interval_schedule(cert.x_range[1])
    if cert.status == CERTIFIED and [r.N for r in cert.records] != [
        n for n, _ in schedule
    ]:
        problems.append("interval list does not tile the X range")
    lookup = dict(schedule)
    for rec in cert.records:
        x_hi = lookup.get(rec.N)
        if x_hi is None:
            problems.append(f"N={rec.N}: interval outside the X range")
            continue
        m_true = derivative_bound(cert.q, rec.N)
        # an understated slope bound lengthens every hop past what the mean
        # value theorem covers
        if not rec.M >= m_true:
            problems.append(f"N={rec.N}: recorded M={rec.M!r} is below {m_true!r}")
        if not rec.steps:
            problems.append(f"N={rec.N}: no steps recorded")
            continue
        if rec.steps[0][0] != 0.0:
            problems.append(f"N={rec.N}: chain does not start at eps = 0")
        is_last_bad = cert.status != CERTIFIED and rec.N == cert.records[-1].N
        w, ln, log_y = _interval_invariants(table, rec.N, qm, x_hi)
        for k, (eps, t) in enumerate(rec.steps):
            if not 0.0 <= eps <= 1.0:
                problems.append(f"N={rec.N}: step {k} has eps={eps!r} outside [0, 1]")
            elif abs((t_new := defect(w, ln, qm, eps, log_y)) - t) > budget:
                problems.append(
                    f"N={rec.N}, eps={eps!r}: recorded {t!r} vs replay {t_new!r}"
                )
            final_witness = is_last_bad and k == len(rec.steps) - 1
            if not final_witness and not t <= -budget:
                problems.append(f"N={rec.N}, eps={eps!r}: value {t!r} above -budget")
            if k + 1 < len(rec.steps):
                # same floats, same expression: the chain must replay exactly
                if rec.steps[k + 1][0] != eps - t / rec.M:
                    problems.append(f"N={rec.N}: step {k + 1} breaks the chain")
        if cert.status == CERTIFIED or not is_last_bad:
            eps_l, t_l = rec.steps[-1]
            if not eps_l - t_l / rec.M >= cert.eps_max:
                problems.append(f"N={rec.N}: coverage stops short of eps_max")
    if cert.status == FAILED:
        if cert.failure is None:
            problems.append("fail status without a witness")
        else:
            n_w, eps_w, val_w = cert.failure
            if n_w not in lookup or not 0.0 <= eps_w <= 1.0:
                problems.append(f"witness (N={n_w}, eps={eps_w!r}) outside the range")
            else:
                t_new = interval_max(table, n_w, cert.q, eps_w, x_hi=lookup[n_w])
                if abs(t_new - val_w) > budget:
                    problems.append(f"witness value {val_w!r} vs replay {t_new!r}")
                if not t_new >= -2.0 * budget:
                    problems.append("witness does not reproduce a positive-side value")
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
    rigorous_cap: float  # grid_max plus the per-interval derivative pad


def caps_scan(
    table: ArithmeticTable,
    q: Modulus | int,
    x_max: float,
    eps_max: float = 1.0,
) -> CapsScan:
    """sup over X <= x_max, eps on a step grid, of Delta_q(X,eps)/X^eps.

    X is never discretised: each unit interval contributes its closed-form
    supremum (see interval_max) on the eps grid.  grid_max is the scan
    value; rigorous_cap adds M * CAPS_EPS_STEP / 2 per interval so the true
    supremum over all eps is provably below it.
    """
    qm = Modulus.coerce(q)
    grid = np.arange(0.0, eps_max + CAPS_EPS_STEP / 2.0, CAPS_EPS_STEP)
    grid[-1] = min(grid[-1], eps_max)
    pos = grid[1:]
    ez = eps_zeta_grid(pos)
    main = np.ones_like(pos)
    for p in qm.primes:
        main /= -np.expm1(-(1.0 + pos) * math.log(p))
    main /= ez
    best = -math.inf
    best_pad = -math.inf
    arg_n, arg_eps = 0, 0.0
    for N, x_hi in _interval_schedule(x_max):
        w, ln, log_y = _interval_invariants(table, N, qm, x_hi)
        kernel = np.expm1(-np.outer(ln, pos)) - np.expm1(-pos * log_y)
        t_pos = (w @ kernel) / pos - main
        t0 = defect(w, ln, qm, 0.0, log_y)
        t_top = float(t_pos.max()) if t_pos.size else -math.inf
        here = max(t0, t_top)
        if here > best:
            best = here
            arg_n = N
            arg_eps = 0.0 if t0 >= t_top else float(pos[int(t_pos.argmax())])
        best_pad = max(
            best_pad, here + derivative_bound(qm, N) * CAPS_EPS_STEP / 2.0
        )
    return CapsScan(
        q=qm.q,
        x_max=x_max,
        eps_max=eps_max,
        eps_step=CAPS_EPS_STEP,
        grid_max=best,
        arg_n=arg_n,
        arg_eps=arg_eps,
        rigorous_cap=best_pad,
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
        param = f"X0={x0:g} expect=fail got={cert.status}"
    else:
        ok = cert.certified
        lhs = cert.worst_value() if ok else math.inf
        param = f"X0={x0:g} eps<={cert.eps_max:g} got={cert.status}"
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


def caps_row(scan: CapsScan, bound: float, detail: str = "") -> BoundRow:
    """The scan's grid maximum as a row against a published cap."""
    return bound_row(
        "delta-caps",
        scan.x_max,
        scan.q,
        f"eps_step={scan.eps_step:g} arg=({scan.arg_n},{scan.arg_eps:g}){detail}",
        lhs=scan.grid_max,
        bound=bound,
    )


def _suite_caps(table: ArithmeticTable) -> list[BoundRow]:
    caps = [(1, 47.0, 0.014)] + [(qv, 46.999, 0.00005) for qv in (11, 13, 17)]
    return [caps_row(caps_scan(table, qv, x), cap) for qv, x, cap in caps]


SUITES = {
    "certify": _suite_certify,
    "caps": _suite_caps,
}
