"""Certified evaluation of the alternating zeta series and derived constants.

The central object is the alternating series C(s) = sum (-1)^(n+1) n^(-s),
convergent for Re s > 0.  Everything else here -- 1/zeta, zeta'/zeta^2,
the pole-compensated combinations, and the two envelope functionals
consumed by the remainder bounds -- comes from C(s) and C'(s) by exact
algebra, so one error budget covers the lot.

C(s) and C'(s) come from one route, _eta_pair: a Chebyshev-style
acceleration of the alternating series (roughly a factor 5.8 per extra
term), one loop at depth 38 + ceil|Im s| forming each n^(-s) once for both
sums, its weights exact integer ratios each rounded once.  The same loop
sums the sizes of its terms, from which _eta_pair states each radius: the
acceleration's truncation plus the loop's rounding, an enclosure when libm
is within 1 ulp.  eta(s) is its C(s).

F(eps) = eps·zeta(1+eps) on [0, 1] is not summed from C: (s-1)·zeta(s) is
entire, and its Taylor series at s = 1 is 1 + Σ_{n≥0} (-1)^n γ_n
eps^(n+1)/n! with γ_n the Stieltjes constants (DLMF 25.2.4).  Its first 32
coefficients are float literals (_EZ_COEFFS), and Berndt's bound
|γ_n| <= 4(n-1)!/π^n (B. C. Berndt, "On the Hurwitz zeta-function", Rocky
Mountain J. Math. 2, 1972) bounds the rest.  eps_zeta and eps_zeta_grid are
Horner on them, good to 1.2e-14, and eps_zeta_enclosure encloses F, F' and
F'' on a subinterval.  These radii are proven, and so are those of
zeta_inequalities, whose six chains read F and F' from the enclosures at
eps in (0, 1].  Horner uses only + and ×, so every IEEE machine and every
numpy dispatch gives the same floats.

_zeta_family, the one reader of _eta_pair besides eta, turns the pair
into 1/zeta and zeta'/zeta^2; inv_zeta, zp_over_z2 and constants read it.
It keeps its last s, so reading both quotients at one s sums eta once.
This is the one route at every s, s = 1 included: the removable
singularities there need no series, since 1 - 2^(1-s) vanishes exactly at
s = 1 and c = (1 - 2^(-w))/w takes its limit log 2 at w = s - 1 = 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import Modulus, _integer, s_domain
from .util import (
    EPS,
    GAMMA,
    LOG2,
    Approx,
    CapacityError,
    NearZeroError,
    approx_add,
    approx_div,
    approx_mul,
    cert_le,
    combine_verdicts,
    expm1c,
    x_domain,
)

# Acceleration depth cap, so |Im s| <= 310.  Past about |Im s| = 450 the
# truncation bound's e^(π(|Im s|+1)/2) overflows, and the 2^|s-1| of
# constants grows with |Im s|; the cap keeps both small and bounds the
# depths _chebyshev caches.
_N_CAP = 348

# ComplexParameter's rejection distance from the zeros of 1 - 2^(1-s) off
# the real axis.
_PARAM_GUARD = 1e-11

_EXCLUDED_SPACING = 2.0 * math.pi / LOG2  # imaginary gap between excluded points


# ----------------------------------------------------------------------
# Alternating-series summation.


@lru_cache(maxsize=None)  # depths run from 38 to _N_CAP
def _chebyshev(n: int) -> tuple[tuple[float, ...], tuple[float, ...], int]:
    """(c_k/d_n, log(k+1)) for k < n, and d_n, of the depth-n acceleration:
    Σ_{k≥0} (-1)^k a_k ≈ Σ_{k<n} (c_k/d_n) a_k.

    d_n = T_n(3) and the c_k are integers, run here exactly: every floor
    division of the recurrence is exact, and |c_k| <= d_n.  So each weight
    lies in [-1, 1] and is one int/int true division, rounded once.
    """
    d = sum(math.comb(n, 2 * j) * 3 ** (n - 2 * j) * 8**j for j in range(n // 2 + 1))
    b, c = -1, -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append(c / d)
        b = b * (k + n) * (k - n) * 2 // ((2 * k + 1) * (k + 1))
    return tuple(weights), tuple(map(math.log, range(1, n + 1))), d


def _alt_accel(s: complex, n: int) -> tuple[complex, complex, float, float]:
    """Accelerated sums of Σ_{k≥0} (-1)^k a_k for a_k = (k+1)^(-s) and for
    a_k = log(k+1)·(k+1)^(-s): the Chebyshev-polynomial acceleration at
    depth n, each term formed once for both; then A = Σ |w_k a_k| and
    B = Σ |w_k a_k| log(k+1) over the weights w_k = c_k/d_n."""
    weights, logs, _ = _chebyshev(n)
    total, total_log, mag, mag_log = 0.0 + 0.0j, 0.0 + 0.0j, 0.0, 0.0
    for wt, ln in zip(weights, logs):
        term = cmath.exp(-s * ln)
        total += wt * term
        total_log += wt * (term * ln)
        m = abs(wt) * abs(term)
        mag += m
        mag_log += m * ln
    return total, total_log, mag, mag_log


def _eta_pair(s: complex) -> tuple[Approx, Approx]:
    """(C(s), C'(s)) for finite s = σ + it with σ > 0, where C(s) = Σ
    (-1)^(n+1) n^(-s) and C'(s) = -Σ (-1)^(n+1) (log n) n^(-s), each the
    sum at depth N = 38 + ceil|t| with truncation plus rounding as radius.

    Truncation (Cohen, Rodriguez Villegas and Zagier, Experimental Math. 9,
    2000).  (k+1)^(-s) = ∫_0^1 x^k w(x) dx with w = (-log x)^(s-1)/Γ(s), so
    the exact weights miss C by at most ∫|w|/d_N = Γ(σ)/|Γ(s)|/d_N, which
    is at most max(1, |s|/σ)·e^(π|t|/2)/d_N (DLMF 5.6.7, and Γ(s+1) =
    sΓ(s) below σ = 1/2).  On the disc of radius ρ = min(σ, 1)/2 about s
    that is at most T = (|s| + 1)/ρ·e^(π(|t|+1)/2)/d_N, so Cauchy's estimate
    bounds the error of C' by T/ρ.  As d_N > e^(1.76 N)/2, T < (|s| + 1)/ρ·e^-64.

    Rounding, with u = EPS/2 and libm's log, exp, cos and sin within 1 ulp.
    The argument -s·log(k+1) errs by at most 3u|s|log(k+1), so the term
    (k+1)^(-s) from cmath.exp errs by 5u + 3u|s|log(k+1) of its size.  The
    weight c_k/d_N is rounded once (u) and its product adds u; C' adds 3u
    more (the rounded log and its product).  The N-term sums add (N - 1)u
    of the sum of their terms' sizes.  Take γ = (N + 10)u: it covers the
    10u + (N - 1)u of a term, with a spare u for every second-order term.
    With A and B from _alt_accel, C errs by at most γA + 3u|s|B + T, and C'
    by (γ + 3u|s| log N)B + T/ρ, as log(k+1) < log N.
    """
    s = s_domain(s)
    depth = 38 + math.ceil(abs(s.imag))
    if depth > _N_CAP:
        cap = f"the acceleration cap |Im s| <= {_N_CAP - 38}"
        raise CapacityError(f"|Im s| = {abs(s.imag)!r} is beyond {cap}")
    v, v_log, mag, mag_log = _alt_accel(s, depth)
    gamma = (depth + 10) * EPS / 2.0
    arg = 1.5 * EPS * abs(s)
    rho = min(s.real, 1.0) / 2.0
    trunc = (abs(s) + 1.0) / rho * math.exp(math.pi * (abs(s.imag) + 1.0) / 2.0)
    trunc /= _chebyshev(depth)[2]
    err = gamma * mag + arg * mag_log + trunc
    err_log = (gamma + arg * math.log(depth)) * mag_log + trunc / rho
    return Approx(v, err), Approx(-v_log, err_log)


def eta(s: complex) -> Approx:
    """C(s) = Σ (-1)^(n+1) n^(-s) for finite s with Re s > 0."""
    return _eta_pair(s)[0]


# c_n of eps*zeta(1+eps) = Σ c_n eps^n: c_0 = 1 and c_{n+1} = (-1)^n γ_n/n!,
# each the float nearest its 50-digit value (tools/stieltjes_coefficients.py);
# eps_zeta sums all 32.
_EZ_COEFFS = (
    1.0, 0.5772156649015329, 0.07281584548367673,
    -0.00484518159643616, -0.00034230573671722433, 9.689041939447084e-05,
    -6.6110318108421895e-06, -3.316240908752772e-07, 1.0462094584479188e-07,
    -8.733218100273798e-09, 9.47827778276236e-11, 5.658421927608708e-11,
    -6.768689863513697e-12, 3.4921159366720317e-13, 4.4104247417577536e-15,
    -2.3997862217709992e-15, 2.1677312200726828e-16, -9.544466076366965e-18,
    -7.387676660538637e-20, 4.800850782488065e-20, -4.139956737713306e-21,
    1.9168201593991233e-22, -2.0441543122262165e-24, -4.818498501107353e-25,
    4.8118570515125666e-26, -2.560263310318815e-27, 6.927840895304667e-29,
    1.628607550485587e-30, -3.1939375611532554e-31, 2.0991515893634255e-32,
    -8.33674529544144e-34, 1.3412593772192187e-35,
)


# ----------------------------------------------------------------------
# Recovered zeta values and stable combinations.


def excluded_distance(s: complex) -> float:
    """Distance from s to the nearest zero 1 + 2πik/log 2, k ≠ 0, of
    1 - 2^(1-s): the one at the k nearest Im s·log 2/2π, or k = ±1 if that is 0."""
    k = round(s.imag / _EXCLUDED_SPACING) or math.copysign(1.0, s.imag)
    return abs(s - complex(1.0, k * _EXCLUDED_SPACING))


@lru_cache(maxsize=1)  # bounds._mcheck_main reads inv_zeta and zp_over_z2 at one s
def _zeta_family(s: complex) -> tuple[Approx, Approx, Approx, Approx]:
    """(C, C', 1/zeta, zeta'/zeta^2) at s, from one eta pair.

    1/zeta is (1-2^(1-s))/C and zeta'/zeta^2 is
    (C'·(1-2^(1-s)) - log2·2^(1-s)·C)/C², both cancellation-free at every
    s, s = 1 included: there 1-2^(1-s) is an exact 0, so 1/zeta(1) = 0.
    Where 1-2^(1-s) vanishes off the real axis so does C, and a C within 4
    times its radius of 0 is refused.  1-2^(1-s) = -expm1c(z) is within
    11·EPS of its size (expm1c) plus the rounding of z = -(s-1)·log 2,
    below 3u|z| with u = EPS/2, which moves 2^(1-s) by 3u|z| of its size;
    cmath.exp and the product by log 2 add 7u to 2^(1-s)·log 2.
    """
    w = s - 1.0
    et, ep = _eta_pair(s)
    if abs(et.value) <= 4.0 * et.err:
        raise NearZeroError(f"zeta evaluation at {s!r} not separated from zero")
    f = -expm1c(-w * LOG2)  # 1 - 2^(1-s)
    two1s = cmath.exp(-w * LOG2)
    arg = 2.0 * EPS * abs(w) * LOG2  # 4u|z|, the spare u for second-order terms
    factor = Approx(f, 11.0 * EPS * abs(f) + arg * abs(two1s))
    log_two1s = Approx(-LOG2 * two1s, (4.0 * EPS + arg) * LOG2 * abs(two1s))
    num = approx_add(approx_mul(ep, factor), approx_mul(et, log_two1s))
    return et, ep, approx_div(factor, et), approx_div(num, approx_mul(et, et))


def inv_zeta(s: complex) -> Approx:
    """1/zeta(s), analytic through s=1 (value 0 there)."""
    return _zeta_family(complex(s))[2]


def zp_over_z2(s: complex) -> Approx:
    """zeta'(s)/zeta(s)^2, analytic through s=1 (value -1 there)."""
    return _zeta_family(complex(s))[3]


# ----------------------------------------------------------------------
# eps * zeta(1 + eps) on [0, 1] from its Taylor series.

_EZ_HORNER = _EZ_COEFFS[::-1]


def _horner(coeffs, x):
    """Σ coeffs[i] x^(n-1-i) by Horner, for a float or an array x."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def eps_zeta(eps: float) -> float:
    """eps * zeta(1 + eps) for eps in [0, 1], with value 1 at eps = 0.

    Horner on _EZ_COEFFS.  With S = Σ|c_j| eps^j <= 1.6554 and u = EPS/2,
    the error is at most the literals' rounding u·S, plus Horner's
    γ_62·S with γ_k = k u/(1 - k u) (Higham, "Accuracy and Stability of
    Numerical Algorithms", 5.1), plus the tail past eps^31: Berndt's
    |c_m| <= 4/((m-1)π^(m-1)) falls by a factor 1/π per term, so the tail
    is below 1.6·4/(31·π^31) < 8.1e-17.  In all, below 1.2e-14.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps!r}")
    return _horner(_EZ_HORNER, eps)


def eps_zeta_grid(eps: np.ndarray) -> np.ndarray:
    """eps_zeta on an array of eps in [0, 1]: the same Horner steps, so
    the same floats."""
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all((eps >= 0.0) & (eps <= 1.0)):
        raise ValueError("eps must lie in [0, 1]")
    return _horner(_EZ_HORNER, eps)


@lru_cache(maxsize=1)
def _ez_derivative_series() -> tuple[tuple[list[float], list[float], float], ...]:
    """For k = 0, 1, 2: the coefficients of F^(k) = Σ_j d_j eps^j, split
    into positive and negative parts (Horner order), and the radius
    64·EPS·Σ|d_j| + tail_k.

    d_j = c_{j+k}·(j+k)!/j! rounds once, so with the literal's rounding
    and Horner's (γ_62 < 31·EPS), and the sum of the two parts, the float
    error is under 33·EPS·Σ|d_j|.  Past m = 31 the terms of F^(k) are at
    most m^k·4/((m-1)π^(m-1)) (Berndt), and on [0, 1] each is below
    (33/32)^2/π < 0.34 times the one before, so tail_k < 1.6·32^k·4/(31·π^31).
    """
    out = []
    for k in range(3):
        d = [c * math.perm(j + k, k) for j, c in enumerate(_EZ_COEFFS[k:])]
        tail = 1.6 * 32.0**k * 4.0 / (31.0 * math.pi**31)
        out.append((
            [max(x, 0.0) for x in reversed(d)],
            [min(x, 0.0) for x in reversed(d)],
            64.0 * EPS * math.fsum(map(abs, d)) + tail,
        ))
    return tuple(out)


def eps_zeta_enclosure(lo: float, hi: float, k: int = 0) -> tuple[float, float]:
    """(low, high) enclosing F^(k) on [lo, hi] for F = eps_zeta, an integer
    k in {0, 1, 2} and 0 <= lo <= hi <= 1.

    Every power of eps rises on [0, 1], so the positive coefficients' part
    is least at lo and most at hi, and the negative part the reverse; each
    end is widened by the radius of _ez_derivative_series.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo!r}, {hi!r}]")
    if _integer("k", k) not in (0, 1, 2):
        raise ValueError(f"k must be 0, 1 or 2, got {k!r}")
    pos, neg, rad = _ez_derivative_series()[k]
    return (
        _horner(pos, lo) + _horner(neg, hi) - rad,
        _horner(pos, hi) + _horner(neg, lo) + rad,
    )


# ----------------------------------------------------------------------
# Multiplicative Euler factors.


def phi_s(q: "Modulus | int", s: complex) -> complex:
    """Generalized totient q^s * prod_{p|q} (1 - p^(-s)); exact finite product."""
    m = Modulus.coerce(q)
    s = complex(s)
    out = cmath.exp(s * math.log(m.q)) if m.q > 1 else complex(1.0)
    for p in m.primes:
        out *= -expm1c(-s * math.log(p))
    if s.imag == 0.0:
        return complex(out.real, 0.0)
    return out


def phi_ratio(q: "Modulus | int", w: float) -> float:
    """q^w / phi_w(q) = prod_{p|q} (1 - p^(-w))^(-1) for real w > 0."""
    if not w > 0.0:  # NaN too
        raise ValueError("ratio defined here only for positive real exponent")
    m = Modulus.coerce(q)
    out = 1.0
    for p in m.primes:
        out /= -math.expm1(-w * math.log(p))
    return out


# ----------------------------------------------------------------------
# Parameter bundle and derived constants.


@dataclass(frozen=True)
class ComplexParameter:
    """Evaluation point s with its reference abscissa sigma0.

    Rejects non-finite s, and points within 1e-11 of the zeros of
    1 - 2^(1-s) off the real axis, where the eta-to-zeta conversion
    degenerates.
    """

    s: complex
    sigma0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", complex(self.s))
        if not cmath.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s!r}")
        if not (self.s.real >= self.sigma0 > 0.0):
            raise ValueError(
                f"need Re s >= sigma0 > 0, got Re s={self.s.real:g}, "
                f"sigma0={self.sigma0:g}"
            )
        if excluded_distance(self.s) <= _PARAM_GUARD:
            raise ValueError(f"s={self.s!r} within guard distance of excluded points")


@dataclass(frozen=True)
class AnalyticConstants:
    """All scalar ingredients of the truncated-sum remainder envelopes.

    Field names follow the module contract: C is the alternating zeta factor,
    c its pole-compensated cousin (1-2^(1-s))/(s-1), e the exponential weight,
    K2 the kernel coefficient (C + (s-1)C')/C², Xi1/Xi2 the envelope totals,
    and delta_flag the small-X indicator (1 or 2).  Xi1_real is the sharpened
    variant valid when s is real.  invz and zpz2 are 1/zeta(s) and
    zeta'(s)/zeta(s)^2 with their radii, as _zeta_family returns them.
    err_budget is a conservative absolute error radius for every float
    field, built on those radii and on eta's (_eta_pair states them all).
    """

    s: complex
    sigma0: float
    X: float
    C: complex
    c: complex
    e: float
    K2: complex
    Xi1: float
    Xi1_real: float
    Xi2: float
    delta_flag: int
    err_budget: float
    invz: Approx
    zpz2: Approx


def constants(p: ComplexParameter, X: float) -> AnalyticConstants:
    """Populate every envelope ingredient at s = p.s for threshold X >= 1."""
    x_domain("X", X)
    s = p.s
    w = s - 1.0
    sigma = s.real
    sigma0 = p.sigma0

    et, ep, invz, zpz2 = _zeta_family(s)
    C, Cp = et.value, ep.value
    cw = -expm1c(-w * LOG2) / w if w else complex(LOG2)
    K2 = (C + w * Cp) / (C * C)

    absC = abs(C)
    absCp = abs(Cp)
    aw = abs(w)
    e_val = 2.0 ** (1.0 - sigma) * (1.0 + 2.0 ** (aw - 1.0) * aw * LOG2) * LOG2

    # first envelope: general s, and the sharper real-axis variant
    xi1_core = ((sigma + aw) * absC + sigma * aw * absCp) / (sigma**2 * absC**2)
    Xi1 = (sigma + abs(s)) * xi1_core
    Xi1_real = sigma * xi1_core

    # second envelope, term by term
    pref = 2.0**sigma0
    dflag = 2 if X < 2.0 or math.log(X / 2.0) < 1.0 / sigma0 else 1
    t1 = pref * (math.log(X) + dflag * max(math.log(X / 2.0), 1.0 / sigma0)) * abs(
        invz.value
    )
    t2 = pref * LOG2 * abs(invz.value) / abs(cw)
    # b3 = (log2/(2^w - 1) - 1/w)/zeta(s) = (log2·2^-w - c)/C, an exact 0 at
    # w = 0.  This additive envelope term needs no series there: its absolute
    # error of a few EPS lies inside err_budget's 512·EPS.
    b3 = (LOG2 * cmath.exp(-w * LOG2) - cw) / C
    b4 = b3 + zpz2.value
    t3 = pref * abs(b3)
    t4 = pref * abs(b4)
    t5 = pref * e_val * abs(K2)
    Xi2 = t1 + t2 + t3 + t4 + t5

    scale = pref * (math.log(max(X, 2.0)) + 1.0 / sigma0 + 4.0)
    err_budget = scale * (invz.err + zpz2.err) + 8.0 * (et.err + ep.err)
    err_budget += 512.0 * EPS * (1.0 + Xi1 + Xi2)

    return AnalyticConstants(
        s=s,
        sigma0=sigma0,
        X=float(X),
        C=C,
        c=cw,
        e=e_val,
        K2=K2,
        Xi1=Xi1,
        Xi1_real=Xi1_real,
        Xi2=Xi2,
        delta_flag=dflag,
        err_budget=float(err_budget),
        invz=invz,
        zpz2=zpz2,
    )


# ----------------------------------------------------------------------
# The six certified inequality chains guarding the real-axis estimates.


@dataclass(frozen=True)
class ChainCheck:
    """One two-sided inequality: lower (<) value (< or <=) upper."""

    chain: str
    lower: float
    value: float
    upper: float
    err: float
    verdict_lower: str
    verdict_upper: str
    verdict: str


def _chain(
    chain: str,
    lower: float,
    value: Approx,
    upper: float,
    upper_strict: bool = True,
) -> ChainCheck:
    vlo = cert_le(lower, value, strict=True)
    vhi = cert_le(value, upper, strict=upper_strict)
    return ChainCheck(
        chain=chain,
        lower=lower,
        value=float(value.value.real),
        upper=upper,
        err=value.err,
        verdict_lower=vlo,
        verdict_upper=vhi,
        verdict=combine_verdicts(vlo, vhi),
    )


def _enclosed(eps: float, k: int) -> Approx:
    """F^(k)(eps) from eps_zeta_enclosure: the midpoint, with half the width
    (exact by Sterbenz) plus EPS·|mid| for the roundings as its radius."""
    lo, hi = eps_zeta_enclosure(eps, eps, k)
    mid = 0.5 * (lo + hi)
    return Approx(mid, 0.5 * (hi - lo) + EPS * abs(mid))


def zeta_inequalities(eps: float) -> list[ChainCheck]:
    """Check the six two-sided chains bounding zeta-type values at 1+eps,
    eps in (0, 1]: zeta itself, 1/c, the alternating tail log2/(2^eps - 1),
    zeta'/zeta, 1/C and C'/C.  Each value comes from the enclosures of
    F = eps·zeta(1+eps) and F' at eps itself, never at the float 1 + eps:
    zeta = F/eps, zeta'/zeta = F'/F - 1/eps, 1/C = (eps/(1 - 2^-eps))/F and
    C'/C = log2/(2^eps - 1) + zeta'/zeta.  Comparisons fold in the
    evaluation error; overlapping intervals yield "inconclusive".
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    one = 1.0 + eps
    d = -math.expm1(-eps * LOG2)  # 1 - 2^(-eps)
    eexp = math.expm1(eps * LOG2)  # 2^eps - 1

    F = _enclosed(eps, 0)
    e = Approx(eps, 0.0)
    zet = approx_div(F, e)
    ratio_zeta = approx_add(approx_div(_enclosed(eps, 1), F), approx_div(Approx(-1.0, 0.0), e))
    inv_c = Approx(eps / d, 8.0 * EPS * eps / d)
    inv_C = approx_div(inv_c, F)
    alt_tail = Approx(LOG2 / eexp, 8.0 * EPS * LOG2 / eexp)
    ratio_eta = approx_add(alt_tail, ratio_zeta)
    lower_invC = (1.0 / LOG2 - eps) * (2.0 / math.exp(GAMMA)) ** eps

    return [
        _chain("zeta", 1.0 / eps, zet, math.exp(GAMMA * eps) / eps, upper_strict=False),
        _chain("inv-c", 1.0 / LOG2, inv_c, 2.0**eps / LOG2),
        _chain("alt-tail", -LOG2 + 1.0 / eps, alt_tail, 1.0 / eps),
        _chain(
            "zeta-log-deriv",
            -1.0 / eps + 0.5 / one**2,
            ratio_zeta,
            -1.0 / eps + 2.0 - 1.0 / one,
        ),
        _chain("inv-eta", lower_invC, inv_C, 2.0**eps / LOG2),
        _chain("eta-log-deriv", -LOG2 + 0.5 / one**2, ratio_eta, 2.0 - 1.0 / one),
    ]
