"""Generic two-integral summation identities evaluated exactly by pieces.

The engine checks instances of one master identity: for arithmetic f, g,
an integrable weight h on (0,1], and an absolutely continuous H on [1,oo),

    sum_{n<=X} f(n) H(X/n) - H(1) S_f(X)
        = int_1^X S_{f*g}(X/t) h(1/t) dt/t
        + int_1^X S_f(X/t) (H'(t) - (1/t) sum_{n<=t} g(n) h(n/t)) dt,

where S_f is the summatory function and * is Dirichlet convolution.  Both
integrands are piecewise elementary: S-factors jump at t = X/m, the inner
sum jumps at integers, and everything in between is const * t^c (possibly
times log t from H).  We therefore split [1, X] at every jump and integrate
each piece in closed form -- no quadrature anywhere, so a residual measures
the identity itself, not the integrator.

The shipped catalog covers the classical fractional-part identities plus a
log-weighted variant and one Liouville instance whose published closed form
disagrees with the raw identity; catalog_check reports, never asserts.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arith import ArithmeticTable, Modulus, m_check_q, m_q
from .util import EPS, GAMMA, CapacityError, expm1c, floor_int

F_IDS = (
    "mobius",
    "mobius_coprime",
    "mobius_over_id",
    "liouville",
    "liouville_over_id",
    "mangoldt",
)
G_IDS = ("one", "alternating", "alternating_over_id")
H_SMALL_IDS = ("dirac_at_1", "one", "two_id", "inverse_id", "power")
H_BIG_IDS = ("id", "power", "id_log_variant", "power_log")

_PIECE_CAP = 4_000_000


@dataclass(frozen=True)
class IdentitySpec:
    """A catalog choice of (f, g, h, H) with optional exponent and modulus."""

    f_id: str
    g_id: str
    h_id: str
    H_id: str
    s: complex | None = None
    q: int = 1

    def __post_init__(self) -> None:
        if self.f_id not in F_IDS:
            raise ValueError(f"unknown f_id {self.f_id!r}")
        if self.g_id not in G_IDS:
            raise ValueError(f"unknown g_id {self.g_id!r}")
        if self.h_id not in H_SMALL_IDS:
            raise ValueError(f"unknown h_id {self.h_id!r}")
        if self.H_id not in H_BIG_IDS:
            raise ValueError(f"unknown H_id {self.H_id!r}")
        needs_s = self.h_id == "power" or self.H_id in ("power", "power_log")
        if needs_s and self.s is None:
            raise ValueError("power-type choices need the exponent s")


@dataclass(frozen=True)
class OfdResult:
    lhs: complex
    i1: complex
    i2: complex
    residual: float
    pieces: int
    mass: float  # sum of |x| over every real x passed to fsum

    @property
    def rhs(self) -> complex:
        return self.i1 + self.i2

    @property
    def residual_err(self) -> float:
        """Rounding estimate for the residual: each value passed to fsum
        comes out of at most eight rounded operations (cut point X/m, log,
        exp or expm1, a difference of H values, three products), each off
        by at most EPS of its size; doubling that covers the fsums and the
        final difference.  An estimate, not an enclosure: a cancelling
        difference H(hi) - H(lo) can lose more."""
        return 16.0 * EPS * self.mass


# ----------------------------------------------------------------------
# Ingredients: f values, g-weighted power prefixes, convolution prefixes.


def _f_values(table: ArithmeticTable, spec: IdentitySpec, n: int) -> np.ndarray:
    idx = np.arange(n + 1, dtype=np.float64)
    idx[0] = 1.0  # dummy to avoid 0-division; slot 0 never used
    if spec.f_id == "mobius":
        return table.mu[: n + 1].astype(np.float64)
    if spec.f_id == "mobius_coprime":
        mask = Modulus.coerce(spec.q).coprime_mask(n)
        return np.where(mask, table.mu[: n + 1], 0).astype(np.float64)
    if spec.f_id == "mobius_over_id":
        return table.mu[: n + 1] / idx
    if spec.f_id == "liouville":
        return table.liouville[: n + 1].astype(np.float64)
    if spec.f_id == "liouville_over_id":
        return table.liouville[: n + 1] / idx
    if spec.f_id == "mangoldt":
        return table.mangoldt_log[: n + 1].copy()
    raise AssertionError(spec.f_id)


def _g_values(g_id: str, n: int) -> np.ndarray:
    signs = np.ones(n + 1, dtype=np.float64)
    if g_id in ("alternating", "alternating_over_id"):
        signs[2::2] = -1.0
    if g_id == "alternating_over_id":
        idx = np.arange(n + 1, dtype=np.float64)
        idx[0] = 1.0
        signs = signs / idx
    signs[0] = 0.0
    return signs


def _h_coeff_exponent(spec: IdentitySpec) -> tuple[complex, complex]:
    """h(u) = coeff * u**a for the non-Dirac weights."""
    if spec.h_id == "one":
        return 1.0, 0.0
    if spec.h_id == "two_id":
        return 2.0, 1.0
    if spec.h_id == "inverse_id":
        return 1.0, -1.0
    if spec.h_id == "power":
        return 1.0, complex(spec.s)
    raise AssertionError(spec.h_id)


def _H_eval(spec: IdentitySpec, t: float) -> complex:
    if spec.H_id == "id":
        return t
    if spec.H_id == "power":
        return cmath.exp(complex(spec.s) * math.log(t))
    if spec.H_id == "id_log_variant":
        lt = math.log(t)
        return t * lt - lt + GAMMA * t
    if spec.H_id == "power_log":
        return cmath.exp(complex(spec.s) * math.log(t)) * math.log(t)
    raise AssertionError(spec.H_id)


def _H_eval_array(spec: IdentitySpec, t: np.ndarray) -> np.ndarray:
    lt = np.log(t)
    if spec.H_id == "id":
        return t.astype(np.complex128)
    if spec.H_id == "power":
        return np.exp(complex(spec.s) * lt)
    if spec.H_id == "id_log_variant":
        return (t * lt - lt + GAMMA * t).astype(np.complex128)
    if spec.H_id == "power_log":
        return np.exp(complex(spec.s) * lt) * lt
    raise AssertionError(spec.H_id)


def _H_at_one(spec: IdentitySpec) -> complex:
    if spec.H_id in ("id", "power"):
        return 1.0
    if spec.H_id == "id_log_variant":
        return GAMMA
    return 0.0  # power_log


def convolution_prefix(
    table: ArithmeticTable, spec: IdentitySpec, n: int
) -> np.ndarray:
    """Prefix sums of (f*g)(k) for k <= n, with closed forms where known."""
    if spec.g_id == "one":
        if spec.f_id == "mobius":
            out = np.ones(n + 1, dtype=np.float64)
            out[0] = 0.0
            return out
        if spec.f_id == "liouville":
            # lambda * 1 is the indicator of perfect squares
            return np.floor(np.sqrt(np.arange(n + 1, dtype=np.float64)) + 1e-9)
    f = _f_values(table, spec, n)
    g = _g_values(spec.g_id, n)
    conv = np.zeros(n + 1, dtype=np.float64)
    for d in range(1, n + 1):
        fd = f[d]
        if fd != 0.0:
            conv[d :: d] += fd * g[1 : n // d + 1]
    return np.cumsum(conv)


# ----------------------------------------------------------------------
# Exact piecewise integration.


def _floor_array(v: np.ndarray) -> np.ndarray:
    """Vector companion of floor_int: snap values a hair below an integer."""
    return np.floor(v + 32.0 * EPS * np.abs(v)).astype(np.int64)


def _int_pow(c: complex, lo: float, hi: float) -> complex:
    """integral of t^c over [lo, hi], stable when c is near -1."""
    if lo == hi:
        return 0.0
    lr = math.log(hi / lo)
    cp1 = c + 1.0
    if cp1 == 0.0:
        return lr
    # lo^(c+1) * (exp(cp1*lr) - 1) / cp1
    return cmath.exp(cp1 * math.log(lo)) * expm1c(cp1 * lr) / cp1


def _breakpoints(X: float, n: int) -> np.ndarray:
    """Sorted distinct cut points: 1, X, every integer, every X/m."""
    pts = [np.array([1.0, X])]
    if n >= 2:
        pts.append(np.arange(2.0, n + 1.0))
    m = np.arange(1.0, n + 1.0)
    pts.append(X / m)
    allpts = np.concatenate(pts)
    allpts = allpts[(allpts >= 1.0) & (allpts <= X)]
    allpts = np.unique(allpts)
    # merge points closer than the floor-snapping scale; the slivers they
    # would create are artifacts of forming X/m in floats
    keep = np.empty(len(allpts), dtype=bool)
    keep[0] = True
    if len(allpts) > 1:
        keep[1:] = np.diff(allpts) > 64.0 * EPS * X
    return allpts[keep]


def evaluate_ofd(
    table: ArithmeticTable, spec: IdentitySpec, X: float, tol: float = 1e-9
) -> OfdResult:
    """Evaluate both sides of the master identity; residual = |lhs - rhs|."""
    if X < 1.0:
        raise ValueError("X must be >= 1")
    n = floor_int(X)
    table._check_range(n)
    if 2 * n + 2 > _PIECE_CAP:
        raise CapacityError(f"X={X:g} generates more than {_PIECE_CAP} pieces")

    f = _f_values(table, spec, n)
    sf = np.cumsum(f)  # S_f at integers
    sfg = convolution_prefix(table, spec, n)

    # left side
    nn = np.arange(1, n + 1, dtype=np.float64)
    hvals = _H_eval_array(spec, X / nn)
    terms = f[1:] * hvals
    lhs = complex(
        math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())
    ) - _H_at_one(spec) * complex(sf[n])

    dirac = spec.h_id == "dirac_at_1"
    re1: list[float] = []
    im1: list[float] = []
    if dirac:
        i1 = complex(sfg[n])
    else:
        coeff, a = _h_coeff_exponent(spec)
        # h(1/t)/t = coeff * t^(-a-1); S_{f*g}(X/t) = sfg[m] on (X/(m+1), X/m]
        for m in range(1, n + 1):
            lo = max(1.0, X / (m + 1))
            hi = X / m
            if hi <= lo:
                continue
            val = coeff * sfg[m] * _int_pow(-a - 1.0, lo, hi)
            val = complex(val)
            re1.append(val.real)
            im1.append(val.imag)
        i1 = complex(math.fsum(re1), math.fsum(im1))

    # right-side second integral, piece by piece
    cuts = _breakpoints(X, n)
    re2: list[float] = []
    im2: list[float] = []
    pieces = 0
    if not dirac:
        coeff, a = _h_coeff_exponent(spec)
        g = _g_values(spec.g_id, n)
        # prefix sums of g(k) k^a (complex when a is)
        karr = np.arange(n + 1, dtype=np.float64)
        karr[0] = 1.0
        if isinstance(a, complex) and a.imag != 0.0:
            ga = np.cumsum(g * np.exp(a * np.log(karr)))
        else:
            ga = np.cumsum(g * karr ** float(a.real if isinstance(a, complex) else a))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (lo + hi)
        m = floor_int(X / tm)
        k = floor_int(tm)
        s_here = sf[min(m, n)]
        if s_here == 0.0:
            pieces += 1
            continue
        part = s_here * (_H_eval(spec, hi) - _H_eval(spec, lo))
        if not dirac:
            gsum = ga[min(k, n)]
            if gsum != 0.0:
                part -= s_here * coeff * gsum * _int_pow(-a - 1.0, lo, hi)
        part = complex(part)
        re2.append(part.real)
        im2.append(part.imag)
        pieces += 1
    i2 = complex(math.fsum(re2), math.fsum(im2))
    summed = [terms.real, terms.imag, re1, im1, re2, im2]
    if dirac:
        # the point mass at n/t = 1 contributes g(n) S_f(X/n) for each n <= X
        gd = _g_values(spec.g_id, n)
        idx = _floor_array(X / nn)
        sub = gd[1:] * sf[idx.clip(0, n)]
        i2 -= complex(math.fsum(sub.tolist()))
        summed.append(sub)

    rhs = i1 + i2
    mass = math.fsum(np.abs(np.concatenate(summed)).tolist())
    return OfdResult(
        lhs=lhs, i1=i1, i2=i2, residual=abs(lhs - rhs), pieces=pieces, mass=mass
    )


# ----------------------------------------------------------------------
# Catalog: the published named instances, printed form vs raw identity.


@dataclass(frozen=True)
class CatalogReport:
    name: str
    X: float
    lhs: float
    rhs: float
    residual: float
    ofd_residual: float
    ofd_err: float
    alt_residual: float | None = None
    note: str = ""


CATALOG_SPECS = {
    "meissel": IdentitySpec("mobius", "one", "dirac_at_1", "id"),
    "elmarraki": IdentitySpec("mobius", "one", "one", "id"),
    "macleod": IdentitySpec("mobius", "one", "two_id", "id"),
    "euler_gamma": IdentitySpec("mobius", "one", "inverse_id", "id_log_variant"),
    "liouville": IdentitySpec("liouville", "one", "one", "id"),
}

CATALOG_NAMES = tuple(CATALOG_SPECS) + ("daval_general",)


def _mertens_weighted_integral(
    table: ArithmeticTable, X: float, kind: str
) -> float:
    """Closed-form integrals of M(X/t) against named weights on [1, X].

    kind "floor_over_t": integral of [X/t] M(t) dt/t  (equals, after t ->
    X/t, the integral of [t] M(X/t) dt/t).
    kind "gamma_bracket": integral of M(X/t) (log t + gamma + 1/t - HarmSum([t])) dt.
    kind "gamma_bracket_fixed": same with +1 in place of +1/t.
    """
    n = floor_int(X)
    table._check_range(n)
    cuts = _breakpoints(X, n)
    mert = table.mertens_prefix
    acc: list[float] = []
    # harmonic numbers up to n
    harm = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (lo + hi)
        k = floor_int(tm)  # [t]
        m = floor_int(X / tm)  # [X/t]
        if kind == "floor_over_t":
            # integrand m * M([t]) / t after the substitution t -> X/t:
            # original variable u = X/t runs the same pieces mirrored
            val = m * float(mert[min(k, n)]) * math.log(hi / lo)
        else:
            mv = float(mert[min(m, n)])
            if mv == 0.0:
                acc.append(0.0)
                continue
            lhi, llo = math.log(hi), math.log(lo)
            base = (hi * lhi - hi) - (lo * llo - lo) + GAMMA * (hi - lo)
            base -= harm[min(k, n)] * (hi - lo)
            if kind == "gamma_bracket":
                base += lhi - llo  # the printed 1/t term
            elif kind == "gamma_bracket_fixed":
                base += hi - lo  # the corrected constant term
            else:
                raise AssertionError(kind)
            val = mv * base
        acc.append(val)
    return math.fsum(acc)


def _liouville_printed_rhs(table: ArithmeticTable, X: float) -> float:
    """2/sqrt(X) - 1/X - (1/X) int {X/t} dt/t + (1/X) int S_lam(X/t) {t} dt/t."""
    n = floor_int(X)
    cuts = _breakpoints(X, n)
    lam_prefix = np.concatenate(
        ([0], np.cumsum(table.liouville[1 : n + 1], dtype=np.int64))
    )
    acc_frac: list[float] = []
    acc_lam: list[float] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (lo + hi)
        k = floor_int(tm)
        m = floor_int(X / tm)
        lr = math.log(hi / lo)
        # {X/t}/t = X/t^2 - [X/t]/t on the piece
        acc_frac.append(X * (1.0 / lo - 1.0 / hi) - m * lr)
        sl = float(lam_prefix[min(m, n)])
        if sl != 0.0:
            # S_lam(X/t) {t} / t with {t} = t - k
            acc_lam.append(sl * ((hi - lo) - k * lr))
    return (
        2.0 / math.sqrt(X)
        - 1.0 / X
        - math.fsum(acc_frac) / X
        + math.fsum(acc_lam) / X
    )


def _liouville_floor_reading_rhs(table: ArithmeticTable, X: float) -> float:
    """Raw right side with S_{lam*1}(X/t) replaced by [X/t], as published."""
    n = floor_int(X)
    cuts = _breakpoints(X, n)
    gvals = _g_values("one", n)
    ga = np.cumsum(gvals)
    lam = table.liouville[: n + 1].astype(np.float64)
    sf = np.cumsum(lam)
    acc: list[float] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (lo + hi)
        k = floor_int(tm)
        m = floor_int(X / tm)
        lr = math.log(hi / lo)
        acc.append(m * lr)  # I1 with the [X/t] reading, h = 1
        acc.append(float(sf[min(m, n)]) * ((hi - lo) - float(ga[min(k, n)]) * lr))
    return math.fsum(acc)


def catalog_check(
    table: ArithmeticTable,
    name: str,
    X: float,
    h_spec: IdentitySpec | None = None,
) -> CatalogReport:
    """Evaluate a named identity: printed closed form and raw two-integral form.

    Residual mismatches are reported, not raised; one published closed form
    is known to disagree with its generating instance (see the note field).
    """
    if X < 1.0:
        raise ValueError("X must be >= 1")
    n = floor_int(X)
    mu = table.mu
    mval = m_q(table, X, 1)
    Mval = float(table.mertens(X))

    if name == "daval_general":
        spec = h_spec if h_spec is not None else IdentitySpec(
            "mobius", "one", "power", "id", s=0.5
        )
        ofd = evaluate_ofd(table, spec, X)
        return CatalogReport(
            name=name,
            X=X,
            lhs=abs(ofd.lhs),
            rhs=abs(ofd.rhs),
            residual=ofd.residual,
            ofd_residual=ofd.residual,
            ofd_err=ofd.residual_err,
            note="generic weight: printed and raw forms coincide",
        )

    if name not in CATALOG_SPECS:
        raise ValueError(f"unknown catalog name {name!r}")
    spec = CATALOG_SPECS[name]
    ofd = evaluate_ofd(table, spec, X)
    nn = np.arange(1, n + 1, dtype=np.float64)
    alt = None
    note = ""

    if name == "meissel":
        y = X / nn
        fracs = mu[1 : n + 1] * (y - _floor_array(y))
        lhs = math.fsum(fracs.tolist())
        rhs = -1.0 + X * mval
    elif name == "elmarraki":
        lhs = _mertens_weighted_integral(table, X, "floor_over_t")
        rhs = math.log(X)
    elif name == "macleod":
        y = X / nn
        fr = y - _floor_array(y)
        lhs = math.fsum((mu[1 : n + 1] * (fr * fr - fr) / y).tolist())
        rhs = X * mval - Mval - 2.0 + 2.0 / X
    elif name == "euler_gamma":
        lhs = m_check_q(table, X, 1) + GAMMA * (mval - Mval / X)
        rhs = (
            1.0
            - 1.0 / X
            + _mertens_weighted_integral(table, X, "gamma_bracket") / X
        )
        rhs_fixed = (
            1.0
            - 1.0 / X
            + _mertens_weighted_integral(table, X, "gamma_bracket_fixed") / X
        )
        alt = abs(lhs - rhs_fixed)
        note = (
            "printed bracket carries 1/t; replacing it by the constant 1 "
            "(alt_residual) matches the raw identity"
        )
    elif name == "liouville":
        lam = table.liouville[1 : n + 1].astype(np.float64)
        lhs = math.fsum((lam / nn).tolist()) - math.fsum(lam.tolist()) / X
        rhs = _liouville_printed_rhs(table, X)
        alt_rhs = _liouville_floor_reading_rhs(table, X)
        alt = abs(ofd.lhs.real - alt_rhs)
        note = (
            "printed closed form and the published floor-function reading "
            "of the square-counting prefix both deviate from the raw "
            "identity (alt_residual tracks the floor reading)"
        )
    else:
        raise ValueError(f"unknown catalog name {name!r}")

    return CatalogReport(
        name=name,
        X=X,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=abs(float(lhs) - float(rhs)),
        ofd_residual=ofd.residual,
        ofd_err=ofd.residual_err,
        alt_residual=alt,
        note=note,
    )

