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

The pieces are evaluated as arrays over one grid (_grid: cut points, their
logs, and [X/t], [t] on each piece), one BLOCK of pieces at a time, and every
sum is one exactly rounded fsum fed one block at a time, so the result does
not depend on the blocking.  Per-piece log, exp and expm1 are libm's,
taken element by element, and complex products and quotients are formed from
real and imaginary parts as CPython forms them.  numpy's SIMD float64
log/exp/expm1 and its complex multiply can differ from those in the last bit;
this way every piece value is the scalar closed form's, bit for bit.

The shipped catalog covers the classical fractional-part identities plus a
log-weighted variant and one Liouville instance whose published closed form
disagrees with the raw identity; catalog_check reports, never asserts.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import ArithmeticTable, Modulus, m_check_q, m_q
from .util import (
    BLOCK,
    EPS,
    GAMMA,
    CapacityError,
    block_entries,
    expm1c,
    floor_int,
    fsum_blocks,
)

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
        if self.s is not None and not cmath.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s!r}")


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
    if spec.f_id.endswith("_over_id"):
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
        return table.mangoldt(0, n + 1)
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


def _H(spec: IdentitySpec, t, lt):
    """H(t) given lt = log t, for a scalar or an array t.  The left side
    passes np.log, the pieces pass libm logs of the cut points."""
    if spec.H_id == "id":
        return t
    if spec.H_id == "power":
        return np.exp(complex(spec.s) * lt)
    if spec.H_id == "id_log_variant":
        return t * lt - lt + GAMMA * t
    if spec.H_id == "power_log":
        return np.exp(complex(spec.s) * lt) * lt
    raise AssertionError(spec.H_id)


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
    """floor_int element by element: values within 32 EPS (relative above
    1) of an integer snap to it, the rest floor."""
    r = np.rint(v)
    snap = np.abs(v - r) <= 32.0 * EPS * np.maximum(1.0, np.abs(v))
    return np.where(snap, r, np.floor(v)).astype(np.int64)


def _libm(fn, a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """The scalar (libm-backed) function fn applied element by element, one
    BLOCK slice's list at a time."""
    return np.fromiter(map(fn, block_entries((a,))), dtype, len(a))


def _cpx(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    z = np.empty(re.shape, np.complex128)
    z.real = re
    z.imag = im
    return z


def _csum(*zs: np.ndarray) -> complex:
    """The exactly rounded sum of the entries of the arrays, by parts; a real
    array's imaginary part is +0.0 throughout and is not summed."""
    im = (z.imag for z in zs if np.iscomplexobj(z))
    return complex(fsum_blocks(*(z.real for z in zs)), fsum_blocks(*im))


def _cmul(a, b):
    """a*b; two complex arrays are multiplied by parts, as CPython's complex
    product does (numpy's complex multiply may fuse multiply-adds)."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
        return a * b
    return _cpx(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a: np.ndarray, b: complex) -> np.ndarray:
    """a/b by CPython's complex quotient (Smith's method), b a nonzero scalar."""
    if abs(b.real) >= abs(b.imag):
        ratio = b.imag / b.real
        denom = b.real + b.imag * ratio
        return _cpx((a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom)
    ratio = b.real / b.imag
    denom = b.real * ratio + b.imag
    return _cpx((a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom)


def _int_pow(c: complex, llo: np.ndarray, lr: np.ndarray) -> np.ndarray:
    """Integral of t^c over each [lo, hi] from llo = log lo and lr =
    log(hi/lo): lo^(c+1) expm1((c+1) lr) / (c+1), stable when c is near -1."""
    cp1 = c + 1.0
    if cp1 == 0.0:
        return lr
    if isinstance(cp1, complex):
        em = _libm(expm1c, cp1 * lr, np.complex128)
        return _cdiv(_cmul(np.exp(cp1 * llo), em), cp1)
    return _libm(math.exp, cp1 * llo) * _libm(math.expm1, cp1 * lr) / cp1


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


@dataclass(frozen=True)
class _Grid:
    """The pieces [lo, hi] between consecutive cut points of [1, X]; on the
    interior of each, [X/t] = m and [t] = k are constant."""

    cuts: np.ndarray
    lt: np.ndarray  # log of each cut point
    lr: np.ndarray  # log(hi/lo) of each piece
    m: np.ndarray
    k: np.ndarray

    @property
    def lo(self) -> np.ndarray:
        return self.cuts[:-1]

    @property
    def hi(self) -> np.ndarray:
        return self.cuts[1:]


@functools.lru_cache(maxsize=1)
def _grid(X: float) -> _Grid:
    """The piece grid of [1, X], read-only.  The last one is kept, so that
    evaluate_ofd and the catalog integrals of one catalog_check share it."""
    n = floor_int(X)
    cuts = _breakpoints(X, n)
    lo, hi = cuts[:-1], cuts[1:]
    tm = 0.5 * (lo + hi)
    grid = _Grid(
        cuts=cuts,
        lt=_libm(math.log, cuts),
        lr=_libm(math.log, hi / lo),
        m=np.minimum(_floor_array(X / tm), n),
        k=np.minimum(_floor_array(tm), n),
    )
    for arr in (grid.cuts, grid.lt, grid.lr, grid.m, grid.k):
        arr.flags.writeable = False
    return grid


def evaluate_ofd(table: ArithmeticTable, spec: IdentitySpec, X: float) -> OfdResult:
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
    t = X / nn
    terms = f[1:] * _H(spec, t, np.log(t))
    lhs = _csum(terms) - complex(_H(spec, 1.0, 0.0)) * complex(sf[n])

    dirac = spec.h_id == "dirac_at_1"
    if dirac:
        i1 = complex(sfg[n])
        val = np.zeros(0)
    else:
        coeff, a = _h_coeff_exponent(spec)
        c = -a - 1.0
        # h(1/t)/t = coeff * t^c; S_{f*g}(X/t) = sfg[m] on (X/(m+1), X/m]
        x_m = X / np.arange(1.0, n + 2.0)
        hi, lo = x_m[:-1], np.maximum(1.0, x_m[1:])
        on = hi > lo
        lo = lo[on]
        ip = _int_pow(c, _libm(math.log, lo), _libm(math.log, hi[on] / lo))
        val = (coeff * sfg[1:][on]) * ip
        i1 = _csum(val)

    # right-side second integral over the pieces where S_f(X/t) != 0
    grid = _grid(X)
    if not dirac:
        g = _g_values(spec.g_id, n)
        # prefix sums of g(k) k^a (complex when a is)
        karr = np.arange(n + 1, dtype=np.float64)
        karr[0] = 1.0
        if isinstance(a, complex) and a.imag != 0.0:
            ga = np.cumsum(g * np.exp(a * np.log(karr)))
        else:
            ga = np.cumsum(g * karr ** float(a.real if isinstance(a, complex) else a))
    pieces = len(grid.cuts) - 1
    parts = []  # each block's live-piece values; nothing else outlives its block
    for lo in range(0, pieces, BLOCK):
        hi = min(lo + BLOCK, pieces)
        Hc = _H(spec, grid.cuts[lo : hi + 1], grid.lt[lo : hi + 1])
        s_f = sf[grid.m[lo:hi]]
        live = s_f != 0.0
        s_f = s_f[live]
        part = s_f * (Hc[1:] - Hc[:-1])[live]
        if not dirac:
            gsum = ga[grid.k[lo:hi][live]]
            ip = _int_pow(c, grid.lt[lo:hi][live], grid.lr[lo:hi][live])
            part = np.where(gsum != 0.0, part - _cmul((s_f * coeff) * gsum, ip), part)
        parts.append(part)
    i2 = _csum(*parts)
    summed = [terms, val, *parts]
    if dirac:
        # the point mass at n/t = 1 contributes g(n) S_f(X/n) for each n <= X
        gd = _g_values(spec.g_id, n)
        idx = _floor_array(X / nn)
        sub = gd[1:] * sf[idx.clip(0, n)]
        i2 -= complex(fsum_blocks(sub))
        summed.append(sub)

    rhs = i1 + i2
    # |x| of every real x summed above; a real array's +0.0 imaginary parts
    # would add nothing to this nonnegative sum
    reals = (
        p for z in summed for p in ((z.real, z.imag) if np.iscomplexobj(z) else (z,))
    )
    mass = math.fsum(map(abs, block_entries(reals)))
    return OfdResult(
        lhs=lhs,
        i1=i1,
        i2=i2,
        residual=abs(lhs - rhs),
        pieces=pieces,
        mass=mass,
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
    grid = _grid(X)
    mert = np.cumsum(table.mu[: n + 1], dtype=np.int64).astype(np.float64)
    lo, hi, lt = grid.lo, grid.hi, grid.lt
    if kind == "floor_over_t":
        # integrand m * M([t]) / t after the substitution t -> X/t:
        # original variable u = X/t runs the same pieces mirrored
        vals = grid.m * mert[grid.k] * grid.lr
    else:
        # harmonic numbers up to n
        harm = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, n + 1))))
        tlt = grid.cuts * lt - grid.cuts  # t log t - t at each cut point
        base = (tlt[1:] - tlt[:-1]) + GAMMA * (hi - lo)
        base -= harm[grid.k] * (hi - lo)
        if kind == "gamma_bracket":
            base += lt[1:] - lt[:-1]  # the printed 1/t term
        elif kind == "gamma_bracket_fixed":
            base += hi - lo  # the corrected constant term
        else:
            raise AssertionError(kind)
        vals = mert[grid.m] * base
    return fsum_blocks(vals)


def _liouville_printed_rhs(table: ArithmeticTable, X: float) -> float:
    """2/sqrt(X) - 1/X - (1/X) int {X/t} dt/t + (1/X) int S_lam(X/t) {t} dt/t."""
    n = floor_int(X)
    grid = _grid(X)
    lo, hi, lr = grid.lo, grid.hi, grid.lr
    lam_prefix = np.concatenate(
        ([0], np.cumsum(table.liouville[1 : n + 1], dtype=np.int64))
    )
    # {X/t}/t = X/t^2 - [X/t]/t on the piece
    frac = X * (1.0 / lo - 1.0 / hi) - grid.m * lr
    # S_lam(X/t) {t} / t with {t} = t - k
    lam = lam_prefix[grid.m].astype(np.float64) * ((hi - lo) - grid.k * lr)
    return (
        2.0 / math.sqrt(X)
        - 1.0 / X
        - fsum_blocks(frac) / X
        + fsum_blocks(lam) / X
    )


def _liouville_floor_reading_rhs(table: ArithmeticTable, X: float) -> float:
    """Raw right side with S_{lam*1}(X/t) replaced by [X/t], as published."""
    n = floor_int(X)
    grid = _grid(X)
    ga = np.cumsum(_g_values("one", n))
    sf = np.cumsum(table.liouville[: n + 1].astype(np.float64))
    lr = grid.lr
    i1 = grid.m * lr  # I1 with the [X/t] reading, h = 1
    i2 = sf[grid.m] * ((grid.hi - grid.lo) - ga[grid.k] * lr)
    return fsum_blocks(i1, i2)


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
        lhs = fsum_blocks(fracs)
        rhs = -1.0 + X * mval
    elif name == "elmarraki":
        lhs = _mertens_weighted_integral(table, X, "floor_over_t")
        rhs = math.log(X)
    elif name == "macleod":
        y = X / nn
        fr = y - _floor_array(y)
        lhs = fsum_blocks(mu[1 : n + 1] * (fr * fr - fr) / y)
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
        lhs = fsum_blocks(lam / nn) - fsum_blocks(lam) / X
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

