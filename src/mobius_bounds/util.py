"""Shared numeric helpers: exact-ish floors, stable exponentials, exact sums,
constants.

Everything here is plain float64 arithmetic.  Error control is by construction
(expm1/log1p style reformulations) rather than by interval arithmetic; the
certified comparisons elsewhere attach explicit error budgets on top.

The snapped floor is one rule with one tolerance, SNAP, in two forms:
floor_int for a float and _floor_array for a float64 array, equal entry for
entry.  The array form uses the array's own methods, so this module imports
no numpy.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

EPS = sys.float_info.epsilon

# Entries per block: one block of a prefix sweep (256 KiB of float64, well
# inside L2), and the slice that exact sums and element-wise libm maps turn
# into one Python list at a time.
BLOCK = 1 << 15

LOG2 = math.log(2.0)
LOG10 = math.log(10.0)
LOG_2PI_HALF = 0.91893853320467274178032973640561763986139747363778  # log(2*pi)/2

# Euler-Mascheroni constant, 30+ digits.
GAMMA = 0.57721566490153286060651209008240243104

# Exponents fixed once and for all by the bound formulas.
XI = 1.0 - 1.0 / (12.0 * LOG10)
THETA = 1.0 - 1.0 / (14.0 * LOG10)


class CapacityError(ValueError):
    """Requested work exceeds the configured table/breakpoint budget."""


class BracketError(RuntimeError):
    """A root-finding bracket failed to straddle a sign change."""


class NearZeroError(ArithmeticError):
    """A denominator is smaller than its own evaluation error."""


# The floors' snap: a value within SNAP of an integer r, relative to
# max(1, |value|), counts as r.  That is 32 to 64 ulps of r, far above the
# few roundings that put a product such as 0.1*30 next to an integer.
SNAP = 32.0 * EPS


def x_domain(name: str, value: float) -> None:
    """ValueError naming the argument unless 1 <= value < inf (NaN fails
    the comparison too), before any arithmetic on it."""
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be >= 1 and finite, got {value!r}")


def floor_int(x: float) -> int:
    """Floor of a real input with an exactness guard.

    Values within SNAP of an integer are snapped to that integer, so
    that e.g. 0.1*30 = 2.9999999999999996 counts as 3 while a deliberate
    2.999 still floors to 2.
    """
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"floor_int: non-finite input {x!r}")
    r = round(x)
    if abs(x - r) <= SNAP * max(1.0, abs(x)):
        return int(r)
    return math.floor(x)


def _floor_array(v):
    """floor_int element by element over a float64 array v of finite values,
    as int64, by the array's own methods (this module imports no numpy).
    r = v.round() rounds half to even, as round(x) does, and lies within 1/2
    of v, so r is the snapped value where |v - r| <= SNAP max(1, |v|), and
    the floor is r where r <= v and r - 1 where r > v; r - 1 is exact there,
    as a v that is no integer lies below 2^52 in size."""
    r = v.round()
    return (r - ((r > v) & (abs(v - r) > SNAP * abs(v).clip(1.0)))).astype("int64")


def block_entries(arrays):
    """The entries of the 1-D arrays in the iterable `arrays`, in order, as
    Python scalars.  The arrays are drawn lazily and read one BLOCK-entry
    slice's .tolist() at a time, so no list longer than BLOCK is held."""
    return itertools.chain.from_iterable(
        a[lo : lo + BLOCK].tolist() for a in arrays for lo in range(0, len(a), BLOCK)
    )


# The longest array (or BLOCK slice of one) that an exact sum reads as a
# Python list; a longer one is split by extraction (ExactSum).  Measured
# with numpy 2.4 on a 2-core AVX512 x86 box, list against extraction, for
# the terms mu(n)/n of m_q: 14.9 vs 16.5 us at 384 entries, 14.8 vs 14.7 at
# 512, 19.7 vs 15.3 at 640 and 31.2 vs 19.2 at 1,024; for mu(n) log(x/n)/n,
# which span more binades, the two meet near 640 (25.4 vs 25.0 us).  At
# 60,793 terms (the support of mu at 1e5) the extraction takes 0.3-0.4 ms
# against the list's 2.3 ms.
FSUM_LIST_MAX = 512


def fsum_blocks(*arrays) -> float:
    """math.fsum over the entries of the 1-D arrays, in order.

    The result is exactly rounded: it equals math.fsum of the
    concatenation's list bit for bit, and raises the same ValueError (inf -
    inf) or OverflowError.  The arrays go into one ExactSum, which reads a
    slice of up to FSUM_LIST_MAX entries as a list and splits a longer one
    by extraction, so no Python list of more than FSUM_LIST_MAX entries is
    formed.  One array that short (the kernels' 20-30-term sums) is read
    by one fsum of its list, skipping the ExactSum.
    """
    if len(arrays) == 1 and len(arrays[0]) <= FSUM_LIST_MAX:
        return math.fsum(arrays[0].tolist())
    return fsum_stream(arrays)


def fsum_stream(arrays) -> float:
    """fsum_blocks over the 1-D arrays that the iterable `arrays` yields,
    each drawn, added to one ExactSum and let go before the next, so a sum
    over blocks holds one block at a time; exactly rounded, so the blocks'
    sizes and order do not change the result."""
    total = ExactSum()
    for a in arrays:
        total.add(a)
    return float(total)


class ExactSum:
    """A sum fed one array at a time: fsum_blocks' long inputs, and one pass
    that feeds several sums.

    float(total) equals math.fsum over every entry added, bit for bit.
    Rump, Ogita and Oishi's ExtractVector ("Accurate floating-point summation
    part I", SIAM J. Sci. Comput. 31, 2008) splits an array p of n entries,
    |p| < 2^e, at sigma = 2^(e + s) with 2^(s - 1) > n: q = (sigma + p) -
    sigma is a multiple of 2^-53 sigma, p - q is the rounding error of sigma
    + p, so both are exact, and sum |q| <= sigma, so q.sum() is exact in any
    order.  Repeating on p - q, which shrinks by 2^(52 - s) per round, ends
    when it is zero, and the floats kept add up exactly to the entries.  An
    entry too large to split (or not finite) is kept as it is, and so is
    every entry of a slice of at most FSUM_LIST_MAX, where the split costs
    more than the list.  One fsum of what is kept rounds the exact sum
    once, as fsum of the entries would.
    """

    def __init__(self) -> None:
        self._kept: list[float] = []

    def add(self, a) -> None:
        """Add the entries of the 1-D numpy array a, read as float64, one
        BLOCK slice at a time, so that no temporary outgrows a slice."""
        for lo in range(0, len(a), BLOCK):
            p = a[lo : lo + BLOCK].astype(float, copy=False)
            if p.size <= FSUM_LIST_MAX:
                self._kept += p.tolist()
            else:
                self._split(p)

    def _split(self, p) -> None:
        scale = p.size.bit_length() + 1
        limit = math.ldexp(1.0, 1023 - scale)  # keeps sigma + p finite
        while p.size:
            mu = float(abs(p).max())
            if not mu < limit:
                big = ~(abs(p) < limit)
                self._kept += p[big].tolist()
                p = p[~big]
                continue
            if mu == 0.0:
                return
            sigma = math.ldexp(1.0, math.frexp(mu)[1] + scale)
            q = p + sigma
            q -= sigma
            self._kept.append(float(q.sum()))
            p = p - q

    def __float__(self) -> float:
        return math.fsum(self._kept)


def expm1c(z: complex | float) -> complex | float:
    """e^z - 1 for real or complex z, with no cancellation at any size.

    For z = x + iy, e^z - 1 = (expm1(x) cos y - 2 sin^2(y/2)) + i e^x sin y;
    a real z takes math.expm1 alone, and so does a complex one with y = 0,
    whose imaginary part is then +0.0 whatever the sign of y.  With
    libm's expm1, exp, cos and sin within 1 ulp and no overflow or
    underflow, each product and the square are within 2.5 EPS of their
    parts A = expm1(x) cos y, B = 2 sin^2(y/2) and e^x sin y, and the
    difference rounds by EPS/2 more.  As |e^z - 1|^2 = (e^x - 1)^2 +
    4 e^x sin^2(y/2), |A| and |e^x sin y| are at most |e^z - 1| and B is at
    most 2 |e^z - 1| (the ratio nears 2 only as e^x -> 0), so the result is
    within 11 EPS |e^z - 1| of e^z - 1.
    """
    if isinstance(z, complex):
        x, y = z.real, z.imag
        if y == 0.0:
            return complex(math.expm1(x), 0.0)
        h = math.sin(0.5 * y)
        return complex(math.expm1(x) * math.cos(y) - 2.0 * h * h, math.exp(x) * math.sin(y))
    return math.expm1(z)


# ----------------------------------------------------------------------
# Certified three-way comparisons.
#
# A comparison whose value intervals overlap returns "inconclusive", never
# a verdict: an inequality must not be claimed on rounding noise.

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Approx:
    """A computed value together with an absolute evaluation-error bound."""

    value: complex
    err: float

    @property
    def real(self) -> float:
        return self.value.real if isinstance(self.value, complex) else self.value


def as_approx(x: "Approx | float", err: float = 0.0) -> Approx:
    if isinstance(x, Approx):
        return x
    return Approx(float(x), err)


def _rounded(val, err: float, rel: float) -> Approx:
    """val with radius (err + rel |val|)(1 + 16 EPS), rel |val| bounding
    val's own rounding.  Forming the radius lowers it by at most 10 EPS
    relative along any path: abs within 1 ulp, a product, sum or quotient
    within EPS/2 each, the divisor |b| - b.err within 2 EPS (|b| > 4 b.err)
    and |a/b| read off the rounded quotient within 4 EPS; the factor covers
    that, no underflow or overflow assumed."""
    return Approx(val, (err + rel * abs(val)) * (1.0 + 16.0 * EPS))


def approx_div(a: Approx, b: Approx) -> Approx:
    """a/b; refuses near-zero divisors.  A/B - a/b = ((A - a) b - a (B -
    b))/(B b), so |A/B - a/b| <= (a.err + |a/b| b.err)/(|b| - b.err).  A
    real quotient rounds by at most EPS |a/b|; CPython's complex one
    (Smith's method) by at most 3 EPS to first order (the rounded ratio
    moves it by EPS/2, the numerator by 1.71 EPS/2, the denominator by EPS
    and the two divisions by EPS/2), so 4 EPS."""
    bv = abs(b.value)
    if bv <= 4.0 * b.err:
        raise NearZeroError(
            f"divisor {b.value!r} smaller than 4x its error bound {b.err:g}"
        )
    val = a.value / b.value
    rel = 4.0 * EPS if isinstance(val, complex) else EPS
    return _rounded(val, (a.err + abs(val) * b.err) / (bv - b.err), rel)


def approx_mul(a: Approx, b: Approx) -> Approx:
    """a*b.  |AB - ab| <= |a| b.err + |b| a.err + a.err b.err.  A real
    product rounds by at most EPS |ab|, CPython's complex one (the parts'
    products and sums) by at most sqrt(5) EPS/2 (Brent, Percival and
    Zimmermann, Math. Comp. 76, 2007), so 2 EPS."""
    val = a.value * b.value
    err = abs(a.value) * b.err + abs(b.value) * a.err + a.err * b.err
    return _rounded(val, err, 2.0 * EPS if isinstance(val, complex) else EPS)


def approx_add(a: Approx, b: Approx) -> Approx:
    """a + b.  The radii add; the sum rounds each part by at most EPS/2 of
    its size, so by EPS |a + b|, complex or not."""
    return _rounded(a.value + b.value, a.err + b.err, EPS)


def cert_le(a: "Approx | float", b: "Approx | float", strict: bool = False) -> str:
    """Three-way verdict for a <= b (or a < b when strict)."""
    aa, bb = as_approx(a), as_approx(b)
    av, bv = aa.real, bb.real
    try:  # fsum rounds each gap once, so its sign is the exact sign
        lo_gap = math.fsum((bv, -bb.err, -av, -aa.err))
        hi_gap = math.fsum((av, -aa.err, -bv, -bb.err))
    except (ValueError, OverflowError):  # inf - inf, or past the float range
        return INCONCLUSIVE
    if strict:
        if lo_gap > 0.0:
            return PASS
        if hi_gap >= 0.0:
            return FAIL
        return INCONCLUSIVE
    if lo_gap >= 0.0:
        return PASS
    if hi_gap > 0.0:
        return FAIL
    return INCONCLUSIVE


def combine_verdicts(*verdicts: str) -> str:
    if any(v == FAIL for v in verdicts):
        return FAIL
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    return PASS
