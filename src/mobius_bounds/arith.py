"""Sieve tables and truncated Mobius / Chebyshev sums.

The central object is an ArithmeticTable holding the Mobius function
mu[n] for 0 <= n <= limit (int8), and von Mangoldt's Lambda only where it
is nonzero (7% of entries at 1e7), so a table costs about 1.8 bytes per
entry:

    prime_powers[i]     the prime powers p^k <= limit, ascending (int32)
    prime_power_logs[i] Lambda there, log p (float64)

Every searchsorted on prime_powers takes an int32 key (_rank): a key of
another dtype makes numpy convert the whole array to the common one first.

The Mertens function and psi are derived, not stored: mertens(x) sums mu,
psi_prefix (built on first use) holds psi at the prime powers only, and
mangoldt(lo, hi) rebuilds a dense Lambda slice.  Liouville's
(-1)^Omega(n) is not held: liouville(lo, hi) sieves it again.

There is one sieve, the generator sieve_blocks(lo, hi): for each
2^19-entry segment of [lo, hi), with base primes <= isqrt(hi - 1), it
yields fresh dense mu and liouville (int8) and the segment's Lambda,
sparse: the prime powers' offsets, ascending, and log p at each.
build_table keeps each segment's mu and Lambda, and table.liouville its
liouville.  A segment holds one int32 array of products, in which each base
prime power p^k multiplies its stride by -p: the product's absolute value
is the base-smooth part of n, exact since it divides n < 2^31, and its sign
is (-1)^Omega of that part.  n has a prime factor above the base iff that
part is below n, an integer comparison; the factor flips lambda once more,
and mu = lambda times the squarefree flag.  That tail (the comparison with
n, the prime list and mu) goes one BLOCK at a time, in place, so a segment
costs about 8 bytes per entry while it is built.  Lambda keeps its two
sources: math.log(p) at the powers of base primes, np.log of the float64 n
at the primes above the base.

On top of the table live the weighted partial sums used everywhere else:

    m_q(X)          = sum_{n<=X, (n,q)=1} mu(n)/n
    m_q(X; s)       = sum_{n<=X, (n,q)=1} mu(n)/n^s
    mcheck_q(X; s)  = sum_{n<=X, (n,q)=1} mu(n) log(X/n)/n^s

and log_moment_sum's log^k(X/n) weights.  Each is an exactly rounded sum
(util.ExactSum) of one term builder, _point_blocks: (mu(n)/n) log^j(X/n)
exp(-(s-1) log n) over the support, the n <= X with mu(n) != 0 and
gcd(n, q) = 1, which support_blocks reads one BLOCK of [1, X] at a time;
so a point sum holds one block of terms, whatever X.  Each term is formed
entry by entry and the sum is exact in any order, so the value is that of
one sum over the whole support, bit for bit.  The relative error budget of
2^-40 is met with a wide margin on the supported domain, and s = 1 is
bit-identical to the plain harmonic-weighted sum.

The scans read prefix sums instead: the cumsum P of mu(k) (-log k)^j /
k^sigma over coprime k, from one loop over BLOCK-entry blocks that builds
several (sigma, j) columns from one log table per block (log k and its
powers) and one mu(k) k^-sigma per sigma.  sweep_prefix_min draws a
full-range sweep's P from that loop one block at a time, with the table
for its margins, so no scan holds a full-length prefix or forms log X
again; a sweep given floors skips the margins of a block that cannot hold
a new first minimum (sweep_min).
prefix_log_moment returns P whole, or with at= only at the given indices:
it then sums only the support of mu, the terms it skips are +-0.0, and
adding +-0.0 to a running sum that is nonzero or +0.0 leaves it unchanged,
so the values are those of the full cumsum, bit for bit.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .util import BLOCK, CapacityError, ExactSum, floor_int, fsum_stream

SEGMENT = 1 << 19
# ~1.8 bytes/entry in a table (1 for mu, 12 per prime power); below 2^31,
# so _sieve_segment's int32 products, the n they are compared with and the
# int32 prime powers fit
LIMIT_BUDGET = 200_000_000


# ----------------------------------------------------------------------
# Moduli


def _integer(name: str, value) -> int:
    """value as an int: Python and numpy integers only, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Modulus:
    """A modulus q with the primes dividing it, found by trial division.

    Only the set of primes dividing q matters for coprimality filters and
    for the Euler products q^s/phi_s(q).
    """

    q: int
    primes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _integer("modulus", self.q))
        if self.q < 1:
            raise ValueError(f"modulus must be positive, got {self.q}")
        primes = []
        m = self.q
        d = 2
        while d * d <= m:
            if m % d == 0:
                primes.append(d)
                while m % d == 0:
                    m //= d
            d += 1 if d == 2 else 2
        if m > 1:
            primes.append(m)
        object.__setattr__(self, "primes", tuple(primes))

    @classmethod
    def coerce(cls, q: "Modulus | int") -> "Modulus":
        if isinstance(q, Modulus):
            return q
        return cls(q)

    @property
    def q_over_phi(self) -> float:
        """q/phi(q) = prod_{p|q} p/(p-1); depends on the primes only."""
        out = 1.0
        for p in self.primes:
            out *= p / (p - 1.0)
        return out

    def coprime_mask(self, n: int) -> np.ndarray:
        """Boolean array of length n+1; entry k is True iff gcd(k, q) = 1.

        Index 0 is False by convention.
        """
        mask = np.ones(n + 1, dtype=bool)
        mask[0] = False
        for p in self.primes:
            if p <= n:
                mask[p::p] = False
        return mask


ONE = Modulus(1)


# ----------------------------------------------------------------------
# Segmented sieve


def _small_primes(limit: int) -> np.ndarray:
    """Primes <= limit via a plain boolean sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.nonzero(is_prime)[0].astype(np.int64)


class ArithmeticTable:
    """Immutable sieve table up to `limit` (inclusive), laid out as the
    module docstring says; its reads below hide that layout."""

    def __init__(
        self,
        limit: int,
        mu: np.ndarray,
        prime_powers: np.ndarray,
        prime_power_logs: np.ndarray,
    ) -> None:
        self.limit = limit
        self.mu = mu
        self.prime_powers = prime_powers
        self.prime_power_logs = prime_power_logs
        for arr in (mu, prime_powers, prime_power_logs):
            arr.flags.writeable = False
        self._psi_prefix: np.ndarray | None = None

    @property
    def psi_prefix(self) -> np.ndarray:
        """psi at the prime powers, cached on first use: entry i is psi(n)
        for every n with exactly i prime powers <= n, so psi(n) is
        psi_prefix[_rank(n)].  One cumsum over the prime powers alone: the
        dense cumsum adds +0.0 between them to a sum that is +0.0 or
        positive, which leaves it unchanged, so the values are the dense
        ones bit for bit."""
        if self._psi_prefix is None:
            psi = np.zeros(self.prime_powers.size + 1)
            np.cumsum(self.prime_power_logs, out=psi[1:])
            psi.flags.writeable = False
            self._psi_prefix = psi
        return self._psi_prefix

    def _rank(self, n: int, side: str = "right") -> int:
        """The number of prime powers <= n (side "right") or < n ("left"),
        for 0 <= n <= limit + 1; the key takes the array's own dtype, so
        numpy converts no copy of the array."""
        key = self.prime_powers.dtype.type(n)
        return int(np.searchsorted(self.prime_powers, key, side))

    def prime_powers_upto(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(prime powers <= n, log p at each), read-only views."""
        self._check_range(n)
        k = self._rank(n)
        return self.prime_powers[:k], self.prime_power_logs[:k]

    def mangoldt(self, lo: int, hi: int) -> np.ndarray:
        """Lambda(n) for lo <= n < hi as a fresh dense float64 array."""
        if not 0 <= lo <= hi:
            raise ValueError(f"bad Lambda range [{lo}, {hi})")
        self._check_range(hi - 1)
        a, b = self._rank(lo, "left"), self._rank(hi, "left")
        out = np.zeros(hi - lo)
        out[self.prime_powers[a:b] - lo] = self.prime_power_logs[a:b]
        return out

    def liouville(self, lo: int, hi: int) -> np.ndarray:
        """lambda(n) for lo <= n < hi as a fresh int8 array, lambda(0) = 0;
        the table holds no lambda, so [lo, hi) is sieved again."""
        if not 0 <= lo <= hi:
            raise ValueError(f"bad lambda range [{lo}, {hi})")
        self._check_range(hi - 1)
        out = np.zeros(hi - lo, dtype=np.int8)
        if max(lo, 1) < hi:
            for start, _, seg, _, _ in sieve_blocks(max(lo, 1), hi):
                out[start - lo : start - lo + seg.size] = seg
        return out

    def mertens(self, x: float) -> int:
        """M(x) = sum_{n<=x} mu(n), summed from the table on each call."""
        n = floor_int(x)
        if n < 1:
            return 0
        self._check_range(n)
        return int(self.mu[: n + 1].sum(dtype=np.int64))

    def _check_range(self, n: int) -> None:
        if n > self.limit:
            raise CapacityError(
                f"argument needs sieve data up to {n}, table holds {self.limit}"
            )


def build_table(limit: int) -> ArithmeticTable:
    """Sieve mu up to limit, and Lambda at the prime powers.

    Each sieve_blocks segment's mu is copied into the dense array, and its
    sparse Lambda is kept with the offsets moved to n, in int32 (n <=
    LIMIT_BUDGET < 2^31); the dense segment arrays are freed before the next
    one.  Once the count is known, the logs and then the offsets are copied
    into arrays of exact size, each piece freed as it is copied, so at most
    mu, the pieces (12 bytes per prime power) and one output (8) are held
    at once.  The offsets stay int32 in the table: 4 bytes per prime power
    less than int64, and the powers' searches take int32 keys (_rank).
    """
    limit = _integer("limit", limit)
    if limit < 1:
        raise CapacityError(f"table limit must be >= 1, got {limit}")
    blocks = sieve_blocks(1, limit + 1)
    n = limit + 1
    mu = np.zeros(n, dtype=np.int8)
    powers, logs = [], []
    for start, seg_mu, seg_liou, offsets, seg_logs in blocks:
        mu[start : start + seg_mu.size] = seg_mu
        offsets += start
        powers.append(offsets.astype(np.int32))
        logs.append(seg_logs)
        del seg_mu, seg_liou, offsets  # freed before the next segment
    count = sum(piece.size for piece in logs)
    logs = _drain(logs, count, np.float64)  # the wider pieces go first
    return ArithmeticTable(limit, mu, _drain(powers, count, np.int32), logs)


def _drain(pieces: list[np.ndarray], count: int, dtype: type) -> np.ndarray:
    """The pieces, in order, in one new array of count entries; the list is
    emptied from its end, so each piece is freed once it is copied."""
    out = np.empty(count, dtype=dtype)
    while pieces:
        piece = pieces.pop()
        out[count - piece.size : count] = piece
        count -= piece.size
    return out


def sieve_blocks(
    lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Iterate (start, mu, liouville, offsets, logs) over SEGMENT slices of [lo, hi).

    Each segment covers n in [start, start + len(mu)).  mu and liouville
    are dense int8; Lambda is sparse: offsets (int64, strictly increasing)
    are the n - start of the prime powers n in the segment, and logs
    (float64) holds Lambda(n) = log p at each.  The arrays are fresh and
    owned by the caller.  The base primes are those <= isqrt(hi - 1), so
    every n in the range has at most one prime factor above the base.  The
    range is checked here, before any array is built: lo and hi are
    integers (not bools) with 1 <= lo < hi and hi - 1 <= LIMIT_BUDGET.
    """
    lo = _integer("lo", lo)
    hi = _integer("hi", hi)
    if lo < 1:
        raise ValueError(f"sieve range must start at 1 or above, got lo = {lo}")
    if hi <= lo:
        raise ValueError(f"empty sieve range [{lo}, {hi})")
    if hi - 1 > LIMIT_BUDGET:
        raise CapacityError(f"sieve end {hi - 1} exceeds budget {LIMIT_BUDGET}")
    return _segments(lo, hi)


def _segments(lo: int, hi: int):
    base = _small_primes(isqrt(hi - 1)).tolist()
    logs = [math.log(p) for p in base]
    for start in range(lo, hi, SEGMENT):
        yield (start, *_sieve_segment(start, min(start + SEGMENT, hi), base, logs))


def _sieve_segment(start: int, end: int, base: list[int], logs: list[float]):
    """mu, liouville and the sparse Lambda (offsets, logs) for n in [start, end).

    The base holds the primes <= isqrt(hi - 1) for the range's end hi, so
    every n here has at most one prime factor above the base.  The int32
    array prod starts at 1, and each base prime power p^k multiplies its
    stride by -p, so |prod| is the base-smooth part of n and its sign is
    (-1)^Omega of that part.  |prod| divides n, and n <= LIMIT_BUDGET <
    2^31, so no product overflows and the test for the large prime factor
    is exact: n has one iff |prod| < n.  That factor flips lambda once
    more, and mu = lambda times the squarefree flag (a prime above the base
    divides n at most once).  Lambda is returned at its nonzero entries
    only, as ascending offsets from start with log p at each: base prime
    powers p^k in the segment get math.log(p), and the primes above the
    base (prod = 1 and n > 1) np.log of the float64 n.
    """
    length = end - start
    prod = np.ones(length, dtype=np.int32)
    squarefree = np.ones(length, dtype=bool)
    offsets, power_logs = [], []
    for p, logp in zip(base, logs):
        if p >= end:
            break
        pk = p
        while pk < end:
            first = (-start) % pk
            if first < length:
                prod[first::pk] *= -p
                if pk >= start:
                    offsets.append(pk - start)
                    power_logs.append(logp)
            pk *= p
        squarefree[(-start) % (p * p) :: p * p] = False

    # one BLOCK at a time and in place, through two buffers made once (the
    # chunk's n and its flags): a whole-segment temporary raises the
    # segment's peak, and a fresh BLOCK array per chunk left glibc's heap
    # holding about 2.5 MB more at the scan workload's peak in some runs
    liouville = np.empty(length, dtype=np.int8)
    odd = liouville.view(bool)
    n = np.arange(start, start + min(BLOCK, length), dtype=np.int32)
    flags = np.empty(n.size, dtype=bool)
    primes = []
    for a in range(0, length, BLOCK):
        chunk, chunk_odd = prod[a : a + BLOCK], odd[a : a + BLOCK]
        flag = flags[: chunk.size]
        np.equal(chunk, 1, out=flag)
        primes.append(np.flatnonzero(flag) + a)
        np.less(chunk, 0, out=chunk_odd)
        np.abs(chunk, out=chunk)
        np.less(chunk, n[: chunk.size], out=flag)
        chunk_odd ^= flag
        n += BLOCK
    del prod
    liouville *= -2
    liouville += 1
    mu = squarefree.view(np.int8)
    mu *= liouville

    primes = np.concatenate(primes)
    if start == 1:
        primes = primes[1:]  # n = 1
    # the primes are many and the base prime powers few (no n is both),
    # so the powers go into the primes
    order = np.argsort(offsets)
    offsets = np.array(offsets, dtype=np.int64)[order]
    at = np.searchsorted(primes, offsets)
    prime_logs = np.log((primes + start).astype(np.float64))
    offsets = np.insert(primes, at, offsets)
    power_logs = np.insert(prime_logs, at, np.array(power_logs)[order])
    return mu, liouville, offsets, power_logs


# ----------------------------------------------------------------------
# Weighted partial sums


def support_blocks(
    table: ArithmeticTable, n: int, q: Modulus
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(k, mu(k)/k) on the support, the k <= n with mu(k) != 0 and
    gcd(k, q) = 1, one BLOCK of [1, n] at a time, in increasing order; n is
    checked against the table before the first block."""
    table._check_range(n)
    return _support_blocks(table, n, q)


def _support_blocks(table: ArithmeticTable, n: int, q: Modulus):
    for lo in range(1, n + 1, BLOCK):
        vals = _mu_block(table, lo, min(lo + BLOCK, n + 1), q)
        k = np.flatnonzero(vals)
        vals = vals[k]
        k += lo
        yield k, vals / k


def _mu_block(table: ArithmeticTable, lo: int, hi: int, q: Modulus) -> np.ndarray:
    """mu(i) for lo <= i < hi as float64, 0.0 where gcd(i, q) > 1."""
    vals = table.mu[lo:hi].astype(np.float64)
    for p in q.primes:
        vals[(-lo) % p :: p] = 0.0
    return vals


def mu_support(table: ArithmeticTable, n: int, q: Modulus) -> tuple[np.ndarray, np.ndarray]:
    """(k, mu(k)/k) on the whole support: the blocks of support_blocks joined."""
    blocks = list(support_blocks(table, n, q))
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0)
    return np.concatenate([k for k, _ in blocks]), np.concatenate([w for _, w in blocks])


def _point_blocks(table: ArithmeticTable, x: float, q: Modulus | int, s, j: int):
    """The terms (mu(n)/n) log^j(x/n) exp(-(s-1) log n) over the support of
    n <= x, one block of support_blocks at a time, none below x = 1; real
    or complex as s is.  q is checked first, then x against the table, as
    the first block is drawn (every caller draws it at once).

    log n is formed only when j > 0 or s != 1, and each factor only where
    it is not 1, so s = 1 gives mu(n)/n log^j(x/n) bit for bit.  j = 1
    multiplies by log x - log n itself, which saves a copy: numpy's ** 1
    takes its fast scalar-power path and gives the same bits in a new array.
    Each term is formed entry by entry, so its bits do not depend on the
    block that holds it.
    """
    q = Modulus.coerce(q)
    n = floor_int(x)
    if n < 1:
        return
    lx = math.log(x)
    for k, terms in support_blocks(table, n, q):
        if j or s != 1:
            logs = np.log(k.astype(np.float64))
        if j:
            weights = lx - logs
            terms = terms * (weights if j == 1 else weights ** j)
        if s != 1:
            terms = terms * np.exp(-(s - 1.0) * logs)
        yield terms


def _complex_sum(table: ArithmeticTable, x: float, q: Modulus | int, s, j: int) -> complex:
    """The exactly rounded sum of the _point_blocks terms at s, finite with
    Re s > 0, each part summed apart; at s = 1 the terms are real."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    if s.real <= 0.0:
        raise ValueError(f"requires Re s > 0, got s = {s}")
    re, im = ExactSum(), ExactSum()
    for terms in _point_blocks(table, x, q, s, j):
        re.add(terms.real)
        if s != 1.0:
            im.add(terms.imag)
    return complex(float(re), float(im))


def m_q(table: ArithmeticTable, x: float, q: Modulus | int = ONE) -> float:
    """sum_{n<=x, (n,q)=1} mu(n)/n, exactly-rounded accumulation."""
    return fsum_stream(_point_blocks(table, x, q, 1, 0))


def m_q_s(table: ArithmeticTable, x: float, q: Modulus | int, s: complex) -> complex:
    """sum_{n<=x, (n,q)=1} mu(n)/n^s for Re s > 0."""
    return _complex_sum(table, x, q, s, 0)


def m_check_q_s(
    table: ArithmeticTable, x: float, q: Modulus | int = ONE, s: complex = 1.0
) -> complex:
    """sum_{n<=x, (n,q)=1} mu(n) log(x/n)/n^s for Re s > 0; real s gives a
    real value.

    Continuous in x: each term enters with weight log(x/n) = 0 at n = x.
    """
    return _complex_sum(table, x, q, s, 1)


def m_check_q(table: ArithmeticTable, x: float, q: Modulus | int = ONE) -> float:
    """Real shortcut for the log-weighted sum at s = 1."""
    return m_check_q_s(table, x, q, 1.0).real


def log_moment_sum(
    table: ArithmeticTable,
    x: float,
    q: Modulus | int,
    sigma: float,
    k: int,
) -> tuple[float, float]:
    """sum_{n<=x,(n,q)=1} mu(n) log^k(x/n)/n^sigma with an error estimate.

    Returns (value, err) where err bounds the accumulated rounding of the
    term-wise powers/logs (the sum itself is exactly rounded).  k is an
    integer >= 0 and sigma finite.  One pass over the blocks feeds the sum
    and its mass.
    """
    if _integer("k", k) < 0:
        raise ValueError("k must be >= 0")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    value, mass, size = ExactSum(), ExactSum(), 0
    for terms in _point_blocks(table, x, q, sigma, k):
        value.add(terms)
        mass.add(np.abs(terms))
        size += terms.size
    if not size:
        return 0.0, 0.0
    err = 8.0 * (2.0 + k) * np.finfo(float).eps * float(mass)
    return float(value), err


# ----------------------------------------------------------------------
# Prefix-sum builders and block sweeps for vectorized scans


def prefix_m_q(
    table: ArithmeticTable, n: int, q: Modulus | int = ONE, sigma: float = 1.0
) -> np.ndarray:
    """Array P with P[k] = m_q(k; sigma) for 0 <= k <= n (float64 cumsum)."""
    return prefix_log_moment(table, n, q, sigma, 0)


def prefix_log_moment(
    table: ArithmeticTable,
    n: int,
    q: Modulus | int,
    sigma: float | tuple[float, ...],
    j: int | tuple[int, ...],
    at=None,
) -> np.ndarray | list[np.ndarray]:
    """Cumsum P with P[k] = sum over coprime i <= k of mu(i) (-log i)^j / i^sigma.

    Columns: sigma and j may each be a tuple (a scalar pairs with every
    entry); the call then returns one array per column.  Both forms read
    the one prefix loop, _prefix_runs, so every prefix is the same
    left-to-right sum as one np.cumsum over [0, n], bit for bit.

    at: sorted indices in [0, n], duplicates allowed.  Only the support (i
    with mu(i) != 0 and gcd(i, q) = 1) is evaluated and summed, each at[m]
    is read by searchsorted, and the arrays returned have len(at) entries:
    no array of length n is built.  Off the support the full cumsum adds
    +0.0 or -0.0 to a running sum that is nonzero or +0.0 (it starts at
    +0.0 and x + y is -0.0 only for two -0.0), which returns that sum
    unchanged, so each value equals P[at[m]] bit for bit.
    """
    n, q, cols = _prefix_request(table, n, q, sigma, j)
    if at is None:
        # zeros: P[0] is the empty sum
        outs = [np.zeros(n + 1) for _ in cols]
        for lo, hi, runs, _, _ in _prefix_runs(table, n, q, cols, support=False):
            for out, run in zip(outs, runs):
                out[lo:hi] = run[1:]
    else:
        pts = np.asarray(at)
        if pts.ndim != 1 or (pts.size and pts.dtype.kind not in "iu"):
            raise ValueError("at must be a one-dimensional array of integers")
        pts = pts.astype(np.int64)
        if pts.size and (pts[0] < 0 or pts[-1] > n):
            raise ValueError(f"at must lie in [0, {n}]")
        if np.any(pts[1:] < pts[:-1]):
            raise ValueError("at must be sorted")
        outs = [np.zeros(pts.size) for _ in cols]  # every at[m] = 0 reads 0.0
        stop = int(pts.max(initial=0))
        for lo, hi, runs, idx, _ in _prefix_runs(table, stop, q, cols, support=True):
            a0, a1 = np.searchsorted(pts, (lo, hi))
            reads = np.searchsorted(idx, pts[a0:a1], "right")
            for out, run in zip(outs, runs):
                out[a0:a1] = run[reads]
    return outs if isinstance(sigma, tuple) or isinstance(j, tuple) else outs[0]


def _prefix_request(table: ArithmeticTable, n, q, sigma, j):
    """(n, Modulus, columns) of a prefix request, checked: n is an integer
    (not a bool) in [0, table.limit], and the (sigma, j) columns are well
    formed (a scalar pairs with every entry of a tuple), each with a finite
    sigma and an integer j >= 0 (not a bool)."""
    n = _integer("n", n)
    if n < 0:
        raise ValueError(f"prefix length must be >= 0, got n = {n}")
    table._check_range(n)
    widths = {len(v) for v in (sigma, j) if isinstance(v, tuple)}
    if len(widths) > 1:
        raise ValueError(f"sigma and j tuples differ in length: {sigma!r}, {j!r}")
    width = widths.pop() if widths else 1
    if width == 0:
        raise ValueError("no columns requested")
    sigmas = sigma if isinstance(sigma, tuple) else (sigma,) * width
    js = j if isinstance(j, tuple) else (j,) * width
    cols = [(s, _integer("j", jj)) for s, jj in zip(sigmas, js)]
    if not all(math.isfinite(s) for s, _ in cols):
        raise ValueError(f"sigma must be finite, got {sigma!r}")
    if any(jj < 0 for _, jj in cols):
        raise ValueError(f"j must be >= 0, got {j!r}")
    return n, Modulus.coerce(q), cols


def _prefix_runs(table: ArithmeticTable, stop: int, q: Modulus, cols, support: bool):
    """The one prefix loop: (lo, hi, runs, idx, logs) for each BLOCK [lo, hi) of [1, stop].

    runs[c][0] is column c's sum carried into the block and runs[c][1:] its
    running sums after each term; each column's cumsum continues its carry,
    so every prefix is the same left-to-right sum as one np.cumsum over
    [0, stop].  With support=True the terms are those of the support only
    (i with mu(i) != 0 and gcd(i, q) = 1), idx holds those i, and
    runs[c][m + 1] is the prefix at idx[m] (see prefix_log_moment);
    otherwise idx is None.  Between blocks the loop holds only the carries.

    A block forms once its mu slice with the coprime zeroing, its log table
    logs[j] = (log i)^j up to the largest j (logs[0] = 1.0) and, per sigma,
    mu(i) i^-sigma, negated once for the odd j as (-a) b = -(a b) under
    rounding to nearest; a column is then one product and one cumsum.
    """
    carries = [0.0] * len(cols)
    j_max = max(jj for _, jj in cols)
    for lo in range(1, stop + 1, BLOCK):
        vals = _mu_block(table, lo, min(lo + BLOCK, stop + 1), q)
        hi = lo + vals.size
        if support:
            idx = np.flatnonzero(vals != 0.0)
            vals = vals[idx]
            idx += lo
            kk = idx.astype(np.float64)
        else:
            idx = None
            kk = np.arange(lo, hi, dtype=np.float64)
        logs = [1.0] + ([np.log(kk)] if j_max else [])
        logs += [logs[1] ** jj for jj in range(2, j_max + 1)]
        # (sigma, j % 2) -> (-1)^j mu(i) i^-sigma in [1:]; [0] takes a column's carry
        signed = {}
        runs = []
        for c, (s, jj) in enumerate(cols):
            if (s, 0) not in signed:
                signed[s, 0] = np.empty(kk.size + 1)
                np.power(kk, -s, out=signed[s, 0][1:])
                signed[s, 0][1:] *= vals
            if jj % 2 and (s, 1) not in signed:
                signed[s, 1] = np.negative(signed[s, 0])
            run = np.empty(kk.size + 1)
            terms = signed[s, jj % 2]
            if jj:
                np.multiply(terms[1:], logs[jj], out=run[1:])
                terms = run
            terms[0] = carries[c]
            np.cumsum(terms, out=run)
            carries[c] = run[-1]
            runs.append(run)
        yield lo, hi, runs, idx, logs


def sweep_min(n: int, margins_of, floors_of=None) -> list[tuple[float, int]]:
    """(min, argmin) over [0, n) of each array margins_of(lo, hi) returns.

    margins_of is called at most once per block [lo, hi) of at most BLOCK
    entries, in increasing order, and returns arrays of length hi - lo.  The
    result is what np.argmin gives on each concatenated array: the first
    minimum, or the first NaN if there is one.

    floors_of(lo, hi), if given, is called on each block after the first,
    before margins_of, and returns one floor per array: a float that no
    entry of that block's array lies below (so none is NaN).  When every
    floor is >= its array's best value so far, or that best is NaN, the
    block is skipped and margins_of is not called: a best value is replaced
    only by a later one strictly below it, or by the first NaN, so such a
    block cannot move any result.
    """
    if n < 1:
        raise ValueError("sweep over an empty range")
    best: list[tuple[float, int]] = []
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        if best and floors_of is not None and all(
            math.isnan(v) or f >= v
            for f, (v, _) in zip(floors_of(lo, hi), best, strict=True)
        ):
            continue
        for b, arr in enumerate(margins_of(lo, hi)):
            i = int(np.argmin(arr))
            v = arr[i]
            if b == len(best):
                best.append((v, lo + i))
            elif not math.isnan(best[b][0]) and (math.isnan(v) or v < best[b][0]):
                best[b] = (v, lo + i)
    return best


def sweep_prefix_min(
    table: ArithmeticTable, n: int, q: Modulus | int, sigma, j, margins_of, floors_of=None
) -> list[tuple[float, int]]:
    """sweep_min over [0, n) of margins_of(lo, hi, cols, logs), and floors
    floors_of(lo, hi, cols, logs) if given.

    cols[c] is column c's prefix P[lo + 1 : hi + 1], with P and the columns
    as in prefix_log_moment (a scalar sigma and j give one column), so
    entry i of a sweep reads P[i + 1], and logs is the prefix block's log
    table, logs[j] = (log X)^j at X = lo + 1 .. hi (_prefix_runs).  The
    request is checked before the first block.  The prefix block is drawn
    from _prefix_runs when sweep_min first asks for its sweep block;
    sweep_min asks for every block, skipped ones too, so the carry runs
    through, floors_of and margins_of see the same block, and the last
    block is let go before the next one is formed.
    """
    n, q, cols = _prefix_request(table, n, q, sigma, j)
    runs = _prefix_runs(table, n, q, cols, support=False)
    held = [None, None]  # lo, and (cols, logs), of the sweep block in hand

    def block(lo: int):
        if held[0] != lo:
            held[1] = None  # let the last block go before the next one is formed
            _, _, block_runs, _, logs = next(runs)
            held[:] = lo, ([run[1:] for run in block_runs], logs)
        return held[1]

    floors = None if floors_of is None else lambda lo, hi: floors_of(lo, hi, *block(lo))
    return sweep_min(n, lambda lo, hi: margins_of(lo, hi, *block(lo)), floors)


# ----------------------------------------------------------------------
# Chebyshev psi


def chebyshev_psi(table: ArithmeticTable, x: float) -> float:
    """psi(x) = sum_{n<=x} Lambda(n)."""
    n = floor_int(x)
    if n < 2:
        return 0.0
    table._check_range(n)
    return float(table.psi_prefix[table._rank(n)])
