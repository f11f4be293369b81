"""Sieve tables and restricted partial sums against independent oracles."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mobius_bounds import bounds, harmonic
from mobius_bounds.arith import (
    BLOCK,
    LIMIT_BUDGET,
    ONE,
    SEGMENT,
    Modulus,
    build_table,
    chebyshev_psi,
    log_moment_sum,
    m_check_q,
    m_check_q_s,
    m_q,
    m_q_s,
    mu_support,
    prefix_log_moment,
    prefix_m_q,
    sieve_blocks,
    support_prefix,
    sweep_min,
    sweep_prefix_min,
)
from mobius_bounds.util import (
    EPS,
    FSUM_LIST_MAX,
    CapacityError,
    ExactSum,
    _floor_array,
    block_entries,
    floor_int,
    fsum_blocks,
)


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _mu_brute(n):
    if n == 1:
        return 1
    f = _factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def test_mu_small_values(table_small):
    assert table_small.mu[:11].tolist() == [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mu_against_brute_force(table_small):
    for n in range(1, 800):
        assert table_small.mu[n] == _mu_brute(n)


def test_liouville_and_mangoldt(table_small):
    # lambda(n) = (-1)^Omega(n); Lambda(n) = log p exactly at prime powers
    mangoldt = table_small.mangoldt(0, 400)
    liouville = table_small.liouville(0, 400)
    for n in range(1, 400):
        f = _factorize(n) if n > 1 else {}
        omega = sum(f.values())
        assert liouville[n] == (-1) ** omega
        if len(f) == 1:
            p = next(iter(f))
            assert mangoldt[n] == pytest.approx(math.log(p), abs=1e-15)
        else:
            assert mangoldt[n] == 0.0


def test_mertens_values(table_small):
    assert table_small.mertens(1) == 1
    assert table_small.mertens(2) == 0
    assert table_small.mertens(10) == -1
    assert table_small.mertens(10.99) == -1
    brute = sum(_mu_brute(n) for n in range(1, 501))
    assert table_small.mertens(500) == brute


def test_m_q_exact_fractions(table_small):
    # rational oracle: sums of mu(n)/n as exact fractions
    assert m_q(table_small, 3.0) == pytest.approx(float(Fraction(1, 6)), abs=1e-16)
    assert m_q(table_small, 10.0) == pytest.approx(float(Fraction(19, 210)), abs=1e-15)
    assert m_q(table_small, 10.0, 2) == pytest.approx(float(Fraction(34, 105)), abs=1e-15)
    got = m_q(table_small, 100.0, 6)
    want = sum(
        Fraction(_mu_brute(n), n)
        for n in range(1, 101)
        if math.gcd(n, 6) == 1
    )
    assert got == pytest.approx(float(want), abs=1e-14)


def test_m_check_values(table_small):
    assert m_check_q(table_small, 10.0) == pytest.approx(0.9920964730975407, abs=1e-15)
    assert m_check_q(table_small, 11.0) == pytest.approx(1.0007197750798367, abs=1e-15)
    # log-weight consistency: mcheck(X) = log X * m(X) + sum mu(n) log(1/n)/n
    x = 137.5
    direct = m_check_q(table_small, x)
    n = int(x)
    acc = [table_small.mu[k] / k * math.log(x / k) for k in range(1, n + 1)]
    assert direct == pytest.approx(math.fsum(acc), abs=1e-13)


def test_m_q_s_complex(table_small):
    got = m_q_s(table_small, 3.0, 3, 1 + 1j)
    want = 1 - 2 ** (-1 - 1j)
    assert abs(got - want) < 1e-15
    # s = 1 reduces to the real sum
    assert m_q_s(table_small, 50.0, 1, 1.0).real == pytest.approx(
        m_q(table_small, 50.0), abs=1e-15
    )
    assert m_q_s(table_small, 50.0, 1, 1.0).imag == 0.0


def test_m_check_q_s_complex_matches_brute(table_small):
    x, s = 40.0, 1.5 + 2j
    got = m_check_q_s(table_small, x, 1, s)
    acc = sum(
        _mu_brute(n) * math.log(x / n) / n**s for n in range(1, 41)
    )
    assert abs(got - acc) < 1e-12


def test_chebyshev_psi(table_small):
    assert chebyshev_psi(table_small, 10.0) == pytest.approx(
        7.832014180505469, abs=1e-14
    )
    brute = math.fsum(
        math.log(next(iter(_factorize(n))))
        for n in range(2, 1001)
        if len(_factorize(n)) == 1
    )
    assert chebyshev_psi(table_small, 1000.0) == pytest.approx(brute, abs=1e-11)


def test_modulus_structure():
    m = Modulus(12)
    assert m.primes == (2, 3)
    assert m.q_over_phi == pytest.approx(3.0, abs=1e-15)
    mask = m.coprime_mask(10)
    assert mask.tolist() == [
        False, True, False, False, False, True, False, True, False, False, False,
    ]
    assert Modulus(1).primes == ()
    with pytest.raises(ValueError):
        Modulus(0)


def test_modulus_takes_integers_only(table_small):
    """A float or bool q is refused, not truncated to int(q); a numpy
    integer is stored as a Python int, which json.dumps accepts."""
    for q in (2.5, True, 6.0):
        with pytest.raises(TypeError):
            Modulus(q)
    with pytest.raises(TypeError):
        Modulus.coerce(2.9)
    with pytest.raises(TypeError):
        m_q(table_small, 100, 2.9)
    m = Modulus(np.int64(6))
    assert m == Modulus(6) and type(m.q) is int and m.primes == (2, 3)


def test_point_sums_refuse_non_finite_s(table_small):
    for s in (float("nan"), float("inf"), complex(1, math.inf), complex(math.nan, 1)):
        with pytest.raises(ValueError, match="s must be finite"):
            m_q_s(table_small, 10, 1, s)
        with pytest.raises(ValueError, match="s must be finite"):
            m_check_q_s(table_small, 10, 1, s)
    for s in (0.0, -1 + 2j):
        with pytest.raises(ValueError, match="Re s > 0"):
            m_q_s(table_small, 10, 1, s)
        with pytest.raises(ValueError, match="Re s > 0"):
            m_check_q_s(table_small, 0.5, 1, s)
    for sigma in (math.nan, math.inf, -math.inf):
        for x in (100, 0.5):
            with pytest.raises(ValueError, match="sigma must be finite"):
                log_moment_sum(table_small, x, 1, sigma, 1)


def test_point_sums_check_arguments_before_an_empty_range(table_small):
    """Below x = 1 the sums are zero, but q and s are checked first."""
    assert m_q(table_small, 0.5, 6) == 0.0
    assert m_q_s(table_small, 0.5, 6, 2 + 1j) == 0j
    assert m_check_q_s(table_small, 0.5, 6, 1.5) == 0j
    assert log_moment_sum(table_small, 0.5, 6, 1.5, 2) == (0.0, 0.0)
    with pytest.raises(ValueError):
        m_q(table_small, 0.5, 0)
    with pytest.raises(ValueError):
        log_moment_sum(table_small, 0.5, 0, 1.0, 1)
    for k in (1.0, True):
        with pytest.raises(TypeError, match="k must be an integer"):
            log_moment_sum(table_small, 0.5, 6, 1.5, k)


@pytest.fixture(scope="module")
def table_1e7():
    return build_table(10_000_000)


# sha256 of each array's tobytes(), captured from the sieve before it was
# rebuilt around one segment generator, when the table stored all four
TABLE_PINS = {
    "table_big": {
        "mu": "f6091ebd8653e385c9e028e53d331fd7e38302f090770521f629e8cf4837566e",
        "liouville": "3170bc19e2b42303616cec2461318d636a5faa91125972eb48d03b793b234ba3",
        "mangoldt_log": "5dd3dfad15069b078277d605723c2e3e0912f5faf0548a34964d0efcc573eb4d",
        "mertens_prefix": "fd993a63b7c5ed3f6b92fdd5cfa6958c6ef2fa54b1a574ccec4af5dba2d369d7",
    },
    "table_1e7": {
        "mu": "1f95bb925dc59b5fd3629d0430615db0876a73228766803b5f5db0e05107e7b7",
        "liouville": "b4ee902b25555fc218e8c9632bc1121cbd8e7c6b1228381825d9b685e94385da",
        "mangoldt_log": "ee4c6f448818faac4eba57da355bc2b2cf117fd4df304c01d93aaa734275a953",
        "mertens_prefix": "afd5cf036d5d99c0a2d84c1671a4804962f88599d239c6a25b3e8a89441e3e82",
    },
}


# the pinned arrays as read from a table: Lambda and lambda rebuilt dense
# through their accessors, and the Mertens prefix as the int64 cumsum of mu
PINNED_ARRAYS = {
    "mu": lambda t: t.mu,
    "liouville": lambda t: t.liouville(0, t.limit + 1),
    "mangoldt_log": lambda t: t.mangoldt(0, t.limit + 1),
    "mertens_prefix": lambda t: np.cumsum(t.mu, dtype=np.int64),
}


@pytest.mark.parametrize("fixture", sorted(TABLE_PINS))
def test_table_arrays_are_pinned(request, fixture):
    table = request.getfixturevalue(fixture)
    got = {
        name: hashlib.sha256(PINNED_ARRAYS[name](table).tobytes()).hexdigest()
        for name in TABLE_PINS[fixture]
    }
    assert got == TABLE_PINS[fixture]


def _divisor_sums(f):
    """(f∗1)(n) = Σ_{d|n} f(d) for 0 < n <= N = len(f) - 1, for f with
    values in {-1, 0, 1}: each d <= √N adds f(d) along one stride, and each
    larger d is reached through its cofactor m = n/d < √N, one slice of f
    per m.  Each partial sum at n is at most τ(n) in size, and τ(n) <= 448
    for n <= 1e7, so int16 accumulators are exact and cost less than int64."""
    n_max = len(f) - 1
    r = math.isqrt(n_max)
    out = np.zeros(n_max + 1, dtype=np.int16)
    for d in range(1, r + 1):
        out[d::d] += f[d]
    for m in range(1, n_max // (r + 1) + 1):
        top = n_max // m
        out[m * (r + 1) : m * top + 1 : m] += f[r + 1 : top + 1]
    return out


# The table against the identities that define it, entry by entry and
# exact: no hash is read, so a wrong table fails here whatever it hashes to.
def _mu_inverts_one(table):
    got = _divisor_sums(table.mu)
    assert got[1] == 1 and not got[2:].any()


def _liouville_sums_to_the_squares(table):
    n_max = table.limit
    want = np.zeros(n_max + 1, dtype=np.int16)
    want[np.arange(1, math.isqrt(n_max) + 1) ** 2] = 1
    assert np.array_equal(_divisor_sums(table.liouville(0, n_max + 1))[1:], want[1:])


def _prime_powers_multiply_out_to_n(table):
    # Π p over the prime powers p^k | n is n; every partial product divides
    # n, so int64 cannot overflow
    n_max = table.limit
    powers = table.prime_powers
    primes = np.rint(np.exp(table.prime_power_logs)).astype(np.int64)
    r = math.isqrt(n_max)
    prod = np.ones(n_max + 1, dtype=np.int64)
    small = int(np.searchsorted(powers, r, "right"))
    for pk, p in zip(powers[:small].tolist(), primes[:small].tolist()):
        prod[pk::pk] *= p
    for m in range(1, n_max // (r + 1) + 1):
        hi = int(np.searchsorted(powers, n_max // m, "right"))
        prod[m * powers[small:hi]] *= primes[small:hi]
    assert np.array_equal(prod[1:], np.arange(1, n_max + 1))


def test_mu_is_the_inverse_of_one(table_big):
    _mu_inverts_one(table_big)


def test_liouville_sums_to_the_squares(table_big):
    _liouville_sums_to_the_squares(table_big)


def test_prime_powers_multiply_out_to_n(table_big):
    _prime_powers_multiply_out_to_n(table_big)


def test_the_table_identities_hold_at_1e7(table_1e7):
    for check in (_mu_inverts_one, _liouville_sums_to_the_squares,
                  _prime_powers_multiply_out_to_n):
        check(table_1e7)


# The prefix columns against their divisor identities.  Over d and n coprime
# to q, and for real sigma, mu∗1 = [n = 1] and (mu·log)∗1 = -Lambda give
#   Σ_{d<=X} d^-sigma P_{sigma,0}(⌊X/d⌋) = 1,
#   Σ_{d<=X} d^-sigma P_{sigma,1}(⌊X/d⌋) = Σ_{n<=X} Lambda(n) n^-sigma.
# X = 2^15 ± 1 and 2^15 straddle the first block edge (blocks start at 1),
# so a prefix that loses its carry fails at X = 2^15 + 1.
@pytest.mark.parametrize("q", [1, 6])
@pytest.mark.parametrize("sigma", [1.0, 1.5])
def test_prefix_columns_satisfy_their_divisor_identities(table_big, sigma, q):
    """Each side is one exactly rounded sum, decided within 2·γ_m times
    the mass that enters the two sides, γ_m = m u/(1 - m u) with u = EPS/2
    and m = X + 64.  A prefix P(k) is a left-to-right sum of k terms, each
    of a few roundings (numpy's power and log are within a few ulp), so it
    is within γ_m of the exact sum times Σ_{i<=k} i^-sigma (log i)^j, its
    mass with |mu| <= 1 and every i kept; d^-sigma and the product take two
    more roundings, and the right side's Lambda(n) n^-sigma three.  The
    factor 2 covers the rounding of the float mass itself."""
    top = 10**6
    i = np.arange(1, top + 1)
    coprime = np.gcd(i, q) == 1
    w = i.astype(np.float64) ** -sigma
    # mass[j][k] = Σ_{i<=k} i^-sigma (log i)^j
    mass = [np.concatenate(([0.0], np.cumsum(w * np.log(i) ** j))) for j in (0, 1)]
    for X in (2**15 - 1, 2**15, 2**15 + 1, 10**5, top):
        d = i[:X][coprime[:X]][::-1]  # so that X // d rises
        at = X // d
        wd = w[d - 1]
        cols = prefix_log_moment(table_big, X, q, sigma, (0, 1), at=at)
        terms = (table_big.mangoldt(1, X + 1) * w[:X])[coprime[:X]]
        rhs = (1.0, fsum_blocks(terms))
        gamma = (X + 64) * EPS / 2 / (1.0 - (X + 64) * EPS / 2)
        for j, (col, want) in enumerate(zip(cols, rhs)):
            got = fsum_blocks(wd * col)
            radius = 2.0 * gamma * (fsum_blocks(wd * mass[j][at]) + abs(want))
            assert abs(got - want) <= radius, (X, j, got, want, radius)


def _oracle(n):
    """(mu, liouville, Lambda) of n by trial division."""
    f = _factorize(n) if n > 1 else {}
    mangoldt = math.log(next(iter(f))) if len(f) == 1 else 0.0
    return _mu_brute(n), (-1) ** sum(f.values()), mangoldt


def _dense_mangoldt(size, offsets, logs):
    """A sieve_blocks segment's sparse Lambda as a dense float64 array of
    length size, after checking the layout: int64 offsets in [0, size) that
    strictly increase, and one positive float64 log per offset."""
    assert offsets.dtype == np.int64 and logs.dtype == np.float64
    assert offsets.shape == logs.shape and np.all(logs > 0.0)
    assert np.all(np.diff(offsets) > 0)
    assert offsets.size == 0 or 0 <= offsets[0] <= offsets[-1] < size
    out = np.zeros(size)
    out[offsets] = logs
    return out


def _assert_oracle(ns, mu, liouville, mangoldt):
    for n, m, lam, lg in zip(ns, mu.tolist(), liouville.tolist(), mangoldt.tolist()):
        want_mu, want_lam, want_lg = _oracle(n)
        assert (m, lam) == (want_mu, want_lam), n
        assert lg == pytest.approx(want_lg, rel=EPS, abs=0.0), n


def test_sieve_edges_against_trial_division():
    """At the segment edges, at the limit, at every limit up to 64 (among
    them those whose base is empty or {2}, so the large prime factor may be
    2 or 3), around
    2^27 and 3*2^25 (the most base prime factors, 27 and 26, below
    LIMIT_BUDGET, so the longest int32 products) and over the last entries
    up to LIMIT_BUDGET (the largest products, nearest 2^31)."""
    limit = 3 * SEGMENT + 5
    table = build_table(limit)
    for edge in (1, SEGMENT + 1, 2 * SEGMENT + 1, 3 * SEGMENT + 1, limit):
        ns = range(max(edge - 40, 1), min(edge + 41, limit + 1))
        sl = slice(ns.start, ns.stop)
        _assert_oracle(ns, table.mu[sl], table.liouville(ns.start, ns.stop),
                       table.mangoldt(ns.start, ns.stop))
    for limit in range(1, 65):
        table = build_table(limit)
        ns = range(1, limit + 1)
        _assert_oracle(ns, table.mu[1:], table.liouville(1, limit + 1),
                       table.mangoldt(1, limit + 1))
        assert table.mertens(limit) == sum(_mu_brute(n) for n in ns)
    for lo, hi in ((2**27 - 40, 2**27 + 41), (3 * 2**25 - 40, 3 * 2**25 + 41),
                   (LIMIT_BUDGET - 200, LIMIT_BUDGET + 1)):
        (start, mu, liouville, offsets, logs), = sieve_blocks(lo, hi)
        assert start == lo
        _assert_oracle(range(lo, hi), mu, liouville,
                       _dense_mangoldt(hi - lo, offsets, logs))


def test_sieve_blocks_from_unaligned_start_equal_table_slices(table_big):
    lo, hi = 123_457, table_big.limit + 1
    blocks = [(start, mu, liouville, _dense_mangoldt(mu.size, offsets, logs))
              for start, mu, liouville, offsets, logs in sieve_blocks(lo, hi)]
    assert [b[0] for b in blocks] == list(range(lo, hi, SEGMENT))
    slices = (table_big.mu[lo:hi], table_big.liouville(lo, hi), table_big.mangoldt(lo, hi))
    for i, want in enumerate(slices, start=1):
        got = np.concatenate([b[i] for b in blocks])
        assert got.tobytes() == want.tobytes(), i


def test_liouville_is_sieved_again_on_each_read(table_small):
    """table.liouville(lo, hi) is a fresh, writable int8 array, read from no
    table array; lambda(0) = 0, and the range is checked like mangoldt's."""
    limit = table_small.limit
    assert table_small.liouville(0, 1).tolist() == [0]
    assert table_small.liouville(0, 11).tolist() == [0, 1, -1, -1, 1, -1, 1, -1, -1, 1, 1]
    for lo in (0, 1, 7, limit + 1):
        empty = table_small.liouville(lo, lo)
        assert empty.dtype == np.int8 and empty.size == 0
    whole = table_small.liouville(0, limit + 1)
    assert whole.dtype == np.int8 and whole.flags.writeable and whole.flags.owndata
    assert not any(np.shares_memory(whole, a) for a in vars(table_small).values()
                   if isinstance(a, np.ndarray))
    whole[:] = 5  # the next read is sieved again, not this array
    assert table_small.liouville(9_990, limit + 1).tolist() == [
        _oracle(n)[1] for n in range(9_990, limit + 1)
    ]
    with pytest.raises(CapacityError):
        table_small.liouville(0, limit + 2)
    with pytest.raises(CapacityError):
        table_small.liouville(limit + 2, limit + 2)
    for lo, hi in ((5, 4), (-1, 3), (-2, -2)):
        with pytest.raises(ValueError):
            table_small.liouville(lo, hi)


def test_table_holds_mu_and_the_prime_powers_only():
    table = build_table(1000)

    def arrays():
        return {k for k, v in vars(table).items() if isinstance(v, np.ndarray)}

    assert arrays() == {"mu", "prime_powers", "prime_power_logs"}
    table.psi_prefix  # noqa: B018 -- built here, on first use
    assert arrays() == {"mu", "prime_powers", "prime_power_logs", "_psi_prefix"}


def test_capacity_guards(table_small):
    with pytest.raises(CapacityError):
        build_table(0)
    with pytest.raises(CapacityError):
        build_table(10**10)
    with pytest.raises(CapacityError):
        m_q(table_small, 2e4)


def test_sieve_takes_integers_only():
    for bad in (1e3, 1000.0, True, np.bool_(True), "1000", None):
        with pytest.raises(TypeError, match="limit"):
            build_table(bad)
    assert build_table(np.int64(30)).limit == 30
    assert type(build_table(np.int64(30)).limit) is int
    # checked on the call, before a segment is sieved
    with pytest.raises(TypeError, match="lo"):
        sieve_blocks(1.0, 10)
    with pytest.raises(TypeError, match="hi"):
        sieve_blocks(1, False)
    for lo, hi in ((0, 10), (-5, 10), (10, 10), (10, 9)):
        with pytest.raises(ValueError):
            sieve_blocks(lo, hi)
    with pytest.raises(CapacityError):
        sieve_blocks(1, LIMIT_BUDGET + 2)
    start, mu, *_ = next(sieve_blocks(np.int32(1), np.int64(5)))
    assert start == 1 and mu.tolist() == [1, -1, -1, 0]


# A segment's working set: its dense output (mu and lambda, 2 bytes per
# entry) plus the int32 products and the squarefree flags, with one BLOCK
# of the int32 n they are compared with and of bool temporaries at a time;
# 7.8 bytes per entry (3.9 MiB) measured at SEGMENT = 2^19, as the peak
# above the table held after build_table(4 * SEGMENT), and 7.3 after
# build_table(1e6).  The pin was 13 while the comparison read a whole
# segment of int32 n (11.2 and 11.3 measured then); such an array put back
# fails the 1e7 copy-out test below at 11, and a dense float64 segment
# array (20.1 bytes per entry while the sieve kept a dense Lambda) fails
# the first two.
SEGMENT_WORKING_SET = 11 * SEGMENT

# A table holds mu (1 byte per entry) and 12 bytes per prime power (7.9% of
# entries at 1e6): 1.95 bytes per entry measured at 1e6, 1.90 at 4 * 2^19
# (2.26 and 2.19 with int64 prime powers, under a pin of 3).  Any dense
# array added back, even an int8 one, would exceed it.
TABLE_BYTES_PER_ENTRY = 2.5


def test_build_table_holds_no_full_length_temporaries():
    """Peak traced memory of build_table is its table (at most
    TABLE_BYTES_PER_ENTRY per entry) plus one segment's working set; one
    int64 array over the table (32 MiB here) would exceed it."""
    n = 4 * SEGMENT
    assert 8 * (n + 1) > SEGMENT_WORKING_SET
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = build_table(n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert table.limit == n
    bound = TABLE_BYTES_PER_ENTRY * (n + 1) + SEGMENT_WORKING_SET
    assert peak <= bound, peak - bound


def test_build_table_peak_is_the_table_and_one_segment():
    """build_table(1e6) peaks at its table plus one segment's working set
    (5.3 MiB traced at SEGMENT = 2^19; 12.3 MiB, and 21.6 MiB at 2^20,
    while the segment's tail went whole and the prime powers were int64)."""
    n = 10**6
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build_table(n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    bound = TABLE_BYTES_PER_ENTRY * (n + 1) + SEGMENT_WORKING_SET
    assert peak <= bound, peak - bound


def test_build_table_copies_out_one_prime_power_array_at_a_time():
    """Past its segment loop (mu, the per-segment pieces at 12 bytes per
    prime power, one segment's working set), build_table(1e7) holds at most
    mu, the pieces and one 8-byte output at once: 23.3 MB traced (24.4 MB
    with an int64 copy of the prime powers), where concatenating both
    outputs while the pieces were held peaked at mu plus 24 bytes per prime
    power (26.0 MB)."""
    n = 10**7
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = build_table(n)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    count = table.prime_powers.size
    bound = (n + 1) + max(12 * count + SEGMENT_WORKING_SET, 20 * count)
    assert peak <= bound, peak - bound


def test_table_keeps_no_dense_eight_byte_array():
    """After build_table(1e6) returns, the table holds at most
    TABLE_BYTES_PER_ENTRY per entry, and the first read of psi_prefix adds
    at most 1 byte per entry (it holds psi at the prime powers only)."""
    n = 10**6
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table = build_table(n)
        held = tracemalloc.get_traced_memory()[0] - start
        table.psi_prefix  # noqa: B018 -- built here, on first use
        psi = tracemalloc.get_traced_memory()[0] - start - held
    finally:
        tracemalloc.stop()
    assert held <= TABLE_BYTES_PER_ENTRY * (n + 1), held / (n + 1)
    assert psi <= n + 1, psi / (n + 1)


def test_prime_power_reads_copy_no_array(table_1e7):
    """The int32 prime powers are searched with int32 keys: a key of another
    dtype (np.searchsorted(powers, 10**7)) converts the whole array first,
    5.3 MB here.  Each read below allocates a few bytes, or its own slice."""
    table = table_1e7
    top = table.limit
    table.psi_prefix  # noqa: B018 -- built on first use, before the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for n in (0, 5, 383_923, top):
            table.prime_powers_upto(n)
            chebyshev_psi(table, float(n))
        table.mangoldt(top - 64, top + 1)
        table.mangoldt(0, 0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert table.prime_powers.dtype == np.int32
    assert peak < 64 * 1024, peak


@pytest.fixture(scope="module")
def dense_big(table_big):
    """Dense references for table_big, built from sieve_blocks and np.cumsum
    as the table stored them before it kept Lambda at the prime powers only:
    (Lambda, the int64 Mertens prefix, psi)."""
    n = table_big.limit + 1
    mu = np.zeros(n, dtype=np.int8)
    mangoldt = np.zeros(n)
    for start, seg_mu, _, offsets, logs in sieve_blocks(1, n):
        mu[start : start + seg_mu.size] = seg_mu
        mangoldt[start : start + seg_mu.size] = _dense_mangoldt(seg_mu.size, offsets, logs)
    return mangoldt, np.cumsum(mu, dtype=np.int64), np.cumsum(mangoldt)


def test_lean_table_reads_equal_the_dense_arrays(table_big, dense_big):
    mangoldt, mertens, psi = dense_big
    limit = table_big.limit
    assert table_big.mangoldt(0, limit + 1).tobytes() == mangoldt.tobytes()
    for lo, hi in ((0, 0), (2, 2), (1, 2), (4, 5), (6, 7), (999_983, limit + 1),
                   (BLOCK - 3, BLOCK + 4), (123_457, 654_321)):
        assert table_big.mangoldt(lo, hi).tobytes() == mangoldt[lo:hi].tobytes()
    powers = [n for n in range(2, 1000) if len(_factorize(n)) == 1]
    rng = np.random.default_rng(1)
    ns = {0, 1, 2, 3, limit, *(p + d for p in powers for d in (-1, 0, 1)),
          *rng.integers(0, limit + 1, 1000).tolist()}
    for n in sorted(ns):
        assert table_big.mertens(n) == mertens[n], n
        assert chebyshev_psi(table_big, n) == psi[n], n
    with pytest.raises(CapacityError):
        table_big.mangoldt(0, limit + 2)
    with pytest.raises(ValueError):
        table_big.mangoldt(5, 4)


@pytest.mark.parametrize("slope", [harmonic.LOG3, 1.0, 1.04])
def test_hanson_scan_at_prime_powers_equals_the_dense_sweep(
    monkeypatch, table_big, dense_big, slope
):
    """hanson_scan evaluates X = 1 and the prime powers only; its (min,
    argmin) is the dense sweep's over every integer, also at slopes 1 and
    1.04, whose minima lie past X = 1."""
    psi = dense_big[2]
    monkeypatch.setattr(harmonic, "LOG3", slope)
    for n in (1, 2, 3, table_big.limit):
        margins = np.arange(1, n + 1, dtype=np.float64) * slope - psi[1 : n + 1]
        i = int(np.argmin(margins))
        assert harmonic.hanson_scan(table_big, n) == (margins[i], i + 1), n
    with pytest.raises(ValueError):
        harmonic.hanson_scan(table_big, 0)
    for n_max in (2.5, True):
        with pytest.raises(TypeError, match="n_max must be an integer"):
            harmonic.hanson_scan(table_big, n_max)


# float.hex of (lambda_harmonic_sum, kernel_identity_check psi and
# indicator_test, psi_alpha_integral) on the 1e6 table, captured while the
# table still stored Lambda and psi as dense arrays
HARMONIC_AT = {
    1.0: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    2.0: ("0x1.62e42fefa39efp-2", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    10.0: ("0x1.b1d4a021ee33cp+0", "0x0.0p+0", "0x0.0p+0", "0x1.159cfba08be3fp-4"),
    1e3: ("0x1.950a437a77a85p+2", "0x0.0p+0", "0x0.0p+0", "0x1.3d86d04f3e243p-4"),
    1e5: ("0x1.5df5dc0cfeed8p+3", "0x0.0p+0", "0x0.0p+0", "0x1.3c33442a84f80p-4"),
}


@pytest.mark.parametrize("X", sorted(HARMONIC_AT))
def test_prime_power_sums_equal_the_dense_sums(table_big, X):
    got = (
        harmonic.lambda_harmonic_sum(table_big, X),
        harmonic.kernel_identity_check(table_big, X, "psi"),
        harmonic.kernel_identity_check(table_big, X, "indicator_test"),
        harmonic.psi_alpha_integral(table_big, X),
    )
    assert tuple(v.hex() for v in got) == HARMONIC_AT[X]



def _sweep_reference(arrays):
    """np.argmin on each whole array, as (value, index)."""
    return [(arr[int(np.argmin(arr))], int(np.argmin(arr))) for arr in arrays]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_sweep_min_matches_argmin_across_block_edges(n):
    rng = np.random.default_rng(n)
    plain = rng.standard_normal(n)
    ties = rng.uniform(1.0, 2.0, n)  # equal minima on both sides of an edge
    ties[[max(n - 2, 0), n - 1, min(BLOCK - 1, n - 1), min(BLOCK, n - 1)]] = 0.5
    zeros = rng.uniform(1.0, 2.0, n)  # -0.0 first, then 0.0 in a later block
    zeros[n // 3] = -0.0
    zeros[n - 1] = 0.0
    flipped = np.where(zeros == 0.0, -zeros, zeros)  # 0.0 first, then -0.0
    nans = rng.uniform(1.0, 2.0, n)  # finite minimum early, NaN later
    nans[0] = -5.0
    nans[n - 1] = math.nan
    nans[max(n - 2, 0)] = math.nan
    arrays = (plain, ties, zeros, flipped, nans)
    blocks = []

    def margins_of(lo, hi):
        blocks.append((lo, hi))
        return [arr[lo:hi].copy() for arr in arrays]

    got = sweep_min(n, margins_of)
    assert repr(got) == repr(_sweep_reference(arrays))
    assert blocks == [(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def test_sweep_min_rejects_empty_range():
    with pytest.raises(ValueError):
        sweep_min(0, lambda lo, hi: ())


def _floor_arrays():
    """Five blocks of margins, each array with its first minimum placed."""
    n = 4 * BLOCK + 3
    rng = np.random.default_rng(24)
    early, tie, late, nans, zeros = (rng.uniform(1.0, 2.0, n) for _ in range(5))
    early[5] = 0.25  # never beaten
    tie[[7, 2 * BLOCK + 1, n - 1]] = 0.5  # equal minima in blocks 2 and 4
    late[0] = 0.75
    late[[3 * BLOCK + 9, 3 * BLOCK + 10]] = 0.0  # a new minimum in block 3
    nans[0] = 0.9
    nans[BLOCK + 4] = math.nan  # the NaN in block 1 holds
    nans[3 * BLOCK] = -1.0
    zeros[3] = -0.0
    zeros[2 * BLOCK + 5] = 0.0  # compares equal to -0.0
    return early, tie, late, nans, zeros


@pytest.mark.parametrize("loose", [False, True])
def test_sweep_min_with_floors_matches_the_sweep_without(loose):
    """Floors that are each block's least entry (one ulp below it when
    loose) skip exactly the blocks whose every floor reaches the best so
    far, or whose best is NaN; the results are those without floors."""
    arrays = _floor_arrays()
    n = arrays[0].size
    margin_calls, floor_calls = [], []

    def margins_of(lo, hi):
        margin_calls.append(lo)
        return [arr[lo:hi].copy() for arr in arrays]

    def floors_of(lo, hi):
        floor_calls.append(lo)
        floors = [-math.inf if np.isnan(a[lo:hi]).any() else a[lo:hi].min() for a in arrays]
        return [np.nextafter(f, -math.inf) if loose else f for f in floors]

    got = sweep_min(n, margins_of, floors_of)
    assert repr(got) == repr(_sweep_reference(arrays))
    starts = list(range(0, n, BLOCK))
    assert floor_calls == starts[1:]
    # block 1 holds the NaN and block 3 the new minimum of `late`; with exact
    # floors blocks 2 and 4 only tie (0.5, and 0.0 against -0.0) and are
    # skipped, one ulp lower they are not
    assert margin_calls == (starts if loose else [0, BLOCK, 3 * BLOCK])


def test_sweep_min_counts_one_floor_per_array():
    arrays = _floor_arrays()
    with pytest.raises(ValueError):
        sweep_min(arrays[0].size, lambda lo, hi: [a[lo:hi] for a in arrays],
                  lambda lo, hi: [math.inf] * (len(arrays) - 1))


def test_sweep_prefix_min_with_floors_draws_every_block(table_mid):
    """A skipped block still draws its prefix block, so the carry runs on;
    floors and margins see the same cols."""
    n = 3 * BLOCK + 5
    seen = {}

    def margins(lo, hi, cols, logs):
        seen.setdefault(lo, []).append(("margins", id(cols[0])))
        return [cols[0] - np.arange(lo, hi)]

    def floors(lo, hi, cols, logs):
        seen.setdefault(lo, []).append(("floors", id(cols[0])))
        return [math.inf if lo < 2 * BLOCK else -math.inf]

    p = prefix_m_q(table_mid, n, 6)
    arr = p[1:] - np.arange(n)
    want = min((arr[:BLOCK].min(), int(np.argmin(arr[:BLOCK]))),
               (arr[2 * BLOCK :].min(), 2 * BLOCK + int(np.argmin(arr[2 * BLOCK :]))),
               key=lambda t: (t[0], t[1]))
    got = sweep_prefix_min(table_mid, n, 6, 1.0, 0, margins, floors)
    assert got == [want]
    assert [kinds[0][0] for kinds in seen.values()] == ["margins", "floors", "floors", "floors"]
    assert [len(kinds) for kinds in seen.values()] == [1, 1, 2, 2]
    assert all(len({i for _, i in kinds}) == 1 for kinds in seen.values())


def _gamma(k):
    u = EPS / 2.0
    return k * u / (1.0 - k * u)


@pytest.mark.parametrize("q,sigma", [(1, 1.0), (1, 1.5), (30030, 1.0), (30030, 1.5)])
def test_third_log_moment_within_summation_bound(table_mid, q, sigma):
    """The j = 3 prefix forms -(log^3 k), not numpy's pow on -log k; both
    it and the old form stay within the recursive-summation bound."""
    n = 100_000
    got = prefix_log_moment(table_mid, n, q, sigma, 3)
    kk = np.arange(n + 1, dtype=np.float64)
    kk[0] = 1.0
    mu = table_mid.mu[: n + 1].astype(np.float64)
    mu[~Modulus.coerce(q).coprime_mask(n)] = 0.0
    base = mu * kk ** (-sigma)
    logs = np.log(kk)
    terms = base * -(logs**3)
    old = np.cumsum(base * (-logs) ** 3)
    for k in [*range(BLOCK, n + 1, BLOCK), n]:
        mass = math.fsum(np.abs(terms[: k + 1]).tolist())
        exact = math.fsum(terms[: k + 1].tolist())
        assert abs(got[k] - exact) <= _gamma(k) * mass, k
        assert abs(got[k] - old[k]) <= (2.0 * _gamma(k) + 2.0 * EPS) * mass, k


# (sigma, j) pairs a fused call draws its columns from, one sigma per call
KERNEL_COLUMNS = [(s, j) for s in (1.0, 1.01, 1.5, 2.0) for j in range(4)]


def _one_cumsum(table, n, q, sigma, j):
    """The prefix as one np.cumsum over [0, n] of the terms, term 0 = 0.0."""
    kk = np.arange(n + 1, dtype=np.float64)
    kk[0] = 1.0
    vals = table.mu[: n + 1].astype(np.float64)
    vals[~Modulus.coerce(q).coprime_mask(n)] = 0.0
    vals *= kk ** (-sigma)
    if j:
        vals *= (-1) ** j * np.log(kk) ** j
    vals[0] = 0.0  # not -0.0: P[0] is the empty sum
    return np.cumsum(vals)


@pytest.mark.parametrize("q", [1, 2, 30030])
@pytest.mark.parametrize("n", [0, 1, 16, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_fused_and_sampled_prefixes_are_bit_identical(table_mid, q, n):
    """Columns of one fused call at each sigma, and reads at sampled
    indices, equal the single-column arrays and one plain cumsum byte for
    byte."""
    rng = np.random.default_rng([q, n])
    edges = [e for e in (0, 1, n, n, BLOCK, BLOCK + 1) if e <= n]
    at = np.sort(np.concatenate([edges, rng.integers(0, n + 1, 40)]))
    for sigma in dict.fromkeys(s for s, _ in KERNEL_COLUMNS):
        choices = [j for s, j in KERNEL_COLUMNS if s == sigma]
        js = tuple(int(j) for j in rng.choice(choices, size=6))  # repeats allowed
        singles = [prefix_log_moment(table_mid, n, q, sigma, j) for j in js]
        fused = prefix_log_moment(table_mid, n, q, sigma, js)
        sampled = prefix_log_moment(table_mid, n, q, sigma, js, at=at)
        assert len(fused) == len(sampled) == len(js)
        for j, single, whole, part in zip(js, singles, fused, sampled):
            assert single.tobytes() == _one_cumsum(table_mid, n, q, sigma, j).tobytes()
            assert whole.tobytes() == single.tobytes(), (sigma, j)
            assert part.tobytes() == single[at].tobytes(), (sigma, j)


def test_prefix_requests_take_one_sigma(table_small):
    """A tuple of sigma is refused by the dense read, the at= read and
    sweep_prefix_min alike, before any block."""

    def no_margin(lo, hi, cols, logs):
        raise AssertionError("a margin was formed")

    for sigma, j in (((1.0,), 0), ((1.0, 1.5), 0), ((1.0, 1.5), (0, 1)), ((1.0, 1.0), (0, 1))):
        for at in (None, [5, 50]):
            with pytest.raises(ValueError, match="one float per request"):
                prefix_log_moment(table_small, 100, 1, sigma, j, at=at)
        with pytest.raises(ValueError, match="one float per request"):
            sweep_prefix_min(table_small, 100, 1, sigma, j, no_margin)


def test_prefix_kernel_rejects_bad_requests(table_small):
    n = 100
    for at in ([3, 2], [-1, 5], [0, n + 1], [[1, 2]], [0.0, 1.0]):
        with pytest.raises(ValueError):
            prefix_log_moment(table_small, n, 1, 1.0, 0, at=np.array(at))
    for sigma, j in (((1.0, 1.5), (0, 1, 2)), ((), ()), (1.0, ()), (math.nan, 0),
                     ((1.0, math.inf), (0, 1)), (-math.inf, 2)):
        with pytest.raises(ValueError):
            prefix_log_moment(table_small, n, 1, sigma, j)
    with pytest.raises(ValueError, match="sigma must be finite"):
        prefix_log_moment(table_small, n, 6, (1.0, math.nan), 0, at=[5, 50])
    # j is an integer >= 0 (not a bool), in the dense and the at= reads alike
    for at in (None, [5, 50]):
        for sigma, j in ((1.0, -1), (1.5, (0, -2))):
            with pytest.raises(ValueError, match="j must be >= 0"):
                prefix_log_moment(table_small, n, 1, sigma, j, at=at)
        for sigma, j in ((1.0, 1.5), (1.0, True), (1.5, (1, 2.0)), (1.0, (0, False))):
            with pytest.raises(TypeError, match="j must be an integer"):
                prefix_log_moment(table_small, n, 1, sigma, j, at=at)
    assert prefix_log_moment(table_small, n, 1, 1.0, 0, at=[]).size == 0
    # support_prefix, the one sampled read, checks at as prefix_log_moment's
    # at= did, for any columns: unsorted, past n or not integers all raise
    for at in ([3, 2], [-1, 5], [0, n + 1], [[1, 2]], [0.0, 1.0], [5, 50], [50, 5]):
        with pytest.raises(ValueError):
            support_prefix(table_small, 10 if 50 in at else n, ONE, np.array(at), _w_column)
    assert [c.size for c in support_prefix(table_small, n, ONE, [], _w_column)] == [0]
    zeros = support_prefix(table_small, n, ONE, [0, 0, 1], _w_column)[0]
    assert zeros.tolist() == [0.0, 0.0, 1.0]


def _w_column(k, mu):
    """One support_prefix column: w = mu(k)/k, so it reads m_q."""
    return [mu / k]


@pytest.mark.parametrize("eps", [0.0, 0.25])
@pytest.mark.parametrize("q", [1, 6, 65537])
def test_support_prefix_reads_one_cumsum_over_the_support(table_mid, q, eps):
    """support_prefix's reads at sorted indices, with duplicates, equal one
    np.cumsum over the whole support of the same columns, read at the same
    indices (0.0 where no k <= at[m]), bit for bit.  The columns are
    mqeps_scan's: the defect kernel's terms and w = mu(k)/k.  The indices
    take each side of the block edges, the table top and a draw of 60; the
    prime q = 65537 = 2 BLOCK + 1 removes the first entry of the third
    block, so the reads from 2 BLOCK + 1 on start from the carry."""
    from mobius_bounds.delta_sign import kernel_terms

    qm, n = Modulus(q), table_mid.limit

    def columns(k, mu):
        w = mu / k
        return kernel_terms(eps, 0.0, w, np.log(k)), w

    k, _ = mu_support(table_mid, n, qm)
    if q == 2 * BLOCK + 1:
        assert table_mid.mu[q] != 0 and k[np.searchsorted(k, q)] > q
    edges = [0, 1, 2, n - 1, n] + [m * BLOCK + d for m in (1, 2, 3) for d in (-1, 0, 1, 2)]
    rng = np.random.default_rng(q)
    for top in (n, 2 * BLOCK + 5):
        at = np.sort(np.concatenate([edges, edges, rng.integers(0, n + 1, 60)]))
        at = at[at <= top]
        got = support_prefix(table_mid, n, qm, at, columns)
        reads = np.searchsorted(k, at, "right")  # the support entries <= at[m]
        for col, terms in zip(got, columns(k, table_mid.mu[k].astype(np.float64))):
            want = np.concatenate(([0.0], np.cumsum(terms)))[reads]
            assert col.tobytes() == want.tobytes(), (q, eps, top)


# tuple and scalar column requests, one sigma each: (sigma, j)
BLOCK_REQUESTS = [
    (1.01, (0, 1, 2, 3)),
    (1.2, (0, 3)),
    (2.0, (0, 1, 0)),
    (1.5, 2),
]


def _swept_blocks(table, n, q, sigma, j):
    """(lo, hi, cols) of each block that sweep_prefix_min hands its margins."""
    blocks = []

    def margins(lo, hi, cols, logs):
        blocks.append((lo, hi, cols))
        return [np.zeros(hi - lo)]

    sweep_prefix_min(table, n, q, sigma, j, margins)
    return blocks


@pytest.mark.parametrize("q", [1, 2, 30030])
@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_prefix_blocks_concatenate_to_the_dense_prefix(table_mid, q, n):
    """The prefix blocks a sweep of [0, n) draws tile it in order, and each
    column, joined across them, equals the dense prefix P[1:] and one plain
    cumsum byte for byte."""
    for sigma, j in BLOCK_REQUESTS:
        blocks = _swept_blocks(table_mid, n, q, sigma, j)
        assert [b[:2] for b in blocks] == [(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]
        dense = prefix_log_moment(table_mid, n, q, sigma, j)
        dense = dense if isinstance(dense, list) else [dense]
        js = j if isinstance(j, tuple) else (j,)
        assert all(len(cols) == len(dense) for _, _, cols in blocks)
        for c, (want, jj) in enumerate(zip(dense, js)):
            got = np.concatenate([cols[c] for _, _, cols in blocks])
            assert got.tobytes() == want[1:].tobytes(), (sigma, j, c)
            assert got.tobytes() == _one_cumsum(table_mid, n, q, sigma, jj)[1:].tobytes()
    with pytest.raises(ValueError):
        _swept_blocks(table_mid, 0, q, 1.0, 0)  # an empty sweep


def test_prefix_blocks_check_on_the_call(table_small):
    """A bad prefix request raises from sweep_prefix_min before any margin."""
    n = table_small.limit
    bad = [
        (CapacityError, (n + 1, 1, 1.0, 0)),
        (ValueError, (-1, 1, 1.0, 0)),
        (TypeError, (100.0, 1, 1.0, 0)),
        (TypeError, (True, 1, 1.0, 0)),
        (ValueError, (100, 1, (1.0, 1.5), (0, 1, 2))),
        (ValueError, (100, 1, (), ())),
        (ValueError, (100, 1, 1.0, ())),
        (ValueError, (100, 1, math.nan, 0)),
        (ValueError, (100, 1, (1.0, math.inf), (0, 1))),
        (ValueError, (100, 1, 1.0, -1)),
        (ValueError, (100, 1, 1.5, (2, -1))),
    ]

    def no_margin(lo, hi, cols, logs):
        raise AssertionError("a margin was formed")

    for err, args in bad:
        with pytest.raises(err):
            sweep_prefix_min(table_small, *args, no_margin)
    for sigma, j in ((1.0, 1.5), (1.0, True), (1.5, (0, 1.0))):
        with pytest.raises(TypeError, match="j must be an integer"):
            sweep_prefix_min(table_small, 100, 1, sigma, j, no_margin)


@pytest.mark.parametrize("sigma,j", [(1.2, (0, 1, 2, 3)), (2.0, (3, 0)), (1.5, 0)])
def test_sweeps_get_the_blocks_log_table(table_mid, sigma, j):
    """Each block's logs hold (log X)^j at X = lo + 1 .. hi for j up to the
    largest j asked, formed as np.log of the float64 X and its ** j; the
    table is [1.0] when every j is 0."""
    n = 2 * BLOCK + 9
    seen = []

    def margins(lo, hi, cols, logs):
        seen.append(lo)
        lx = np.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
        assert len(logs) == max(j if isinstance(j, tuple) else (j,)) + 1
        assert logs[0] == 1.0
        for jj, power in enumerate(logs[1:], 1):
            assert power.tobytes() == (lx if jj == 1 else lx**jj).tobytes(), (lo, jj)
        return [np.zeros(hi - lo)]

    sweep_prefix_min(table_mid, n, 6, sigma, j, margins)
    assert seen == [0, BLOCK, 2 * BLOCK]


def test_sweep_prefix_min_pairs_blocks_or_raises(table_mid):
    """Sweep entry i reads P[i + 1]."""
    n = 2 * BLOCK
    p = prefix_m_q(table_mid, n + 1, 6)

    def margins(lo, hi, cols, logs):
        return [cols[0] - np.arange(lo, hi)]

    want = sweep_min(n, lambda lo, hi: [p[lo + 1 : hi + 1] - np.arange(lo, hi)])
    assert sweep_prefix_min(table_mid, n, 6, 1.0, 0, margins) == want


def test_prefix_sweeps_hold_no_full_length_temporaries(table_big):
    """Peak traced memory of each sweep at n = 1e6 stays within the full
    arrays it keeps, plus half of one."""
    n = 1_000_000
    table_big.psi_prefix  # noqa: B018 -- the cached psi is read, not built
    samples = np.arange(0, n + 1, 997)
    calls = [
        (1, lambda: prefix_m_q(table_big, n, 6, 1.2)),
        (1, lambda: prefix_log_moment(table_big, n, 6, 1.2, 3)),
        (0, lambda: bounds.small_m_scan(table_big, n, 2)),
        (0, lambda: bounds.easy_scan(table_big, n, 6, 3, 1.2)),
        (0, lambda: bounds.special_scan(table_big, n, 1.01)),
        (0, lambda: bounds.mqeps_scan(table_big, n, 6, 0.5)),
        (0, lambda: bounds.mcheckqeps_scan(table_big, n, 6, 0.05)),
        (0, lambda: prefix_log_moment(table_big, n, 6, 1.2, (0, 3), at=samples)),
        (0, lambda: harmonic.hanson_scan(table_big, n)),
        (0, lambda: harmonic.verify_harmonic(table_big, float(n))),
        (0, lambda: harmonic.neg_alpha_integral(n)),
    ]
    tracemalloc.start()
    try:
        for i, (kept, call) in enumerate(calls):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
            assert peak <= (kept + 0.5) * 8 * (n + 1), (i, peak / (8 * (n + 1)))
    finally:
        tracemalloc.stop()


def _fsum_outcome(call):
    """float.hex of call(), or the type and message of what it raised."""
    try:
        return call().hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _one_list(arrays):
    return math.fsum(np.concatenate(arrays).tolist())


# both sides of the list/extraction crossover C of fsum_blocks and ExactSum:
# one array of C - 1, C or C + 1 entries, and two of C // 2 each
C = FSUM_LIST_MAX
FSUM_LENGTHS = (0, 1, C // 2, C - 1, C, C + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


def _fsum_cases():
    rng = np.random.default_rng(15)
    for n in FSUM_LENGTHS:
        yield [rng.standard_normal(n)]
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        yield [z.real, z.imag]  # strided views
        a = rng.uniform(-1.0, 1.0, 3 * n + 2)
        yield [a[::3], a[1::3][::-1], np.zeros(1)]
    # 1e-300 .. 1e300, cancelling exactly across slice and array edges: the
    # sum is that of the small tail alone
    size = 2 * BLOCK + 5
    big = rng.uniform(1.0, 2.0, size) * 10.0 ** rng.uniform(-300, 300, size)
    big[::2] *= -1.0
    tail = rng.uniform(-1e-300, 1e-300, 9)
    yield [big, -big[rng.permutation(big.size)], tail]
    yield [big[: BLOCK + 1], tail, -big[: BLOCK + 1]]
    yield [np.full(BLOCK + 3, -0.0)]
    yield [np.full(2, -0.0), np.full(BLOCK, -0.0)]
    # infinities and intermediate overflow across a slice edge
    inf = np.zeros(BLOCK + 5)
    inf[3], inf[BLOCK + 2] = np.inf, -np.inf
    yield [inf]
    yield [np.array([np.inf, 1.0]), np.array([-np.inf])]
    yield [np.array([np.inf]), np.zeros(BLOCK), np.array([np.inf])]
    yield [np.array([np.inf]), np.zeros(BLOCK), np.array([-np.inf])]
    yield [np.array([1e308, 1e308])]
    over = np.zeros(BLOCK + 1)
    over[0], over[BLOCK] = 1e308, 1e308
    yield [over]
    yield [np.array([1e308]), np.zeros(2 * BLOCK), np.array([1e308])]
    for n in (C, C + 1):  # on either side of the crossover
        over, inf = np.zeros(n), np.zeros(n)
        over[0], over[-1] = 1e308, 1e308
        inf[0], inf[-1] = np.inf, -np.inf
        yield [over]
        yield [inf]


@pytest.mark.parametrize("arrays", list(_fsum_cases()))
def test_fsum_blocks_equals_one_fsum_of_the_concatenation(arrays):
    want = _fsum_outcome(lambda: _one_list(arrays))
    assert _fsum_outcome(lambda: fsum_blocks(*arrays)) == want
    entries = list(block_entries(iter(arrays)))
    assert entries == np.concatenate(arrays).tolist()
    assert _fsum_outcome(lambda: math.fsum(entries)) == want


@pytest.mark.parametrize("arrays", list(_fsum_cases()))
def test_exact_sum_equals_one_fsum_of_the_concatenation(arrays):
    """ExactSum fed the arrays whole, or cut at three seeded points, reads
    what one fsum of all the entries returns, or raises what it raises."""
    want = _fsum_outcome(lambda: _one_list(arrays))
    entries = np.concatenate(arrays)
    cuts = sorted(np.random.default_rng(entries.size).integers(0, entries.size + 1, 3))
    for parts in (arrays, np.split(entries, cuts)):
        total = ExactSum()
        for a in parts:
            total.add(a)
        assert _fsum_outcome(lambda: float(total)) == want


def test_pointwise_sums_hold_no_list_of_their_terms(table_big):
    """m_q, m_check_q and log_moment_sum at n = 1e6 hold no list of their
    terms: one Python float per term of the support of mu (60.8% of n) is at
    least 19.5 bytes per n.  Measured 15.6, 25.4 and 25.4 bytes per n (34.0,
    43.8 and 48.6 while each sum took one list)."""
    n = 1_000_000
    calls = (
        (20, lambda: m_q(table_big, n, 1)),
        (30, lambda: m_check_q(table_big, n, 1)),
        (30, lambda: log_moment_sum(table_big, n, 1, 1.0, 2)),
    )
    tracemalloc.start()
    try:
        for i, (per_n, call) in enumerate(calls):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
            assert peak <= per_n * (n + 1), (i, peak / (n + 1))
    finally:
        tracemalloc.stop()


def test_floor_array_equals_floor_int():
    """util's two forms of the snapped floor agree entry for entry.  About
    each m in +-{1, 2^20, 2^40}, m + k s for |k| <= 40, s the spacing of
    the floats just above |m|, crosses the snap's edge: 32 EPS |m| is 32
    such spacings, and the floats just below a power of two are s/2 apart,
    so each value is a float and the ones on the side of m that floors to
    m - 1 read m within 32 spacings and m - 1 beyond.  The same steps about
    m - 1 and m + 1, seeded values and the quotients X/n that the identity
    grid floors add the rest."""
    powers = np.array([1.0, 2.0**20, 2.0**40])
    ints = np.concatenate((powers, -powers, powers - 1.0, powers + 1.0, 1.0 - powers))
    near = ints[:, None] + np.arange(-40, 41)[None, :] * np.spacing(np.abs(ints))[:, None]
    floors = _floor_array(near.ravel())
    assert floors.tolist() == [floor_int(x) for x in near.ravel().tolist()]
    for m, row in zip(ints[:6].tolist(), floors.reshape(near.shape)[:6].tolist()):
        assert set(row[:40]) == {int(m) - 1, int(m)}, m  # k < 0: both sides of the edge
    rng = np.random.default_rng(49)
    seeded = np.concatenate((
        rng.uniform(-10.0, 10.0, 2000),
        rng.uniform(0.0, 2.0**40, 2000),
        np.round(rng.uniform(-1e6, 1e6, 2000)) + rng.uniform(-1e-9, 1e-9, 2000),
        1e6 / np.arange(1.0, 1e4 + 1.0),
    ))
    assert _floor_array(seeded).tolist() == [floor_int(x) for x in seeded.tolist()]
