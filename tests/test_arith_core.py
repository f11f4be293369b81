"""Sieve tables and restricted partial sums against independent oracles."""

import math
from fractions import Fraction

import pytest

from mobius_bounds.arith import (
    Modulus,
    build_table,
    chebyshev_psi,
    m_check_q,
    m_check_q_s,
    m_q,
    m_q_s,
)
from mobius_bounds.util import CapacityError


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
    for n in range(1, 400):
        f = _factorize(n) if n > 1 else {}
        omega = sum(f.values())
        assert table_small.liouville[n] == (-1) ** omega
        if len(f) == 1:
            p = next(iter(f))
            assert table_small.mangoldt_log[n] == pytest.approx(math.log(p), abs=1e-15)
        else:
            assert table_small.mangoldt_log[n] == 0.0


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
    m = Modulus.from_int(12)
    assert m.primes == (2, 3)
    assert m.kernel == 6
    assert m.q_over_phi == pytest.approx(3.0, abs=1e-15)
    mask = m.coprime_mask(10)
    assert mask.tolist() == [
        False, True, False, False, False, True, False, True, False, False, False,
    ]
    assert Modulus.from_int(1).primes == ()
    with pytest.raises(ValueError):
        Modulus.from_int(0)


def test_capacity_guards(table_small):
    with pytest.raises(CapacityError):
        build_table(0)
    with pytest.raises(CapacityError):
        build_table(10**10)
    with pytest.raises(CapacityError):
        m_q(table_small, 2e4)

