"""Zeta/eta evaluation and the certified inequality chains.

Oracle: mpmath at 50 digits, frozen where a single float suffices.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mobius_bounds.analytic import (
    ComplexParameter,
    _chebyshev,
    _eta_pair,
    _zeta_family,
    constants,
    eps_zeta,
    eps_zeta_enclosure,
    eps_zeta_grid,
    eta,
    inv_zeta,
    phi_ratio,
    phi_s,
    zeta_inequalities,
    zp_over_z2,
)
from mobius_bounds.arith import Modulus
from mobius_bounds.bounds import _log_p_sum
from mobius_bounds.util import EPS, FAIL, PASS, CapacityError, NearZeroError, expm1c

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 50


def eta_prime(s):
    """C'(s), the second half of the eta pair."""
    return _eta_pair(s)[1]


def test_eta_special_points():
    assert abs(eta(1.0).value.real - math.log(2)) <= 1e-13
    assert abs(eta(2.0).value.real - math.pi**2 / 12) <= 1e-13
    # err fields are honest
    assert eta(1.0).err < 1e-12
    assert eta(2.0).err < 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0, 1.3, 2.0, 1 + 1j, 2 + 3j, 0.8 + 10j])
def test_eta_against_mpmath(s):
    want = complex(mpmath.altzeta(s))
    got = eta(s)
    assert abs(got.value - want) <= got.err + 1e-13


# Off the pole, near s = 1 (within 1e-6 of it), and where |(s - 1) log 2|
# is near 1e-4, once the switch between two routes for e^z - 1
_ZETA_S = (1.5, 2.0, 3.7, 1.001, 2 + 3j, 1.2 + 0.5j,
           *(1.0 + w for w in (1e-12, 1e-9, 1e-7, -5e-7, 9.9e-7, 1e-7j, 5e-7 + 5e-7j)),
           0.99994 - 0.000145j, 1.0002 + 0.0001j, 1.0003 + 0.0002j, 1 + 0.0005j)


@pytest.mark.parametrize("s", _ZETA_S)
def test_inv_zeta_and_ratio_within_radius(s):
    with mpmath.workdps(40):
        z = mpmath.zeta(mpmath.mpc(complex(s)))
        zp = mpmath.zeta(mpmath.mpc(complex(s)), derivative=1)
        want = {inv_zeta: 1 / z, zp_over_z2: zp / z**2}
    for fn, w in want.items():
        got = fn(s)
        assert abs(got.value - complex(w)) <= got.err, (fn.__name__, s)


def test_inv_zeta_and_ratio_at_s_equal_1():
    # mpmath has a pole at s = 1, so the truths here are exact: 1/zeta(1) = 0
    # and zeta'/zeta^2 -> -1
    r, zz = inv_zeta(1.0), zp_over_z2(1.0)
    assert r.value.real == 0.0 and r.value.imag == 0.0
    assert abs(zz.value + 1.0) <= zz.err
    for X in (1.0, 1e4):
        cst = constants(ComplexParameter(1.0, 0.5), X)
        assert cst.invz == r and cst.zpz2 == zz


# Off the suites' points, where eta's error exceeds 1e-13, each value must
# still lie within its radius of mpmath.  At the last point 16 times the drift
# between two depths, the radius eta once carried, understated the error
# (C erred by 3.3 times it, C' by 3.5, 1/zeta by 3.2 and zeta'/zeta^2 by 1.2).
_NOISY_S = (
    0.3 + 30j, 0.1 + 50j, 0.5 + 200j, 0.5 + 14j, 0.05 + 5j,
    0.20637335016056724 + 167.39845804073536j,
)


@pytest.mark.parametrize("s", _NOISY_S)
def test_eta_family_within_radius_off_the_test_traffic(s):
    with mpmath.workdps(40):
        z = mpmath.zeta(s)
        zp = mpmath.zeta(s, derivative=1)
        two1s = mpmath.power(2, 1 - s)
        want = {
            eta: mpmath.altzeta(s),
            eta_prime: two1s * mpmath.log(2) * z + (1 - two1s) * zp,
            inv_zeta: 1 / z,
            zp_over_z2: zp / z**2,
        }
        for fn, w in want.items():
            got = fn(s)
            assert abs(got.value - complex(w)) <= got.err, (fn.__name__, s)


def _family_truths(s):
    """C, C', 1/zeta and zeta'/zeta^2 at s, from mpmath's zeta and zeta' at
    the working precision: C = (1 - 2^(1-s)) zeta and C' its derivative."""
    S = mpmath.mpc(s)
    z, zp = mpmath.zeta(S), mpmath.zeta(S, derivative=1)
    two1s = mpmath.power(2, 1 - S)
    return ((1 - two1s) * z, two1s * mpmath.log(2) * z + (1 - two1s) * zp, 1 / z, zp / z**2)


def test_eta_family_radii_enclose_on_a_seeded_sample():
    # the radii stated by _eta_pair and _zeta_family enclose with room to
    # spare: every value within half its radius of mpmath, at 120 seeded s
    # and at the two points where the drift radius eta once carried fell short
    rng = random.Random(37)
    points = [complex(rng.uniform(0.01, 4.0), rng.uniform(-300.0, 300.0)) for _ in range(120)]
    points += [0.20637335016056724 + 167.39845804073536j, 0.2 + 167.5j]
    with mpmath.workdps(40):
        for s in points:
            for name, got, want in zip(("C", "C'", "1/zeta", "zeta'/zeta^2"),
                                       _zeta_family(s), _family_truths(s)):
                assert abs(mpmath.mpc(got.value) - want) <= 0.5 * got.err, (name, s)


@pytest.mark.parametrize("k", [1, 2, 5, 30])
def test_zeta_family_at_the_zeros_of_1_minus_2_to_1_minus_s(k):
    # at s* = 1 + 2πik/log 2 both 1 - 2^(1-s) and C vanish; a C within 4 times
    # its radius of 0 is refused, and any value given lies within its radius
    star = complex(1.0, 2.0 * math.pi * k / math.log(2.0))
    with mpmath.workdps(40):
        for offset in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1e-12j):
            s = star + offset
            want = dict(zip((inv_zeta, zp_over_z2), _family_truths(s)[2:]))
            for fn, w in want.items():
                try:
                    got = fn(s)
                except NearZeroError:
                    continue
                assert abs(mpmath.mpc(got.value) - w) <= got.err, (fn.__name__, offset)


@pytest.mark.parametrize("k", [1, -1, 2, 30])
def test_complex_parameter_refuses_the_zeros_of_1_minus_2_to_1_minus_s(k):
    # input within 1e-11 of s* = 1 + 2πik/log 2 is refused; s = 1 is not
    star = complex(1.0, 2.0 * math.pi * k / math.log(2.0))
    for offset in (0.0, 5e-12, -5e-12j, 7e-12 + 7e-12j):
        with pytest.raises(ValueError, match="within guard distance"):
            ComplexParameter(star + offset, 0.5)
    for offset in (2e-11, 2e-11j, 1.0, 4.0j):
        ComplexParameter(star + offset, 0.5)
    ComplexParameter(1.0, 0.5)


@pytest.mark.parametrize(
    "bad",
    [math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 1.0)],
)
def test_non_finite_s_is_rejected(bad):
    for fn in (eta, eta_prime):
        with pytest.raises(ValueError, match="finite"):
            fn(bad)
    with pytest.raises(ValueError, match="finite"):
        ComplexParameter(bad, 0.5)


def test_imaginary_part_cap_is_a_capacity_error():
    # at the cap the stated radius is 1.8e-12 and the error 1.5e-14
    got = eta(1.0 + 310j)
    with mpmath.workdps(40):
        want = _family_truths(1.0 + 310j)[0]
    assert abs(mpmath.mpc(got.value) - want) <= got.err < 1e-11
    for t, shown in ((310.5, "310.5"), (310.0001, "310.0001"), (-400.0, "400.0")):
        with pytest.raises(CapacityError, match=rf"\|Im s\| = {shown} is beyond .* \|Im s\| <= 310$"):
            eta(complex(1.0, t))


@pytest.mark.parametrize("n", [38, 100, 348])
def test_acceleration_weights_sum_the_geometric_series(n):
    # the weights' defining property (Cohen, Rodriguez Villegas and Zagier):
    # for a_k = x^k with x in [0, 1], exact weights c_k/d_n sum Σ (-x)^k =
    # 1/(1 + x) to within 1/d_n, and each float weight adds at most its one
    # rounding, u|w_k| x^k; all in exact rationals
    weights, _, d = _chebyshev(n)
    assert len(weights) == n and all(-1.0 <= w <= 1.0 for w in weights)
    u = Fraction(EPS) / 2
    exact = [Fraction(w) for w in weights]
    for x in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        powers = [x**k for k in range(n)]
        got = sum(w * p for w, p in zip(exact, powers))
        slack = Fraction(1, d) + u * sum(abs(w) * p for w, p in zip(exact, powers))
        assert abs(got - 1 / (1 + x)) <= slack, x


@pytest.mark.parametrize(
    "s", [1 + 300j, 0.5 + 250j, 0.05 + 200j, 0.20637335016056724 + 167.39845804073536j]
)
def test_eta_radius_covers_rounded_arguments(s):
    # the argument -s·log(k+1) of each term may err by 3u|s|log(k+1)
    # (_eta_pair).  Shift every argument that far, each in the direction that
    # moves the sum furthest along v, and recompute at 40 digits from the
    # float weights and logs: the shift of the sum stays inside C's radius,
    # and that of the log-weighted sum inside C''s
    c, cp = _eta_pair(s)
    weights, logs, _ = _chebyshev(38 + math.ceil(abs(s.imag)))
    with mpmath.workdps(40):
        S = mpmath.mpc(s)
        terms = [mpmath.mpf(w) * mpmath.exp(-S * mpmath.mpf(ln)) for w, ln in zip(weights, logs)]
        for v in (1, 1j, -1, -1j):
            shift = shift_log = mpmath.mpc(0)
            for t, ln in zip(terms, logs):
                delta = 1.5 * EPS * abs(s) * ln * v * mpmath.conj(t) / abs(t)
                moved = t * mpmath.expm1(delta)
                shift += moved
                shift_log += moved * ln
            assert abs(shift) <= c.err, v
            assert abs(shift_log) <= cp.err, v


# constants(ComplexParameter(s, 0.5), X).err_budget for X = 1 and 1e4 under
# the smaller of the two radii the Taylor series near s = 1 once gave for
# 1/zeta and zeta'/zeta^2
_OLD_SERIES_BUDGETS = {
    1.0: (1.0114728918594559e-12, 1.1826444860865974e-12),
    1 + 1e-7: (1.0114729920627457e-12, 1.182644806997694e-12),
    1 + 1e-7j: (1.0114730237613036e-12, 1.1826448386962644e-12),
}


@pytest.mark.parametrize("s", _OLD_SERIES_BUDGETS)
def test_series_disc_radii_never_shrink(s):
    # the series' two radius formulas for zeta'/zeta^2 on |s - 1| < 1e-6:
    # 16·EPS·(1 + |v|) in zp_over_z2, 32·EPS in constants.  1/zeta has no
    # floor: the eta route's radius is 0 at s = 1, where 1/zeta(1) = 0 exactly
    trunc = 8.0 * abs(s - 1.0) ** 4
    got = zp_over_z2(s)
    assert got.err >= trunc + 16.0 * EPS * (1.0 + abs(got.value))
    assert got.err >= trunc + 32.0 * EPS
    for X, old in zip((1.0, 1e4), _OLD_SERIES_BUDGETS[s]):
        cst = constants(ComplexParameter(s, 0.5), X)
        assert cst.err_budget >= old
        assert cst.invz == inv_zeta(s) and cst.zpz2 == zp_over_z2(s)


def test_eta_prime_against_reference():
    for s in (1.0, 1.5, 2 + 1j):
        got = eta_prime(s)
        want = complex(mpmath.diff(mpmath.altzeta, mpmath.mpmathify(s)))
        assert abs(got.value - want) <= got.err + 1e-11


def test_inv_zeta_and_ratio():
    assert abs(inv_zeta(2.0).value.real - 6 / math.pi**2) < 1e-13
    want = complex(mpmath.zeta(2, derivative=1) / mpmath.zeta(2) ** 2)
    got = zp_over_z2(2.0)
    assert abs(got.value - want) <= got.err + 1e-12


def test_eps_zeta_values_and_continuity():
    assert eps_zeta(0.0) == 1.0
    assert eps_zeta(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-13)
    want = float(mpmath.mpf("0.25") * mpmath.zeta(mpmath.mpf("1.25")))
    assert eps_zeta(0.25) == pytest.approx(want, abs=1e-13)
    # continuity at small eps
    lo, hi = eps_zeta(1e-8 * (1 - 1e-9)), eps_zeta(1e-8 * (1 + 1e-9))
    assert abs(lo - hi) < 1e-12
    # grid evaluation agrees with the scalar everywhere
    grid = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0])
    gv = eps_zeta_grid(grid)
    for e, g in zip(grid, gv):
        assert g == pytest.approx(eps_zeta(float(e)), abs=5e-14)


def test_eps_zeta_against_mpmath():
    for e in np.geomspace(1e-8, 1.0, 40).tolist():
        want = mpmath.mpf(e) * mpmath.zeta(1 + mpmath.mpf(e))
        assert abs(eps_zeta(e) - float(want)) <= 1e-14, e


# eps_zeta's stated radius on [0, 1] (its docstring)
EPS_ZETA_RADIUS = 1.2e-14


def test_eps_zeta_agrees_with_the_eta_route_within_both_radii():
    # two independent routes: the Taylor series, and eta(1+eps)·eps/(1-2^-eps)
    rng = random.Random(2024)
    points = [rng.random() for _ in range(2000)] + [1.0, 0.5]
    points += [rng.uniform(1e-8, 1e-3) for _ in range(200)]
    for e in points:
        et = eta(complex(1.0 + e))
        ratio = e / -math.expm1(-e * math.log(2))
        want = et.value.real * ratio
        radius = et.err * ratio + 4.0 * EPS * abs(want) + EPS_ZETA_RADIUS
        assert abs(eps_zeta(e) - want) <= radius, e


def test_eps_zeta_grid_is_eps_zeta_bit_for_bit():
    rng = np.random.default_rng(4242)
    grid = np.concatenate([
        np.linspace(0.0, 1.0, 10_001), rng.random(5000), rng.random(500) * 1e-6,
    ])
    got = eps_zeta_grid(grid)
    assert got.tolist() == [eps_zeta(e) for e in grid.tolist()]


def test_eps_zeta_literals_are_the_stieltjes_coefficients():
    # c_0 = 1 and c_{n+1} = (-1)^n gamma_n / n!, each the float nearest it
    import importlib.util
    from pathlib import Path

    from mobius_bounds.analytic import _EZ_COEFFS

    path = Path(__file__).resolve().parents[1] / "tools" / "stieltjes_coefficients.py"
    spec = importlib.util.spec_from_file_location("stieltjes_coefficients", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # 30 digits fix every float here as 50 do, in half the time
    want = [float(c) for c in tool.coefficients(30)]
    assert list(_EZ_COEFFS) == want


@pytest.mark.parametrize(
    "bad",
    [-1e-300, -1.0, math.nan, math.inf, -math.inf, math.nextafter(1.0, 2.0), 2.0, 64.0],
)
def test_eps_zeta_rejects_negative_and_non_finite(bad):
    with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
        eps_zeta(bad)
    with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
        eps_zeta_grid(np.array([0.5, bad]))


def test_eps_zeta_enclosure_takes_only_k_0_1_2():
    for k in (-1, 3):
        with pytest.raises(ValueError, match="k must be 0, 1 or 2"):
            eps_zeta_enclosure(0.5, 0.5, k)
    for k in (True, 1.0):
        with pytest.raises(TypeError, match="k must be an integer"):
            eps_zeta_enclosure(0.5, 0.5, k)


def test_eps_zeta_monotone_small():
    # eps*zeta(1+eps) = 1 + gamma*eps - ... increases off zero
    vals = [eps_zeta(e) for e in (0.0, 1e-6, 1e-4, 1e-2, 0.1)]
    assert vals == sorted(vals)


def test_phi_s_exact():
    assert phi_s(6, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert phi_s(6, 2.0) == pytest.approx(24.0, abs=1e-13)
    assert phi_s(1, 0.7 + 2j) == 1.0
    got = phi_s(10, 1 + 1j)
    want = 10 ** (1 + 1j) * (1 - 2 ** (-1 - 1j)) * (1 - 5 ** (-1 - 1j))
    assert abs(got - want) < 1e-13 * abs(want)


def test_expm1c_within_its_stated_bound():
    # 11 EPS |e^z - 1| (its docstring), on a seeded sample with log-uniform
    # |z| in [1e-12, 316] and uniform argument, and on the real and
    # imaginary axes
    rng = random.Random(35)
    zs = [
        complex(1e-12 * 10 ** (14.5 * r)) * complex(math.cos(a), math.sin(a))
        for r, a in ((rng.random(), rng.uniform(-math.pi, math.pi)) for _ in range(2000))
    ]
    zs += [complex(1e-4, 0.0), complex(0.0, 1e-4), complex(-1e-4, 0.0), complex(0.0, 300.0)]
    with mpmath.workdps(40):
        for z in zs:
            want = mpmath.expm1(mpmath.mpc(z))
            got = expm1c(z)
            assert abs(mpmath.mpc(got) - want) <= 11.0 * EPS * abs(want), z
    assert expm1c(0.5) == math.expm1(0.5)
    assert expm1c(complex(-2.0, 0.0)) == complex(math.expm1(-2.0), 0.0)


@pytest.mark.parametrize("s", [1e-3, 1e-3 + 1e-3j, 0.01 + 0.02j])
def test_euler_factors_against_mpmath(s):
    # each factor e^z - 1 within 11 EPS (expm1c), its argument's roundings
    # and the product or quotient within a few EPS more: phi_s within 16 EPS
    # per factor, and each term log p/(p^s - 1) within 20 EPS
    S = mpmath.mpc(s)
    with mpmath.workdps(40):
        for q in (2, 6, 30030):
            m = Modulus.coerce(q)
            want = mpmath.power(q, S)
            terms = [mpmath.log(p) / mpmath.expm1(S * mpmath.log(p)) for p in m.primes]
            for p in m.primes:
                want *= -mpmath.expm1(-S * mpmath.log(p))
            got = phi_s(q, s)
            assert abs(got - want) <= 16.0 * (len(m.primes) + 1) * EPS * abs(want), q
            got = _log_p_sum(m, s)
            assert abs(got - mpmath.fsum(terms)) <= 20.0 * EPS * sum(map(abs, terms)), q


def test_phi_ratio():
    want = 1.0 / ((1 - 2**-0.5) * (1 - 3**-0.5))
    assert phi_ratio(6, 0.5) == pytest.approx(want, rel=1e-14)
    assert phi_ratio(1, 0.5) == 1.0
    with pytest.raises(ValueError):
        phi_ratio(6, 0.0)
    with pytest.raises(ValueError):
        phi_ratio(6, -1.0)
    for q in (1, 6):
        with pytest.raises(ValueError):
            phi_ratio(q, math.nan)


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0])
def test_zeta_inequality_chains(eps):
    checks = zeta_inequalities(eps)
    assert len(checks) == 6
    for c in checks:
        assert c.verdict == PASS, (eps, c.chain, c.lower, c.value, c.upper)


@pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4])
def test_zeta_chain_on_the_pole_expansion_within_radius(eps):
    # near s = 1 the zeta chain reads F(eps)/eps from the eps_zeta
    # enclosure; its radius must cover the truth, and where the radius
    # straddles the chain's bound (1e-8) the verdict is inconclusive, never fail
    zeta_chain = zeta_inequalities(eps)[0]
    assert zeta_chain.chain == "zeta"
    with mpmath.workdps(40):
        want = mpmath.zeta(1 + mpmath.mpf(eps))
    assert abs(zeta_chain.value - want) <= zeta_chain.err
    assert zeta_chain.verdict != FAIL


def _chain_truths(eps):
    """The six chain values at 1 + eps from mpmath at the working precision."""
    e = mpmath.mpf(eps)
    z = mpmath.zeta(1 + e)
    zeta_log_deriv = mpmath.zeta(1 + e, derivative=1) / z
    d = 1 - mpmath.power(2, -e)
    tail = mpmath.log(2) / (mpmath.power(2, e) - 1)
    return {
        "zeta": z, "inv-c": e / d, "alt-tail": tail, "zeta-log-deriv": zeta_log_deriv,
        "inv-eta": 1 / (d * z), "eta-log-deriv": tail + zeta_log_deriv,
    }


def test_zeta_chains_within_radius_of_mpmath():
    # dense on [1e-3, 3e-3]: there the rounding of a float 1 + eps, amplified
    # by |zeta'| ~ 1/eps^2, would carry the zeta chain past its radius
    grid = [*np.geomspace(1e-8, 1.0, 40), *np.linspace(1e-3, 3e-3, 21)]
    with mpmath.workdps(40):
        for eps in map(float, grid):
            truths = _chain_truths(eps)
            for c in zeta_inequalities(eps):
                assert abs(c.value - truths[c.chain]) <= c.err, (eps, c.chain)


def test_zeta_inequalities_guard():
    for bad in (0.0, math.nan, math.inf, -math.inf, -1e-300, math.nextafter(1.0, 2.0), 2.0):
        with pytest.raises(ValueError):
            zeta_inequalities(bad)


def test_constants_finite():
    p = ComplexParameter(complex(1.5), 0.5)
    c = constants(p, 1e6)
    for name, val in vars(c).items():
        if isinstance(val, float):
            assert math.isfinite(val), name
