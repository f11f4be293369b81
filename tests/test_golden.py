"""Same behaviour across refactors: suite and identity CSVs byte for byte,
certificates, identity evaluations, scans and prefix arrays bit for bit.

The golden files were captured with
``main(["verify", "--suite", name, "--no-timestamp"])`` and
``main(["identity", *args, "--no-timestamp"])`` written to stdout.
``delta-sign:certify`` is pinned both ways: its rows as CSV and its
certificates by hash.
"""

import hashlib
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from mobius_bounds import arith, bounds, delta_sign
from mobius_bounds.analytic import (
    ComplexParameter,
    _eta_pair,
    constants,
    eta,
    inv_zeta,
    zeta_inequalities,
    zp_over_z2,
)
from mobius_bounds.cli import main
from mobius_bounds.identities import (
    CATALOG_SPECS,
    F_IDS,
    G_IDS,
    H_BIG_IDS,
    H_SMALL_IDS,
    IdentitySpec,
    evaluate_ofd,
)
from mobius_bounds.util import BLOCK

GOLDEN = Path(__file__).parent / "golden"

SUITES = (
    # golden CSV re-captured when util.expm1c took one cancellation-free
    # formula for complex z: 22 lhs cells (9 margins with them) of rows at s
    # off the real axis moved, each by at most 0.0056 of its row's lhs radius;
    # no bound, verdict, label or row count moved.  Re-captured with the
    # mcheckqeps and special CSVs when eta's weights became exact integer
    # ratios, each rounded once: C and C' moved in their last bits, and so
    # did every lhs and every dex bound (70, 64 and 12 lhs cells, 72 dex
    # bounds), each lhs by at most 0.0096 of its row's lhs radius and each
    # bound by at most 0.0040 of its bound radius; no verdict, label or row
    # count moved
    "bounds:dex",
    "bounds:easy",
    "bounds:integral",
    "bounds:mcheckqeps",
    "bounds:mqeps",
    "bounds:small-m",
    "bounds:special",
    "delta-sign:caps",
    "delta-sign:certify",
    "harmonic:defect",
    "harmonic:harmonic",
)

# sha256 of certificate_to_json(certify_sign(table_1e5, q, X0)); re-captured
# for certificate format v3 (one line, floats as JSON numbers, no M, no
# stored witness, x0 for the X range).  The format moved no float:
# CERTIFICATE_CONTENT below passed unedited across the change
CERTIFICATES = {
    (1, 10.8): "f1cc9bc4401b83280007c9c1b6b85e411fa5dec8c65cef50c72f16ebaca35c45",
    (1, 11.0): "5d97aa0f499e9322b44392f3e5b838b8caeeae1a84fd7d6084bb3be2c9e3f8c5",
    (2, 41.0): "673f2e1d12f9e93e0b762e7e0460bc8341b06fdc6070f661a3a9070350f3e4ff",
    (6, 41.0): "f02ebfc03917906de1f1eaee109361e2a8df9e13226242ca64491d8d39117cce",
    (15, 41.0): "c7d18061cb607546dcb8ca8be7294888006af9507908957587511a56ed6b338c",
    (30, 41.0): "04918e54efedcdfd9e714ba55a42187b808931561d17706582cc5d78c352123b",
    (2310, 41.0): "47c18e0d1aca11ff845fcbaa4463c9c8d9abb4607a8240a6dec3ae35f546a127",
}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_csv_matches_golden(suite, capsys):
    assert main(["verify", "--suite", suite, "--no-timestamp"]) == 0
    got = capsys.readouterr().out
    want = (GOLDEN / f"{suite.replace(':', '_')}.csv").read_text()
    assert got == want


def test_certificates_match_golden(table_mid):
    for (q, x0), digest in CERTIFICATES.items():
        cert = delta_sign.certify_sign(table_mid, q, x0)
        text = delta_sign.certificate_to_json(cert)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (q, x0)


# sha256 of a certificate's content, whatever its encoding: q, the claimed
# X0 and the status, then per record N, M2 and every step's (eps, t), each
# float by float.hex(); the seven delta-sign:certify claims (cap 0) and the
# four delta-sign:caps certificates, on table_1e5
CERTIFICATE_CONTENT = {
    (1, 10.8, 0.0):
        "7696105964a794a11ccee128eeb1c66b1857eacedeb2024fe7f1f1b256b4e442",
    (1, 11.0, 0.0):
        "73b25c4080b33eeef8e1a474780112ec16dd95d6886a3430ef59080a74e76b57",
    (2, 41.0, 0.0):
        "a2ec19bc344f078bbdaeff613c2e2bf7f91e1e6324d91fbfa30c1e5fb8fb7de1",
    (6, 41.0, 0.0):
        "219e5a43d48075d5be1b9e468a3bd4b47039259e5d54c920c7fc2c2844b389c5",
    (15, 41.0, 0.0):
        "86d14dce3f8f96d5a4b705c4788671fa9cf47b414788fe538b9bf605a8407485",
    (30, 41.0, 0.0):
        "5320ba1ba43606c6ad89f7f9c0dae95277b1c0364ae0d9f1e2c7cddf84157282",
    (2310, 41.0, 0.0):
        "140717a71fdb1dba695a0f408e877ba49a74abd81697abd1c2d9e273a5cf0a79",
    (1, 47.0, 0.014):
        "dc852764efded9f04ed921afe4954383bf483d9831afbfc6a0aa96fb7824ba2b",
    (11, 46.999, 0.00005):
        "c91bdc8d8d2cc8387e3edd28993374cf527ff628240655226204073dc1ac0f3d",
    (13, 46.999, 0.00005):
        "384c0be05deef79e83b12960a468be738b4fd0a78e391f17fe8d94ed1524397e",
    (17, 46.999, 0.00005):
        "20b310fcc09ce8121a1060703c40792dc64be1ef46f2453975efb7dac3654865",
}


def _certificate_content(cert, x0: float) -> str:
    h = hashlib.sha256(f"{cert.q} {x0.hex()} {cert.status}".encode())
    for rec in cert.records:
        h.update(f"\n{rec.N} {rec.M2.hex()}".encode())
        for eps, t in rec.steps:
            h.update(f" {eps.hex()} {t.hex()}".encode())
    return h.hexdigest()


def test_certificate_content_matches_pin(table_mid):
    for (q, x0, cap), digest in CERTIFICATE_CONTENT.items():
        cert = delta_sign.certify_sign(table_mid, q, x0, cap=cap)
        assert _certificate_content(cert, x0) == digest, (q, x0, cap)


def test_certificates_round_trip_and_replay(table_mid):
    for (q, x0, cap), digest in CERTIFICATE_CONTENT.items():
        cert = delta_sign.certify_sign(table_mid, q, x0, cap=cap)
        back = delta_sign.certificate_from_json(delta_sign.certificate_to_json(cert))
        assert back == cert and _certificate_content(back, back.x0) == digest, (q, x0)
        assert delta_sign.replay_certificate(table_mid, back) == [], (q, x0)


IDENTITY_GRID = "1,2.5,2.718281828459045,10,100,1000,12345.678"

# golden file stem -> (arguments after "identity", exit code).  The
# elmarraki, macleod, euler_gamma, liouville, daval_general and
# euler_gamma_X100000 files were re-captured when the first integral moved
# onto the grid's pieces: 12 of their 113 rows moved, each an identity-ofd
# row's lhs and margin (daval_general's identity-printed row with it, as its
# value is the raw residual), each residual by at most 0.039 of its radius
# 16 EPS mass; no verdict, label, row count or exit code moved
IDENTITY_RUNS = {
    "identity_meissel": (["--name", "meissel", "--X", IDENTITY_GRID], 0),
    "identity_elmarraki": (["--name", "elmarraki", "--X", IDENTITY_GRID], 0),
    "identity_macleod": (["--name", "macleod", "--X", IDENTITY_GRID], 0),
    "identity_euler_gamma": (["--name", "euler_gamma", "--X", IDENTITY_GRID], 2),
    "identity_liouville": (["--name", "liouville", "--X", IDENTITY_GRID], 2),
    "identity_daval_general": (["--name", "daval_general", "--X", IDENTITY_GRID], 0),
    "identity_euler_gamma_X100000": (["--name", "euler_gamma", "--X", "100000"], 2),
    "identity_daval_general_s2+1j": (
        ["--name", "daval_general", "--X", "100,1000", "--s", "2+1j"],
        3,
    ),
}


@pytest.mark.parametrize("stem", IDENTITY_RUNS)
def test_identity_csv_matches_golden(stem, capsys):
    args, code = IDENTITY_RUNS[stem]
    assert main(["identity", *args, "--no-timestamp"]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.csv").read_text()


# sha256 of the newline-joined repr(evaluate_ofd(table, spec, X)) over
# _ofd_spec_grid() x (7.3, 2000.0): pins i1, i2 and mass, which rows omit.
# Re-captured when util.expm1c took one cancellation-free formula for
# complex z: 8 of the 80 items moved, all at s = 0.5+14j, with lhs and mass
# unchanged and i1, i2 each by at most 5e-4 of residual_err.  Re-captured
# when i1 moved onto the grid's pieces and the left side took libm's log:
# 41 items moved, i1 in 38 (by at most 0.034 of residual_err, with mass in
# 12 of them), lhs in 2 (H = power, by 5.4e-6 of residual_err); i2 and the
# piece counts did not move, and the digest is now the same under numpy's
# AVX512 and baseline dispatch
OFD_GRID = "ec381e72ac95beabfcd2ea4c8fe5e7c322586973c2f9ab56b69bfc20f143f750"


def _ofd_spec_grid():
    """Every (h, H) pair with a real and a complex s; f and g rotate.  Each
    spec states only what it reads: q = 6 with mobius_coprime, and s with
    a power-type h or H (a pair with neither is listed twice, s = None)."""
    specs = []
    for i, (h, H) in enumerate(product(H_SMALL_IDS, H_BIG_IDS)):
        f, g = F_IDS[i % len(F_IDS)], G_IDS[(i // len(F_IDS)) % len(G_IDS)]
        q = 6 if f == "mobius_coprime" else 1
        power = h == "power" or H in ("power", "power_log")
        for s in (1.5, 0.5 + 14j):
            specs.append(IdentitySpec(f, g, h, H, s=s if power else None, q=q))
    return specs


def _ofd_spec_grid_digest(table) -> str:
    text = "\n".join(
        repr(evaluate_ofd(table, spec, X)) for spec in _ofd_spec_grid() for X in (7.3, 2000.0)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def test_ofd_spec_grid_matches_golden(table_small):
    assert _ofd_spec_grid_digest(table_small) == OFD_GRID


def test_ofd_spec_grid_does_not_depend_on_numpy_dispatch(without_avx512):
    """The factory takes its logs of cut points and of X/n from libm, so
    the pin holds with numpy's AVX512 dispatch off as well."""
    code = (
        "from mobius_bounds.arith import build_table\n"
        "from test_golden import _ofd_spec_grid_digest\n"
        "print(_ofd_spec_grid_digest(build_table(10_000)), end='')"
    )
    assert without_avx512(code) == OFD_GRID


# sha256 of the newline-joined repr(evaluate_ofd(table_mid, spec, 40000.0))
# over the catalog specs and two power weights: 79,964 pieces, three blocks
# of 2^15, so a fault at a block or slice edge of the piece integration moves
# i1, i2 or mass (OFD_GRID stops below one block).  Re-captured when
# util.expm1c took one cancellation-free formula for complex z: only the
# s = 2+1j item moved, lhs and mass unchanged, i2 by 0.021 of residual_err.
# Re-captured when i1 moved onto the grid's pieces: 4 of the 7 items moved,
# i1 in elmarraki, euler_gamma and liouville (by at most 0.067 of
# residual_err) and mass in euler_gamma and at s = 2+1j (by at most 7e-16
# of itself); lhs, i2 and the piece counts did not move
OFD_BLOCKS = "731f6687c196f800a3654375d25cc70d3a9cc81aada2a3349eb3784f85ace5c8"


def test_ofd_across_blocks_matches_golden(table_mid):
    specs = [
        *CATALOG_SPECS.values(),
        IdentitySpec("mobius", "one", "power", "id", s=0.5),
        IdentitySpec("mobius", "one", "power", "id", s=2 + 1j),
    ]
    text = "\n".join(repr(evaluate_ofd(table_mid, spec, 40_000.0)) for spec in specs)
    assert hashlib.sha256(text.encode()).hexdigest() == OFD_BLOCKS


# The scans and prefix builders at n = 1e5 and on either side of a 2^15-entry
# block, so every sweep crosses block edges (the suites stop below 1e4).
SCAN_SIZES = (100_000, (1 << 15) - 1, 1 << 15, (1 << 15) + 1)
SCAN_QS = (1, 2, 6, 30, 2310, 30030)
EPS_QS = (2, 30030)


def _divisors_30030():
    out = [1]
    for p in (2, 3, 5, 7, 11, 13):
        out += [d * p for d in out]
    return sorted(out)


def _scan_outputs(group, table):
    """The outputs of one group of sweeps, one item per call."""
    from mobius_bounds import arith, bounds, harmonic

    for n in SCAN_SIZES:
        if group == "easy":
            for q, k, sigma in product(SCAN_QS, (1, 2, 3), (1.0, 1.2, 1.5, 2.0)):
                yield bounds.easy_scan(table, n, q, k, sigma)
        elif group == "small_m":
            for q in _divisors_30030():
                yield bounds.small_m_scan(table, n, q)
        elif group == "eps":
            for q in EPS_QS:
                for eps in (0.0, 0.01, 0.1, 0.5, 1.0):
                    yield bounds.mqeps_scan(table, n, q, eps)
                for eps in (0.0, 0.02, 0.05, 0.1):
                    yield bounds.mcheckqeps_scan(table, n, q, eps)
        elif group == "special":
            for sigma in (1.0, 1.01, 1.04):
                yield bounds.special_scan(table, n, sigma)
        elif group == "harmonic":
            yield harmonic.hanson_scan(table, n)
            yield harmonic.verify_harmonic(table, float(n))
        elif group == "prefix":
            for q, sigma in product((1, 2, 30030), (1.0, 1.5)):
                arrays = [arith.prefix_m_q(table, n, q, sigma)] + [
                    arith.prefix_log_moment(table, n, q, sigma, j) for j in (0, 1, 2)
                ]
                for arr in arrays:
                    yield hashlib.sha256(arr.tobytes()).hexdigest()
        elif group == "kernel":
            yield from _kernel_outputs(table, n)


def _kernel_outputs(table, n):
    """The prefix kernel past the "prefix" and "easy" groups: dense columns at
    j = 3..5, one call per column of a set mixing sigma and the parity of j,
    at= reads at j = 3 on the block edges, and easy_scan's arrays at k = 2..5."""

    def digest(arr):
        return hashlib.sha256(arr.tobytes()).hexdigest()

    edges = {0, 1, n, *(e + d for e in range(BLOCK, n + 1, BLOCK) for d in (-1, 0, 1))}
    at = sorted(e for e in edges | set(SCAN_SIZES) if e <= n)
    for q in (1, 2, 30030):
        for sigma, j in product((1.0, 1.5, 2.0), (3, 4, 5)):
            yield digest(arith.prefix_log_moment(table, n, q, sigma, j))
        for sigma, j in zip((1.0, 1.5, 1.5, 2.0), (1, 0, 3, 2)):
            yield digest(arith.prefix_log_moment(table, n, q, sigma, j))
        for sigma in (1.0, 1.5, 2.0):
            yield digest(arith.prefix_log_moment(table, n, q, sigma, 3, at=at))
    for q, k, sigma in product((1, 6, 30030), (2, 3, 4, 5), (1.0, 1.5, 2.0)):
        yield _easy_scan_margins(table, n, q, k, sigma)


def _easy_scan_margins(table, n, q, k, sigma):
    """easy_scan's result and the sha256 of every array its sweep reads.  From
    k = 2 on the result is (0.0, 1, 0.0, 1), both sides vanishing at X = 1,
    so only the arrays pin the lhs and margins at every X."""
    h = hashlib.sha256()
    sweep_min = arith.sweep_min

    def recording(n, margins_of, floors_of=None):
        def margins(lo, hi):
            arrays = margins_of(lo, hi)
            for arr in arrays:
                h.update(arr.tobytes())
            return arrays

        return sweep_min(n, margins, floors_of)

    with mock.patch.object(arith, "sweep_min", recording):
        out = bounds.easy_scan(table, n, q, k, sigma)
    return out, h.hexdigest()


# sha256 of the newline-joined repr of _scan_outputs(group, table_mid); "eps"
# re-captured with the Stieltjes-series eps_zeta (values moved by <= 2.7e-15).
# "eps" and "special" re-captured when eta's weights became exact integer
# ratios, each rounded once, moving 1/zeta and zeta'/zeta^2 at real sigma in
# their last bits: 32 of 72 and 12 of 12 results moved, the margins by at
# most 1.1e-14 and 8.9e-16, and no argmin moved.  "eps" re-captured when
# mqeps_scan came to read the defect through the kernel's expm1 column: 31 of
# 72 results moved (mqeps at eps > 0 only), the margins by at most 3.2e-14
# and the floor slacks by at most 2.7e-15, and no argmin moved
SCAN_PINS = {
    "easy": "414661b3ddd388b6dee7dc2ed2626bcf353a683f78accc3517de0848eb249638",
    "small_m": "54684de3cb3fc51586146fda5e1938b8c414f9820fcafe18b56c5d03b9487477",
    "eps": "7276077a09190b7da236b52d5e01473dc037cda440e1a9782731ea24c049c45b",
    "special": "42738f1ef1d86d98b3b2a8bcdb4889b296dec298994eb850b40750569555b3d5",
    "harmonic": "9500f8022f649a4d2278445396537e350b72d59a236b9b68f38e61fc3f17a653",
    "prefix": "66d369481cdd0b6d8ba2cc0cbaa5e2edf4c14fc96c23feb73be12467782948e5",
    "kernel": "60399f0f801925ef59a4f6c5e3ec47d00820656bdd40f45a3cd3037e47a4d92c",
}


@pytest.mark.parametrize("group", SCAN_PINS)
def test_scan_outputs_match_pin(group, table_mid):
    text = "\n".join(repr(out) for out in _scan_outputs(group, table_mid))
    assert hashlib.sha256(text.encode()).hexdigest() == SCAN_PINS[group]


# The point sums at x below 1, at 1, on either side of util.FSUM_LIST_MAX
# terms (608 of the n <= 1000 are squarefree) and near the table's top; at
# s = 1, real s != 1 and complex s; and log_moment_sum at each k, k = 0
# included.
POINT_X = (0.5, 1.0, 7.5, 1000.0, 12345.6, 99999.5)
POINT_QS = (1, 6, 30030)


def _point_outputs(table):
    for x, q in product(POINT_X, POINT_QS):
        yield arith.m_q(table, x, q)
        yield arith.m_check_q(table, x, q)
        for s in (1, 1.5, 2 + 1j, 0.5 + 14j):
            yield arith.m_q_s(table, x, q, s)
            yield arith.m_check_q_s(table, x, q, s)
        for sigma, k in product((1.0, 1.5), (0, 1, 2, 3)):
            yield arith.log_moment_sum(table, x, q, sigma, k)


# sha256 of the newline-joined repr of _point_outputs(table_mid)
POINT_PIN = "7ecd265e0d3cf1b8af2c61540be2b2877674c78b5fc11f4d81d0cc6590197b36"


def test_point_sums_match_pin(table_mid):
    text = "\n".join(repr(out) for out in _point_outputs(table_mid))
    assert hashlib.sha256(text.encode()).hexdigest() == POINT_PIN


# The analytic layer at the s of the dex suite, of acceptances 5 and 6 and of
# tests/test_analytic.py.  Within 1e-6 of s = 1, where a Taylor-series route
# once ran, only values are pinned; the radii there may grow.
ANALYTIC_S = tuple(
    dict.fromkeys(
        complex(s)
        for s in (
            1.5, 2.0, 1 + 2j, 0.8 + 5j, 1.0,
            *(1.0 + eps for eps in (1e-3, 1e-2, 0.1, 0.5, 1.0)),
            1.2 + 1j,
            0.5, 1.3, 1 + 1j, 2 + 3j, 0.8 + 10j, 3.7, 1.001, 1.2 + 0.5j, 2 + 1j,
        )
    )
)
# (s, sigma0) of the dex suite and of acceptance 6
DEX_POINTS = (
    (1.5, 0.5), (2.0, 1.0), (1 + 2j, 0.5), (0.8 + 5j, 0.4), (1.0, 0.5),
    (1.2 + 1j, 0.5),
)
CONSTANT_FIELDS = (
    "s", "sigma0", "X", "C", "c", "e", "K2", "Xi1", "Xi1_real", "Xi2",
    "delta_flag", "err_budget",
)


def _on_series_disc(s):
    return abs(complex(s) - 1.0) < 1e-6


def _eta_prime(s):
    return _eta_pair(s)[1]


def _analytic_outputs(table):
    for s in ANALYTIC_S:
        for fn in (eta, _eta_prime, inv_zeta, zp_over_z2):
            try:
                out = fn(s)
            except (ValueError, ArithmeticError) as exc:
                yield type(exc).__name__
                continue
            yield out.value if _on_series_disc(s) else out
    for eps in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        yield zeta_inequalities(eps)
    for (s, sigma0), X in product(DEX_POINTS, (1.0, 15.0, 50.0, 1e3, 1e4, 1e6)):
        cst = constants(ComplexParameter(s, sigma0), X)
        fields = CONSTANT_FIELDS[:-1] if _on_series_disc(s) else CONSTANT_FIELDS
        yield tuple(getattr(cst, name) for name in fields)
    # acceptance 6's dex grid below X = 1e6, where the rows' sums get costly
    for s, X, q, which in product(
        (1.5, 1.2 + 1j, 1 + 2j), (15.0, 1e2, 1e4), (1, 6, 30), ("mqdex", "mcheckqdex")
    ):
        yield bounds.verify_dex(table, X, q, ComplexParameter(s, 0.5), which)


# sha256 of the newline-joined repr of _analytic_outputs(table_mid);
# re-captured when approx_add, approx_mul and approx_div began to add their
# own rounding (every value stayed bit-identical, and 77 radii rose by at
# most 2.8%), and when zeta_inequalities began to read the eps_zeta
# enclosures: the 192 items other than its five hash as before, and every
# chain value lies within its radius of mpmath with all 30 verdicts "pass";
# and when zeta and zeta_prime went: the 163 items left hashed the same with
# the old eta_prime in place of _eta_pair(s)[1]; and when the Taylor series
# near s = 1 went for the eta route: of the 163 items only inv_zeta(1.0)'s
# value moved, from 0j to (-0+0j), the same zero with its sign; and when
# util.expm1c took one cancellation-free formula for complex z: 59 items
# moved, all at s off the real axis (inv_zeta, zp_over_z2, constants and dex
# rows; no eta, C' or zeta_inequalities item), no verdict moved, and each
# dex row's lhs or bound by at most 0.0056 of its radius; and when eta's
# radius became a stated truncation plus rounding bound from one pass in
# place of the drift between two depths, and 1 - 2^(1-s) and 2^(1-s) took
# expm1c's bound and their argument's rounding: 94 items moved, 64 Approx
# radii and 30 constants err_budget fields, and no value and no row; and
# when eta's weights became exact integer ratios, each rounded once: C and
# C' moved in their last bits, so 157 items moved (64 Approx, 3 values near
# s = 1, 36 constants and 54 dex rows), every one but the five
# zeta_inequalities and inv_zeta(1.0)'s exact 0, and no verdict moved
ANALYTIC_PIN = "e4b1b28f652a0d3bfc46a5576177b7784c15883d5bea41f4eb9d4613df105668"


def test_analytic_outputs_match_pin(table_mid):
    text = "\n".join(repr(out) for out in _analytic_outputs(table_mid))
    assert hashlib.sha256(text.encode()).hexdigest() == ANALYTIC_PIN
