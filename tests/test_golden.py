"""Same behaviour across refactors: suite and identity CSVs byte for byte,
certificates and identity evaluations bit for bit.

The golden files were captured with
``main(["verify", "--suite", name, "--no-timestamp"])`` and
``main(["identity", *args, "--no-timestamp"])`` written to stdout;
``delta-sign:certify`` is pinned through its certificates instead, since
its rows follow from them.
"""

import hashlib
from itertools import product
from pathlib import Path

import pytest

from mobius_bounds import delta_sign
from mobius_bounds.cli import main
from mobius_bounds.identities import (
    F_IDS,
    G_IDS,
    H_BIG_IDS,
    H_SMALL_IDS,
    IdentitySpec,
    evaluate_ofd,
)

GOLDEN = Path(__file__).parent / "golden"

SUITES = (
    "bounds:dex",
    "bounds:easy",
    "bounds:integral",
    "bounds:mcheckqeps",
    "bounds:mqeps",
    "bounds:small-m",
    "bounds:special",
    "delta-sign:caps",
    "harmonic:defect",
    "harmonic:harmonic",
)

# sha256 of certificate_to_json(certify_sign(table_1e5, q, X0))
CERTIFICATES = {
    (1, 10.8): "bcb54cc7864759768894e7a3d9a1c9df29cee567dbcc8649fa9d710769b73edb",
    (1, 11.0): "b0e9066fafedf29096e28880899a746950c565b0899365a0d147bc383bd98a38",
    (2, 41.0): "624eb131faaf3ed0bfb8f18c23cc9bee96cd44015d502e531e8b7b40e6610e82",
    (6, 41.0): "6a6176018248c9594d5c9cdbb555f766fdcd4ae5318c065320063f6134253ad6",
    (15, 41.0): "e32144992a56a53eb24251e193ced6af2138cb41a144df2873c5fe45a0b77468",
    (30, 41.0): "2cf92978e92dd7a35f0304d79bdf2ba19328f4e2fc668cb57c0901f5e22bb5f4",
    (2310, 41.0): "870d428a2b417a4aebddc26dacfb0838b5adc83962793a7a09ec2b0b0930f8e3",
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


IDENTITY_GRID = "1,2.5,2.718281828459045,10,100,1000,12345.678"

# golden file stem -> (arguments after "identity", exit code)
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
# _ofd_spec_grid() x (7.3, 2000.0): pins i1, i2 and mass, which rows omit
OFD_GRID = "7d5908a2c281e9446a92f6dcf7537cc47ab7024af47dd69398d9007f5d663947"


def _ofd_spec_grid():
    """Every (h, H) pair with a real and a complex s; f and g rotate."""
    specs = []
    for i, (h, H) in enumerate(product(H_SMALL_IDS, H_BIG_IDS)):
        f, g = F_IDS[i % len(F_IDS)], G_IDS[(i // len(F_IDS)) % len(G_IDS)]
        for s in (1.5, 0.5 + 14j):
            specs.append(IdentitySpec(f, g, h, H, s=s, q=6))
    return specs


def test_ofd_spec_grid_matches_golden(table_small):
    text = "\n".join(
        repr(evaluate_ofd(table_small, spec, X))
        for spec in _ofd_spec_grid()
        for X in (7.3, 2000.0)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == OFD_GRID
