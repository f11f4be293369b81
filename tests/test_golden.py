"""Same behaviour across refactors: suite CSVs byte for byte, certificates
bit for bit.

The golden files were captured with
``main(["verify", "--suite", name, "--no-timestamp"])`` written to stdout;
``delta-sign:certify`` is pinned through its certificates instead, since
its rows follow from them.
"""

import hashlib
from pathlib import Path

import pytest

from mobius_bounds import delta_sign
from mobius_bounds.cli import main

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
