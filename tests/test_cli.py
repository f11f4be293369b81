"""Command-line driver: exit codes, reproducibility, suite addressing."""

import csv
import io
import json

import pytest

from mobius_bounds import bounds
from mobius_bounds.arith import build_table
from mobius_bounds.cli import main, suite_registry
from mobius_bounds.delta_sign import certificate_from_json, replay_certificate
from mobius_bounds.identities import CATALOG_NAMES
from mobius_bounds.reports import rows_to_csv


def _rows(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def test_list_matches_registries(capsys):
    assert main(["verify", "--list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == sorted(suite_registry())
    # one addressable invocation per registered suite, no dangling names
    mods = {name.split(":")[0] for name in printed}
    assert mods == {"bounds", "delta-sign", "harmonic"}


def test_usage_errors(capsys):
    assert main(["verify", "--theorem", "nosuch"]) == 64
    assert "argument --theorem: invalid choice: 'nosuch'" in capsys.readouterr().err
    assert main(["frobnicate"]) == 64
    assert main([]) == 64
    assert main(["verify", "--suite", "bounds:nope"]) == 64
    assert main(["delta-sign", "--q", "1"]) == 64  # missing --X0
    assert main(["verify", "--theorem", "special", "--X", "10", "--sigma", "1"]) == 64
    assert main(["sum", "--X", ""]) == 64
    capsys.readouterr()
    # a value the type cannot parse is reported as what the flag takes
    for argv, message in (
        (["verify", "--suite", "bounds:easy", "--limit", "abc"],
         "argument --limit: must be a positive integer, got 'abc'"),
        (["verify", "--suite", "bounds:easy", "--limit", "1.5"],
         "argument --limit: must be a positive integer, got '1.5'"),
        (["verify", "--theorem", "easy", "--X", "10", "--q", "1x"],
         "argument --q: must be an integer, got '1x'"),
        (["verify", "--theorem", "easy", "--X", "1,a"],
         "argument --X: must be a finite number, got 'a'"),
        (["verify", "--theorem", "mqdex", "--X", "10", "--s", "1+"],
         "argument --s: must be a complex number, got '1+'"),
    ):
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert message in err and "invalid _" not in err, err


def test_easy_k_past_the_float64_limit_is_a_usage_error(capsys):
    """verify refuses an easy k whose float64 sums can overflow, before any
    row, with exit 64 and the limit in the message."""
    argv = ["verify", "--theorem", "easy", "--X", "100000", "--k", "300,400", "--sigma", "1"]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k = 300 can overflow float64 at X = 100000: k must be <= 289" in captured.err


@pytest.mark.parametrize(
    "command, names",
    [
        ("verify", tuple(bounds.THEOREMS)),
        ("identity", CATALOG_NAMES),
    ],
)
def test_help_lists_every_choice(command, names, capsys):
    assert main([command, "--help"]) == 0
    # argparse wraps the list; compare it as one line
    text = " ".join(capsys.readouterr().out.split())
    assert "one of " + ", ".join(names) in text


def test_modes_and_names_are_checked_before_any_sieve(monkeypatch, capsys):
    from mobius_bounds import arith

    def no_sieve(limit):
        raise AssertionError(f"a sieve of {limit} was built")

    monkeypatch.setattr(arith, "build_table", no_sieve)
    assert main(["verify", "--suite", "bounds:easy", "--theorem", "easy"]) == 64
    assert main(["verify", "--list", "--suite", "bounds:easy"]) == 64
    assert main(["verify", "--X", "10"]) == 64
    assert main(["identity", "--name", "bogus"]) == 64
    assert main(["verify", "--suite", "bounds:easy", "--limit", "0"]) == 64
    assert main(["verify", "--suite", "bounds:easy", "--limit", "-3"]) == 64
    err = capsys.readouterr().err
    assert "argument --theorem: not allowed with argument --suite" in err
    assert "one of the arguments --theorem --suite --list is required" in err
    assert "argument --name: invalid choice: 'bogus'" in err
    assert "argument --limit: must be a positive integer, got '0'" in err
    assert "argument --limit: must be a positive integer, got '-3'" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--suite", "bounds:integral", "--X", "10", "--q", "7"], "--X"),
        (["verify", "--suite", "bounds:easy", "--sigma", "1.5"], "--sigma"),
        (["verify", "--suite", "bounds:dex", "--s", "2"], "--s"),
        (["verify", "--list", "--eps", "0"], "--eps"),
        (["identity", "--name", "meissel", "--X", "100", "--s", "3"], "--s"),
    ],
)
def test_flags_outside_their_mode_are_usage_errors(argv, flag, monkeypatch, capsys):
    # a suite runs on its own grid and only daval_general takes --s: a flag
    # that would be ignored is refused before any sieve is built
    from mobius_bounds import arith

    def no_sieve(limit):
        raise AssertionError(f"a sieve of {limit} was built")

    monkeypatch.setattr(arith, "build_table", no_sieve)
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} applies to ")


def test_identity_checks_every_s(capsys):
    rc = main(
        ["identity", "--name", "daval_general", "--X", "100", "--s", "2+1j,3",
         "--no-timestamp"]
    )
    assert rc in (0, 3)
    rows = _rows(capsys.readouterr().out)
    assert [(r["theorem_id"], r["param"]) for r in rows] == [
        ("identity-ofd", "daval_general s=(2+1j)"),
        ("identity-printed", "daval_general s=(2+1j)"),
        ("identity-ofd", "daval_general s=(3+0j)"),
        ("identity-printed", "daval_general s=(3+0j)"),
    ]
    assert all(r["verdict"] != "fail" for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["delta-sign", "--q", "1", "--X0", "10.8", "--budget", "nan"],
        ["delta-sign", "--q", "1", "--X0", "11", "--budget", "nan"],
        ["delta-sign", "--q", "1", "--X0", "inf"],
        ["delta-sign", "--q", "1", "--X0", "10.8", "--eps-max", "nan"],
        ["delta-sign", "--q", "inf", "--X0", "10.8"],
        ["delta-sign", "--q", "1", "--X0", "10.8", "--cap", "nan"],
        ["delta-sign", "--q", "1", "--X0", "10.8", "--cap", "inf"],
        ["harmonic", "--x-max", "inf"],
        ["sum", "--X", "inf"],
        ["sum", "--X", "10,1e400"],
        ["identity", "--name", "meissel", "--X", "inf"],
        ["identity", "--name", "daval_general", "--X", "10", "--s", "nan"],
        ["verify", "--theorem", "easy", "--X", "inf"],
        ["verify", "--theorem", "easy", "--X", "nan"],
        ["verify", "--theorem", "easy", "--X", "10", "--q", "inf"],
        ["verify", "--theorem", "easy", "--X", "10", "--q", "6.5"],
        ["verify", "--theorem", "easy", "--X", "10", "--k", "inf"],
        ["verify", "--theorem", "easy", "--X", "10", "--k", "1.9"],
        ["verify", "--theorem", "easy", "--X", "10", "--sigma", "inf"],
        ["sum", "--s", "nan"],
        ["sum", "--s", "inf"],
        ["sum", "--kind", "mcheck", "--s", "1+infj"],
    ],
)
def test_non_finite_and_fractional_numbers_are_usage_errors(argv, capsys):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_capacity_exit():
    assert main(["sum", "--X", "1e9", "--limit", "1000000000"]) == 65


_DEX_AT = ["verify", "--theorem", "mcheckqdex", "--X", "100", "--no-timestamp", "--s"]


@pytest.mark.parametrize(
    "s, sigma0, code, message",
    [
        ("inf", "0.5", 64, "error: s must be finite"),
        ("1+infj", "0.5", 64, "error: s must be finite"),
        ("0.5+14.134725141734693j", "0.1", 64, "error: zeta evaluation"),  # a zeta zero
        ("0.5+400j", "0.1", 65, "|Im s| <= 310"),
    ],
)
def test_dex_domain_errors_exit_without_traceback(s, sigma0, code, message, capsys):
    assert main([*_DEX_AT, s, "--sigma0", sigma0]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err and not _rows(captured.out)


@pytest.mark.parametrize(
    "argv, message",
    [
        # q^w/phi_w(q) at w = Re s - sigma0 = 0: refused before integral_abs_mq
        (["mqdex", "--q", "6", "--s", "0.5", "--sigma0", "0.5"], "q > 1 needs Re s > sigma0"),
        (["mcheckqdex", "--q", "1,6", "--s", "0.5+3j", "--sigma0", "0.5"],
         "q > 1 needs Re s > sigma0"),
        # both sides of mqdex are 0 at s = 1
        (["mqdex", "--q", "1", "--s", "1", "--sigma0", "0.1"], "mqdex is 0 <= 0 at s = 1"),
    ],
)
def test_dex_refuses_degenerate_points_before_any_row(argv, message, capsys):
    assert main(["verify", "--theorem", *argv, "--X", "100", "--no-timestamp"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("X", ["0.5", "0", "-5"])
def test_integral_refuses_X_below_1_before_any_row(X, capsys):
    assert main(["verify", "--theorem", "integral", "--X", X, "--no-timestamp"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: X must be >= 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["mqdex", "--s", "1.0000001,1.0000002,1.0000004", "--sigma0", "0.1"],
        ["mqeps", "--eps", "0.05,0.0500000001"],
        ["mcheckqeps", "--eps", "0.05,0.0500000001"],
    ],
)
def test_rows_at_distinct_parameters_carry_distinct_labels(argv, capsys):
    main(["verify", "--theorem", *argv, "--X", "100", "--q", "1", "--no-timestamp"])
    labels = [row["param"] for row in _rows(capsys.readouterr().out)]
    assert len(labels) == len(set(labels)) > 1, labels


def test_dex_row_where_the_eta_drift_exceeds_1e_13(capsys):
    assert main([*_DEX_AT, "0.3+30j", "--sigma0", "0.1"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert len(rows) == 1 and rows[0]["verdict"] == "pass"


def test_easy_example_grid(tmp_path):
    out = tmp_path / "easy.csv"
    rc = main([
        "verify", "--theorem", "easy", "--X", "1..200", "--q", "1,2,6",
        "--k", "1,2", "--sigma", "1,1.5", "--no-timestamp", "--out", str(out),
    ])
    assert rc == 0
    rows = _rows(out.read_text())
    assert len(rows) == 200 * 3 * 2 * 2
    assert all(r["verdict"] == "pass" for r in rows)


@pytest.mark.parametrize("theorem", sorted(bounds.THEOREMS))
def test_every_theorem_runs_on_the_default_grids(theorem, capsys):
    """Given --X alone, each theorem runs on the default grids and emits
    rows: they lie inside every theorem's domain, so none is a usage error."""
    assert main(["verify", "--theorem", theorem, "--X", "15,100"]) in (0, 2, 3)
    assert _rows(capsys.readouterr().out)


def test_sum_command_frozen(capsys):
    rc = main(["sum", "--kind", "mcheck", "--X", "10,11", "--no-timestamp"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert float(rows[0]["lhs"]) == pytest.approx(0.9920964730975407, abs=1e-15)
    assert float(rows[1]["lhs"]) == pytest.approx(1.0007197750798367, abs=1e-15)


def test_identity_example(capsys):
    rc = main(["identity", "--name", "meissel", "--X", "2.5", "--no-timestamp"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    ofd = [r for r in rows if r["theorem_id"] == "identity-ofd"]
    assert len(ofd) == 1
    assert float(ofd[0]["lhs"]) <= 1e-12


def test_identity_rounding_is_not_a_failure(capsys):
    # at X = 1e5 the raw residual (about 1.5e-9) is rounding over a summand
    # mass near 6e6, not a defect of the identity
    main(["identity", "--name", "euler_gamma", "--X", "100000", "--no-timestamp"])
    rows = _rows(capsys.readouterr().out)
    ofd = [r for r in rows if r["theorem_id"] == "identity-ofd"]
    assert [r["verdict"] for r in ofd] == ["inconclusive"]


def test_identity_liouville_reported_not_asserted(capsys):
    rc = main(["identity", "--name", "liouville", "--X", "1", "--no-timestamp"])
    assert rc == 0  # the known defect is reported, not failed
    rows = _rows(capsys.readouterr().out)
    printed = [r for r in rows if r["theorem_id"] == "identity-printed"]
    assert float(printed[0]["lhs"]) == pytest.approx(1.0, abs=1e-9)
    assert printed[0]["bound"] == "inf"


def test_delta_sign_certificate_artifact(tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main(["delta-sign", "--q", "1", "--X0", "10.8", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "certified_nonpositive"
    assert len(doc["records"]) == 10


def test_delta_sign_failure_exit(tmp_path):
    out = tmp_path / "cert.json"
    rc = main(["delta-sign", "--q", "1", "--X0", "11", "--out", str(out)])
    assert rc == 2
    cert = certificate_from_json(out.read_text())
    assert cert.status == "fail"
    assert cert.failure[0] == 10


def test_delta_sign_caps_flag(tmp_path):
    out = tmp_path / "cap.json"
    rc = main(["delta-sign", "--cap", "0.014", "--q", "1", "--X0", "47", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["cap"] == 0.014
    assert doc["status"] == "certified_nonpositive"


def test_delta_sign_writes_one_certificate_per_line(tmp_path):
    out = tmp_path / "certs.jsonl"
    rc = main(["delta-sign", "--q", "1,2", "--X0", "10.8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    table = build_table(1_000)
    for q, line in zip((1, 2), lines):
        cert = certificate_from_json(line)
        assert (cert.q, cert.x0) == (q, 10.8)
        assert replay_certificate(table, cert) == []


def test_harmonic_command(capsys):
    rc = main(["harmonic", "--x-max", "500", "--no-timestamp"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert all(r["verdict"] == "pass" for r in rows)


def test_byte_reproducibility(tmp_path):
    out = tmp_path / "r.csv"
    argv = [
        "verify", "--theorem", "easy", "--X", "1..50", "--q", "1",
        "--k", "1", "--sigma", "1", "--no-timestamp", "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_timestamp_header_default(tmp_path):
    out = tmp_path / "r.csv"
    argv = [
        "verify", "--theorem", "easy", "--X", "1..5", "--q", "1",
        "--k", "1", "--sigma", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    first_line = out.read_text().splitlines()[0]
    assert first_line.startswith("# 20")  # ISO timestamp comment


def test_jsonl_format(capsys):
    rc = main(["sum", "--X", "10", "--no-timestamp", "--format", "jsonl"])
    assert rc == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    doc = json.loads(lines[0])
    assert doc["theorem_id"] == "sum-m"


def test_suite_invocation(capsys):
    rc = main(["verify", "--suite", "bounds:integral", "--limit", "20000",
               "--no-timestamp"])
    assert rc == 0
    rows = _rows(capsys.readouterr().out)
    assert rows and all(r["theorem_id"] == "integral-abs-mq" for r in rows)


# one grid point shared by each --theorem and its suite
_DEX_POINT = ["--X", "1000", "--q", "6", "--s", "1+2j", "--sigma0", "0.5"]
_SHARED_POINT = {
    "easy": ("bounds:easy", ["--X", "100", "--q", "6", "--k", "2", "--sigma", "1.5"]),
    "mqeps": ("bounds:mqeps", ["--X", "100", "--q", "6", "--eps", "0.01"]),
    "mcheckqeps": ("bounds:mcheckqeps", ["--X", "100", "--q", "6", "--eps", "0.02"]),
    "mqdex": ("bounds:dex", _DEX_POINT),
    "mcheckqdex": ("bounds:dex", _DEX_POINT),
    "special": ("bounds:special", ["--X", "100", "--sigma", "1.01"]),
    "small-m": ("bounds:small-m", ["--X", "100", "--q", "2"]),
    "integral": ("bounds:integral", ["--X", "4", "--q", "2"]),
}


def test_shared_point_covers_every_theorem():
    assert set(_SHARED_POINT) == set(bounds.THEOREMS)


@pytest.mark.parametrize("theorem", sorted(_SHARED_POINT))
def test_theorem_rows_equal_suite_rows(theorem, capsys, table_mid):
    suite, grid = _SHARED_POINT[theorem]
    assert main(["verify", "--theorem", theorem, *grid, "--no-timestamp"]) == 0
    got = _rows(capsys.readouterr().out)
    keys = {(r["theorem_id"], r["X"], r["q"], r["param"]) for r in got}
    rows = suite_registry()[suite](table_mid)
    want = [
        r for r in _rows(rows_to_csv(rows))
        if (r["theorem_id"], r["X"], r["q"], r["param"]) in keys
    ]
    assert got and got == want
