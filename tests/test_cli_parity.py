"""The comparison and the invocation list of tools/cli_parity.py."""

import importlib.util
from pathlib import Path

from mobius_bounds import bounds, identities
from mobius_bounds.cli import suite_registry

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(monkeypatch):
    # cli_parity imports bench_pairs by name, as a script beside it does
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("cli_parity", TOOLS / "cli_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(code=0, digest="a" * 64, last="2 rows: 2 pass, 0 fail, 0 inconclusive"):
    return {"exit": code, "stdout_sha256": digest, "stderr_last": last}


def test_differences_name_each_field_that_moved(monkeypatch):
    tool = _tool(monkeypatch)
    parent = {"sum": _record(), "harmonic --x-max 1000": _record(), "sum --X abc": _record(64)}
    assert tool.differences(parent, dict(parent)) == []
    change = {
        "sum": _record(code=2),
        "harmonic --x-max 1000": _record(digest="b" * 64, last="10 rows"),
        "sum --X abc": _record(64),
        "verify --list": _record(),
    }
    assert tool.differences(parent, change) == [
        "sum: exit 0 -> 2",
        f"harmonic --x-max 1000: stdout_sha256 {'a' * 64!r} -> {'b' * 64!r}",
        "harmonic --x-max 1000: stderr_last "
        "'2 rows: 2 pass, 0 fail, 0 inconclusive' -> '10 rows'",
        "verify --list: run by one side only",
    ]
    assert tool.differences({}, {"sum": _record()}) == ["sum: run by one side only"]


def test_invocations_cover_every_suite_theorem_and_identity(monkeypatch):
    tool = _tool(monkeypatch)
    assert set(tool.SUITES) == set(suite_registry())
    assert set(tool.THEOREMS) == set(bounds.THEOREMS)
    assert set(tool.IDENTITIES) == set(identities.CATALOG_NAMES)
