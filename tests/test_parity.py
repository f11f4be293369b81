"""The comparison, the invocation list and the family grid of tools/parity.py."""

import importlib.util
from pathlib import Path

from mobius_bounds import arith, bounds, identities
from mobius_bounds.cli import suite_registry

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(monkeypatch):
    # parity imports bench_pairs by name, as a script beside it does
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("parity", TOOLS / "parity.py")
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


def test_differences_name_each_family_that_moved(monkeypatch):
    tool = _tool(monkeypatch)

    def family(digest):
        return {"sha256": digest}

    parent = {"easy": family("a" * 64), "special": family("b" * 64), "prefix": family("c" * 64)}
    assert tool.differences(parent, dict(parent)) == []
    change = {**parent, "special": family("d" * 64), "small_m": family("e" * 64)}
    assert tool.differences(parent, change) == [
        f"special: sha256 {'b' * 64!r} -> {'d' * 64!r}",
        "small_m: run by one side only",
    ]
    assert tool.differences({"eps": family("a" * 64)}, {}) == ["eps: run by one side only"]


def test_invocations_cover_every_suite_theorem_and_identity(monkeypatch):
    tool = _tool(monkeypatch)
    assert set(tool.SUITES) == set(suite_registry())
    assert set(tool.THEOREMS) == set(bounds.THEOREMS)
    assert set(tool.IDENTITIES) == set(identities.CATALOG_NAMES)


def test_families_cover_every_scan(monkeypatch):
    tool = _tool(monkeypatch)
    scans = {name for name in dir(bounds) if name.endswith("_scan")}
    calls = {family: list(tool._family_calls(family, arith, bounds)) for family in tool.FAMILIES}
    assert {f.__name__ for c in calls.values() for f, _ in c} == scans | {"prefix_log_moment"}
    easy = [args for _, args in calls["easy"]]
    assert {k for _, _, k, _ in easy} == {1, 2, 3, 4, 5}
    assert len({q for _, q, _, _ in easy}) == 64 and len({s for *_, s in easy}) == 4
    assert max(args[0] for c in calls.values() for _, args in c) == tool.FAMILY_LIMIT == 300_000
