"""The comparison and the family grid of tools/scan_parity.py."""

import importlib.util
from pathlib import Path

from mobius_bounds import arith, bounds

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(monkeypatch):
    # scan_parity imports bench_pairs by name, as a script beside it does
    monkeypatch.syspath_prepend(str(TOOLS))
    spec = importlib.util.spec_from_file_location("scan_parity", TOOLS / "scan_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differences_name_each_family_that_moved(monkeypatch):
    tool = _tool(monkeypatch)
    parent = {"easy": "a" * 64, "special": "b" * 64, "prefix": "c" * 64}
    assert tool.differences(parent, dict(parent)) == []
    change = {"easy": "a" * 64, "special": "d" * 64, "prefix": "c" * 64, "small_m": "e" * 64}
    assert tool.differences(parent, change) == [
        f"special: {'b' * 64} -> {'d' * 64}",
        "small_m: run by one side only",
    ]
    assert tool.differences({"eps": "a" * 64}, {}) == ["eps: run by one side only"]


def test_families_cover_every_scan(monkeypatch):
    tool = _tool(monkeypatch)
    scans = {name for name in dir(bounds) if name.endswith("_scan")}
    calls = {family: list(tool._family_calls(family, arith, bounds)) for family in tool.FAMILIES}
    assert {f.__name__ for c in calls.values() for f, _ in c} == scans | {"prefix_log_moment"}
    easy = [args for _, args in calls["easy"]]
    assert {k for _, _, k, _ in easy} == {1, 2, 3, 4, 5}
    assert len({q for _, q, _, _ in easy}) == 64 and len({s for *_, s in easy}) == 4
    assert max(args[0] for c in calls.values() for _, args in c) == tool.FAMILY_LIMIT == 300_000
