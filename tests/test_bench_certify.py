"""The benchmark's certify and scan workloads run clean on the current code.

perfbench/run.py certifies, writes, parses back and replays each claim, and
judges the round trip by equality and the replay by its problems.  Its scan
pass judges every sweep by the acceptance predicates and charges prefix
builds to the traced boundaries bounds.prefix_m_q and
bounds.prefix_log_moment.  Only dense builds and mcheckqeps_scan's at=
reads reach those boundaries (mqeps_scan reads bounds.support_prefix); the
full-range sweeps draw their prefix blocks inside sweep_prefix_min, whose
time falls in each scan's own span.  Running the tiny traced passes here
makes a change that breaks a judge, drops a boundary or moves
mcheckqeps_scan's reads off it fail the tests instead of the benchmark.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _run_module(monkeypatch):
    # run.py imports its siblings (expected, workloads, probe, tracer) by name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certify_pass_is_clean(monkeypatch):
    run = _run_module(monkeypatch)
    metrics, details, log = run.per_layer("certify", 5, 0.5, tiny=True)
    assert log.attempted > 0
    assert log.failed == 0, dict(log.failures)
    assert details["unmeasured"] == []
    assert metrics["delta_sign.steps"]["value"] > 0


def test_scan_pass_is_clean(monkeypatch):
    run = _run_module(monkeypatch)
    metrics, details, log = run.per_layer("scan", 5, 0.5, tiny=True)
    assert log.attempted > 0
    assert log.failed == 0, dict(log.failures)
    assert details["unmeasured"] == []
    assert metrics["arith.prefix.calls"]["value"] > 0
