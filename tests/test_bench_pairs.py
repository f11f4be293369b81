"""The pair summary of tools/bench_pairs.py, on hand-made pairs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change, key="setup_s"):
    return [{"parent": {key: b, "rate": 1.0}, "change": {key: c, "rate": 1.0}}
            for b, c in zip(parent, change)]


def test_summary_counts_wins_and_applies_the_gain_rule():
    parent = [1.0, 0.9, 1.1, 1.0, 0.95, 1.05, 1.0, 0.98, 1.02, 1.0]
    change = [0.6, 0.55, 0.62, 0.58, 0.6, 0.57, 0.59, 0.61, 0.6, 1.2]  # one loss
    got = _tool().summarize(_pairs(parent, change), METRICS)
    s = got["setup_s"]
    assert (s["wins"], s["losses"], s["ties"]) == (9, 1, 0)
    assert s["parent"]["median"] == pytest.approx(1.0)
    assert s["parent"]["q1"] == pytest.approx(0.985)
    assert s["parent"]["q3"] == pytest.approx(1.015)
    assert s["change"]["median"] == pytest.approx(0.6)
    assert s["change_over_parent"] == pytest.approx(0.6)
    assert s["gain"] and s["within_bound"]
    # equal rates are ties: no gain, and within the bound
    r = got["rate"]
    assert (r["wins"], r["losses"], r["ties"]) == (0, 0, 10)
    assert not r["gain"] and r["within_bound"]


def test_summary_rejects_a_gain_inside_the_spread_and_flags_a_regression():
    tool = _tool()
    # 9 of 10 wins, but the medians differ by less than the parent's quartile gap
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.3, 0.7, 1.0, 1.0]
    change = [p - 0.05 for p in parent[:9]] + [1.5]
    s = tool.summarize(_pairs(parent, change), METRICS)["setup_s"]
    assert s["wins"] == 9 and not s["gain"]
    # higher is better: a 20% lower rate is past a 10% bound
    pairs = [{"parent": {"setup_s": 1.0, "rate": 10.0}, "change": {"setup_s": 1.0, "rate": 8.0}}]
    r = tool.summarize(pairs, METRICS)["rate"]
    assert r["losses"] == 1 and not r["within_bound"] and not r["gain"]
    assert r["parent"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}


def test_summary_shows_no_gain_from_fewer_than_ten_pairs():
    tool = _tool()
    # one clear win: the quartiles collapse to the one value, yet no gain
    s = tool.summarize(_pairs([1.0], [0.5]), METRICS)["setup_s"]
    assert s["wins"] == 1 and s["within_bound"] and not s["gain"]
    # nine of nine clear wins are still too few; the tenth makes the gain
    parent = [1.0, 0.9, 1.1, 1.0, 0.95, 1.05, 1.0, 0.98, 1.02, 1.0]
    change = [0.6] * 10
    assert not tool.summarize(_pairs(parent[:9], change[:9]), METRICS)["setup_s"]["gain"]
    assert tool.summarize(_pairs(parent, change), METRICS)["setup_s"]["gain"]


def _run(scale, slowdown=1.0, **times):
    metrics = {"setup_s": 0.125 * scale, "wall_s": 0.146 * scale, "call_p50_s": 0.0121 * scale,
               "peak_rss_mb": 40.3}
    metrics.update(times)
    return {"metrics": metrics, "probe_slowdown": slowdown}


def test_scaled_runs_flag_a_run_whose_times_all_move_by_one_factor():
    tool = _tool()
    # the parent's run at seed 2109 in BENCH_19.json read all three times at
    # 0.39 of its siblings; a run slower by 1.8 is flagged too
    parent = [_run(1.0 + 0.01 * i) for i in range(10)]
    parent[8] = _run(0.39, slowdown=2.5)
    change = [_run(1.0) for _ in range(10)]
    change[3] = _run(1.8)
    pairs = [{"seed": 2101 + i, "parent": b, "change": c}
             for i, (b, c) in enumerate(zip(parent, change))]
    got = tool.scaled_runs(pairs)
    assert [(r["side"], r["seed"], r["probe_slowdown"]) for r in got] == [
        ("parent", 2109, 2.5), ("change", 2104, 1.0)]
    assert got[0]["ratios"]["wall_s"] == pytest.approx(0.39 / 1.035)
    # one time alone, or all three inside [0.6, 1/0.6] of the median, is not flagged
    change[3] = _run(1.0, setup_s=0.01, wall_s=0.01)
    change[5] = _run(0.61)
    change[6] = _run(1.65)
    pairs = [{"seed": 2101 + i, "parent": b, "change": c}
             for i, (b, c) in enumerate(zip(parent, change))]
    assert [(r["side"], r["seed"]) for r in tool.scaled_runs(pairs)] == [("parent", 2109)]


def test_probe_outliers_list_runs_the_probe_read_apart():
    tool = _tool()
    # the seeds 8401-8410 certify set: two parent runs at probe slowdowns
    # 1.94 and 1.91 (the other 18 runs 1.34-1.74) read wall_s 0.0695 and
    # 0.0708 s against a parent median of 0.117 s, setup_s staying normal
    slow = iter([1.34, 1.40, 1.44, 1.47, 1.48, 1.49, 1.51, 1.53, 1.55, 1.56,
                 1.57, 1.58, 1.59, 1.61, 1.62, 1.65, 1.69, 1.74])
    walls = iter([0.112, 0.115, 0.117, 0.117, 0.117, 0.118, 0.119, 0.121])
    outliers = {3: _run(1.0, 1.94, wall_s=0.0695), 6: _run(1.0, 1.91, wall_s=0.0708)}
    parent = [outliers.get(i) or _run(1.0, next(slow), wall_s=next(walls)) for i in range(10)]
    change = [_run(1.0, next(slow)) for _ in range(10)]
    pairs = [{"seed": 8401 + i, "parent": b, "change": c}
             for i, (b, c) in enumerate(zip(parent, change))]
    assert tool.scaled_runs(pairs) == []
    got = tool.probe_outliers(pairs)
    assert [(r["side"], r["seed"], r["probe_slowdown"]) for r in got] == [
        ("parent", 8404, 1.94), ("parent", 8407, 1.91)]
    assert got[0]["ratios"]["wall_s"] == pytest.approx(0.0695 / 0.117)
    assert got[1]["ratios"]["setup_s"] == pytest.approx(1.0)
    # the list changes no summary: the medians still count every run
    values = [{side: p[side]["metrics"] for side in ("parent", "change")} for p in pairs]
    summary = tool.summarize(values, [dict(METRICS[0], name="wall_s")])
    assert summary["wall_s"]["parent"]["median"] == pytest.approx(0.117)
    # a slowdown as far below the quartiles is listed too
    change[0] = _run(1.0, 1.0)
    pairs[0]["change"] = change[0]
    assert [(r["side"], r["seed"]) for r in tool.probe_outliers(pairs)] == [
        ("parent", 8404), ("parent", 8407), ("change", 8401)]
