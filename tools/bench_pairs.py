"""Record alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --parent REV --workload W [--workload W2 ...] \
        [--seed 1] --out BENCH_<n>.json

The change is HEAD.  Each revision is unpacked with `git archive REV |
tar -x` into a temporary directory (under $TMPDIR), so the checkout, its
index and its branches are left as they are.  For each workload, PAIRS = 10
pairs are run, and pair i runs
`perfbench/run.py --workload W --seed (seed + i) --seconds S --trace 0` in
both trees, the parent first in even pairs and the change first in odd
ones; S is `run_seconds` from the change's BENCHMARK.json.  The JSON written
holds every run, and per end-to-end metric each side's median and
quartiles, the change's wins, losses and ties, and whether the change is
within the metric's regression bound and meets the gain rule (at least ten
pairs, wins in at least nine tenths of them, medians apart by more than the
parent's interquartile distance), plus the seeds and the machine the runs
reported.  Each run also records the probe's mean slowdown from its details
line, and the runs whose three times all read below SCALED, or all above
1/SCALED, times their side's median are listed as scaled runs: one factor
that moves every time of a run at once (such as a misread probe) shows
there.  The runs whose probe slowdown lies more than OUTLIER = 1.5
interquartile distances outside the quartiles of all the workload's runs
are listed as probe outliers, with the same time ratios, since a misread
probe can also move one time alone.  The medians and the gain rule are
computed from every run all the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10  # the fewest pairs the gain rule accepts
TIMES = ("setup_s", "wall_s", "call_p50_s")
SCALED = 0.6
OUTLIER = 1.5


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric, the two sides' medians and quartiles and the pair record.

    pairs: one dict per pair, {"parent": {name: value}, "change": {...}}.
    metrics: BENCHMARK.json's end_to_end entries (name, unit, better, bound).
    A pair is a win when the change reads strictly better, a loss when
    strictly worse, and a tie otherwise.  Fewer than PAIRS pairs never
    show a gain.
    """
    out = {}
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        diffs = [sign * (c - b) for b, c in zip(parent, change)]
        wins = sum(d < 0 for d in diffs)
        losses = sum(d > 0 for d in diffs)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "change_over_parent": cm / pm if pm else None,
            "wins": wins,
            "losses": losses,
            "ties": len(pairs) - wins - losses,
            "within_bound": sign * (cm - pm) <= m["bound"] * abs(pm),
            "gain": (len(pairs) >= PAIRS and 10 * wins >= 9 * len(pairs)
                     and sign * (pm - cm) > p3 - p1),
        }
    return out


def _listed_runs(pairs: list[dict]):
    """Every run as a list entry: its side, seed, probe slowdown and the
    ratio of each time to the median of its side's runs."""
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs]
        medians = {k: statistics.median(r["metrics"][k] for r in runs) for k in TIMES}
        for p, run in zip(pairs, runs):
            yield {"side": side, "seed": p["seed"],
                   "ratios": {k: run["metrics"][k] / medians[k] for k in TIMES},
                   "probe_slowdown": run["probe_slowdown"]}


def scaled_runs(pairs: list[dict]) -> list[dict]:
    """The runs whose TIMES all lie below SCALED times, or all above
    1/SCALED times, the median of their side's runs.

    pairs: one dict per pair, {"seed": s, "parent": run, "change": run},
    each run holding "metrics" and "probe_slowdown".  Each run listed gives
    its side, seed, probe slowdown and the ratio of each time to its median.
    """
    return [r for r in _listed_runs(pairs)
            if all(x < SCALED for x in r["ratios"].values())
            or all(x > 1 / SCALED for x in r["ratios"].values())]


def probe_outliers(pairs: list[dict]) -> list[dict]:
    """The runs whose probe slowdown lies more than OUTLIER interquartile
    distances below the first quartile, or above the third, of the probe
    slowdowns of every run of both sides.

    pairs as for scaled_runs, and each run listed the same way.  A run the
    probe read as far more (or less) contended than its siblings may have
    its times divided by a misread factor although no time moves enough
    to be a scaled run; the medians and the gain rule ignore this list.
    """
    q1, _, q3 = quartiles([p[side]["probe_slowdown"] for p in pairs
                           for side in ("parent", "change")])
    low, high = q1 - OUTLIER * (q3 - q1), q3 + OUTLIER * (q3 - q1)
    return [r for r in _listed_runs(pairs) if not low <= r["probe_slowdown"] <= high]


def unpack(rev: str, dest: Path) -> str:
    """Extract the committed tree of rev into dest; returns the full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metric values, failures and details."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    *_, details, result = proc.stdout.splitlines()
    result, details = json.loads(result), json.loads(details)["details"]
    return {
        "seed": seed,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "probe_slowdown": details["probe_slowdown"],
        "machine": details["machine"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {}
        for (side, tree), rev in zip(trees.items(), (args.parent, "HEAD")):
            tree.mkdir()
            shas[side] = unpack(rev, tree)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = spec["run_seconds"]
        record = {"parent": shas["parent"], "change": shas["change"], "seconds": seconds,
                  "workloads": {}}
        for workload in args.workload:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {side: run_bench(trees[side], workload, args.seed + i, seconds)
                        for side in order}
                pairs.append({"seed": args.seed + i, "first": order[0], **runs})
                print(f"{workload} pair {i + 1}/{PAIRS} seed {args.seed + i}: " + ", ".join(
                    f"{side} {runs[side]['metrics']}" for side in ("parent", "change")),
                    file=sys.stderr, flush=True)
            values = [{side: p[side]["metrics"] for side in ("parent", "change")} for p in pairs]
            record["workloads"][workload] = {
                "seeds": [p["seed"] for p in pairs],
                "failed": {side: sum(p[side]["failed"] for p in pairs) for side in trees},
                "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in trees},
                "summary": summarize(values, spec["end_to_end"]),
                "scaled_runs": scaled_runs(pairs),
                "probe_outliers": probe_outliers(pairs),
                "pairs": pairs,
            }
            for key in ("scaled_runs", "probe_outliers"):
                for run in record["workloads"][workload][key]:
                    print(f"{workload}: {key} {run}", file=sys.stderr, flush=True)
            record.setdefault("machine", pairs[0]["parent"]["machine"])
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
