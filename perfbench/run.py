"""Benchmark of mobius-bounds: time-to-verdict on three workloads.

    python3 perfbench/run.py --workload {certify,scan,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the last stdout line reports the end-to-end metrics, with
--trace 1 the per-layer metrics (see perfbench/README.md).  The line before
it holds the run's details: seed, machine, failures by key, and the
times as measured.  The run, its children and the contention probe share
one CPU; end-to-end times are reported at the probe's reference speed
(see perfbench/probe.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import expected as ex
import workloads as wl
from probe import Probe
from tracer import Tracer

# metric names and units are fixed by the benchmark's contract
SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# cold set-ups per run; their median is setup_s
SETUP_SAMPLES = 5


def report(section: str, values: dict) -> dict:
    """The contract's metrics of one section, each with its value and unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[section]}


class Log:
    """Operations attempted, failures by key, and whether every output could
    be checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.correct = True

    def fail(self, op: wl.Op, why: str, unchecked: bool = False) -> None:
        self.failed += 1
        self.failures[f"{op.key}: {why}"] += 1
        if unchecked:
            self.correct = False

    def execute(self, op: wl.Op) -> float:
        """Run one operation, judge its output, return its latency."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failing operation is a result, not a crash
            dt = time.perf_counter() - t0
            self.fail(op, f"raised {type(exc).__name__}: {exc}", isinstance(exc, ex.OutputError))
            return dt
        dt = time.perf_counter() - t0
        try:
            got = op.judge(out)
        except Exception as exc:
            self.fail(op, f"unchecked output: {type(exc).__name__}: {exc}", True)
            return dt
        if got not in (op.expect, ex.INCONCLUSIVE):
            self.fail(op, f"expected {op.expect}, got {got}")
        return dt


def passes(w: wl.Workload, seconds: float) -> int:
    """Whole passes in a run: as many as fit in `seconds` at the reference
    speed, so every run of a workload attempts the same operations."""
    return 1 if w.tiny else max(1, round(seconds / w.pass_s))


def run_passes(w: wl.Workload, log: Log, n: int) -> list[list[tuple[str, str, float, float]]]:
    """n passes; for each, (key, kind, start, seconds) of every operation."""
    out = []
    for _ in range(n):
        ops = []
        for op in w.pass_ops():
            t0 = time.perf_counter()
            ops.append((op.key, op.kind, t0, log.execute(op)))
        out.append(ops)
    return out


def setup_samples(name: str, tiny: bool) -> list[tuple[float, float, float]]:
    """Cold set-up (import + fixtures) in fresh interpreters: for each,
    (start, end) of the child and the set-up seconds it measured."""
    out = []
    cmd = [sys.executable, str(wl.HERE / "child.py"), "setup", name] + (["tiny"] if tiny else [])
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=wl.ROOT, env=wl.child_env(), capture_output=True,
                              text=True, timeout=60, check=True)
        out.append((t0, time.perf_counter(), json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
    return out


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": os.environ.get(wl.THREAD_VARS[0], "default"),
    }


def end_to_end(name: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict, Log]:
    w = wl.WORKLOADS[name](seed, tiny)
    log = Log()
    with Probe(wl.child_env()) as probe:
        setups = setup_samples(name, tiny)
        t0 = time.perf_counter()
        w.load()
        w.build()
        main_setup = time.perf_counter() - t0
        runs = run_passes(w, log, passes(w, seconds))

    def at_ref(t: float, start: float, end: float) -> float:
        """Seconds at the reference speed (see probe.py)."""
        return t / probe.slowdown(start, end) ** w.elasticity

    measured: dict[str, list[float]] = defaultdict(list)
    ref: dict[str, list[float]] = defaultdict(list)
    kinds = {}
    for ops in runs:
        for key, kind, start, dt in ops:
            measured[key].append(dt)
            ref[key].append(at_ref(dt, start, start + dt))
            kinds[key] = kind
    per_key = {k: statistics.median(v) for k, v in ref.items()}
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(at_ref(t, a, b) for a, b, t in setups),
        "wall_s": sum(per_key.values()),
        "call_p50_s": statistics.median(per_key.values()),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    lat = [x for v in measured.values() for x in v]
    details = {
        "measured": {
            "setup_s": statistics.median(t for _, _, t in setups),
            "wall_s": sum(statistics.median(v) for v in measured.values()),
            "call_p50_s": statistics.median(statistics.median(v) for v in measured.values()),
        },
        "probe_slowdown": probe.mean_slowdown(),
        "probe_samples": len(probe.at),
        "setup_samples_s": [t for _, _, t in setups],
        "main_setup_s": main_setup,
        "pass_s": [sum(op[3] for op in ops) for ops in runs],
        "operations": len(per_key),
        "samples": len(lat),
    }
    for kind in ("certify", "replay"):
        if kind in kinds.values():
            details[f"{kind}_s"] = sum(t for k, t in per_key.items() if kinds[k] == kind)
    # the highest percentile reported is one with at least ten samples beyond it
    if len(lat) >= 100:
        details["call_p90_s"] = statistics.quantiles(lat, n=10)[-1]
    return report("end_to_end", metrics), details, log


def layer_value(name: str, tr: Tracer) -> float:
    if name.endswith(".self_s"):
        return tr.self_time.get(name[: -len(".self_s")], 0.0)
    if name.endswith(".s"):
        return tr.time.get(name[: -len(".s")], 0.0)
    if name.endswith(".calls"):
        return tr.calls.get(name[: -len(".calls")], 0)
    return tr.counters.get(name, 0)


def per_layer(name: str, seed: int, seconds: float, tiny: bool) -> tuple[dict, dict, Log]:
    """Set-up traced, then untraced and traced whole passes, half the time each.
    Layer figures are set-up plus the mean over traced passes."""
    w = wl.WORKLOADS[name](seed, tiny)
    w.load()
    setup_tr = Tracer()
    setup_tr.install()
    w.build()
    setup_tr.uninstall()
    log = Log()
    n = passes(w, seconds / 2.0)
    plain = [sum(op[3] for op in ops) for ops in run_passes(w, log, n)]
    tr = Tracer()
    w.counts.clear()
    tr.install()
    w.tracer = tr
    try:
        traced = [sum(op[3] for op in ops) for ops in run_passes(w, log, n)]
    finally:
        w.tracer = None
        tr.uninstall()
    for key, count in w.counts.items():
        tr.counters[key] += count
    metrics = {
        m["name"]: layer_value(m["name"], setup_tr) + layer_value(m["name"], tr) / n
        for m in SPEC["per_layer"]
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    details = {
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "unmeasured": sorted(set(setup_tr.unmeasured + tr.unmeasured)),
    }
    return report("per_layer", metrics), details, log


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, details, log = measure(name, seed, seconds, tiny)
    details.update(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        machine=machine_info(),
        fail_frac=log.failed / log.attempted,
        failures=dict(log.failures),
    )
    print(json.dumps({"details": details}))
    return {"correct": log.correct, "attempted": log.attempted, "failed": log.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "mobius_bounds" / "__init__.py").is_file():
        print(f"error: no package source at {wl.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that peak memory is the workload's own
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", n, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for n in sorted(wl.WORKLOADS)
        ]
        return 1 if any(codes) else 0
    # one CPU for the generator, its children and the probe, so that the
    # probe sees the contention the program meets
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in wl.THREAD_VARS:  # before numpy is imported, here or in a child
        os.environ[var] = "1"
    sys.path.insert(1, str(wl.SRC))
    import mobius_bounds

    if wl.SRC not in Path(mobius_bounds.__file__).resolve().parents:
        print(f"error: mobius_bounds imported from {mobius_bounds.__file__}", file=sys.stderr)
        return 2
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
