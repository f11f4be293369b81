"""Child processes of the benchmark.

    child.py setup <workload> [tiny]   time one cold set-up; print {"setup_s": s}
    child.py cli <spawn_time> <argv>   run one traced CLI call

Both run with PYTHONPATH pointing at the checkout's src (workloads.child_env).
The traced CLI launcher times interpreter start (from the parent's
perf_counter at spawn; CLOCK_MONOTONIC is shared by every process on the
host) and ``import mobius_bounds``, installs the tracer, calls
``cli.main(argv)``, returns its spans on the last stderr line and exits with
the CLI's own code.
"""

import time

T_ENTER = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from tracer import SPANS_TAG, Tracer  # noqa: E402


def setup(name: str, tiny: bool) -> int:
    import workloads

    w = workloads.WORKLOADS[name](seed=0, tiny=tiny)
    t0 = time.perf_counter()
    w.load()
    w.build()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def traced_cli(spawn: float, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.time["cli.interpreter"] += T_ENTER - spawn
    t0 = time.perf_counter()
    import mobius_bounds  # noqa: F401
    import mobius_bounds.cli as cli

    tracer.time["cli.import"] += time.perf_counter() - t0
    tracer.install()
    code = tracer.span("cli.run", cli.main, argv)
    tracer.uninstall()
    sys.stdout.flush()
    print(SPANS_TAG + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], sys.argv[3:] == ["tiny"]))
    sys.exit(traced_cli(float(sys.argv[2]), sys.argv[3:]))
