"""Run every scan family over a fixed grid in a parent revision's tree and in
this checkout, and report every family whose outputs differ.

    python3 tools/scan_parity.py --parent REV

The parent's committed tree is unpacked with bench_pairs.unpack into a
temporary directory (under $TMPDIR); the change is this checkout's working
tree.  In each tree one child process, `python tools/scan_parity.py --child
SRC` with PYTHONPATH set to the tree's src, builds one table of
FAMILY_LIMIT entries, runs the grid of each family in FAMILIES and prints
one sha256 per family, as JSON.  A family's digest covers the repr of every
call's result and, byte for byte, every array its sweeps compare (each
margins_of array that arith.sweep_min reads) or its sampled grid reads (each
column bounds.prefix_log_moment returns), so the easy family's k >= 2 rows,
whose result is (0.0, 1, 0.0, 1) at every size, still pin each lhs and
margin.  The grid is wider than the scan pins of tests/test_golden.py: the
easy family at k = 1..5, four sigma and every q | 30030, and the others up
to n_max = 3e5.  Every family that differs is printed, one line each, and
the exit code is 1 if any does, 0 otherwise.  The children inherit this
process's environment, so NPY_DISABLE_CPU_FEATURES set here reaches both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

from bench_pairs import ROOT, unpack

FAMILY_LIMIT = 300_000
SIZES = (1_000, (1 << 15) - 1, (1 << 15) + 1, 100_003, FAMILY_LIMIT)
FAMILIES = ("easy", "mqeps", "mcheckqeps", "special", "small_m", "prefix")


def _divisors_30030() -> list[int]:
    out = [1]
    for p in (2, 3, 5, 7, 11, 13):
        out += [d * p for d in out]
    return sorted(out)


def _omega(q: int) -> int:
    return sum(q % p == 0 for p in (2, 3, 5, 7, 11, 13))


def _family_calls(family: str, arith, bounds):
    """(function, arguments after the table) of each call of one family."""
    qs = _divisors_30030()
    strata = [min(q for q in qs if _omega(q) == w) for w in range(7)]  # 1, 2, 6, .., 30030
    if family == "easy":
        for args in product(SIZES[1:4], qs, range(1, 6), (1.0, 1.2, 1.5, 2.0)):
            yield bounds.easy_scan, args
    elif family == "mqeps":
        for args in product(SIZES, strata, (0.0, 0.01, 0.1, 0.5, 1.0)):
            yield bounds.mqeps_scan, args
    elif family == "mcheckqeps":
        for args in product(SIZES, strata, (0.0, 0.02, 0.05, 0.1)):
            yield bounds.mcheckqeps_scan, args
    elif family == "special":
        for args in product(SIZES, (1.0, 1.01, 1.02, 1.04)):
            yield bounds.special_scan, args
    elif family == "small_m":
        for args in product(SIZES, qs):
            yield bounds.small_m_scan, args
    elif family == "prefix":
        for q, sigma, j in product(strata, (1.0, 1.5, 2.0), range(6)):
            yield arith.prefix_log_moment, (FAMILY_LIMIT, q, sigma, j)
        for q in strata:
            yield arith.prefix_log_moment, (FAMILY_LIMIT, q, (1.0, 1.5, 1.5, 2.0), (1, 0, 3, 2))


def family_digests(src: str) -> dict[str, str]:
    """sha256 per family, from the mobius_bounds found first on sys.path,
    which must lie in src."""
    import mobius_bounds
    import numpy as np

    if Path(src).resolve() not in Path(mobius_bounds.__file__).resolve().parents:
        raise RuntimeError(f"mobius_bounds imported from {mobius_bounds.__file__}, not {src}")
    from mobius_bounds import arith, bounds

    table = arith.build_table(FAMILY_LIMIT)
    sweep_min, prefix_log_moment = arith.sweep_min, bounds.prefix_log_moment

    def add(value):  # into the digest of the family being run
        for arr in value if isinstance(value, list) else [value]:
            h.update(np.ascontiguousarray(arr).tobytes())

    def recording_sweep(n, margins_of, floors_of=None):
        def margins(lo, hi):
            arrays = margins_of(lo, hi)
            for arr in arrays:
                add(arr)
            return arrays

        return sweep_min(n, margins, floors_of)

    def recording_reads(*args, **kwargs):
        out = prefix_log_moment(*args, **kwargs)
        add(out)
        return out

    arith.sweep_min, bounds.prefix_log_moment = recording_sweep, recording_reads
    digests = {}
    for family in FAMILIES:
        h = hashlib.sha256()
        for function, args in _family_calls(family, arith, bounds):
            out = function(table, *args)
            if isinstance(out, (list, np.ndarray)):  # a prefix: its bytes, not its repr
                add(out)
                out = None
            h.update(f"{function.__name__}{args!r} {out!r}\n".encode())
        digests[family] = h.hexdigest()
    return digests


def run_child(tree: Path) -> dict[str, str]:
    """The family digests of one tree, from a child process."""
    src = tree / "src"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"scan child in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per family whose digests differ, and one per family that
    only one side ran."""
    out = []
    for name in dict.fromkeys([*parent, *change]):
        if name not in parent or name not in change:
            out.append(f"{name}: run by one side only")
        elif parent[name] != change[name]:
            out.append(f"{name}: {parent[name]} -> {change[name]}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", help="revision of the parent")
    side.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(family_digests(args.child)))
        return 0

    with tempfile.TemporaryDirectory(prefix="scan_parity_") as tmp:
        sha = unpack(args.parent, Path(tmp))
        parent = run_child(Path(tmp))
        change = run_child(ROOT)
    diffs = differences(parent, change)
    for line in diffs:
        print(line)
    dispatch = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    print(f"{len(FAMILIES)} scan families against {sha}"
          f"{f' (NPY_DISABLE_CPU_FEATURES={dispatch})' if dispatch else ''}: "
          f"{len(diffs)} differences", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
