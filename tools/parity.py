"""Run a fixed list of mobius-bounds invocations and every scan family in a
parent revision's tree and in this checkout, and report every record that
differs.

    python3 tools/parity.py --parent REV

The parent's committed tree is unpacked with bench_pairs.unpack into a
temporary directory (under $TMPDIR); the change is this checkout's working
tree.  Each invocation in INVOCATIONS runs as
`python -m mobius_bounds.cli ARGS --no-timestamp` with PYTHONPATH set to the
tree's src, one process at a time, the parent's run first.  Its record is
its exit code, the sha256 of its stdout and the last line of its stderr.

Then, in each tree, one child process, `python tools/parity.py --child SRC`
with PYTHONPATH set to the tree's src, builds one table of FAMILY_LIMIT
entries, runs the grid of each family in FAMILIES and prints one sha256 per
family, as JSON; a family's record is that sha256.  A family's digest covers
the repr of every call's result and, byte for byte, every array its sweeps
compare (each margins_of array that arith.sweep_min reads) or its sampled
grid reads (each column that bounds.prefix_log_moment or, in a tree that
has it, bounds.support_prefix returns), so the easy family's k >= 2 rows,
whose result is (0.0, 1, 0.0, 1) at every size, still pin each lhs and
margin.  The grid is wider than the scan pins of
tests/test_golden.py: the easy family at k = 1..5, four sigma and every
q | 30030, and the others up to n_max = 3e5.

Every field that differs between the two trees is printed, one line each,
and the exit code is 1 if there is any difference, 0 otherwise.  The
children inherit this process's environment, so NPY_DISABLE_CPU_FEATURES
set here reaches both trees.
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

SUITES = (
    "bounds:dex", "bounds:easy", "bounds:integral", "bounds:mcheckqeps", "bounds:mqeps",
    "bounds:small-m", "bounds:special", "delta-sign:caps", "delta-sign:certify",
    "harmonic:defect", "harmonic:harmonic",
)
THEOREMS = ("easy", "mqeps", "mcheckqeps", "mqdex", "mcheckqdex", "special", "small-m",
            "integral")
IDENTITIES = ("meissel", "elmarraki", "macleod", "euler_gamma", "liouville", "daval_general")

INVOCATIONS = (
    *(("verify", "--suite", suite) for suite in SUITES),
    # one grid inside every theorem's domain (mcheckqeps takes eps <= 1/10)
    *(("verify", "--theorem", name, "--X", "15,100", "--eps", "0,0.05") for name in THEOREMS),
    ("sum",),
    # point sums long enough for fsum_blocks' extraction path
    ("sum", "--kind", "mcheck", "--X", "100000", "--q", "1,30", "--s", "1,1.5,2+1j"),
    ("sum", "--kind", "m", "--X", "100000", "--q", "1,30030", "--s", "1,1.5,2+1j"),
    # log_moment_sum's k >= 2 powers and its real exp
    ("verify", "--theorem", "easy", "--X", "100000", "--q", "1,30030", "--k", "1,2,3",
     "--sigma", "1,1.5"),
    ("verify", "--suite", "bounds:easy", "--format", "jsonl"),  # json loaded on demand
    # verify_mqeps's IntervalKernel past FSUM_LIST_MAX terms, at eps = 0 and eps > 0
    ("verify", "--theorem", "mqeps", "--X", "2,12345.5,100000", "--q", "1,30030",
     "--eps", "0,0.01,1"),
    # the companion bound of mqeps at X just above 1 and eps = 1e-12, where
    # m_q(X; 1+eps) and m_q(X) X^(-eps) agree to about 1e-18
    ("verify", "--theorem", "mqeps", "--X", "1,1.000001,1.5,2,3.5,10,99.5",
     "--q", "1,2,30,30030", "--eps", "1e-12,1e-9,0.01,0.5,1"),
    # the zeta family near s = 1 and at large |Im s|
    *(("verify", "--theorem", name, "--X", "100,10000", "--q", "1,6", "--s",
       "1.0000001,1+1e-7j,0.8+5j,0.5+14j,0.3+30j", "--sigma0", "0.1")
      for name in ("mcheckqdex", "mqdex")),
    # e^z - 1 at small complex z: 1 - 2^(1-s), phi_s and _log_p_sum near s = 1
    # and near s = 0 (the Euler factors' expm1c)
    *(("verify", "--theorem", name, "--X", "100,10000", "--q", "1,6", "--s",
       "1.0002+0.0001j,1.001+0.001j,0.05+0.01j", "--sigma0", "0.01")
      for name in ("mcheckqdex", "mqdex")),
    # eta's stated radius away from the real axis, up to its |Im s| <= 310 cap
    *(("verify", "--theorem", name, "--X", "100,10000", "--q", "1,6", "--s",
       "0.5+200j,1+300j,0.3+30j,0.05+5j", "--sigma0", "0.01")
      for name in ("mcheckqdex", "mqdex")),
    # the cap's edge: |Im s| = 310 sums at the largest depth, and 310.0001 is
    # refused (exit 65)
    *(("verify", "--theorem", "mcheckqdex", "--X", "100", "--s", s, "--sigma0", "0.5")
      for s in ("1+310j", "1+310.0001j")),
    # 5e-12 from the zero 1 + 2πi/log 2 of 1 - 2^(1-s): ComplexParameter's
    # guard refuses it (exit 64)
    ("verify", "--theorem", "mqdex", "--X", "100", "--q", "1", "--s",
     "1.000000000005+9.064720283654388j", "--sigma0", "0.1"),
    # the dex refusals: q > 1 at Re s = sigma0, and mqdex at s = 1 (exit 64)
    ("verify", "--theorem", "mqdex", "--X", "100", "--q", "6", "--s", "0.5", "--sigma0", "0.5"),
    ("verify", "--theorem", "mqdex", "--X", "100", "--q", "1", "--s", "1", "--sigma0", "0.1"),
    # the real-sigma zeta family near s = 1 (bounds._mcheck_main)
    ("verify", "--theorem", "mcheckqeps", "--X", "15,1000,100000", "--q", "1,6",
     "--eps", "1e-7"),
    ("verify", "--theorem", "special", "--X", "15,1000,100000", "--sigma", "1.0000001"),
    *(("identity", "--name", name, "--X", "100") for name in IDENTITIES),
    # the piece integrals' expm1c at complex c + 1 (identities._int_pow)
    ("identity", "--name", "daval_general", "--X", "1000", "--s", "2+1j,1.0001+0.0003j"),
    # three grid blocks through every grid visitor, the point-mass path past
    # one block of n, and a complex and a real integral of t^c over three blocks
    *(("identity", "--name", name, "--X", "40000.5")
      for name in ("elmarraki", "euler_gamma", "liouville")),
    ("identity", "--name", "meissel", "--X", "100000"),
    ("identity", "--name", "daval_general", "--X", "40000.5", "--s", "0.5+14j,1.5"),
    ("delta-sign", "--q", "1,2", "--X0", "10.8"),
    ("delta-sign", "--q", "1", "--X0", "20", "--cap", "0.014"),
    ("harmonic", "--x-max", "1000"),
    ("sum", "--X", "abc"),  # usage error: exit 64
    ("sum", "--X", "300000000"),  # past the sieve budget: exit 65
)

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
        for q, (sigma, j) in product(strata, ((1.0, 1), (1.5, (0, 3)), (2.0, 2))):
            yield arith.prefix_log_moment, (FAMILY_LIMIT, q, sigma, j)


def family_digests(src: str) -> dict[str, str]:
    """sha256 per family, from the mobius_bounds found first on sys.path,
    which must lie in src."""
    import mobius_bounds
    import numpy as np

    if Path(src).resolve() not in Path(mobius_bounds.__file__).resolve().parents:
        raise RuntimeError(f"mobius_bounds imported from {mobius_bounds.__file__}, not {src}")
    from mobius_bounds import arith, bounds

    table = arith.build_table(FAMILY_LIMIT)
    sweep_min = arith.sweep_min

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

    def recording(reader):
        def reads(*args, **kwargs):
            out = reader(*args, **kwargs)
            add(out)
            return out

        return reads

    arith.sweep_min = recording_sweep
    for name in ("prefix_log_moment", "support_prefix"):
        if hasattr(bounds, name):
            setattr(bounds, name, recording(getattr(bounds, name)))
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


def run_cli(tree: Path, args: tuple[str, ...]) -> dict:
    """One CLI process in tree, timestamps off: its exit code, the sha256 of
    its stdout and the last line of its stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "mobius_bounds.cli", *args, "--no-timestamp"],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True,
    )
    lines = proc.stderr.decode(errors="replace").splitlines()
    return {
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr_last": lines[-1] if lines else "",
    }


def run_child(tree: Path) -> dict[str, dict]:
    """The family records of one tree, from a child process."""
    src = tree / "src"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"scan child in {tree} failed:\n{proc.stderr}")
    return {family: {"sha256": digest} for family, digest in json.loads(proc.stdout).items()}


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """One line per record and field that differ, and one per record that
    only one side ran; the keys name the records."""
    out = []
    for name in dict.fromkeys([*parent, *change]):
        if name not in parent or name not in change:
            out.append(f"{name}: run by one side only")
            continue
        a, b = parent[name], change[name]
        out += [f"{name}: {f} {a[f]!r} -> {b[f]!r}" for f in a if a[f] != b[f]]
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

    with tempfile.TemporaryDirectory(prefix="parity_") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        sha = unpack(args.parent, trees["parent"])
        records = {side: {} for side in trees}
        for invocation in INVOCATIONS:
            name = " ".join(invocation)
            for side, tree in trees.items():
                records[side][name] = run_cli(tree, invocation)
            print(f"{name}: exit {records['change'][name]['exit']}", file=sys.stderr, flush=True)
        for side, tree in trees.items():
            records[side].update(run_child(tree))
    diffs = differences(records["parent"], records["change"])
    for line in diffs:
        print(line)
    dispatch = os.environ.get("NPY_DISABLE_CPU_FEATURES", "")
    print(f"{len(INVOCATIONS) + len(FAMILIES)} records against {sha}"
          f"{f' (NPY_DISABLE_CPU_FEATURES={dispatch})' if dispatch else ''}: "
          f"{len(diffs)} differences", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
