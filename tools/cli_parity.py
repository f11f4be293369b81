"""Run a fixed list of mobius-bounds invocations in a parent revision's tree
and in this checkout, and report every one whose result differs.

    python3 tools/cli_parity.py --parent REV

The parent's committed tree is unpacked with bench_pairs.unpack into a
temporary directory (under $TMPDIR); the change is this checkout's working
tree.  Each invocation in INVOCATIONS runs as
`python -m mobius_bounds.cli ARGS` with PYTHONPATH set to the tree's src,
one process at a time, the parent's run first.  A run's record is its exit
code, the sha256 of its stdout and the last line of its stderr.  Every
field that differs between the two trees is printed, one line each, and the
exit code is 1 if there is any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, unpack

FIELDS = ("exit", "stdout_sha256", "stderr_last")

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
    # delta_q's IntervalKernel past FSUM_LIST_MAX terms, at eps = 0 and eps > 0
    ("verify", "--theorem", "mqeps", "--X", "2,12345.5,100000", "--q", "1,30030",
     "--eps", "0,0.01,1"),
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


def differences(parent: dict[str, dict], change: dict[str, dict]) -> list[str]:
    """One line per invocation and field whose records differ, and one per
    invocation that only one side ran; the keys name the invocations."""
    out = []
    for name in dict.fromkeys([*parent, *change]):
        if name not in parent or name not in change:
            out.append(f"{name}: run by one side only")
            continue
        a, b = parent[name], change[name]
        out += [f"{name}: {f} {a[f]!r} -> {b[f]!r}" for f in FIELDS if a[f] != b[f]]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent")
    args = parser.parse_args(argv)

    records = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="cli_parity_") as tmp:
        sha = unpack(args.parent, Path(tmp))
        for invocation in INVOCATIONS:
            name = " ".join(invocation)
            for side, tree in (("parent", Path(tmp)), ("change", ROOT)):
                records[side][name] = run_cli(tree, invocation)
            print(f"{name}: exit {records['change'][name]['exit']}", file=sys.stderr, flush=True)
    diffs = differences(records["parent"], records["change"])
    for line in diffs:
        print(line)
    print(f"{len(INVOCATIONS)} invocations against {sha}: {len(diffs)} differences",
          file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
