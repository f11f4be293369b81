"""Print the peak resident memory of each child of the benchmark's cli workload.

    python3 tools/child_rss.py --root DIR [--tiny]

The `Cli` workload's command list is imported from DIR/perfbench/workloads.py
(read only: no bytecode is written there) at seed SEED.  Each command runs
once, one at a time, as `python -m mobius_bounds.cli ...` on DIR/src with the
workload's environment and working directory, and its ru_maxrss is read from
os.wait4.  One line per child is printed, largest first: max RSS in MB, exit
status and command.  The workload's `peak_rss_mb` is the maximum over its
children (RUSAGE_CHILDREN), so the first line names the child that sets it.
--tiny takes the workload's tiny command set.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SEED = 0  # the seed draws only small-X inputs; the X = 1e5 identity call is fixed


def cli_commands(root: Path, tiny: bool) -> tuple[list[list[str]], dict[str, str]]:
    """The Cli workload's argv lists and child environment, from root's
    perfbench/workloads.py."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "perfbench"))
    import workloads

    w = workloads.Cli(SEED, tiny)
    return [argv for argv, _ in w.commands], w.env


def child_rss(root: Path, argv: list[str], env: dict[str, str]) -> tuple[float, int]:
    """(max RSS in MB, exit status) of one CLI child."""
    proc = subprocess.Popen([sys.executable, "-m", "mobius_bounds.cli", *argv], cwd=root,
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return usage.ru_maxrss / 1024.0, proc.returncode


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="checkout to measure")
    parser.add_argument("--tiny", action="store_true", help="the workload's tiny command set")
    args = parser.parse_args()
    root = args.root.resolve()
    commands, env = cli_commands(root, args.tiny)
    rows = [(*child_rss(root, argv, env), argv) for argv in commands]
    for mb, code, argv in sorted(rows, key=lambda r: -r[0]):
        print(f"{mb:8.2f} MB  exit {code}  mobius-bounds {' '.join(argv)}")


if __name__ == "__main__":
    main()
