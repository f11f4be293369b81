"""tools/child_rss.py over the cli workload's tiny command set."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_child_rss_lists_every_tiny_cli_child_largest_first():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "child_rss.py"), "--root", str(ROOT), "--tiny"],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    lines = out.splitlines()
    # one suite, three identity names, one theorem grid, one sum, one harmonic
    # sweep and the large identity call (X = 1000 in the tiny set)
    assert len(lines) == 8, out
    mbs = [float(line.split()[0]) for line in lines]
    assert mbs == sorted(mbs, reverse=True), out
    assert all(10.0 < mb < 1000.0 for mb in mbs), out
    assert all(line.split()[2] == "exit" and line.split()[3] in ("0", "2", "3")
               for line in lines), out
    assert sum("identity --name euler_gamma --X 1000 --no-timestamp" in line
               for line in lines) == 1, out
