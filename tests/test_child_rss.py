"""tools/child_rss.py over the cli workload's tiny command set."""

import os
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


def test_children_import_a_bytecode_free_copy_of_src(tmp_path):
    """The children's environment: PYTHONDONTWRITEBYTECODE=1, and the
    package's src on PYTHONPATH replaced by a copy that leaves out every
    __pycache__, so a stray .pyc in the tree is never read; no
    PYTHONPYCACHEPREFIX is added, so installed packages keep their bytecode."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import child_rss
    finally:
        sys.path.remove(str(ROOT / "tools"))
    root = tmp_path / "tree"
    (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    (root / "src" / "pkg" / "__pycache__" / "mod.cpython.pyc").write_bytes(b"stale")
    base = {"PYTHONPATH": os.pathsep.join([str(root / "src"), "/elsewhere"]), "HOME": "/h"}
    env = child_rss.fresh_env(root, base, tmp_path / "copy")
    src = tmp_path / "copy" / "src"
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["PYTHONPATH"].split(os.pathsep) == [str(src), "/elsewhere"]
    assert "PYTHONPYCACHEPREFIX" not in env and env["HOME"] == "/h"
    assert (src / "pkg" / "mod.py").read_text() == "X = 1\n"
    assert not list(src.rglob("__pycache__"))
