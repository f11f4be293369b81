import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobius_bounds
from mobius_bounds.arith import build_table


@pytest.fixture(scope="session")
def table_small():
    return build_table(10_000)


@pytest.fixture(scope="session")
def table_mid():
    return build_table(100_000)


@pytest.fixture(scope="session")
def table_big():
    return build_table(1_000_000)


@pytest.fixture
def without_avx512():
    """run(code) runs code in a child Python with numpy's AVX512 dispatch off
    and returns its stdout; the child imports this checkout's mobius_bounds
    and the test modules.  Skips where numpy reports no AVX512 dispatch.
    The variable is set only in the child's environment."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = [
        f for f in umath.__cpu_dispatch__
        if (f.startswith("AVX512") or f == "X86_V4") and umath.__cpu_features__.get(f)
    ]
    if not features:
        pytest.skip("numpy reports no AVX512 dispatch on this machine")
    src = str(Path(mobius_bounds.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    dirs = [src, str(Path(__file__).parent), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, dirs))

    def run(code: str) -> str:
        child = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert child.returncode == 0, child.stderr
        return child.stdout

    return run
