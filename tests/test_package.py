"""The lazy package root and what each command imports.

`mobius_bounds` resolves its public names on first access (PEP 562), and the
CLI imports only the submodules a command runs.  The import cases run in a
fresh interpreter each, so nothing a test imported earlier can hide an
eager import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobius_bounds

SRC = Path(__file__).resolve().parents[1] / "src"

# the public names, by the submodule that defines them
PUBLIC = {
    "analytic": (
        "AnalyticConstants", "ComplexParameter", "constants", "eps_zeta", "eta",
        "phi_ratio", "phi_s", "zeta_inequalities",
    ),
    "arith": (
        "ArithmeticTable", "Modulus", "build_table", "chebyshev_psi", "m_check_q",
        "m_check_q_s", "m_q", "m_q_s",
    ),
    "bounds": ("solve_y0", "verify_easy", "verify_special"),
    "delta_sign": (
        "DeltaCertificate", "caps_scan", "certificate_from_json", "certificate_to_json",
        "certify_sign", "derivative_bound", "interval_max", "replay_certificate",
    ),
    "harmonic": (
        "alpha", "beta", "f_of", "g_of", "kernel_identity_check", "neg_alpha_integral",
        "verify_harmonic",
    ),
    "identities": ("CATALOG_NAMES", "IdentitySpec", "catalog_check", "evaluate_ofd"),
    "reports": ("BoundRow", "bound_row", "rows_to_csv"),
    "util": (
        "FAIL", "INCONCLUSIVE", "PASS", "Approx", "BracketError", "CapacityError",
        "NearZeroError", "cert_le", "floor_int",
    ),
}
SUBMODULES = (*PUBLIC, "cli")


def _fresh(code: str):
    """Run code in a new interpreter on this checkout's src; return the JSON
    it prints last."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = "sorted(m for m in sys.modules if m == 'numpy' or m.startswith('mobius_bounds'))"


@pytest.mark.parametrize(
    "stmt, modules",
    [
        ("import mobius_bounds", ()),
        ("import mobius_bounds.cli", ("cli", "reports", "util")),
    ],
)
def test_import_loads_no_numpy(stmt, modules):
    loaded = _fresh(f"import json, sys\n{stmt}\nprint(json.dumps({_LOADED}))")
    assert loaded == sorted(["mobius_bounds", *(f"mobius_bounds.{m}" for m in modules)])


_BASE = ("cli", "util", "reports", "arith")


_COMMANDS = [
    (["identity", "--name", "meissel", "--X", "10"], _BASE + ("identities",)),
    (["sum", "--X", "10"], _BASE),
    (["verify", "--suite", "harmonic:harmonic"], _BASE + ("harmonic",)),
    (["verify", "--suite", "delta-sign:caps"], _BASE + ("analytic", "delta_sign")),
    (["verify", "--suite", "bounds:small-m"], _BASE + ("analytic", "bounds")),
    (["verify", "--suite", "bounds:mqeps"], _BASE + ("analytic", "bounds", "delta_sign")),
]


@pytest.mark.parametrize("argv, modules", _COMMANDS)
def test_each_command_loads_only_what_it_runs(argv, modules):
    code = (
        "import contextlib, io, json, sys\n"
        "from mobius_bounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "loaded = [m for m in sys.modules if m.startswith('mobius_bounds.')]\n"
        "print(json.dumps([code, sorted(loaded)]))"
    )
    code, loaded = _fresh(code)
    assert code == 0
    assert loaded == sorted(f"mobius_bounds.{m}" for m in modules)


def test_identity_leaves_numpy_ma_unloaded():
    """The identity grid and the alpha-kernel integral (harmonic:defect)
    sort and drop repeats themselves: np.unique imports numpy.ma, about
    10 ms of each call."""
    code = (
        "import contextlib, io, json, sys\n"
        "from mobius_bounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['identity', '--name', 'meissel', '--X', '1000']),\n"
        "             cli.main(['verify', '--suite', 'harmonic:defect'])]\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))"
    )
    assert _fresh(code) == [[0, 0], False]


@pytest.mark.parametrize("fmt, loads_json", [("csv", False), ("jsonl", True)])
def test_json_is_loaded_for_jsonl_output_only(fmt, loads_json):
    """reports imports json inside rows_to_jsonl, and a bounds suite other
    than mqeps leaves delta_sign (which imports json) unloaded.  The child
    prints its answer without json, so as not to load it itself."""
    code = (
        "import contextlib, io, sys\n"
        "from mobius_bounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['verify', '--suite', 'bounds:small-m', '--format', {fmt!r}])\n"
        "print('[%d, %s]' % (code, str('json' in sys.modules).lower()))"
    )
    assert _fresh(code) == [0, loads_json]


def test_no_command_and_no_y0_solve_loads_scipy():
    code = (
        "import contextlib, io, json, sys\n"
        "from mobius_bounds import bounds, cli\n"
        "bounds.solve_y0(1e12)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv, _ in {_COMMANDS!r}]\n"
        "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
        "print(json.dumps([codes, sorted(loaded)]))"
    )
    codes, loaded = _fresh(code)
    assert codes == [0] * len(_COMMANDS)
    assert loaded == []


def test_public_names_are_the_published_set():
    assert set(mobius_bounds.__all__) == {n for names in PUBLIC.values() for n in names}
    assert len(mobius_bounds.__all__) == 50


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_submodules_object(module):
    sub = importlib.import_module(f"mobius_bounds.{module}")
    listed = dir(mobius_bounds)
    for name in PUBLIC[module]:
        assert getattr(mobius_bounds, name) is getattr(sub, name), name
        assert name in listed


def test_submodules_resolve_after_a_bare_import():
    code = (
        "import json, mobius_bounds\n"
        f"listed = [m in dir(mobius_bounds) for m in {SUBMODULES!r}]\n"
        f"names = [getattr(mobius_bounds, m).__name__ for m in {SUBMODULES!r}]\n"
        "print(json.dumps([listed, names]))"
    )
    listed, names = _fresh(code)
    assert all(listed)
    assert names == [f"mobius_bounds.{m}" for m in SUBMODULES]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        mobius_bounds.nosuch  # noqa: B018


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from mobius_bounds import *", namespace)
    for name in mobius_bounds.__all__:
        assert namespace[name] is getattr(mobius_bounds, name)
