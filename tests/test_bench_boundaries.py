"""Every layer boundary the benchmark's tracer wraps must exist.

perfbench/tracer.py rebinds (module, attribute) pairs of the package to time
them; a boundary that no longer resolves is silently reported as unmeasured.
Checking the table here makes a rename or an inlined call fail the tests
instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _, _ in module.BOUNDARIES]


@pytest.mark.parametrize("mod_name, attr", _boundaries())
def test_boundary_resolves(mod_name, attr):
    module = importlib.import_module(f"mobius_bounds.{mod_name}")
    if attr.endswith("[*]"):
        table = getattr(module, attr[:-3], None)
        assert isinstance(table, dict) and table, f"{mod_name}.{attr}"
        assert all(callable(fn) for fn in table.values()), f"{mod_name}.{attr}"
    else:
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
