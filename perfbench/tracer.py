"""Layer timing from outside the program.

The tracer rebinds names in the module that consumes them (for example
``delta_sign.eps_zeta`` or ``bounds.prefix_m_q``) to wrappers that time each
call and hand back the wrapped function's return value or exception
unchanged.  Nothing in the package is edited; ``uninstall`` restores every
original binding.  A boundary whose name no longer exists is listed in
``unmeasured`` instead of stopping the run.

Spans nest: a wrapped call made inside another wrapped call is charged to its
parent's child time, so ``self_s = s - (time of wrapped calls inside)``.  A
call re-entering a layer that is already open (``m_check_q`` calling
``m_check_q_s``) is passed through, so a layer is never counted twice.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable


def _first_arg(a: tuple, k: dict, name: str) -> Any:
    return a[0] if a else k[name]


def _second_arg(a: tuple, k: dict, name: str) -> Any:
    return a[1] if len(a) > 1 else k[name]


# counters: (tracer-counter name, f(args, kwargs, result) -> amount)
_ENTRIES_TABLE = ("arith.build_table.entries", lambda a, k, r: _first_arg(a, k, "limit"))
_ENTRIES_PREFIX = ("arith.prefix.entries", lambda a, k, r: _second_arg(a, k, "n") + 1)
_STEPS = ("delta_sign.steps", lambda a, k, r: sum(len(rec.steps) for rec in r.records))
_INTERVALS = ("delta_sign.intervals", lambda a, k, r: len(r.records))
_CERT_BYTES = ("delta_sign.cert_bytes", lambda a, k, r: len(r.encode()))
_PROBLEMS = ("delta_sign.problems", lambda a, k, r: len(r))
_PIECES = ("identities.pieces", lambda a, k, r: r.pieces)
_ROWS = ("reports.rows", lambda a, k, r: len(_second_arg(a, k, "rows")))

_PKG = "mobius_bounds"
# prefix of the stderr line on which a traced CLI child returns its spans
SPANS_TAG = "PERFBENCH-SPANS "

# (consuming module, attribute, layer, counters).  An attribute of the form
# "SUITES[*]" wraps every value of that dict.
BOUNDARIES: tuple[tuple[str, str, str, tuple], ...] = (
    ("arith", "build_table", "arith.build_table", (_ENTRIES_TABLE,)),
    ("bounds", "prefix_m_q", "arith.prefix", (_ENTRIES_PREFIX,)),
    ("bounds", "prefix_log_moment", "arith.prefix", (_ENTRIES_PREFIX,)),
    ("bounds", "m_q", "arith.point_sum", ()),
    ("bounds", "m_q_s", "arith.point_sum", ()),
    ("bounds", "m_check_q_s", "arith.point_sum", ()),
    ("bounds", "log_moment_sum", "arith.point_sum", ()),
    ("identities", "m_q", "arith.point_sum", ()),
    ("identities", "m_check_q", "arith.point_sum", ()),
    ("arith", "m_q_s", "arith.point_sum", ()),
    ("arith", "m_check_q_s", "arith.point_sum", ()),
    ("delta_sign", "eps_zeta", "analytic.eps_zeta", ()),
    ("bounds", "eps_zeta", "analytic.eps_zeta", ()),
    ("delta_sign", "phi_ratio", "analytic.phi_ratio", ()),
    ("bounds", "phi_ratio", "analytic.phi_ratio", ()),
    ("delta_sign", "eps_zeta_grid", "analytic.eps_zeta_grid", ()),
    ("bounds", "inv_zeta", "analytic.zeta_family", ()),
    ("bounds", "zp_over_z2", "analytic.zeta_family", ()),
    ("bounds", "phi_s", "analytic.zeta_family", ()),
    ("analytic", "constants", "analytic.zeta_family", ()),
    ("delta_sign", "certify_sign", "delta_sign.certify_sign", (_STEPS, _INTERVALS)),
    ("delta_sign", "replay_certificate", "delta_sign.replay", (_PROBLEMS,)),
    ("delta_sign", "interval_max", "delta_sign.interval_max", ()),
    ("delta_sign", "certificate_to_json", "delta_sign.json", (_CERT_BYTES,)),
    ("delta_sign", "certificate_from_json", "delta_sign.json", ()),
    ("bounds", "easy_scan", "bounds.easy_scan", ()),
    ("bounds", "mqeps_scan", "bounds.eps_scan", ()),
    ("bounds", "mcheckqeps_scan", "bounds.eps_scan", ()),
    ("bounds", "special_scan", "bounds.special_scan", ()),
    ("bounds", "small_m_scan", "bounds.small_m_scan", ()),
    ("harmonic", "verify_harmonic", "harmonic.scan", ()),
    ("harmonic", "hanson_scan", "harmonic.scan", ()),
    ("harmonic", "neg_alpha_integral", "harmonic.scan", ()),
    ("harmonic", "psi_alpha_integral", "harmonic.psi_alpha_integral", ()),
    ("bounds", "SUITES[*]", "bounds.suite", ()),
    ("delta_sign", "SUITES[*]", "bounds.suite", ()),
    ("harmonic", "SUITES[*]", "bounds.suite", ()),
    ("identities", "evaluate_ofd", "identities.evaluate_ofd", (_PIECES,)),
    ("identities", "catalog_check", "identities.catalog_check", ()),
    ("cli", "_emit", "reports.emit", (_ROWS,)),
)


class Tracer:
    """Accumulates per-layer busy time, self time, call counts and counters."""

    def __init__(self) -> None:
        self.time: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.unmeasured: list[str] = []
        self._open: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._undo: list[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, counters: tuple = ()) -> Callable:
        def wrapper(*args, **kwargs):
            if self._open[layer]:
                return fn(*args, **kwargs)
            child = [0.0]
            self._stack.append(child)
            self._open[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open[layer] -= 1
                self._stack.pop()
                self.time[layer] += dt
                self.self_time[layer] += dt - child[0]
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            for name, amount in counters:
                try:
                    self.counters[name] += amount(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    if name not in self.unmeasured:
                        self.unmeasured.append(name)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span of `layer`."""
        return self.wrap(layer, fn)(*args, **kwargs)

    # -- installation ----------------------------------------------------

    def install(self, boundaries=BOUNDARIES) -> None:
        """Rebind every boundary that resolves; list the rest as unmeasured."""
        for mod_name, attr, layer, counters in boundaries:
            try:
                module = importlib.import_module(f"{_PKG}.{mod_name}")
            except ImportError:
                self.unmeasured.append(f"{mod_name}.{attr}")
                continue
            if attr.endswith("[*]"):
                table = getattr(module, attr[:-3], None)
                if not isinstance(table, dict):
                    self.unmeasured.append(f"{mod_name}.{attr}")
                    continue
                for key, fn in list(table.items()):
                    table[key] = self.wrap(layer, fn, counters)
                    self._undo.append(lambda t=table, k=key, f=fn: t.__setitem__(k, f))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.unmeasured.append(f"{mod_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(layer, fn, counters))
            self._undo.append(lambda m=module, a=attr, f=fn: setattr(m, a, f))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "time": dict(self.time),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "unmeasured": list(self.unmeasured),
        }

    def merge(self, snap: dict) -> None:
        for field in ("time", "self_time", "calls", "counters"):
            dst = getattr(self, field)
            for key, value in snap[field].items():
                dst[key] += value
        for name in snap["unmeasured"]:
            if name not in self.unmeasured:
                self.unmeasured.append(name)
