"""Desk-scale verification toolkit for explicit Mobius-sum estimates.

The package root is lazy (PEP 562): importing it loads no submodule and no
numpy.  A public name, or a submodule name such as ``mobius_bounds.arith``,
imports its module on first access, so a command compiles only the modules
it runs.
"""
from __future__ import annotations

import importlib

# submodule -> the public names it defines; __all__ is derived from this
_EXPORTS: dict[str, tuple[str, ...]] = {
    "analytic": (
        "AnalyticConstants",
        "ComplexParameter",
        "constants",
        "eps_zeta",
        "eta",
        "phi_ratio",
        "phi_s",
        "zeta_inequalities",
    ),
    "arith": (
        "ArithmeticTable",
        "Modulus",
        "build_table",
        "chebyshev_psi",
        "m_check_q",
        "m_check_q_s",
        "m_q",
        "m_q_s",
    ),
    "bounds": ("solve_y0", "verify_easy", "verify_special"),
    "cli": (),
    "delta_sign": (
        "DeltaCertificate",
        "caps_scan",
        "certificate_from_json",
        "certificate_to_json",
        "certify_sign",
        "derivative_bound",
        "interval_max",
        "replay_certificate",
    ),
    "harmonic": (
        "alpha",
        "beta",
        "f_of",
        "g_of",
        "kernel_identity_check",
        "neg_alpha_integral",
        "verify_harmonic",
    ),
    "identities": ("CATALOG_NAMES", "IdentitySpec", "catalog_check", "evaluate_ofd"),
    "reports": ("BoundRow", "bound_row", "rows_to_csv"),
    "util": (
        "FAIL",
        "INCONCLUSIVE",
        "PASS",
        "Approx",
        "BracketError",
        "CapacityError",
        "NearZeroError",
        "cert_le",
        "floor_int",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it on the package as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
