"""Two-integral convolution identities: raw form, printed forms, known defects."""

import math
import tracemalloc

import numpy as np
import pytest

from mobius_bounds.identities import (
    CATALOG_NAMES,
    CATALOG_SPECS,
    IdentitySpec,
    _floor_array,
    _grid,
    _libm,
    catalog_check,
    evaluate_ofd,
)
from mobius_bounds.util import BLOCK, expm1c, floor_int

X_GRID = (1.0, 1.5, 2.0, math.e, 10.0, 100.0, 1000.0)


@pytest.mark.parametrize("name", sorted(CATALOG_SPECS))
@pytest.mark.parametrize("X", X_GRID)
def test_raw_ofd_residual(table_small, name, X):
    rep = catalog_check(table_small, name, X)
    assert abs(rep.ofd_residual) <= 1e-9, (name, X, rep.ofd_residual)


@pytest.mark.parametrize("name", ["meissel", "elmarraki", "macleod"])
@pytest.mark.parametrize("X", X_GRID)
def test_printed_forms_hold(table_small, name, X):
    rep = catalog_check(table_small, name, X)
    assert rep.residual <= 1e-9, (name, X, rep.residual)


@pytest.mark.parametrize("X", X_GRID)
def test_euler_gamma_corrected_bracket(table_small, X):
    rep = catalog_check(table_small, "euler_gamma", X)
    # corrected bracket matches; the literal printed one drifts with X
    assert rep.alt_residual <= 1e-9, (X, rep.alt_residual)
    assert "1/t" in rep.note


def test_euler_gamma_printed_actually_off(table_small):
    # the defect is real, not a rounding artifact
    rep = catalog_check(table_small, "euler_gamma", 100.0)
    assert rep.residual > 1e-6


def test_liouville_printed_defect_at_one(table_small):
    rep = catalog_check(table_small, "liouville", 1.0)
    assert abs(rep.residual - 1.0) <= 1e-9
    assert abs(rep.ofd_residual) <= 1e-12
    assert rep.note != ""


@pytest.mark.parametrize(
    "spec",
    [
        IdentitySpec("mobius", "one", "power", "id", s=0.5),
        IdentitySpec("mobius", "one", "power", "power", s=0.3),
        IdentitySpec("mobius_over_id", "one", "one", "id"),
        IdentitySpec("liouville", "one", "one", "id"),
        IdentitySpec("mangoldt", "one", "one", "id"),
        IdentitySpec("mobius_coprime", "one", "one", "id", q=6),
        IdentitySpec("mobius", "alternating", "dirac_at_1", "id"),
        IdentitySpec("mobius", "one", "inverse_id", "id_log_variant"),
    ],
)
@pytest.mark.parametrize("X", (1.0, 7.5, 100.0))
def test_generic_ofd_instances(table_small, spec, X):
    res = evaluate_ofd(table_small, spec, X)
    assert abs(res.residual) <= 1e-9, (spec, X, res.residual)


def test_daval_general_default(table_small):
    rep = catalog_check(table_small, "daval_general", 50.0)
    assert abs(rep.ofd_residual) <= 1e-9
    assert rep.name in CATALOG_NAMES


def test_catalog_guards(table_small):
    with pytest.raises(ValueError):
        catalog_check(table_small, "nope", 10.0)
    with pytest.raises(ValueError):
        catalog_check(table_small, "meissel", 0.5)


def test_floor_array_is_floor_int_elementwise():
    # the snap threshold 32 EPS max(1, |r|) lies between 32 and 64 ulp of r,
    # so r +- j ulp for j < 80 crosses it on both sides
    rng = np.random.default_rng(7)
    ints = np.concatenate(
        (np.arange(-3.0, 21.0), [1e3, 12345.0, 65536.0, 1e5, 2e6],
         rng.integers(2, 2_000_000, 200).astype(np.float64))
    )
    steps = np.arange(-80, 81)
    near = (ints[:, None] + steps[None, :] * np.spacing(np.abs(ints))[:, None]).ravel()
    X = 1e5
    v = np.concatenate(
        ([0.1 * 30, 2.999, 0.5, 2.5, -0.5], near, X / np.arange(1.0, X + 1.0))
    )
    assert _floor_array(v).tolist() == [floor_int(x) for x in v.tolist()]


def test_sliced_libm_equals_one_list_map():
    """_libm maps libm one BLOCK slice at a time; across a slice edge its
    values are those of one map over one list, byte for byte."""
    rng = np.random.default_rng(15)
    a = rng.uniform(0.5, 3.0, 2 * BLOCK + 3)
    z = a * np.exp(1j * rng.uniform(-3.0, 3.0, a.size))
    for fn, arr, dtype in (
        (math.log, a, np.float64),
        (math.expm1, a[::2], np.float64),
        (expm1c, z, np.complex128),
    ):
        want = np.fromiter(map(fn, arr.tolist()), dtype, len(arr))
        assert _libm(fn, arr, dtype).tobytes() == want.tobytes(), fn


# Peak traced bytes per piece of evaluate_ofd(euler_gamma) at X = 20,000
# (39,969 pieces, two blocks), its grid already cached: 253.7 while every
# piece array was formed whole and every sum took one list, 125.2 with the
# pieces formed one block at a time and the sums fed one slice at a time.
OFD_BYTES_PER_PIECE = 160


def test_evaluate_ofd_holds_one_block_of_pieces(table_mid):
    X = 20_000.0
    _grid(X)
    tracemalloc.start()
    try:
        rep = evaluate_ofd(table_mid, CATALOG_SPECS["euler_gamma"], X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.pieces > BLOCK
    assert peak <= OFD_BYTES_PER_PIECE * rep.pieces, peak / rep.pieces
