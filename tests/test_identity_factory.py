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
    _grid_blocks,
    _libm,
    catalog_check,
    evaluate_ofd,
)
from mobius_bounds import identities
from mobius_bounds.arith import build_table
from mobius_bounds.util import BLOCK, EPS, CapacityError, expm1c, floor_int

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


def _breakpoints(X, n, upto=math.inf):
    """The one-shot cut points, the oracle of _grid_blocks: 1, X, every
    integer and every X/m in [1, X], sorted and distinct, less each point
    within 64 EPS X of the distinct point before it.  With upto, only the
    points <= upto; the merge rule looks back only, so they are the same."""
    pts = [np.array([1.0, X])]
    if n >= 2:
        pts.append(np.arange(2.0, min(n, upto) + 1.0))
    m = np.arange(max(1.0, math.floor(X / upto)), n + 1.0)
    pts.append(X / m)
    allpts = np.concatenate(pts)
    allpts = allpts[(allpts >= 1.0) & (allpts <= min(X, upto))]
    allpts = np.unique(allpts)
    keep = np.empty(len(allpts), dtype=bool)
    keep[0] = True
    if len(allpts) > 1:
        keep[1:] = np.diff(allpts) > 64.0 * EPS * X
    return allpts[keep]


def _joined(blocks):
    """The cut points of consecutive blocks, each shared cut once."""
    return np.concatenate([blocks[0].cuts, *(b.cuts[1:] for b in blocks[1:])])


@pytest.mark.parametrize(
    "X",
    # 3 - 2 ulp: floor_int snaps n to 3, above X, and X/3 falls below 1
    (1.0, 1.5, math.e, 3.0 - 4 * EPS, 1000.0, 2000.5, 40_000.0, 99_999.9, 1e5, 1e6),
)
def test_grid_blocks_equal_one_shot_breakpoints(X):
    """The streamed cut points are the one-shot ones, byte for byte; m and k
    are the int64 values read off them, as int32; the logs are libm's."""
    n = floor_int(X)
    want = _breakpoints(X, n)
    blocks = list(_grid_blocks(X))
    if len(want) == 1:
        assert blocks == []
        return
    assert all(0 < b.m.size <= BLOCK for b in blocks)
    assert all(b.cuts.size == b.m.size + 1 for b in blocks)
    assert _joined(blocks).tobytes() == want.tobytes()
    lo, hi = want[:-1], want[1:]
    tm = 0.5 * (lo + hi)
    m = np.concatenate([b.m for b in blocks])
    k = np.concatenate([b.k for b in blocks])
    assert m.dtype == k.dtype == np.int32
    assert np.array_equal(m, np.minimum(_floor_array(X / tm), n))
    assert np.array_equal(k, np.minimum(_floor_array(tm), n))
    if X <= 1e5:
        lt = np.concatenate([blocks[0].lt, *(b.lt[1:] for b in blocks[1:])])
        lr = np.concatenate([b.lr for b in blocks])
        assert lt.tobytes() == _libm(math.log, want).tobytes()
        assert lr.tobytes() == _libm(math.log, hi / lo).tobytes()


def test_grid_blocks_carry_the_merge_across_window_edges(monkeypatch):
    """Near t = 1 at X = 8.5e6 consecutive X/m lie 1/X apart, inside 64 EPS
    X, so every point there is dropped and every window edge falls between
    two points within 64 EPS X; the first cut past them must be the oracle's,
    which compares each point with the distinct point before it, kept or not,
    across the edge."""
    X = 8.5e6
    monkeypatch.setattr(identities, "BLOCK", 4096)
    first = next(_grid_blocks(X))
    upto = first.cuts[-1]
    want = _breakpoints(X, floor_int(X), upto)
    assert first.cuts.tobytes() == want.tobytes()
    # the dropped run spans many windows: its distinct points all lie
    # within 64 EPS X of the one before
    head = X / np.arange(X, X / want[1], -1.0)
    assert head.size > 20 * 4096
    assert np.diff(head).max() <= 64.0 * EPS * X


def test_piece_cap_stays_below_where_the_merge_rule_drops_cuts():
    """evaluate_ofd refuses 2 floor(X) + 2 > _PIECE_CAP pieces.  At the largest
    n = floor(X) it admits, the cut points nearest t = 1, X/n and X/(n - 1),
    must lie more than 64 EPS X apart, or the merge rule drops the X/m there
    (past X = 8.4e6; see the test above).  Their ratio to 64 EPS X does not
    depend on X within [n, n + 1), so raising the cap fails here until that
    rule is fixed."""
    n = (identities._PIECE_CAP - 2) // 2
    X = n + 0.5
    assert X / (n - 1) - X / n > 64.0 * EPS * X


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_check_refuses_past_the_piece_cap_before_any_sum(monkeypatch, name):
    """At the first X whose grid passes _PIECE_CAP, catalog_check raises
    CapacityError before it reads a sum, Mertens value or lambda."""
    n = identities._PIECE_CAP // 2
    assert 2 * n + 2 > identities._PIECE_CAP
    table = build_table(n)

    def refused(*args, **kwargs):
        raise AssertionError("a sum was read past the piece cap")

    for owner, attr in ((identities, "m_q"), (identities, "m_check_q"),
                        (table, "mertens"), (table, "liouville")):
        monkeypatch.setattr(owner, attr, refused)
    with pytest.raises(CapacityError, match="pieces"):
        catalog_check(table, name, float(n))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_check_calls_evaluate_ofd_once(table_small, monkeypatch, name):
    """catalog_check reaches the raw form through the module's evaluate_ofd,
    once, so a wrapper put there (the benchmark's tracer) sees every pass."""
    calls = []
    true_evaluate = identities.evaluate_ofd

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return true_evaluate(*args, **kwargs)

    monkeypatch.setattr(identities, "evaluate_ofd", counted)
    catalog_check(table_small, name, 100.0)
    assert len(calls) == 1 and calls[0][1] == 100.0, calls


# A cold catalog_check(euler_gamma) holds one block of pieces at a time and
# a few float64 lookups of n + 1 entries: at most five live at once (f, S_f,
# S_{f*g}, M and the harmonic numbers while the left side is summed; S_f,
# the g power prefix, M and the harmonic numbers over the grid).  Peak
# traced bytes measured here 7.08 MiB at X = 2e4 and 8.84 MiB at 1e5; 7.32
# and 21.46 MiB while the grid was built whole and cached.
CATALOG_BYTES_PER_BLOCK = 256 * BLOCK
CATALOG_BYTES_PER_N = 40


def test_catalog_check_holds_one_block_of_pieces(table_mid):
    tracemalloc.start()
    try:
        for X in (20_000.0, 1e5):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            catalog_check(table_mid, "euler_gamma", X)
            peak = tracemalloc.get_traced_memory()[1] - start
            bound = CATALOG_BYTES_PER_BLOCK + CATALOG_BYTES_PER_N * (floor_int(X) + 1)
            assert peak <= bound, (X, peak, bound)
    finally:
        tracemalloc.stop()
