"""Two-integral convolution identities: raw form, printed forms, known defects."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mobius_bounds.identities import (
    CATALOG_NAMES,
    CATALOG_SPECS,
    WINDOW,
    ROW_TOLERANCE,
    IdentitySpec,
    _floor_array,
    _grid_blocks,
    _libm,
    catalog_check,
    convolution_prefix,
    evaluate_ofd,
)
from mobius_bounds import identities
from mobius_bounds.arith import ArithmeticTable, build_table
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


def _ofd_residual_and_radius(table, name, arg):
    """(residual, radius) of a catalog name's OFD check at X = arg, or, for
    name "power", of h = H = power at s = arg and X = 100."""
    if name == "power":
        res = evaluate_ofd(table, IdentitySpec("mobius", "one", "power", "power", s=arg), 100.0)
        return res.residual, res.residual_err
    rep = catalog_check(table, name, arg)
    return rep.ofd_residual, rep.ofd_err


@pytest.mark.parametrize("name, arg", [
    *itertools.product(("meissel", "elmarraki", "macleod", "euler_gamma", "daval_general"),
                       (100.0, 1000.0)),
    *(("power", s) for s in (1.5, 3.0, 2 + 1j)),
])
def test_ofd_check_fails_on_a_corrupted_mu(name, arg):
    """The OFD checks can fail: on a copy of the table with mu(7) negated,
    each reads a residual above 1e6 times its clean radius, while the clean
    residual stays within it.  liouville is left out: it reads lambda from
    a fresh sieve, so a flip in the table's mu cannot reach it."""
    clean = build_table(2000)
    mu = clean.mu.copy()
    mu[7] = -mu[7]
    bad = ArithmeticTable(clean.limit, mu, clean.prime_powers, clean.prime_power_logs)
    residual, radius = _ofd_residual_and_radius(clean, name, arg)
    assert abs(residual) <= radius
    wrong, _ = _ofd_residual_and_radius(bad, name, arg)
    assert abs(wrong) > 1e6 * radius, wrong


def test_spec_refuses_what_no_choice_reads():
    """A q other than 1 is read only by mobius_coprime, and there it must
    be one Modulus accepts; an s is read only by a power-type h or H."""
    with pytest.raises(ValueError, match="read only by f_id 'mobius_coprime'"):
        IdentitySpec("mobius", "one", "one", "id", q=6)
    with pytest.raises(ValueError, match="read only by a power-type h or H"):
        IdentitySpec("mobius", "one", "one", "id", s=2)
    with pytest.raises(ValueError, match="modulus must be positive"):
        IdentitySpec("mobius_coprime", "one", "one", "id", q=0)
    with pytest.raises(TypeError, match="modulus must be an integer"):
        IdentitySpec("mobius_coprime", "one", "one", "id", q=6.0)
    assert IdentitySpec("mobius_coprime", "one", "power", "id", s=2, q=6).q == 6


def test_catalog_guards(table_small):
    with pytest.raises(ValueError):
        catalog_check(table_small, "nope", 10.0)
    with pytest.raises(ValueError):
        catalog_check(table_small, "meissel", 0.5)


def test_checks_decide_each_row(table_small):
    """checks() gives each report's rows: liouville's printed row is
    reported only (infinite tolerance), euler_gamma and liouville add the
    reading their note names, and daval_general's exponent labels every row."""
    rows = {name: catalog_check(table_small, name, 10.0).checks() for name in CATALOG_NAMES}
    for name, checks in rows.items():
        assert [c[0] for c in checks[:2]] == ["identity-ofd", "identity-printed"], name
        alt = [c for c in checks if c[0] == "identity-alt"]
        assert len(alt) == (name in ("euler_gamma", "liouville")), name
        tols = [c[3] for c in checks]
        want = [ROW_TOLERANCE, math.inf] if name == "liouville" else [ROW_TOLERANCE] * 2
        assert tols == want + [ROW_TOLERANCE] * len(alt), name
    printed = rows["liouville"][1]
    assert printed[1] == "liouville reported only" and printed[3] == math.inf
    rep = catalog_check(table_small, "daval_general", 10.0, 2 + 1j)
    assert [c[1] for c in rep.checks()] == ["daval_general s=(2+1j)"] * 2
    assert rep.checks()[0][2:] == (rep.ofd_residual, ROW_TOLERANCE, rep.ofd_err)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_check_takes_s_for_daval_general_only(table_small, name):
    if name == "daval_general":
        rep = catalog_check(table_small, name, 10.0, 3.0)
        assert rep.tag == " s=(3+0j)"
        raw = evaluate_ofd(table_small, IdentitySpec("mobius", "one", "power", "power", s=3), 10.0)
        assert rep.ofd_residual == raw.residual
    else:
        with pytest.raises(ValueError, match="daval_general only"):
            catalog_check(table_small, name, 10.0, 3.0)


def _refuse_sums(monkeypatch, table, *attrs):
    def refused(*args, **kwargs):
        raise AssertionError("a sum was read")

    for attr in attrs:
        monkeypatch.setattr(identities, attr, refused)
    monkeypatch.setattr(table, "mertens", refused)


def test_unknown_name_is_refused_before_any_sum(table_small, monkeypatch):
    _refuse_sums(monkeypatch, table_small, "m_q", "m_check_q", "evaluate_ofd")
    with pytest.raises(ValueError, match="unknown catalog name 'nope'"):
        catalog_check(table_small, "nope", 10.0)
    with pytest.raises(ValueError, match="daval_general only"):
        catalog_check(table_small, "meissel", 10.0, 2.0)


@pytest.mark.parametrize("name", ["elmarraki", "liouville", "daval_general"])
def test_catalog_check_reads_no_m_where_its_form_does_not(table_small, monkeypatch, name):
    """m_q(X) and M(X) enter only the printed forms of meissel, macleod and
    euler_gamma; the other names never compute them."""
    clean = catalog_check(table_small, name, 100.0)
    _refuse_sums(monkeypatch, table_small, "m_q")
    assert catalog_check(table_small, name, 100.0) == clean


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


def _breakpoints(X, n):
    """The one-shot cut points, the oracle of _grid_blocks: 1, X, every
    integer and every X/m in [1, X], sorted and distinct."""
    pts = np.concatenate(([1.0, X], np.arange(2.0, n + 1.0), X / np.arange(1.0, n + 1.0)))
    return np.unique(pts[(pts >= 1.0) & (pts <= X)])


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
    assert all(0 < b.m.size <= WINDOW for b in blocks)
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


@pytest.mark.parametrize("X", (8.5e6, 2e7 + 0.5, 123456789.25))
def test_grid_blocks_keep_every_cut_past_x_8_4e6(X):
    """Near t = 1 the X/m lie about 1/X apart, within 64 EPS X once X passes
    8.4e6, where a merge rule on that distance dropped them.  Over the first
    three windows no float X/m and no integer lies strictly inside a
    piece, and m and k are the exact floors of X/t and t at each piece's
    midpoint, read as a rational."""
    blocks = list(itertools.islice(_grid_blocks(X), 3))
    cuts = _joined(blocks)
    lo, hi = cuts[0], cuts[-1]
    n = floor_int(X)
    pts = np.concatenate((X / np.arange(max(1, math.floor(X / hi)), n + 1.0),
                          np.arange(math.ceil(lo), math.floor(hi) + 1.0)))
    pts = pts[(pts > lo) & (pts < hi)]
    assert pts.size > 3 * WINDOW - 10
    assert np.isin(pts, cuts).all()
    exact = Fraction(X)
    ends = cuts.tolist()
    mids = [(Fraction(a) + Fraction(b)) / 2 for a, b in zip(ends[:-1], ends[1:])]
    assert np.concatenate([b.m for b in blocks]).tolist() == [math.floor(exact / t) for t in mids]
    assert np.concatenate([b.k for b in blocks]).tolist() == [math.floor(t) for t in mids]


def test_closed_form_prefixes_equal_the_cumulative_sums(table_small):
    """Each closed-form lookup reads, at every index up to 3e5, the prefix sum
    it stands for, bit for bit: S_{mu*1} = 1 and S_{lambda*1} = [sqrt k] from
    their indicators, and the g power prefixes from the cumulative sum of
    g(j) j^a."""
    n = 300_000
    k = np.arange(1, n + 1, dtype=np.int32)
    kf = np.arange(n + 1, dtype=np.float64)
    kf[0] = 1.0
    one = np.ones(n + 1)
    one[0] = 0.0
    alt = one.copy()
    alt[2::2] = -1.0
    at_one, squares = np.zeros(n + 1), np.zeros(n + 1)
    at_one[1] = 1.0
    squares[np.arange(1, math.isqrt(n) + 1) ** 2] = 1.0
    cases = [
        (convolution_prefix(table_small, CATALOG_SPECS["meissel"], n), at_one),
        (convolution_prefix(table_small, CATALOG_SPECS["liouville"], n), squares),
        (identities._power_prefix("one", 0.0, n), one),
        (identities._power_prefix("alternating", 0.0, n), alt),
        (identities._power_prefix("one", 1.0, n), one * kf),
        (identities._power_prefix("one", -1.0, n), one * kf**-1.0),
        (identities._power_prefix("one", complex(-1.0), n), one * kf**-1.0),
    ]
    for lookup, terms in cases:
        assert lookup(k).tobytes() == np.cumsum(terms)[1:].tobytes()


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


@pytest.mark.parametrize("X", (1000.0, 20000.5))
def test_catalog_reports_do_not_depend_on_the_window(table_mid, monkeypatch, X):
    """Every sum is exact and the grid keeps every cut at any window size, so
    each catalog report is the same at windows of 64, 2^12 and 2^15."""
    reports = []
    for window in (64, 1 << 12, 1 << 15):
        monkeypatch.setattr(identities, "WINDOW", window)
        reports.append([catalog_check(table_mid, name, X) for name in CATALOG_NAMES])
    assert reports[0] == reports[1] == reports[2]


# A cold catalog_check(euler_gamma) holds one window of pieces at a time
# and at most two float64 lookups of n + 1 entries (f and S_f while the left
# side is summed; S_f and the harmonic numbers over the grid; S_{mu*1} is
# read in closed form).  Peak traced bytes measured here 1.03 MiB at X = 2e4
# and 2.33 MiB at 1e5, about 181 bytes per piece of one window plus 17 per
# n; the pins allow about 1.2 times that.  With 2^15-piece blocks and four
# lookups the same read 5.68 and 8.36 MiB, and 7.32 and 21.46 MiB while the
# grid was built whole and cached.
CATALOG_BYTES_PER_BLOCK = 216 * WINDOW
CATALOG_BYTES_PER_N = 20


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


# Peak traced bytes per n of a cold catalog_check at X = 3e5, one window of
# pieces included: the pin to hold while _PIECE_CAP is raised (ROADMAP item
# 11).  Measured here: meissel 16.7, elmarraki 16.7, macleod 16.7,
# euler_gamma 18.5, liouville 17.7, daval_general 18.6; the pin is 1.19
# times the largest.  euler_gamma read 24.4 while arith.m_check_q built its
# terms whole (24.3 alone; one block of them now), under a pin of 28; with
# 2^15-piece blocks and four lookups they read 32.0, 40.9, 41.7, 50.8, 41.9
# and 43.5.
CATALOG_PEAK_BYTES_PER_N = 22


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_check_peak_bytes_per_n(table_big, name):
    X = 3e5
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        catalog_check(table_big, name, X)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= CATALOG_PEAK_BYTES_PER_N * (floor_int(X) + 1), (name, peak)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: 16 EPS mass does not enclose the rounding of an "
    "exact identity; elmarraki's residual is 1.8 times it at X = 1e6",
)
def test_elmarraki_residual_within_its_radius_at_1e6(table_big):
    rep = catalog_check(table_big, "elmarraki", 1e6)
    assert rep.ofd_residual <= rep.ofd_err, (rep.ofd_residual, rep.ofd_err)
