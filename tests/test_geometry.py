"""Projective space tests: enumeration, incidence, rank, lines, point sets."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongblock import geometry, strong
from strongblock.bounds import one_mod_p_profile
from strongblock.codes import (
    check_minimal,
    generator_from_points,
    support_profiles,
)
from strongblock.errors import BudgetExceeded, DimensionMismatch
from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace, canonical_points
from strongblock.partition import subgeometry_points
from strongblock.search import find_independent_tuple, free_cosets
from strongblock.strong import (
    union_subgeometries,
    verify_blocking,
    verify_strong_blocking,
)

from oracles import (
    dot,
    incidence,
    line_through,
    scalar_normalize,
    scalar_point_at,
    scalar_rank,
)


def count_points(q, n):
    return (q ** (n + 1) - 1) // (q - 1)


@pytest.mark.parametrize("params", [(2, 3, 1), (2, 2, 2), (2, 3, 3),
                                    (3, 2, 2), (2, 6, 3), (3, 3, 2)])
def test_point_counts(params):
    p, m, n = params
    space = ProjectiveSpace(Field.build(p, m), n)
    assert space.num_points == count_points(p ** m, n)


def test_known_point_counts():
    assert ProjectiveSpace(Field.build(2, 3), 3).num_points == 585
    assert ProjectiveSpace(Field.build(2, 6), 1).num_points == 65
    assert ProjectiveSpace(Field.build(2, 12), 2).num_points == 16781313
    assert ProjectiveSpace(Field.build(2, 6), 3).num_points == 266305


def test_enumeration_is_all_points_once():
    space = ProjectiveSpace(Field.build(2, 2), 2)
    pts = list(map(tuple, canonical_points(2, 4).tolist()))
    assert len(pts) == space.num_points
    assert len(set(pts)) == space.num_points
    for pt in pts:
        assert space.normalize(pt) == pt


@pytest.mark.parametrize("params", [(2, 2, 2), (2, 3, 3), (3, 2, 2)])
def test_index_roundtrip_exhaustive(params):
    p, m, n = params
    space = ProjectiveSpace(Field.build(p, m), n)
    pts = [scalar_point_at(space, i) for i in range(space.num_points)]
    assert np.array_equal(space.point_index_vec(pts),
                          np.arange(space.num_points))
    for i, pt in enumerate(pts):
        assert space.point_at(i) == pt


def test_point_at_refuses_out_of_range_indices():
    # a negative index is out of range too, not counted from the end
    space = ProjectiveSpace(Field.build(2, 3), 3)
    for index in (-1, -600, space.num_points):
        with pytest.raises(IndexError):
            space.point_at(index)


def test_index_roundtrip_sampled_big_plane():
    space = ProjectiveSpace(Field.build(2, 12), 2)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, space.num_points, 3000)
    pts = np.asarray([space.point_at(int(i)) for i in idx], dtype=np.int64)
    assert np.array_equal(space.point_index_vec(pts), idx)


@pytest.mark.parametrize("params", [(2, 2, 2), (2, 3, 3), (3, 2, 2)])
def test_canonical_points_match_point_at(params):
    p, m, n = params
    space = ProjectiveSpace(Field.build(p, m), n)
    q = space.field.order
    ref = np.asarray([scalar_point_at(space, i)
                      for i in range(space.num_points)], dtype=np.int64)
    assert np.array_equal(canonical_points(n, q), ref)
    for off in space._offsets:
        # ranges straddling each leading-one boundary, and empty ranges
        lo, hi = max(off - 3, 0), min(off + 3, space.num_points)
        assert np.array_equal(canonical_points(n, q, lo, hi), ref[lo:hi])
        assert canonical_points(n, q, off, off).shape == (0, n + 1)
    with pytest.raises(IndexError):
        space.point_at(space.num_points)
    with pytest.raises(IndexError):
        canonical_points(n, q, 0, space.num_points + 1)


def product_order(n, base):
    """The canonical order of PG(n, .) over `base` digits, built with
    itertools.product: a leading one at each position in turn, zeros before
    it, every digit tuple after it in lexicographic order."""
    rows = [(0,) * lead + (1,) + digits for lead in range(n + 1)
            for digits in itertools.product(range(base), repeat=n - lead)]
    return np.asarray(rows, dtype=np.int64)


@pytest.mark.parametrize("base", [2, 5, 6, 8, 9, 10])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_points_match_product_order(n, base):
    # bases that are no field order (5, 6, 10) and field orders (2, 8, 9)
    ref = product_order(n, base)
    total = len(ref)
    got = canonical_points(n, base)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref)
    # the first row of each leading-one block, read off the oracle's rows
    lead = np.argmax(ref != 0, axis=1)
    starts = [i for i in range(total) if i == 0 or lead[i] != lead[i - 1]]
    assert len(starts) == n + 1
    for b in starts + [total]:
        for lo in range(max(b - 3, 0), b + 1):
            for hi in range(b, min(b + 3, total) + 1):
                assert np.array_equal(canonical_points(n, base, lo, hi),
                                      ref[lo:hi])
        assert canonical_points(n, base, b, b).shape == (0, n + 1)
    for lo, hi in [(0, total + 1), (total + 1, None), (-1, 2), (3, 2)]:
        with pytest.raises(IndexError):
            canonical_points(n, base, lo, hi)


def test_block_size_does_not_change_scans(monkeypatch, rg24, rg33):
    union45 = union_subgeometries(
        rg24, find_independent_tuple(rg24, 3, seed=1).alphas)
    space = union45.space
    H = space.point_at(100)
    pts = canonical_points(space.n, space.field.order).tolist()
    off_H = [pt for pt in pts if not incidence(space, pt, H)]
    on_H = next(pt for pt in pts if incidence(space, pt, H))
    # strong; one point on H (not strong); nothing on H (not blocking)
    sets = [union45, PointSet(space, off_H + [on_H]), PointSet(space, off_H)]
    code45 = generator_from_points(union45)
    # not minimal: its witness's contained class comes from a count pass
    code_on_H = generator_from_points(sets[1])
    baer = subgeometry_points(rg33, 0)

    def scans():
        return ([verify_strong_blocking(S) for S in sets],
                [verify_blocking(S) for S in sets],
                check_minimal(code_on_H), support_profiles(code45).weights,
                one_mod_p_profile(baer, 3).census, free_cosets(rg24, 3))

    default = scans()
    strong, blocking = default[0], default[1]
    assert [v.status for v in strong] == ["strong", "not-strong",
                                          "not-blocking"]
    assert [v.status for v in blocking] == ["blocking", "blocking",
                                            "not-blocking"]
    assert strong[1].witness == strong[2].witness == blocking[2].witness == H
    assert strong[1].hyperplanes_checked == 101
    assert blocking[2].hyperplanes_checked == 101
    # both scans give one verdict for the set that misses H
    assert strong[2] == blocking[2]
    # pencil batches of one point, rank stacks of one section, strong scan
    # windows of a few hyperplanes, and coset quotient blocks of one coset
    monkeypatch.setattr(geometry, "MARK_BATCH", 7)
    monkeypatch.setattr("strongblock.strong.SECTION_CAP", 2000)
    assert default[2].status == "not-minimal"
    assert default[2].witness[1] == H
    small = scans()
    assert small[:3] == default[:3]
    assert np.array_equal(small[3], default[3])
    assert small[4] == default[4]
    assert np.array_equal(small[5], default[5])


def test_canonical_order_is_monotone_in_lead():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    last_lead = 0
    for pt in canonical_points(2, 8).tolist():
        lead = next(i for i, c in enumerate(pt) if c)
        assert lead >= last_lead
        last_lead = lead


def test_normalize():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    f = space.field
    pt = (f.from_exp(3), f.from_exp(5), 0)
    npt = space.normalize(pt)
    assert npt[0] == f.one
    assert npt[1] == f.mul(pt[1], int(f.inv_vec(pt[0])))
    with pytest.raises(ValueError):
        space.normalize((0, 0, 0))
    with pytest.raises(DimensionMismatch):
        space.normalize((1, 2))


def test_normalize_vec_matches_scalar():
    space = ProjectiveSpace(Field.build(3, 2), 3)
    rng = np.random.default_rng(2)
    mat = rng.integers(0, space.field.order, (300, 4))
    mat[np.all(mat == 0, axis=1), 0] = 1
    norm = space.normalize_vec(mat)
    for row, nrow in zip(mat, norm):
        assert scalar_normalize(space, row) == tuple(int(c) for c in nrow)
        assert space.normalize(row) == tuple(int(c) for c in nrow)


def test_scaling_invariance_of_index():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    f = space.field
    for i, pt in enumerate(canonical_points(2, 8).tolist()):
        scaled = [tuple(f.mul(lam, c) for c in pt)
                  for lam in range(1, f.order)]
        assert np.all(space.point_index_vec(space.normalize_vec(scaled)) == i)


# ---------------------------------------------------------------------------
# incidence


def test_dot_against_direct_evaluation():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    f = space.field
    rng = np.random.default_rng(9)
    for _ in range(300):
        a = tuple(int(v) for v in rng.integers(0, f.order, 3))
        b = tuple(int(v) for v in rng.integers(0, f.order, 3))
        acc = 0
        for x, y in zip(a, b):
            acc = f.add(acc, f.mul(x, y))
        assert dot(space, a, b) == acc
        assert dot(space, a, b) == dot(space, b, a)


def test_dot_block_matches_scalar():
    space = ProjectiveSpace(Field.build(3, 2), 2)
    rng = np.random.default_rng(4)
    duals = rng.integers(0, 9, (20, 3))
    pts = rng.integers(0, 9, (30, 3))
    block = space.dot_block(duals, pts)
    for i in range(20):
        for j in range(30):
            assert int(block[i, j]) == dot(space,
                tuple(int(c) for c in duals[i]), tuple(int(c) for c in pts[j]))


def test_hyperplane_point_counts():
    # every hyperplane of PG(n,q) carries (q^n - 1)/(q - 1) points
    space = ProjectiveSpace(Field.build(2, 2), 2)
    pts = canonical_points(2, 4)
    for h in pts:  # hyperplanes share the point indexing
        on = np.count_nonzero(
            space.dot_block(np.asarray([h]), pts)[0] == 0)
        assert on == 5


def test_point_hyperplane_duality_symmetric():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    rng = np.random.default_rng(6)
    for _ in range(200):
        i, j = rng.integers(0, space.num_points, 2)
        P, H = space.point_at(int(i)), space.point_at(int(j))
        assert incidence(space, P, H) == incidence(space, H, P)


def points_with_zeros(space, dual, rng, count):
    """Random points, about a third of their coordinates zero, and the first
    half of them moved onto the hyperplane `dual` by solving for its first
    nonzero coordinate with scalar field operations."""
    f = space.field
    pts = rng.integers(0, f.order, (count, space.k))
    pts[rng.random(pts.shape) < 0.3] = 0
    j = next(i for i, c in enumerate(dual) if c)
    for row in pts[:count // 2]:
        acc = 0
        for i in range(space.k):
            if i != j:
                acc = f.add(acc, f.mul(int(row[i]), dual[i]))
        row[j] = f.mul(f.neg(acc), int(f.inv_vec(dual[j])))
    return [tuple(int(c) for c in row) for row in pts if np.any(row)]


@pytest.mark.parametrize("p,m,n", [(2, 12, 2), (3, 3, 3), (2, 3, 3),
                                   (7, 1, 1), (2, 1, 4)])
def test_section_matches_scalar_incidences(p, m, n):
    # the digit sums against the scalar Zech incidences: Zech past
    # GF(512), odd p, dense tables, m = 1 and a prime field in PG(4, 2)
    space = ProjectiveSpace(Field.build(p, m), n)
    rng = np.random.default_rng(p ** m + n)
    hits = 0
    for _ in range(20):
        dual = rng.integers(0, space.field.order, space.k)
        dual[rng.random(space.k) < 0.3] = 0
        if not np.any(dual):
            continue
        dual = tuple(int(c) for c in dual)
        pts = points_with_zeros(space, dual, rng, 60)
        expected = np.array([incidence(space, pt, dual) for pt in pts])
        assert np.array_equal(space.section(pts, dual), expected)
        assert np.array_equal(space.section(np.asarray(pts), dual), expected)
        hits += int(expected.sum())  # incident points, not points tried
    assert hits >= 200
    ones = (1,) * space.k
    assert space.section([], ones).shape == (0,)
    for wrong in (ones + (1,), ones[:-1]):
        with pytest.raises(DimensionMismatch):
            space.section(pts, wrong)
        with pytest.raises(DimensionMismatch):
            space.section([], wrong)


def pencil_rows(space, rng):
    """Nonzero rows with every last-nonzero position z: a scaled unit vector
    and two random rows for each z, then all of them again scaled by random
    nonzero codes, so most rows are not normalized."""
    f, k = space.field, space.k
    rows = []
    for z in range(k):
        unit = np.zeros(k, dtype=np.int64)
        unit[z] = rng.integers(1, f.order)
        rows.append(unit)
        for _ in range(2):
            row = rng.integers(0, f.order, k)
            row[z] = rng.integers(1, f.order)
            row[z + 1:] = 0
            rows.append(row)
    rows = np.asarray(rows)
    scale = rng.integers(1, f.order, (rows.shape[0], 1))
    return np.concatenate([rows, f.mul_vec(rows, scale)])


def pencils_by_row(space, mat):
    out = [None] * len(mat)
    for rows, hyperplanes in space.pencils(mat):
        assert hyperplanes.shape == (rows.size, (space.num_points - 1)
                                     // space.field.order)
        for r, h in zip(rows.tolist(), hyperplanes):
            out[r] = np.sort(h)
    return out


@pytest.mark.parametrize("batch", [1, None])
@pytest.mark.parametrize("p,m,n", [(2, 6, 1), (3, 2, 2), (2, 3, 3), (2, 1, 4)])
def test_pencils_match_dot_block(monkeypatch, batch, p, m, n):
    # the closed form against every dual form, with one row per batch and
    # with the default batch
    if batch is not None:
        monkeypatch.setattr(geometry, "MARK_BATCH", batch)
    space = ProjectiveSpace(Field.build(p, m), n)
    mat = pencil_rows(space, np.random.default_rng(n))
    duals = canonical_points(space.n, space.field.order)
    values = space.dot_block(duals, mat)
    for j, got in enumerate(pencils_by_row(space, mat)):
        assert np.array_equal(got, np.flatnonzero(values[:, j] == 0))


@pytest.mark.parametrize("batch", [1, None])
def test_pencils_on_the_zech_path(monkeypatch, batch):
    # PG(2,4096) adds through the Zech table; its 16.8M dual forms are too
    # many to scan here, so each pencil is checked as Q + 1 distinct lines
    # that all contain the row, which are all the lines through it
    if batch is not None:
        monkeypatch.setattr(geometry, "MARK_BATCH", batch)
    space = ProjectiveSpace(Field.build(2, 12), 2)
    mat = pencil_rows(space, np.random.default_rng(12))
    for j, got in enumerate(pencils_by_row(space, mat)):
        assert got.size == space.field.order + 1
        assert np.all(np.diff(got) > 0)
        duals = np.asarray([scalar_point_at(space, int(h)) for h in got])
        assert not np.any(space.dot_block(duals, mat[j:j + 1]))


def test_pencils_refuse_the_zero_row():
    space = ProjectiveSpace(Field.build(2, 2), 2)
    with pytest.raises(ValueError):
        list(space.pencils(np.asarray([[1, 2, 3], [0, 0, 0]])))


def line_pairs(space, rng):
    """(first, second): pairs of distinct points among `pencil_rows`, most of
    them unnormalized, with every pair of last-nonzero positions and so
    also pairs of equal leading position."""
    rows = pencil_rows(space, rng)
    keys = space.point_index_vec(space.normalize_vec(rows))
    i, j = np.triu_indices(len(rows), 1)
    keep = keys[i] != keys[j]
    return rows[i[keep]], rows[j[keep]]


def line_pencils_by_line(space, first, second):
    out = [None] * len(first)
    for lines, hyperplanes in space.line_pencils(first, second):
        assert hyperplanes.shape == (lines.size, space.field.order + 1)
        for i, h in zip(lines.tolist(), hyperplanes):
            out[i] = np.sort(h)
    return out


@pytest.mark.parametrize("batch", [1, None])
@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 3), (3, 2)])
def test_line_pencils_match_dot_block(monkeypatch, batch, p, m):
    # the planes through each line against every dual form, with one line
    # per batch and with the default batch
    if batch is not None:
        monkeypatch.setattr(geometry, "MARK_BATCH", batch)
    space = ProjectiveSpace(Field.build(p, m), 3)
    first, second = line_pairs(space, np.random.default_rng(p ** m))
    duals = canonical_points(space.n, space.field.order)
    on_first = space.dot_block(duals, first) == 0
    on_second = space.dot_block(duals, second) == 0
    got = line_pencils_by_line(space, first, second)
    assert len(got) == len(first) > 50
    for i, h in enumerate(got):
        assert np.array_equal(h, np.flatnonzero(on_first[:, i]
                                                & on_second[:, i]))


def test_line_pencils_on_the_zech_path():
    # PG(3,4096) adds through the Zech table: each line's Q + 1 hyperplanes
    # are distinct and contain both of its points
    space = ProjectiveSpace(Field.build(2, 12), 3)
    first, second = line_pairs(space, np.random.default_rng(12))
    for i, got in enumerate(line_pencils_by_line(space, first, second)):
        assert got.size == space.field.order + 1
        assert np.all(np.diff(got) > 0)
        duals = np.asarray([scalar_point_at(space, int(h)) for h in got])
        assert not np.any(space.dot_block(duals, first[i:i + 1]))
        assert not np.any(space.dot_block(duals, second[i:i + 1]))


def test_line_pencils_refuse_equal_points_and_other_spaces():
    space = ProjectiveSpace(Field.build(2, 2), 3)
    with pytest.raises(ValueError):
        list(space.line_pencils([[1, 2, 3, 0]], [[2, 3, 1, 0]]))
    for n in (2, 4):
        other = ProjectiveSpace(Field.build(2, 2), n)
        e = np.eye(n + 1, dtype=np.int64)
        with pytest.raises(ValueError):
            list(other.line_pencils(e[:1], e[1:2]))


@pytest.mark.parametrize("scan,limit_mb", [("strong", 1.25), ("supports", 6)])
def test_pencil_scans_peak_memory(rg34, scan, limit_mb):
    # the q = 3 pipeline's two pencil scans of a 120-point union in
    # PG(3,27), whose temporaries are sized by MARK_BATCH incidences; the
    # strong scan peaks at 0.82 MiB, its 20 KiB of byte-wide section counts
    # and a few batches
    union = union_subgeometries(
        rg34, find_independent_tuple(rg34, 3, strategy="random", seed=1).alphas)
    code = generator_from_points(union)
    run = {"strong": lambda: verify_strong_blocking(union),
           "supports": lambda: support_profiles(code)}[scan]
    run()  # first use of any lazily built state is not the scan's cost
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(union) == 120
    assert peak < limit_mb * (1 << 20)


@pytest.mark.parametrize("scan,limit_mb", [("pencils", 2), ("strong", 3)])
def test_line_pencil_scans_peak_memory(scan, limit_mb):
    # every point of PG(1,4096): each pencil is one hyperplane, so a batch
    # holds thousands of rows, and nothing may be sized by rows x Q
    space = ProjectiveSpace(Field.build(2, 12), 1)
    mat = canonical_points(space.n, space.field.order)
    points = PointSet(space, [tuple(r) for r in mat.tolist()])
    run = {"pencils": lambda: sum(h.size for _, h in space.pencils(mat)),
           "strong": lambda: verify_strong_blocking(points)}[scan]
    run()  # first use of any lazily built state is not the scan's cost
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb << 20


def test_count_path_peak_memory(random_pg3_64):
    # 255 points of PG(3,64) take the count path, whose secant pass works
    # on (4, rows, 254) blocks and whose line pencils on (4, lines, 65)
    # ones: each holds about MARK_BATCH field values, so the peak (1.08 MiB)
    # is the 0.27 MB of byte-wide section counts and a few batches, not
    # 10 MB of blocks sized by rows alone.  GF(64) is the only field built.
    assert strong._counts_decide(random_pg3_64.space, len(random_pg3_64))
    # first use of any lazily built state is not the scan's cost
    verify_strong_blocking(random_pg3_64)
    tracemalloc.start()
    try:
        verify_strong_blocking(random_pg3_64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


def random_rows(space, rng, size):
    """`size` distinct points of the space, each scaled by a random nonzero
    code, so not normalized."""
    f = space.field
    idx = rng.choice(space.num_points, size, replace=False)
    pts = canonical_points(space.n, f.order)[idx]
    return f.mul_vec(pts, rng.integers(1, f.order, (size, 1)))


@pytest.mark.parametrize("p,m,n", [(2, 6, 1), (3, 2, 2), (2, 3, 3), (2, 2, 4)])
def test_hyperplane_counts_match_dot_block(p, m, n):
    space = ProjectiveSpace(Field.build(p, m), n)
    rng = np.random.default_rng(p * m + n)
    duals = canonical_points(n, space.field.order)
    for size in (1, 7, 40):
        mat = random_rows(space, rng, size)
        counts = space.hyperplane_counts(mat)
        assert counts.dtype == np.min_scalar_type(size)
        assert np.array_equal(
            counts, (space.dot_block(duals, mat) == 0).sum(axis=1))


def test_hyperplane_counts_refuse_before_allocating(monkeypatch):
    # PG(2,256) has 65,793 lines, so its counter alone would take 257 KiB
    space = ProjectiveSpace(Field.build(2, 8), 2)
    monkeypatch.setattr(geometry, "SCAN_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            space.hyperplane_counts(np.asarray([[1, 0, 0]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


# ---------------------------------------------------------------------------
# rank


def test_rank_basics():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert space.rank([]) == 0
    assert space.rank(e) == 4
    assert space.rank(e[:2]) == 2
    assert space.rank([e[0], e[0]]) == 1


def test_rank_matches_scalar_elimination():
    # 840 seeded sets spanning subspaces of random dimension, over prime
    # and extension fields, odd p with m > 1 among them, and k up to 12
    rng = np.random.default_rng(2026)
    for p, m, k in [(2, 1, 3), (2, 3, 4), (3, 1, 5), (3, 2, 4), (5, 1, 6),
                    (5, 2, 3), (7, 1, 4), (7, 2, 5), (13, 1, 3), (13, 2, 4),
                    (2, 9, 3), (3, 3, 12), (2, 6, 8), (3, 4, 6)]:
        space = ProjectiveSpace(Field.build(p, m), k - 1)
        f = space.field
        for _ in range(60):
            basis = rng.integers(0, f.order, (int(rng.integers(0, k + 1)), k))
            coef = rng.integers(0, f.order, (int(rng.integers(0, 3 * k)),
                                             basis.shape[0]))
            rows = np.zeros((coef.shape[0], k), dtype=np.int64)
            for i in range(basis.shape[0]):
                rows = f.add_vec(rows, f.mul_vec(coef[:, i:i + 1],
                                                 basis[i][None, :]))
            assert space.rank(rows) == scalar_rank(space, rows.tolist())


def test_rank_stack_matches_scalar_rank():
    # random stacks with rows drawn from a subspace of random dimension, so
    # deficient, zero and full ranks all occur
    rng = np.random.default_rng(17)
    # the extension fields, odd p with m > 1 among them, check the digit
    # expansion of `rank` by the rows g^j x, j < m
    for p, m, n in [(2, 3, 2), (3, 2, 3), (2, 1, 4), (2, 6, 1), (5, 2, 3),
                    (3, 3, 2), (2, 4, 3)]:
        space = ProjectiveSpace(Field.build(p, m), n)
        f, k = space.field, space.k
        for s in (0, 1, 2, 3, 5, 8):
            stack = np.zeros((40, s, k), dtype=np.int64)
            for h in range(40):
                basis = rng.integers(0, f.order, (int(rng.integers(0, k + 1)), k))
                coef = rng.integers(0, f.order, (s, basis.shape[0]))
                for i in range(basis.shape[0]):
                    stack[h] = f.add_vec(stack[h], f.mul_vec(
                        coef[:, i:i + 1], basis[i][None, :]))
            ranks = space.rank_stack(stack)
            expect = [space.rank([tuple(int(c) for c in row) for row in mat])
                      for mat in stack]
            assert ranks.tolist() == expect
            if s >= k:
                assert min(expect) == 0 and max(expect) >= k - 1


def test_rank_of_line_points():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    line = line_through(space, (1, 0, 0, 0), (0, 1, 1, 0))
    assert space.rank(line) == 2


def test_rank_invariant_under_invertible_transforms():
    space = ProjectiveSpace(Field.build(3, 2), 3)
    f = space.field
    rng = np.random.default_rng(13)

    def random_gl(k):
        while True:
            mat = rng.integers(0, f.order, (k, k))
            pts = [tuple(int(c) for c in row) for row in mat]
            if space.rank(pts) == k:
                return mat

    def apply(mat, pts):
        out = np.zeros((len(pts), 4), dtype=np.int64)
        arr = np.asarray(pts, dtype=np.int64)
        for i in range(4):
            for j in range(4):
                out[:, i] = f.add_vec(out[:, i],
                                      f.mul_vec(arr[:, j], int(mat[i, j])))
        return [tuple(int(c) for c in row) for row in out]

    for _ in range(20):
        npts = int(rng.integers(1, 8))
        pts = [tuple(int(c) for c in row)
               for row in rng.integers(0, f.order, (npts, 4))]
        M = random_gl(4)
        assert space.rank(apply(M, pts)) == space.rank(pts)


# ---------------------------------------------------------------------------
# lines


@pytest.mark.parametrize("params", [(2, 2), (2, 3)])
def test_plane_line_axioms_exhaustive(params):
    p, m = params
    space = ProjectiveSpace(Field.build(p, m), 2)
    q = space.field.order
    pts = list(map(tuple, canonical_points(2, q).tolist()))
    lines = set()
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            lines.add(frozenset(line_through(space, P, Q)))
    # line count, line size, and the two-points-one-line axiom
    assert len(lines) == space.num_points
    for line in lines:
        assert len(line) == q + 1
    for line_a in lines:
        for line_b in lines:
            if line_a is not line_b:
                assert len(line_a & line_b) <= 1


def test_line_through_is_symmetric_and_contains_endpoints():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    P, Q = (1, 0, 2, 0), (0, 1, 0, 5)
    line = line_through(space, P, Q)
    assert set(line) == set(line_through(space, Q, P))
    assert space.normalize(P) in line
    assert space.normalize(Q) in line
    with pytest.raises(ValueError):
        line_through(space, P, P)


def test_pencil_through_point():
    space = ProjectiveSpace(Field.build(2, 2), 2)
    q = space.field.order
    P = space.normalize((1, 2, 3))
    pts = list(map(tuple, canonical_points(2, q).tolist()))
    pencil = list({frozenset(line_through(space, P, Q))
                   for Q in pts if Q != P})
    assert len(pencil) == q + 1
    union = set()
    for line in pencil:
        assert P in line
        union |= line
    assert union == set(pts)  # pencil covers the plane
    for i, la in enumerate(pencil):
        for lb in pencil[i + 1:]:
            assert la & lb == {P}


def test_pencil_in_projective_line():
    space = ProjectiveSpace(Field.build(2, 2), 1)
    pts = list(map(tuple, canonical_points(1, 4).tolist()))
    pencil = {frozenset(line_through(space, (1, 0), Q))
              for Q in pts if Q != (1, 0)}
    assert pencil == {frozenset(pts)}


def cross_keys(space, others, P):
    """Canonical index of the cross product of each row of `others` with P
    in PG(2, Q): the dual of the line through them."""
    f = space.field

    def minor(i, j):
        return f.add_vec(f.mul_vec(others[:, i], P[j]),
                         f.neg_vec(f.mul_vec(others[:, j], P[i])))

    duals = np.stack([minor(1, 2), minor(2, 0), minor(0, 1)], axis=1)
    return space.point_index_vec(space.normalize_vec(duals))


def same_key(keys):
    return np.equal.outer(keys, keys)


@pytest.mark.parametrize("p,m,size", [(2, 2, 15), (3, 2, 40), (2, 6, 300)])
def test_secant_keys_match_cross_products(p, m, size):
    space = ProjectiveSpace(Field.build(p, m), 2)
    rng = np.random.default_rng(size)
    idx = np.sort(rng.choice(space.num_points, size, replace=False))
    mat = canonical_points(2, space.field.order)[idx]
    rows = np.arange(size)
    for i in rng.choice(size, 6, replace=False):
        r = rows[rows != i]
        keys = space.secant_keys(mat, np.asarray([i]), r[None, :])
        assert keys.shape == (1, size - 1)
        oracle = cross_keys(space, mat[r], mat[i])
        assert np.array_equal(same_key(keys[0]), same_key(oracle))


def test_secant_keys_match_line_through(gf8):
    # PG(3,8): random points, plus all of one line so that keys repeat
    space = ProjectiveSpace(gf8, 3)
    rng = np.random.default_rng(3)
    pts = {space.point_at(int(i))
           for i in rng.choice(space.num_points, 30, replace=False)}
    pts |= set(line_through(space, (1, 0, 0, 0), (0, 1, 0, 0)))
    mat = np.asarray(sorted(pts), dtype=np.int64)
    rows = np.arange(len(mat))
    p = rng.choice(len(mat), 8, replace=False)
    r = np.stack([rows[rows != i] for i in p])
    keys = space.secant_keys(mat, p, r)
    for i, ks, rs in zip(p, keys, r):
        lines = [frozenset(line_through(space, mat[i], mat[j])) for j in rs]
        assert np.array_equal(same_key(ks), np.asarray(
            [[a == b for b in lines] for a in lines]))


def test_secant_keys_of_a_scaled_point_on_one_line(gf8):
    # PG(2,8): P = (3,0,0) is (1,0,0) up to scale, so the 8 other points of
    # a line through it share one key
    space = ProjectiveSpace(gf8, 2)
    line = line_through(space, (1, 0, 0), (0, 1, 0))
    others = [pt for pt in line if pt != (1, 0, 0)]
    mat = np.asarray([(3, 0, 0)] + others, dtype=np.int64)
    keys = space.secant_keys(mat, np.asarray([0]), np.arange(1, 9)[None, :])
    assert np.unique(keys).size == 1


def test_secant_keys_ignore_the_scale_of_p(gf8):
    # PG(3,8): random nonzero scalings of the rows P give the keys of the
    # normalized rows
    space = ProjectiveSpace(gf8, 3)
    rng = np.random.default_rng(8)
    idx = rng.choice(space.num_points, 40, replace=False)
    mat = canonical_points(3, 8)[np.sort(idx)]
    rows = np.arange(len(mat))
    p = rng.choice(len(mat), 10, replace=False)
    r = np.stack([rows[rows != i] for i in p])
    scaled = mat.copy()
    scaled[p] = gf8.mul_vec(mat[p], rng.integers(1, 8, size=(10, 1)))
    assert not np.array_equal(scaled[p], mat[p])
    assert np.array_equal(space.secant_keys(scaled, p, r),
                          space.secant_keys(mat, p, r))


# ---------------------------------------------------------------------------
# point sets


def test_pointset_dedupe_and_normalize():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    f = space.field
    pt = (f.from_exp(2), f.one, 0)
    scaled = tuple(f.mul(f.from_exp(1), c) for c in pt)
    ps = PointSet(space, [pt, scaled, (1, 0, 0)])
    assert len(ps) == 2
    assert ps.points[0] == space.normalize(pt)
    # first rows of each point, in input order, not canonical order
    assert PointSet(space, [(0, 0, 1), scaled, (1, 0, 0), pt]).points == [
        (0, 0, 1), space.normalize(pt), (1, 0, 0)]
    assert PointSet(space, []).points == []


def test_pointset_refuses_malformed_rows():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    for rows in ([(1, 0, 0)], [(1, 0, 0, 0), (1, 0, 0)],
                 [(1, 0, 0, 0), (0, 1, 0, 0, 0)]):
        with pytest.raises(DimensionMismatch):
            PointSet(space, rows)
    with pytest.raises(ValueError, match="zero vector"):
        PointSet(space, [(1, 0, 0, 0), (0, 0, 0, 0)])


def test_pointset_json_roundtrip(tmp_path):
    space = ProjectiveSpace(Field.build(2, 3), 3)
    pts = [space.point_at(i) for i in range(0, 585, 37)]
    ps = PointSet(space, pts, {pts[0]: 4, pts[1]: 9})
    path = tmp_path / "pts.json"
    ps.save(path)
    back = PointSet.load(path)
    assert back.points == ps.points
    assert back.labels == ps.labels
    assert back.space.field.meta() == space.field.meta()


def test_pointset_labels_index_the_file_rows():
    # rows (1,0,0), (g,0,0), (0,1,0): the first two are one point, and the
    # keys still name the rows they were written against
    space = ProjectiveSpace(Field.build(2, 2), 2)
    doc = PointSet(space, []).to_json()
    doc["points"] = [["g^0", "0", "0"], ["g^1", "0", "0"], ["0", "g^0", "0"]]
    doc["labels"] = {"0": "b", "1": "b", "2": "c"}
    ps = PointSet.from_json(doc)
    assert ps.points == [(1, 0, 0), (0, 1, 0)]
    assert ps.labels == {(1, 0, 0): "b", (0, 1, 0): "c"}
    doc["labels"] = {"0": "a", "1": "b"}  # one point, two tags
    with pytest.raises(ValueError, match="carry the labels 'a' and 'b'"):
        PointSet.from_json(doc)
    doc["labels"] = {"3": "past the last row"}
    with pytest.raises(ValueError, match="not a point index"):
        PointSet.from_json(doc)


SPACE22 = ProjectiveSpace(Field.build(2, 2), 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, SPACE22.num_points - 1),
       st.integers(0, SPACE22.num_points - 1))
def test_two_points_determine_a_line(i, j):
    space = SPACE22
    P, Q = space.point_at(i), space.point_at(j)
    if P == Q:
        return
    line = line_through(space, P, Q)
    assert len(set(line)) == space.field.order + 1
    assert space.rank(line) == 2
