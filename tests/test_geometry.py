"""Projective space tests: enumeration, incidence, rank, lines, point sets."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongblock import geometry
from strongblock.bounds import one_mod_p_profile
from strongblock.codes import generator_from_points, support_profiles
from strongblock.errors import DimensionMismatch
from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace
from strongblock.partition import subgeometry_points
from strongblock.search import find_independent_tuple
from strongblock.strong import (
    union_subgeometries,
    verify_blocking,
    verify_strong_blocking,
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
    pts = list(space.points())
    assert len(pts) == space.num_points
    assert len(set(pts)) == space.num_points
    for pt in pts:
        assert space.normalize(pt) == pt


@pytest.mark.parametrize("params", [(2, 2, 2), (2, 3, 3), (3, 2, 2)])
def test_index_roundtrip_exhaustive(params):
    p, m, n = params
    space = ProjectiveSpace(Field.build(p, m), n)
    for i, pt in enumerate(space.points()):
        assert space.point_index(pt) == i
        assert space.point_at(i) == pt
    with pytest.raises(IndexError):
        space.point_at(space.num_points)


def test_index_roundtrip_sampled_big_plane():
    space = ProjectiveSpace(Field.build(2, 12), 2)
    rng = np.random.default_rng(5)
    idx = rng.integers(0, space.num_points, 3000)
    pts = np.asarray([space.point_at(int(i)) for i in idx], dtype=np.int64)
    assert np.array_equal(space.point_index_vec(pts), idx)


@pytest.mark.parametrize("params", [(2, 2, 2), (2, 3, 3), (3, 2, 2)])
def test_points_block_matches_point_at(params):
    p, m, n = params
    space = ProjectiveSpace(Field.build(p, m), n)
    ref = np.asarray([space.point_at(i) for i in range(space.num_points)],
                     dtype=np.int64)
    assert np.array_equal(space.points_block(0, space.num_points), ref)
    for off in space._offsets:
        # ranges straddling each leading-one boundary, and empty ranges
        lo, hi = max(off - 3, 0), min(off + 3, space.num_points)
        assert np.array_equal(space.points_block(lo, hi), ref[lo:hi])
        assert space.points_block(off, off).shape == (0, n + 1)
    with pytest.raises(IndexError):
        space.point_at(space.num_points)
    with pytest.raises(IndexError):
        space.points_block(0, space.num_points + 1)


def test_block_size_does_not_change_scans(monkeypatch, rg24, rg33):
    union45 = union_subgeometries(
        rg24, find_independent_tuple(rg24, 3, seed=1).alphas)
    space = union45.space
    H = space.point_at(100)
    off_H = [pt for pt in space.points() if not space.incidence(pt, H)]
    on_H = next(pt for pt in space.points() if space.incidence(pt, H))
    # strong; one point on H (not strong); nothing on H (not blocking)
    sets = [union45, PointSet(space, off_H + [on_H]), PointSet(space, off_H)]
    code45 = generator_from_points(union45)
    baer = subgeometry_points(rg33, 0)

    def scans():
        prof = support_profiles(code45)
        return ([verify_strong_blocking(S) for S in sets],
                [verify_blocking(S) for S in sets],
                prof.supports, prof.weights, one_mod_p_profile(baer, 3).census)

    default = scans()
    strong, blocking = default[0], default[1]
    assert [v.status for v in strong] == ["strong", "not-strong",
                                          "not-blocking"]
    assert [v.status for v in blocking] == ["blocking", "blocking",
                                            "not-blocking"]
    assert strong[1].witness == strong[2].witness == blocking[2].witness == H
    assert strong[1].hyperplanes_checked == 101
    assert blocking[2].hyperplanes_checked == 101
    # pencil batches of one point, rank stacks of one section, and strong
    # scan windows of a few hyperplanes
    monkeypatch.setattr(geometry, "MARK_BATCH", 7)
    monkeypatch.setattr("strongblock.strong.SECTION_CAP", 2000)
    small = scans()
    assert small[:2] == default[:2]
    assert np.array_equal(small[2], default[2])
    assert np.array_equal(small[3], default[3])
    assert small[4] == default[4]


def test_canonical_order_is_monotone_in_lead():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    last_lead = 0
    for pt in space.points():
        lead = next(i for i, c in enumerate(pt) if c)
        assert lead >= last_lead
        last_lead = lead


def test_normalize():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    f = space.field
    pt = (f.from_exp(3), f.from_exp(5), 0)
    npt = space.normalize(pt)
    assert npt[0] == f.one
    assert npt[1] == f.div(pt[1], pt[0])
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
        assert space.normalize(tuple(int(c) for c in row)) == tuple(
            int(c) for c in nrow)


def test_scaling_invariance_of_index():
    space = ProjectiveSpace(Field.build(2, 3), 2)
    f = space.field
    for pt in space.points():
        for lam in range(1, f.order):
            scaled = tuple(f.mul(lam, c) for c in pt)
            assert space.point_index(scaled) == space.point_index(pt)


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
        assert space.dot(a, b) == acc
        assert space.dot(a, b) == space.dot(b, a)


def test_dot_block_matches_scalar():
    space = ProjectiveSpace(Field.build(3, 2), 2)
    rng = np.random.default_rng(4)
    duals = rng.integers(0, 9, (20, 3))
    pts = rng.integers(0, 9, (30, 3))
    block = space.dot_block(duals, pts)
    for i in range(20):
        for j in range(30):
            assert int(block[i, j]) == space.dot(
                tuple(int(c) for c in duals[i]), tuple(int(c) for c in pts[j]))


def test_hyperplane_point_counts():
    # every hyperplane of PG(n,q) carries (q^n - 1)/(q - 1) points
    space = ProjectiveSpace(Field.build(2, 2), 2)
    pts = np.asarray(list(space.points()), dtype=np.int64)
    for h in space.points():  # hyperplanes share the point indexing
        on = np.count_nonzero(
            space.dot_block(np.asarray([h]), pts)[0] == 0)
        assert on == 5


def test_point_hyperplane_duality_symmetric():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    rng = np.random.default_rng(6)
    for _ in range(200):
        i, j = rng.integers(0, space.num_points, 2)
        P, H = space.point_at(int(i)), space.point_at(int(j))
        assert space.incidence(P, H) == space.incidence(H, P)


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
    duals = space.points_block(0, space.num_points)
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
        duals = np.asarray([space.point_at(int(h)) for h in got])
        assert not np.any(space.dot_block(duals, mat[j:j + 1]))


def test_pencils_refuse_the_zero_row():
    space = ProjectiveSpace(Field.build(2, 2), 2)
    with pytest.raises(ValueError):
        list(space.pencils(np.asarray([[1, 2, 3], [0, 0, 0]])))


@pytest.mark.parametrize("scan,limit_mb", [("strong", 5), ("supports", 6)])
def test_pencil_scans_peak_memory(rg34, scan, limit_mb):
    # the q = 3 pipeline's two pencil scans of a 120-point union in
    # PG(3,27), whose temporaries are sized by MARK_BATCH incidences
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
    assert peak < limit_mb << 20


@pytest.mark.parametrize("scan,limit_mb", [("pencils", 2), ("strong", 3)])
def test_line_pencil_scans_peak_memory(scan, limit_mb):
    # every point of PG(1,4096): each pencil is one hyperplane, so a batch
    # holds thousands of rows, and nothing may be sized by rows x Q
    space = ProjectiveSpace(Field.build(2, 12), 1)
    mat = space.points_block(0, space.num_points)
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


# ---------------------------------------------------------------------------
# rank


def test_rank_basics():
    space = ProjectiveSpace(Field.build(2, 3), 3)
    e = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    assert space.rank([]) == 0
    assert space.rank(e) == 4
    assert space.rank(e[:2]) == 2
    assert space.rank([e[0], e[0]]) == 1
    assert space.rank(e, target=2) == 2  # early exit honors the target


def test_rank_stack_matches_scalar_rank():
    # random stacks with rows drawn from a subspace of random dimension, so
    # deficient, zero and full ranks all occur
    rng = np.random.default_rng(17)
    for p, m, n in [(2, 3, 2), (3, 2, 3), (2, 1, 4), (2, 6, 1)]:
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
    line = space.line_through((1, 0, 0, 0), (0, 1, 1, 0))
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
    pts = list(space.points())
    lines = set()
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            lines.add(frozenset(space.line_through(P, Q)))
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
    line = space.line_through(P, Q)
    assert set(line) == set(space.line_through(Q, P))
    assert space.normalize(P) in line
    assert space.normalize(Q) in line
    with pytest.raises(ValueError):
        space.line_through(P, P)


def test_pencil_through_point():
    space = ProjectiveSpace(Field.build(2, 2), 2)
    q = space.field.order
    P = space.normalize((1, 2, 3))
    pencil = list({frozenset(space.line_through(P, Q))
                   for Q in space.points() if Q != P})
    assert len(pencil) == q + 1
    union = set()
    for line in pencil:
        assert P in line
        union |= line
    assert union == set(space.points())  # pencil covers the plane
    for i, la in enumerate(pencil):
        for lb in pencil[i + 1:]:
            assert la & lb == {P}


def test_pencil_in_projective_line():
    space = ProjectiveSpace(Field.build(2, 2), 1)
    pencil = {frozenset(space.line_through((1, 0), Q))
              for Q in space.points() if Q != (1, 0)}
    assert pencil == {frozenset(space.points())}


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


SPACE22 = ProjectiveSpace(Field.build(2, 2), 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, SPACE22.num_points - 1),
       st.integers(0, SPACE22.num_points - 1))
def test_two_points_determine_a_line(i, j):
    space = SPACE22
    P, Q = space.point_at(i), space.point_at(j)
    if P == Q:
        return
    line = space.line_through(P, Q)
    assert len(set(line)) == space.field.order + 1
    assert space.rank(line) == 2
