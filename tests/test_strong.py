"""Tests for subgeometry unions and (strong) blocking verification."""

import numpy as np
import pytest

from strongblock.errors import BudgetExceeded, RepeatedCoset
from strongblock.geometry import PointSet
from strongblock.partition import subgeometry_points
from strongblock.search import find_independent_tuple
from strongblock.strong import (
    expected_size,
    union_subgeometries,
    verify_blocking,
    verify_strong_blocking,
)


def section(point_set, dual):
    space = point_set.space
    vals = space.dot_block(np.asarray([dual], dtype=np.int64),
                           point_set.matrix())[0]
    return [point_set.points[j] for j in np.flatnonzero(vals == 0)]


def test_expected_size():
    assert expected_size(2, 4) == 45
    assert expected_size(3, 4) == 120
    assert expected_size(2, 3) == 14
    assert expected_size(4, 4) == 255


def test_union_sizes(rg24, rg23):
    f = rg24.field
    S = union_subgeometries(rg24, (f.one, f.from_exp(1), f.from_exp(2)))
    assert len(S) == 45
    g = rg23.field
    S = union_subgeometries(rg23, (g.one, g.from_exp(1)))
    assert len(S) == 14


def test_union_labels_partition(rg24):
    f = rg24.field
    alphas = (f.one, f.from_exp(1), f.from_exp(2))
    S = union_subgeometries(rg24, alphas)
    tags = [S.labels[pt] for pt in S.points]
    assert sorted(set(tags)) == [rg24.coset_of(a) for a in alphas]
    assert all(tags.count(t) == 15 for t in set(tags))


def test_union_rejects_repeated_cosets(rg24):
    f = rg24.field
    with pytest.raises(RepeatedCoset):
        union_subgeometries(rg24, (f.one, f.from_exp(rg24.stride)))
    with pytest.raises(ValueError):
        union_subgeometries(rg24, (f.one, 0))


def test_independent_triple_union_is_strong(rg24):
    res = find_independent_tuple(rg24, 3, strategy="random", seed=1)
    S = union_subgeometries(rg24, res.alphas)
    verdict = verify_strong_blocking(S)
    assert verdict.status == "strong"
    assert verdict.hyperplanes_checked == 585
    assert verdict.witness is None
    # strong implies blocking
    assert verify_blocking(S).status == "blocking"
    # size lower bound for strong sets: (k-1)(Q+1)
    assert len(S) >= 3 * (8 + 1)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_plane_case_independent_pair_is_strong(q):
    from strongblock.partition import build_rgroup
    rg = build_rgroup(q, 3)
    res = find_independent_tuple(rg, 2, strategy="exhaustive")
    assert res.status == "found"
    S = union_subgeometries(rg, res.alphas)
    assert len(S) == expected_size(q, 3)
    verdict = verify_strong_blocking(S)
    assert verdict.status == "strong"
    assert len(S) >= 2 * (q ** 2 + 1)


def test_single_subgeometry_blocking_but_not_strong(rg24):
    sub = subgeometry_points(rg24, 0)
    assert verify_blocking(sub).status == "blocking"
    verdict = verify_strong_blocking(sub)
    assert verdict.status == "not-strong"
    assert verdict.witness_rank < 3
    # witness re-check: the incident points really span too little
    sec = section(sub, verdict.witness)
    assert sub.space.rank(sec) == verdict.witness_rank


@pytest.mark.parametrize("q", [3, 4])
def test_plane_case_single_subgeometry_not_strong(q):
    # a dependent pair shares a coset, so its union is one subgeometry,
    # which some line meets in a single point
    from strongblock.partition import build_rgroup
    rg = build_rgroup(q, 3)
    sub = subgeometry_points(rg, 0)
    verdict = verify_strong_blocking(sub)
    assert verdict.status == "not-strong"
    assert verdict.witness_rank == 1


def test_line_points_blocking_not_strong(gf8):
    from strongblock.geometry import ProjectiveSpace
    space = ProjectiveSpace(gf8, 3)
    line = space.line_through((1, 0, 0, 0), (0, 1, 0, 0))
    S = PointSet(space, line)
    assert verify_blocking(S).status == "blocking"
    verdict = verify_strong_blocking(S)
    assert verdict.status == "not-strong"
    # a plane meets a line in 1 or q+1 points, never a spanning section
    assert verdict.witness_rank in (1, 2)
    assert space.rank(section(S, verdict.witness)) == verdict.witness_rank


def test_sparse_set_not_blocking(gf8):
    from strongblock.geometry import ProjectiveSpace
    space = ProjectiveSpace(gf8, 3)
    S = PointSet(space, [(1, 0, 0, 0), (0, 1, 0, 0)])
    bv = verify_blocking(S)
    assert bv.status == "not-blocking"
    assert not section(S, bv.witness)
    sv = verify_strong_blocking(S)
    # the rank scan may fail earlier than the first empty section
    assert sv.status in ("not-strong", "not-blocking")
    assert space.rank(section(S, sv.witness)) < 3


def test_empty_set(gf8):
    from strongblock.geometry import ProjectiveSpace
    space = ProjectiveSpace(gf8, 3)
    S = PointSet(space, [])
    assert S.matrix().shape == (0, 4)
    for verdict in (verify_blocking(S), verify_strong_blocking(S)):
        assert verdict.status == "not-blocking"
        assert verdict.witness == space.point_at(0)
        assert verdict.hyperplanes_checked == 1


def test_dimension_mismatch_and_budget(rg24):
    sub = subgeometry_points(rg24, 0)
    with pytest.raises(ValueError):
        verify_strong_blocking(sub, k=5)
    with pytest.raises(ValueError):
        verify_blocking(sub, k=3)
    with pytest.raises(BudgetExceeded):
        verify_strong_blocking(sub, budget=100)


def test_whole_space_is_strong(gf9):
    from strongblock.geometry import ProjectiveSpace
    space = ProjectiveSpace(gf9, 2)
    S = PointSet(space, list(space.points()))
    assert verify_strong_blocking(S).status == "strong"
