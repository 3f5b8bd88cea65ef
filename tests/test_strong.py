"""Tests for subgeometry unions and (strong) blocking verification."""

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import strongblock
from strongblock import geometry, strong
from strongblock.bounds import one_mod_p_profile
from strongblock.errors import BudgetExceeded, RepeatedCoset
from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace, canonical_points
from strongblock.partition import (
    build_rgroup,
    full_partition,
    subgeometry_points,
)
from strongblock.search import find_independent_tuple, free_cosets
from strongblock.strong import (
    StrongVerdict,
    expected_size,
    union_subgeometries,
    verify_blocking,
    verify_strong_blocking,
)

from oracles import dot, line_through


def section(point_set, dual):
    space = point_set.space
    vals = space.dot_block(np.asarray([dual], dtype=np.int64),
                           point_set.matrix())[0]
    return [point_set.points[j] for j in np.flatnonzero(vals == 0)]


def test_independence_is_sufficient_not_necessary_for_strong(rg24):
    # the pairs {a, b} of cosets 1..38 complete the triples (0, a, b)
    parts = full_partition(rg24)
    free = free_cosets(rg24, 3)
    pairs = list(itertools.combinations(range(1, rg24.stride), 2))
    independent = {(a, b) for a, b in pairs if free[a, b]}
    strong_unions = {
        (a, b) for a, b in pairs
        if verify_strong_blocking(PointSet(
            parts[0].space,
            parts[0].points + parts[a].points + parts[b].points)).status
        == "strong"}
    assert (len(pairs), len(independent), len(strong_unions)) == (703, 24, 367)
    assert independent <= strong_unions


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
    line = line_through(space, (1, 0, 0, 0), (0, 1, 0, 0))
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


def test_dimension_mismatch_and_budget(rg24, monkeypatch):
    sub = subgeometry_points(rg24, 0)
    monkeypatch.setattr(geometry, "SCAN_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        verify_strong_blocking(sub)
    with pytest.raises(BudgetExceeded):
        verify_blocking(sub)


def test_whole_space_is_strong(gf9):
    from strongblock.geometry import ProjectiveSpace
    space = ProjectiveSpace(gf9, 2)
    S = PointSet(space, canonical_points(2, 9))
    assert verify_strong_blocking(S).status == "strong"


# ---------------------------------------------------------------------------
# the pencil/CSR/batched-rank scan against the section-by-section oracle


def strong_oracle(point_set):
    """Every hyperplane in canonical order, its section from dual forms and
    its rank by `rank`; the first short section is the witness."""
    space = point_set.space
    target = space.k - 1
    mat = point_set.matrix()
    for start in range(0, space.num_points, 4096):
        duals = canonical_points(space.n, space.field.order, start,
                                 min(start + 4096, space.num_points))
        incident = space.dot_block(duals, mat) == 0
        for row, on in enumerate(incident):
            section = [point_set.points[j] for j in np.flatnonzero(on)]
            rank = space.rank(section)
            if rank < target:
                return StrongVerdict(
                    "not-strong" if section else "not-blocking",
                    tuple(int(c) for c in duals[row]), rank, start + row + 1)
    return StrongVerdict("strong", None, None, space.num_points)


@pytest.fixture(scope="module")
def strong_corpus(rg24):
    rng = np.random.default_rng(5)
    corpus = []
    for p, m, n, sizes in [(2, 6, 1, (1, 30, 64)), (2, 2, 2, (3, 8, 15)),
                           (3, 2, 2, (4, 20, 60)), (2, 2, 3, (5, 30, 70)),
                           (2, 3, 3, (10, 60, 300)), (2, 1, 4, (6, 15, 28))]:
        space = ProjectiveSpace(Field.build(p, m), n)
        for size in sizes:
            idx = rng.choice(space.num_points, size, replace=False)
            corpus.append(PointSet(space, [space.point_at(int(i))
                                           for i in idx]))
    pg38 = ProjectiveSpace(Field.build(2, 3), 3)
    pg29 = ProjectiveSpace(Field.build(3, 2), 2)
    corpus += [
        PointSet(pg38, []),
        subgeometry_points(rg24, 0),
        PointSet(pg38, line_through(pg38, (1, 0, 0, 0), (0, 1, 0, 0))),
        PointSet(pg38, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        PointSet(pg29, canonical_points(pg29.n, pg29.field.order)),
        union_subgeometries(
            rg24, find_independent_tuple(rg24, 3, seed=1).alphas),
    ]
    return corpus


def test_strong_scan_matches_section_oracle(strong_corpus):
    seen = set()
    for S in strong_corpus:
        v = verify_strong_blocking(S)
        assert v == strong_oracle(S), (S.space, len(S))
        seen.add(v.status)
        if v.status == "not-strong" and v.hyperplanes_checked > 1:
            seen.add("witness past the first hyperplane")
    assert seen == {"strong", "not-strong", "not-blocking",
                    "witness past the first hyperplane"}


@pytest.mark.parametrize("name,value", [("MARK_BATCH", 3),
                                        ("SECTION_CAP", 200)])
def test_strong_scan_batch_sizes(monkeypatch, strong_corpus, name, value):
    # pencil batches of one point and rank stacks of one section, or scan
    # windows of a few hyperplanes, give the same verdicts
    expected = [verify_strong_blocking(S) for S in strong_corpus]
    monkeypatch.setattr(geometry if name == "MARK_BATCH" else strong,
                        name, value)
    assert [verify_strong_blocking(S) for S in strong_corpus] == expected


def sections_by_stable_sort(space, mat):
    """The windows of `strong._sections` with each window's incidences
    bucketed by a stable argsort on the hyperplane index."""
    H, q = space.num_points, space.field.order
    incidences = len(mat) * ((q ** space.n - 1) // (q - 1))
    width = -(-H // max(1, -(-incidences // strong.SECTION_CAP)))
    for lo in range(0, H, width):
        hi = min(lo + width, H)
        hyps, rows = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)]
        for pts, hyperplanes in space.pencils(mat):
            on = (hyperplanes >= lo) & (hyperplanes < hi)
            hyps.append((hyperplanes[on] - lo).astype(np.int32))
            rows.append(np.broadcast_to(pts[:, None], on.shape)[on].astype(np.int32))
        hyp = np.concatenate(hyps)
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(np.bincount(hyp, minlength=hi - lo), out=indptr[1:])
        members = np.concatenate(rows)[np.argsort(hyp, kind="stable")]
        # runs of whole sections under an incidence budget that doubles
        a, budget = 0, geometry.MARK_BATCH
        while a < hi - lo:
            b = a + 1
            while b < hi - lo and indptr[b + 1] - indptr[a] <= budget:
                b += 1
            yield lo + a, indptr[a:b + 1], members
            a, budget = b, 2 * budget


def checked_sections(space, mat):
    """Compare the runs of `strong._sections` with the stable-sort oracle,
    and check that the runs of each window (they share its members) tile it
    in order, the i-th of them holding at most MARK_BATCH 2^i incidences
    unless it is a single section.  Returns the number of windows, the most
    runs of one window, and whether some single section exceeds its
    budget."""
    got = list(strong._sections(space, mat))
    want = list(sections_by_stable_sort(space, mat))
    assert len(got) == len(want), (space, len(mat))
    start, end, members, windows, most, oversized = 0, 0, None, 0, 0, False
    for (lo, indptr, run_members), (lo2, indptr2, members2) in zip(got, want):
        assert lo == lo2
        assert np.array_equal(indptr, indptr2)
        assert run_members.dtype == members2.dtype
        assert np.array_equal(run_members, members2)
        assert lo == start and indptr.size >= 2
        if run_members is not members:  # the first run of a window
            assert members is None or end == members.size
            members, i, end, windows = run_members, 0, 0, windows + 1
        assert indptr[0] == end
        over = indptr[-1] - indptr[0] > geometry.MARK_BATCH << i
        assert not over or indptr.size == 2
        oversized |= over
        start, end, i = lo + indptr.size - 1, indptr[-1], i + 1
        most = max(most, i)
    assert start == space.num_points and end == members.size
    return windows, most, oversized


@pytest.mark.parametrize("cap", [None, 200])
def test_counting_sort_sections_match_stable_sort(monkeypatch, strong_corpus,
                                                  cap):
    # the corpus holds the empty set; a cap of 200 splits most scans into
    # many windows, each of them one run.  Without a cap, one run per scan
    # needs a MARK_BATCH of at least the corpus's largest window, 300
    # points of PG(3,8) (21,900 incidences), so 2^15 is pinned
    if cap is not None:
        monkeypatch.setattr(strong, "SECTION_CAP", cap)
    else:
        monkeypatch.setattr(geometry, "MARK_BATCH", 1 << 15)
    counts = [checked_sections(S.space, S.matrix()) for S in strong_corpus]
    windows = max(c[0] for c in counts)
    assert max(c[1] for c in counts) == 1
    assert windows > 10 if cap else windows == 1


def test_counting_sort_sections_split_into_runs(monkeypatch, strong_corpus):
    # a MARK_BATCH of 8 splits the one window of each scan into runs, the
    # first of them single sections of more than their budget
    monkeypatch.setattr(geometry, "MARK_BATCH", 8)
    counts = [checked_sections(S.space, S.matrix()) for S in strong_corpus]
    assert max(c[0] for c in counts) == 1
    assert max(c[1] for c in counts) > 5
    assert any(c[2] for c in counts)


@pytest.mark.parametrize("cap", [None, 1000])
def test_counting_sort_sections_of_whole_pg1(monkeypatch, cap):
    # every point of PG(1, 4096): each hyperplane (a point) holds one row
    if cap is not None:
        monkeypatch.setattr(strong, "SECTION_CAP", cap)
    space = ProjectiveSpace(Field.build(2, 12), 1)
    mat = canonical_points(space.n, space.field.order)
    got = list(strong._sections(space, mat))
    want = list(sections_by_stable_sort(space, mat))
    assert len(got) == len(want) >= (5 if cap else 1)
    for (lo, indptr, members), (lo2, indptr2, members2) in zip(got, want):
        assert lo == lo2
        assert np.array_equal(indptr, indptr2)
        assert members.dtype == members2.dtype
        assert np.array_equal(members, members2)
    assert verify_strong_blocking(
        PointSet(space, [tuple(r) for r in mat.tolist()])).status == "strong"


@pytest.mark.parametrize("p,m,n", [(2, 6, 1), (3, 2, 2), (2, 3, 3), (2, 1, 4)])
def test_section_ranks_over_k_minus_1_columns(p, m, n):
    # random points of every hyperplane, drawn from a subspace of random
    # dimension inside it: ranking without the hyperplane's leading
    # coordinate gives the `rank` of the full rows
    space = ProjectiveSpace(Field.build(p, m), n)
    f, k = space.field, space.k
    rng = np.random.default_rng(23)
    sections, expect = [], []
    for h in range(space.num_points):
        u = space.point_at(h)
        lead = next(i for i, c in enumerate(u) if c)
        basis = []  # e_i - u_i e_lead, i != lead, spans the hyperplane
        for i in range(k):
            if i != lead:
                v = [0] * k
                v[i], v[lead] = f.one, f.neg(u[i])
                basis.append(v)
        basis = np.asarray(basis, dtype=np.int64)
        d = int(rng.integers(0, k))
        span = np.zeros((d, k), dtype=np.int64)
        for i, coef in enumerate(rng.integers(0, f.order, (d, k - 1))):
            for c, v in zip(coef, basis):
                span[i] = f.add_vec(span[i], f.mul_vec(c, v))
        rows = np.zeros((int(rng.integers(0, 2 * k + 1)), k), dtype=np.int64)
        for i, coef in enumerate(rng.integers(0, f.order, (len(rows), d))):
            for c, v in zip(coef, span):
                rows[i] = f.add_vec(rows[i], f.mul_vec(c, v))
        assert all(dot(space, tuple(r), u) == 0 for r in rows.tolist())
        sections.append(rows)
        expect.append(space.rank([tuple(r) for r in rows.tolist()]))
    mat = np.concatenate(sections)
    indptr = np.zeros(len(sections) + 1, dtype=np.int64)
    np.cumsum([len(rows) for rows in sections], out=indptr[1:])
    members = np.arange(len(mat), dtype=np.int32)
    ranks = strong._section_ranks(space, mat, 0, indptr, members)
    assert ranks.tolist() == expect
    assert {0, k - 1} <= set(expect)
    if k > 2:
        assert any(0 < r < k - 1 for r in expect)


# ---------------------------------------------------------------------------
# section counts and secant lines against the ranks


@pytest.fixture(scope="module")
def planted_sets():
    """k <= 4 sets that put the secant-line rule to work: the points of a
    random line or plane plus 0-4 random points, and unions of 1-3 coset
    subgeometries, at (q, k) = (2, 4), (3, 4), (2, 3), (3, 3)."""
    from strongblock.partition import build_rgroup
    rng = np.random.default_rng(18)
    sets = []
    for p, m, n in [(2, 2, 3), (3, 1, 3), (2, 3, 3), (3, 2, 2)]:
        space = ProjectiveSpace(Field.build(p, m), n)
        for extra in range(5):
            for flat in ("line", "plane"):
                if flat == "plane" and n == 2:
                    continue
                a, b, c = (space.point_at(int(i)) for i in
                           rng.choice(space.num_points, 3, replace=False))
                pts = line_through(space, a, b)
                if flat == "plane":
                    pts = [x for x in canonical_points(
                               n, space.field.order).tolist()
                           if space.rank([a, b, c, x]) < 4]
                pts += [space.point_at(int(i)) for i in
                        rng.choice(space.num_points, extra, replace=False)]
                sets.append(PointSet(space, pts))
    for q, k in [(2, 4), (3, 4), (2, 3), (3, 3)]:
        rg = build_rgroup(q, k)
        for count in (1, 2, 3):
            cosets = rng.choice(rg.stride, count, replace=False)
            pts = []
            for c in cosets:
                pts += subgeometry_points(rg, int(c)).points
            sets.append(PointSet(subgeometry_points(rg, 0).space, pts))
    return sets


def test_count_path_matches_section_oracle(strong_corpus, planted_sets):
    # every k <= 4 corpus set and planted set, on whichever path the rule
    # picks, against the scalar oracle; both paths and both verdicts occur
    seen = set()
    for S in [S for S in strong_corpus if S.space.k <= 4] + planted_sets:
        v = verify_strong_blocking(S)
        assert v == strong_oracle(S), (S.space, len(S))
        counts = strong._counts_decide(S.space, len(S))
        seen.add((counts, v.status))
        if counts and S.space.k == 4 and v.status == "not-strong":
            on = section(S, v.witness)
            if len(on) >= 3:
                seen.add("collinear witness")
    assert {(True, "strong"), (True, "not-strong"), (True, "not-blocking"),
            (False, "strong"), (False, "not-strong"),
            "collinear witness"} <= seen


def rank_mask(space, mat):
    """Which hyperplanes have a section of rank below k-1, from `_sections`
    and `_section_ranks`, over every window and run."""
    short = np.zeros(space.num_points, dtype=bool)
    for lo, indptr, members in strong._sections(space, mat):
        ranks = strong._section_ranks(space, mat, lo, indptr, members)
        short[lo:lo + ranks.size] = ranks < space.k - 1
    return short


def test_count_mask_matches_rank_mask(strong_corpus, planted_sets):
    # the whole short mask, not only the first witness, on sets from both
    # sides of the rule
    sides = set()
    for S in [S for S in strong_corpus if S.space.k <= 4] + planted_sets:
        mat = S.matrix()
        short, counts = strong._short_by_counts(S.space, mat)
        assert np.array_equal(short, rank_mask(S.space, mat)), (S.space,
                                                                len(S))
        duals = canonical_points(S.space.n, S.space.field.order)
        assert np.array_equal(counts, np.count_nonzero(
            S.space.dot_block(duals, mat) == 0, axis=1))
        sides.add(strong._counts_decide(S.space, len(S)))
    assert sides == {True, False}


def test_rank_path_on_a_k5_union_stops_at_the_first_short_run(monkeypatch):
    # four subgeometries of B(2, 5), 124 points of PG(4, 16), take the rank
    # path; their one window of 541,756 incidences is handed out in 6 runs,
    # and the first short section, hyperplane 15 of rank 3, lies in the
    # first, so only that run is ranked
    rg = build_rgroup(2, 5)
    S = union_subgeometries(rg, [rg.coset_rep(c) for c in (0, 7, 100, 1000)])
    assert (len(S), S.space.n, S.space.field.order) == (124, 4, 16)
    runs = len(list(strong._sections(S.space, S.matrix())))
    ranked = []
    section_ranks = strong._section_ranks
    monkeypatch.setattr(strong, "_section_ranks", lambda *args: (
        ranked.append(args[2]) or section_ranks(*args)))
    v = verify_strong_blocking(S)
    assert (v.status, v.hyperplanes_checked, v.witness_rank) == (
        "not-strong", 16, 3)
    assert (len(ranked), runs) == (1, 6)
    assert v == strong_oracle(S)


@pytest.mark.parametrize("batch", [1, 259, 1 << 14, 1 << 15])
def test_count_path_batch_invariance(monkeypatch, strong_corpus,
                                     random_pg3_64, batch):
    # below k (N - 1) field values a secant-pass block holds one row, and
    # below 4 (Q + 1) = 260 a line-pencil batch of PG(3,64) holds one line:
    # the same secant lines, counts and short hyperplanes come out, as at
    # 2^14 (the default) and 2^15
    sets = [S for S in strong_corpus if S.space.k <= 4] + [random_pg3_64]

    def count_path(S):
        mat = S.matrix()
        lines = {(int(a), int(b), int(m))
                 for block in strong._rich_lines(S.space, mat)
                 for a, b, m in zip(*block)} if S.space.k == 4 else None
        return lines, strong._short_by_counts(S.space, mat)

    expected = [count_path(S) for S in sets]
    assert len(expected[-1][0]) > 0
    monkeypatch.setattr(geometry, "MARK_BATCH", batch)
    for S, (lines, (short, counts)) in zip(sets, expected):
        got_lines, (got_short, got_counts) = count_path(S)
        assert got_lines == lines, (S.space, len(S))
        assert np.array_equal(got_short, short), (S.space, len(S))
        assert np.array_equal(got_counts, counts), (S.space, len(S))


@pytest.mark.parametrize("on_line,off_line", [(255, 0), (255, 1), (256, 1)])
def test_count_path_at_the_byte_boundary(on_line, off_line):
    # a points of the line x2 = 0 of PG(2,256), with the point (0,0,1) or
    # not: the counts are uint8 up to 255 rows and uint16 past them, and
    # the line's count reaches 255, the largest uint8, then 256
    Q, a = 256, on_line
    space = ProjectiveSpace(Field.build(2, 8), 2)
    line = line_through(space, (1, 0, 0), (0, 1, 0))
    S = PointSet(space, line[:a] + [(0, 0, 1)][:off_line])
    N = len(S)
    counts = space.hyperplane_counts(S.matrix())
    assert counts.dtype == (np.uint8 if N <= 255 else np.uint16)
    assert counts[space.point_index_vec([(0, 0, 1)])[0]] == a
    assert counts.sum() == N * (Q + 1)
    # every other line meets x2 = 0 in one point, and (0,0,1) lies on one
    # line through each of its Q + 1 points
    census = ({a: 1, 1: a * Q, 0: (Q + 1 - a) * Q} if not off_line else
              {a: 1, 2: a, 1: (Q + 1 - a) + a * (Q - 1),
               0: (Q + 1 - a) * (Q - 1)})
    assert one_mod_p_profile(S, 2).census == census
    assert verify_strong_blocking(S) == strong_oracle(S)


def test_count_path_refuses_k_5():
    space = ProjectiveSpace(Field.build(2, 1), 4)
    with pytest.raises(ValueError):
        strong._short_by_counts(
            space, canonical_points(space.n, space.field.order, 0, 5))


def test_corrupted_counts_or_lines_trip_the_line_check(gf8, monkeypatch):
    # a line of PG(3,8) and two more points: one rich line, whose nine
    # planes must hold N + Q m = 11 + 8 * 9 incidences
    space = ProjectiveSpace(gf8, 3)
    line = line_through(space, (1, 0, 0, 0), (0, 1, 0, 0))
    S = PointSet(space, line + [(0, 0, 1, 0), (0, 0, 0, 1)])
    lines = [np.stack(block).tolist()
             for block in strong._rich_lines(space, S.matrix())]
    assert lines == [[[0], [1], [9]]]
    assert verify_strong_blocking(S).status == "not-strong"
    real_pencils = space.pencils

    def first_row_dropped(mat):
        for i, (rows, hyperplanes) in enumerate(real_pencils(mat)):
            yield (rows[1:], hyperplanes[1:]) if i == 0 else (rows, hyperplanes)

    with monkeypatch.context() as m:
        m.setattr(space, "pencils", first_row_dropped)
        with pytest.raises(AssertionError, match="do not add up"):
            verify_strong_blocking(S)
    real_lines = strong._rich_lines
    monkeypatch.setattr(strong, "_rich_lines", lambda space, mat: (
        (first, second, size + 1)
        for first, second, size in real_lines(space, mat)))
    with pytest.raises(AssertionError, match="do not add up"):
        verify_strong_blocking(S)


RECHECK_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from strongblock import strong
    from strongblock.field import Field
    from strongblock.geometry import PointSet, ProjectiveSpace, canonical_points

    def expect_error(name, call):
        try:
            call()
        except AssertionError as exc:
            print(name, "raised:", exc)
        else:
            print(name, "passed silently")

    print("optimize", sys.flags.optimize)
    # PG(2,4) takes the section-count path
    space = ProjectiveSpace(Field.build(2, 2), 2)
    plane = PointSet(space, canonical_points(2, 4))
    real_counts = strong._short_by_counts
    strong._short_by_counts = lambda space, mat: (
        np.ones(space.num_points, dtype=bool), real_counts(space, mat)[1])
    expect_error("counts", lambda: strong.verify_strong_blocking(plane))
    # hyperplane 0 (x0 = 0) meets the pair in one point: short, not empty
    pair = PointSet(space, [(1, 0, 0), (0, 1, 0)])
    strong._short_by_counts = lambda space, mat: (
        real_counts(space, mat)[0], np.zeros(space.num_points, dtype=np.int64))
    expect_error("count emptiness", lambda: strong.verify_strong_blocking(pair))
    strong._short_by_counts = real_counts
    # PG(4,2) takes the rank path
    space = ProjectiveSpace(Field.build(2, 1), 4)
    whole = PointSet(space, canonical_points(4, 2))
    real_rank = ProjectiveSpace.rank_stack
    ProjectiveSpace.rank_stack = lambda self, stack: np.zeros(
        len(stack), dtype=np.int64)
    expect_error("rank", lambda: strong.verify_strong_blocking(whole))
    ProjectiveSpace.rank_stack = real_rank
    pair = PointSet(space, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)])
    strong._sections = lambda space, mat: iter([(
        0, np.zeros(space.num_points + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int32))])
    expect_error("emptiness", lambda: strong.verify_strong_blocking(pair))
    # no hyperplane marked: the first hyperplane looks missed
    strong.mark_lines_through = lambda space, mat: np.zeros(
        space.num_points, dtype=bool)
    expect_error("marks", lambda: strong.verify_blocking(whole))
""")


def test_strong_recheck_survives_python_O():
    # forged section counts, batched ranks, sections and marks must be
    # refused under python -O
    src = os.path.dirname(os.path.dirname(strongblock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-O", "-c", RECHECK_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "optimize 1",
        "counts raised: strong witness re-check failed",
        "count emptiness raised: strong witness re-check failed",
        "rank raised: strong witness re-check failed",
        "emptiness raised: strong witness re-check failed",
        "marks raised: strong witness re-check failed",
    ]
