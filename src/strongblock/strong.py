"""Unions of coset subgeometries and exhaustive (strong) blocking verification.

A strong blocking set meets every hyperplane in a set of full rank.  The scan
reads the pencils through the points (`ProjectiveSpace.pencils`), buckets the
incidences by hyperplane into sections with a counting sort (a CSR: one run of
point rows per hyperplane), hands them out in runs whose incidence budget
starts at MARK_BATCH and doubles, and ranks the sections in stacks of equal
size with `ProjectiveSpace.rank_stack`, over the k-1 coordinates that remain
when each hyperplane's leading one (`ProjectiveSpace.leads`) is dropped.  The
witness is the lowest-index hyperplane whose section falls short, and is
re-checked off the scan path with `ProjectiveSpace.section` (scalar
incidences) and the scalar `rank`.  Plain blocking needs no sections: it
marks the hyperplanes through each point (`search.mark_lines_through`), and
the first unmarked one is the same lowest-index witness, returned as the
same `StrongVerdict` through the same re-check.  Both scans refuse a space
of more than `geometry.SCAN_BUDGET` hyperplanes with BudgetExceeded, from
`ProjectiveSpace.check_scan`, before they allocate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import RepeatedCoset
from .geometry import PointSet
from .partition import RGroup, subgeometry_points
from .search import mark_lines_through

SECTION_CAP = 1 << 22  # incidences the strong scan buckets at once


@dataclass
class StrongVerdict:
    # "strong" | "not-strong" | "not-blocking" from the strong scan,
    # "blocking" | "not-blocking" from the plain one
    status: str
    witness: tuple | None  # dual coordinates of the offending hyperplane
    witness_rank: int | None  # rank of its section, 0 when not blocking
    hyperplanes_checked: int


def expected_size(q, k):
    """Size of a union of k-1 disjoint subgeometries, (k-1)(q^k-1)/(q-1)."""
    return (k - 1) * (q ** k - 1) // (q - 1)


def union_subgeometries(rg: RGroup, alphas):
    """Union of the subgeometries named by the cosets of the given elements.

    The labels record which coset each point came from; repeated cosets are
    rejected since they would collapse the union.
    """
    alphas = tuple(int(a) for a in alphas)
    if any(a == 0 for a in alphas):
        raise ValueError("alphas must be nonzero")
    cosets = [rg.coset_of(a) for a in alphas]
    if len(set(cosets)) != len(cosets):
        raise RepeatedCoset("cosets %r are not pairwise distinct" % (cosets,))
    pts = []
    labels = {}
    for c in cosets:
        sub = subgeometry_points(rg, c)
        pts.extend(sub.points)
        labels.update(sub.labels)
    ps = PointSet(sub.space, pts, labels)
    if len(alphas) == rg.k - 1 and len(ps) != expected_size(rg.q, rg.k):
        raise AssertionError("union size %d, expected %d"
                             % (len(ps), expected_size(rg.q, rg.k)))
    return ps


def _sections(space, mat):
    """Yield (lo, indptr, members): the sections of hyperplanes lo, lo+1, ...
    as a CSR, where the rows of `mat` on hyperplane lo+i are
    members[indptr[i]:indptr[i+1]], in ascending order.

    The incidences of one window of about SECTION_CAP of them are bucketed
    by hyperplane at once, by a counting sort: the bucket offsets come from
    the counts, and each row's hyperplanes, which are distinct, are filled
    in one step, row by row.  A window is handed out in runs of whole
    sections whose incidence budget starts at MARK_BATCH and doubles (a
    section past its budget is a run of its own), so a failure near the
    start is ranked early, a window of at most MARK_BATCH incidences is one
    run, and the runs bound the per-run arrays and rank stacks.  The q = 3
    strong scan (90,840 incidences) takes 2 runs and peaks at 4.0 MB under
    tracemalloc; a 255-point set in PG(3,64) (1.06M) takes 6 runs and
    16.6 MB.  Ranking whole windows peaked at 5.05 and 19.5 MB.
    """
    H, q = space.num_points, space.field.order
    incidences = len(mat) * ((q ** space.n - 1) // (q - 1))
    width = -(-H // max(1, -(-incidences // SECTION_CAP)))
    for lo in range(0, H, width):
        hi = min(lo + width, H)
        hyps, counts = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
        for _rows, hyperplanes in space.pencils(mat):
            on = (hyperplanes >= lo) & (hyperplanes < hi)
            hyps.append((hyperplanes[on] - lo).astype(np.int32))
            counts.append(np.count_nonzero(on, axis=1))
        # each array is dropped once used: a window holds at most two int32
        # arrays of incidence size at once, and only members while it is ranked
        hyp = np.concatenate(hyps)
        del hyps
        bounds = [0] + np.cumsum(np.concatenate(counts)).tolist()  # row runs
        indptr = np.zeros(hi - lo + 1, dtype=np.int64)
        np.cumsum(np.bincount(hyp, minlength=hi - lo), out=indptr[1:])
        cursor = indptr[:-1].copy()
        members = np.empty(hyp.size, dtype=np.int32)
        for row in range(len(mat)):
            h = hyp[bounds[row]:bounds[row + 1]]
            at = cursor[h]
            members[at] = row
            cursor[h] = at + 1
        del hyp, cursor
        a, budget = 0, geometry.MARK_BATCH
        while a < hi - lo:
            b = max(a + 1, int(np.searchsorted(indptr, indptr[a] + budget,
                                               "right")) - 1)
            yield lo + a, indptr[a:b + 1], members
            a, budget = b, 2 * budget


def _section_ranks(space, mat, lo, indptr, members):
    """Rank of every section of the CSR of hyperplanes lo, lo+1, ..., in
    stacks of equal section size holding at most MARK_BATCH incidences (or
    one section) each.

    A section lies in its hyperplane u, normalized with u_l = 1 at its
    leading position l, so x_l = -sum of u_i x_i over i != l, and dropping
    coordinate l keeps the rank: each stack is gathered as (k-1, s, H)
    without it and ranked through its (H, s, k-1) transpose.
    """
    k = space.k
    sizes = np.diff(indptr)
    ranks = np.zeros(sizes.size, dtype=np.int64)
    coords = mat.T
    j = np.arange(k - 1)[:, None]
    others = j + (j >= np.arange(k))  # others[:, l]: coordinates but l
    # return_counts keeps np.unique off its numpy.ma import
    for size in np.unique(sizes[sizes > 0], return_counts=True)[0]:
        same = np.flatnonzero(sizes == size)
        step = max(1, geometry.MARK_BATCH // int(size))
        for c in range(0, same.size, step):
            h = same[c:c + step]
            rows = members[indptr[h] + np.arange(size)[:, None]]
            lead = space.leads(lo + h)
            ranks[h] = space.rank_stack(coords[others[:, None, lead], rows].T)
    return ranks


def _recheck_witness(point_set, index, empty):
    """Verdict for the failing hyperplane `index`, whose section a scan found
    `empty` (unmarked, or with no rows) or short of rank k-1, re-derived off
    the scan path: scalar incidences with every point, then the scalar rank."""
    space = point_set.space
    dual = space.point_at(index)
    section = space.section(point_set.points, dual)
    rank = space.rank(section, space.k - 1)
    if rank >= space.k - 1 or (not section) != empty:
        raise AssertionError("strong witness re-check failed")
    return StrongVerdict("not-blocking" if empty else "not-strong", dual, rank,
                         index + 1)


def verify_strong_blocking(point_set: PointSet):
    """Exhaustively verify that every hyperplane section spans the hyperplane.

    Returns "strong", or the first offending hyperplane: "not-blocking" when
    the section is empty, "not-strong" when its rank falls short of k-1,
    for the set's own PG(k-1, Q).  Incidences are held about SECTION_CAP at
    a time, and a failure stops the scan soon after its hyperplane.
    """
    space = point_set.space
    space.check_scan()
    mat = point_set.matrix()
    for lo, indptr, members in _sections(space, mat):
        short = np.flatnonzero(
            _section_ranks(space, mat, lo, indptr, members) < space.k - 1)
        if short.size:
            h = int(short[0])
            return _recheck_witness(point_set, lo + h, indptr[h] == indptr[h + 1])
    return StrongVerdict("strong", None, None, space.num_points)


def verify_blocking(point_set: PointSet):
    """Exhaustively verify that every hyperplane contains a point of the set,
    by marking the hyperplanes through each point.

    Returns "blocking", or "not-blocking" with the lowest-index unmarked
    hyperplane, re-checked as an empty section like a strong scan witness.
    """
    space = point_set.space
    free = np.flatnonzero(~mark_lines_through(space, point_set.matrix()))
    if free.size == 0:
        return StrongVerdict("blocking", None, None, space.num_points)
    return _recheck_witness(point_set, int(free[0]), True)
