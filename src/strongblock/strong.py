"""Unions of coset subgeometries and exhaustive (strong) blocking verification.

A strong blocking set meets every hyperplane in a set of full rank k-1.  For
k <= 3, and for k = 4 when (N - 1)(Q + 7) <= 6 (Q^2 + Q + 1)
(`_counts_decide`), the scan ranks no section: it counts the points on
every hyperplane (`ProjectiveSpace.hyperplane_counts`, one pass over the
pencils, in the narrowest unsigned dtype that holds N: one byte per
hyperplane up to 255 points, kept as `StrongVerdict.counts`) and decides
from the counts and the secant lines, building the mask of short
hyperplanes only after the secant pass.  That is exact, because a
rank-(k-1) section needs k-1 points and two distinct points are
independent: for k <= 3 a hyperplane is short iff it holds at most k-2
points, and for k = 4 a section of three or more points is short iff it
is collinear, so H is short iff it holds at most 2 points or it contains
a secant line of m >= 3 points and holds exactly m.
The secant lines come from the N (N-1) ordered pairs of points
(`_rich_lines`, keyed by `ProjectiveSpace.secant_keys`), and only the Q+1
hyperplanes through each line of three or more points are visited
(`ProjectiveSpace.line_pencils`).  The rule keeps the pairs and those
hyperplanes, at most N (N-1)(Q+1)/6, within the N (Q^2 + Q + 1)
incidences of the rank path, which every other set takes (k >= 5, and
dense k = 4 sets): the incidences are bucketed by hyperplane into
sections with a counting sort (a CSR: one run of point rows per
hyperplane), handed out in runs whose incidence budget starts at
MARK_BATCH and doubles, and ranked in stacks of equal size with
`ProjectiveSpace.rank_stack`, over the k-1 coordinates that remain when
each hyperplane's leading one (`ProjectiveSpace.leads`) is dropped.  On
either path the witness is the lowest-index hyperplane whose section
falls short, and is re-checked off the scan path and every addition
table, by GF(p) digits: the mask of `ProjectiveSpace.section`, then `rank`.
Both paths hold about MARK_BATCH field values per temporary array, the
one working-set rule of `geometry`.  Plain blocking needs no sections: it
marks the hyperplanes through each point (`search.mark_lines_through`),
and the first unmarked one is the same lowest-index witness, returned as
the same `StrongVerdict` through the same re-check.  Both scans refuse a
space of more than `geometry.SCAN_BUDGET` hyperplanes with
BudgetExceeded, from `ProjectiveSpace.check_scan`, before they allocate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    # points on each hyperplane, by canonical index, from the count path only
    counts: np.ndarray | None = field(default=None, compare=False, repr=False)


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
    run, and the runs bound the per-run arrays and rank stacks.  The q = 2
    union (45 points of PG(3,8), 3,285 incidences) is one run.  A k = 5
    union of 124 points of PG(4,16) (541,756 incidences) takes 6 runs, and
    its first short section lies in the first, so the scan takes 0.03 s,
    against 0.09 s for ranking the whole window; either way it peaks at
    7.3 MiB under tracemalloc, set by the bucketing (2-core Xeon).
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
    stacks of equal section size s holding at most MARK_BATCH field values
    (or one section) each: k-1 coordinates of s points per section.

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
        step = max(1, geometry.MARK_BATCH // ((k - 1) * int(size)))
        for c in range(0, same.size, step):
            h = same[c:c + step]
            rows = members[indptr[h] + np.arange(size)[:, None]]
            lead = space.leads(lo + h)
            ranks[h] = space.rank_stack(coords[others[:, None, lead], rows].T)
    return ranks


def _recheck_witness(point_set, index, empty):
    """Verdict for the failing hyperplane `index`, whose section a scan found
    `empty` (unmarked, or with no rows) or short of rank k-1, re-derived off
    the scan path by GF(p) digits: the mask of `ProjectiveSpace.section`,
    then the `rank` of a nonempty section's rows."""
    space = point_set.space
    dual = space.point_at(index)
    mat = point_set.matrix()
    on = space.section(mat, dual)
    rank = 0 if empty else space.rank(mat[on])
    if rank >= space.k - 1 or on.any() == empty:
        raise AssertionError("strong witness re-check failed")
    return StrongVerdict("not-blocking" if empty else "not-strong", dual, rank,
                         index + 1)


def _counts_decide(space, size):
    """True when section counts and secant lines decide the strong scan:
    k <= 3, or k = 4 with (N - 1)(Q + 7) <= 6 (Q^2 + Q + 1).

    For k = 4 the count path works through N (N - 1) ordered pairs and the
    Q + 1 hyperplanes through each secant line of three or more points, of
    which there are at most N (N - 1)/6 (each holds at least three of
    the N (N - 1)/2 pairs): N (N - 1)(1 + (Q + 1)/6) in all, which the rule
    keeps within the N (Q^2 + Q + 1) incidences that `_sections` buckets.
    """
    q = space.field.order
    return space.k <= 3 or (
        space.k == 4 and (size - 1) * (q + 7) <= 6 * (q * q + q + 1))


def _rich_lines(space, mat):
    """Yield (first, second, size) over the secant lines of the rows of
    `mat` in PG(3, Q) that hold at least three of them, each line once:
    its lowest row, its next row, and its number of rows.

    The rows are worked through in blocks of about MARK_BATCH field
    values, one yield per block: a row pairs with the N - 1 others, and
    each pair carries k coordinates.  `ProjectiveSpace.secant_keys` keys
    the line through a row P and each other row.  P owns the line when it
    is below every other row of its key, and the line then holds that
    key's rows and P.
    """
    H, n = space.num_points, len(mat)
    if n < 3:
        return
    j = np.arange(n - 1)
    step = max(1, geometry.MARK_BATCH // (space.k * (n - 1)))
    for start in range(0, n, step):
        p = np.arange(start, min(start + step, n))
        r = j + (j >= p[:, None])  # (b, N-1): the rows but P
        # a stable sort on (P, key) keeps each group's rows ascending
        pair = (p[:, None] - start) * H + space.secant_keys(mat, p, r)
        order = np.argsort(pair, axis=None, kind="stable")
        pair = pair.ravel()[order]
        head = np.flatnonzero(np.concatenate([[True], pair[1:] != pair[:-1]]))
        size = np.diff(np.append(head, pair.size)) + 1
        owner = start + pair[head] // H
        second = r.ravel()[order[head]]
        own = (size >= 3) & (second > owner)
        yield owner[own], second[own], size[own]


def _short_by_counts(space, mat):
    """(short, counts): which hyperplanes of PG(k-1, Q), k <= 4, have a
    section of rank below k-1, and how many rows of `mat` each holds.

    A section of rank k-1 needs k-1 points, and two distinct points are
    independent, so for k <= 3 a hyperplane is short exactly when it holds
    at most k-2 points.  For k = 4 a section of three or more points is
    short exactly when it is collinear, S n H = S n l for a line l in H
    through two of its points: H is short iff it holds at most 2 points or
    it contains a secant line l of m >= 3 points and holds exactly m.  The
    counts come from one pass over the pencils, and only the hyperplanes
    through the rich lines of `_rich_lines` are visited; each line's
    hyperplanes hold N + Q m incidences in all, since every row off l lies
    on exactly one of them, which checks the counts and the lines.  The
    collinear hyperplanes are collected during that pass and marked in the
    mask after it, so the mask is not held beside the pass's batches; a
    collinear hyperplane contains one rich line only, so it is collected
    once, and the list holds no more indices than there are short
    hyperplanes.
    """
    if space.k > 4:
        raise ValueError("section counts decide PG(k-1, Q) for k <= 4 only")
    counts = space.hyperplane_counts(mat)
    if space.k < 4:
        return counts <= space.k - 2, counts
    collinear = []
    for first, second, size in _rich_lines(space, mat):
        total = len(mat) + space.field.order * size
        for i, hyperplanes in space.line_pencils(mat[first], mat[second]):
            on = counts[hyperplanes]
            if np.any(on.sum(axis=1) != total[i]):
                raise AssertionError("secant line counts do not add up")
            collinear.append(hyperplanes[on == size[i, None]])
    short = counts <= space.k - 2
    for hyperplanes in collinear:
        short[hyperplanes] = True
    return short, counts


def verify_strong_blocking(point_set: PointSet):
    """Exhaustively verify that every hyperplane section spans the hyperplane.

    Returns "strong", or the first offending hyperplane: "not-blocking" when
    the section is empty, "not-strong" when its rank falls short of k-1,
    for the set's own PG(k-1, Q).  Where `_counts_decide`, the section
    counts and secant lines of `_short_by_counts` decide every hyperplane,
    kept on the verdict; otherwise incidences are held about SECTION_CAP at
    a time and ranked, and a failure stops the scan soon after its hyperplane.
    """
    space = point_set.space
    space.check_scan()
    mat = point_set.matrix()
    if _counts_decide(space, len(mat)):
        short, counts = _short_by_counts(space, mat)
        hits = np.flatnonzero(short)
        verdict = StrongVerdict("strong", None, None, space.num_points)
        if hits.size:
            h = int(hits[0])
            verdict = _recheck_witness(point_set, h, counts[h] == 0)
        verdict.counts = counts
        return verdict
    for lo, indptr, members in _sections(space, mat):
        short = np.flatnonzero(
            _section_ranks(space, mat, lo, indptr, members) < space.k - 1)
        if short.size:
            h = int(short[0])
            return _recheck_witness(point_set, lo + h,
                                    indptr[h] == indptr[h + 1])
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
