"""Unions of coset subgeometries and exhaustive (strong) blocking verification.

A strong blocking set meets every hyperplane in a set of full rank.  The scan
reads the pencils through the points (`ProjectiveSpace.pencils`), sorts the
incidences by hyperplane into sections (a CSR: one run of point rows per
hyperplane), and ranks the sections in stacks of equal size with
`ProjectiveSpace.rank_stack`.  The witness is the lowest-index hyperplane
whose section falls short, and is re-checked with scalar incidences and the
scalar `rank`.  Plain blocking needs no sections: it marks the hyperplanes
through each point (`search.mark_lines_through`), and the first unmarked one
is the same lowest-index witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BudgetExceeded, RepeatedCoset
from .geometry import PointSet
from .partition import RGroup, subgeometry_points
from .search import _first_unmarked_line

DEFAULT_HYPERPLANE_BUDGET = 2 * 10 ** 7
SECTION_CAP = 1 << 22  # incidences the strong scan sorts at once


@dataclass
class StrongVerdict:
    status: str            # "strong" | "not-strong" | "not-blocking"
    witness: tuple | None  # dual coordinates of the offending hyperplane
    witness_rank: int | None
    hyperplanes_checked: int


@dataclass
class BlockingSetVerdict:
    status: str            # "blocking" | "not-blocking"
    witness: tuple | None
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


def _check_scan(space, k, budget):
    if k is not None and k != space.k:
        raise ValueError("ambient dimension mismatch: k=%d, space needs %d"
                         % (k, space.k))
    if space.num_points > budget:
        raise BudgetExceeded("%d hyperplanes exceed scan budget" % space.num_points)


def _sections(space, mat):
    """Yield (lo, indptr, members): the sections of hyperplanes lo, lo+1, ...
    as a CSR, where the rows of `mat` on hyperplane lo+i are
    members[indptr[i]:indptr[i+1]], in ascending order.

    The incidences of one window of about SECTION_CAP of them are sorted by
    hyperplane at once.  A window of at most MARK_BATCH incidences is
    handed out whole, one stack per section size; a larger one in runs of
    hyperplanes that double from one, so a failure near the start is
    ranked early.
    """
    H, q = space.num_points, space.field.order
    incidences = len(mat) * ((q ** space.n - 1) // (q - 1))
    width = -(-H // max(1, -(-incidences // SECTION_CAP)))
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
        if members.size <= geometry.MARK_BATCH:
            yield lo, indptr, members
            continue
        a = 0
        while a < hi - lo:
            b = min(hi - lo, max(1, 2 * a))
            yield lo + a, indptr[a:b + 1], members
            a = b


def _section_ranks(space, mat, indptr, members):
    """Rank of every section of the CSR, in stacks of equal section size
    holding at most MARK_BATCH incidences (or one section) each."""
    sizes = np.diff(indptr)
    ranks = np.zeros(sizes.size, dtype=np.int64)
    # return_counts keeps np.unique off its numpy.ma import
    for size in np.unique(sizes[sizes > 0], return_counts=True)[0]:
        same = np.flatnonzero(sizes == size)
        step = max(1, geometry.MARK_BATCH // int(size))
        for c in range(0, same.size, step):
            h = same[c:c + step]
            rows = members[indptr[h][:, None] + np.arange(size)]
            ranks[h] = space.rank_stack(mat[rows])
    return ranks


def _recheck_witness(point_set, index, empty):
    """Verdict for the failing hyperplane `index`, whose batched section was
    `empty` or short of rank k-1, re-derived off the batched path: scalar
    incidences with every point, then the scalar rank."""
    space = point_set.space
    dual = space.point_at(index)
    section = [pt for pt in point_set.points if space.incidence(pt, dual)]
    rank = space.rank(section, space.k - 1)
    if rank >= space.k - 1 or (not section) != empty:
        raise AssertionError("strong witness re-check failed")
    return StrongVerdict("not-blocking" if empty else "not-strong", dual, rank,
                         index + 1)


def verify_strong_blocking(point_set: PointSet, k=None,
                           budget=DEFAULT_HYPERPLANE_BUDGET):
    """Exhaustively verify that every hyperplane section spans the hyperplane.

    Returns "strong", or the first offending hyperplane: "not-blocking" when
    the section is empty, "not-strong" when its rank falls short of k-1.
    Incidences are held about SECTION_CAP at a time, and a failure stops
    the scan soon after its hyperplane.
    """
    space = point_set.space
    _check_scan(space, k, budget)
    mat = point_set.matrix()
    for lo, indptr, members in _sections(space, mat):
        short = np.flatnonzero(
            _section_ranks(space, mat, indptr, members) < space.k - 1)
        if short.size:
            h = int(short[0])
            return _recheck_witness(point_set, lo + h, indptr[h] == indptr[h + 1])
    return StrongVerdict("strong", None, None, space.num_points)


def verify_blocking(point_set: PointSet, k=None,
                    budget=DEFAULT_HYPERPLANE_BUDGET):
    """Exhaustively verify that every hyperplane contains a point of the set,
    by marking the hyperplanes through each point."""
    space = point_set.space
    _check_scan(space, k, budget)
    index, witness = _first_unmarked_line(space, point_set.matrix())
    if witness is None:
        return BlockingSetVerdict("blocking", None, space.num_points)
    return BlockingSetVerdict("not-blocking", witness, index + 1)
