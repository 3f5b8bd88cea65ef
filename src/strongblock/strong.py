"""Unions of coset subgeometries and exhaustive (strong) blocking verification.

A strong blocking set meets every hyperplane in a set of full rank; the scan
walks hyperplanes in canonical order, computes the incident subset with
vectorized dual forms, and ranks it with early exit, so the returned witness
is always the first failure.  Plain blocking needs no sections: it marks the
hyperplanes through each point (`search.mark_lines_through`), and the first
unmarked one is the same lowest-index witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, RepeatedCoset
from .geometry import PointSet
from .partition import RGroup, subgeometry_points
from .search import _first_unmarked_line

DEFAULT_HYPERPLANE_BUDGET = 2 * 10 ** 7


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


def union_subgeometries(rg: RGroup, alphas, basis=None):
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
        sub = subgeometry_points(rg, c, basis)
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


def verify_strong_blocking(point_set: PointSet, k=None,
                           budget=DEFAULT_HYPERPLANE_BUDGET):
    """Exhaustively verify that every hyperplane section spans the hyperplane.

    Returns "strong", or the first offending hyperplane: "not-blocking" when
    the section is empty, "not-strong" when its rank falls short of k-1.
    """
    space = point_set.space
    _check_scan(space, k, budget)
    pts = point_set.points
    target = space.k - 1
    for start, duals, incident in space.sections(point_set.matrix()):
        for row, on in enumerate(incident):
            section = [pts[j] for j in np.flatnonzero(on)]
            rank = space.rank(section, target)
            if rank < target:
                return StrongVerdict("not-strong" if section else "not-blocking",
                                     tuple(int(c) for c in duals[row]), rank,
                                     start + row + 1)
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
