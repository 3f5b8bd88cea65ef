"""Unions of coset subgeometries and exhaustive (strong) blocking verification.

A strong blocking set meets every hyperplane in a set of full rank; the scan
walks hyperplanes in canonical order, computes the incident subset with
vectorized dual forms, and ranks it with early exit, so the returned witness
is always the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, RepeatedCoset
from .geometry import PointSet
from .partition import RGroup, subgeometry_points

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


def _scan(point_set: PointSet, k, budget, need_rank):
    """(status, witness, rank, checked) for the first failing hyperplane, or
    (None, None, None, num_points) when every hyperplane passes."""
    space = point_set.space
    if k is not None and k != space.k:
        raise ValueError("ambient dimension mismatch: k=%d, space needs %d"
                         % (k, space.k))
    if len(point_set) == 0:
        return ("not-blocking", space.point_at(0), 0, 1)
    if space.num_points > budget:
        raise BudgetExceeded("%d hyperplanes exceed scan budget" % space.num_points)
    pts = point_set.points
    target = space.k - 1
    for start, duals, incident in space.sections(point_set.matrix()):
        counts = incident.sum(axis=1)
        suspects = (range(len(duals)) if need_rank
                    else np.flatnonzero(counts == 0).tolist())
        for row in suspects:
            if counts[row] == 0:
                return ("not-blocking", tuple(int(c) for c in duals[row]), 0,
                        start + row + 1)
            if need_rank:
                section = [pts[j] for j in np.flatnonzero(incident[row])]
                rank = space.rank(section, target)
                if rank < target:
                    return ("not-strong", tuple(int(c) for c in duals[row]),
                            rank, start + row + 1)
    return (None, None, None, space.num_points)


def verify_strong_blocking(point_set: PointSet, k=None,
                           budget=DEFAULT_HYPERPLANE_BUDGET):
    """Exhaustively verify that every hyperplane section spans the hyperplane.

    Returns "strong", or the first offending hyperplane: "not-blocking" when
    the section is empty, "not-strong" when its rank falls short of k-1.
    """
    status, witness, rank, checked = _scan(point_set, k, budget, need_rank=True)
    return StrongVerdict(status or "strong", witness, rank, checked)


def verify_blocking(point_set: PointSet, k=None,
                    budget=DEFAULT_HYPERPLANE_BUDGET):
    """Exhaustively verify that every hyperplane contains a point of the set."""
    status, witness, _rank, checked = _scan(point_set, k, budget, need_rank=False)
    return BlockingSetVerdict(status or "blocking", witness, checked)
