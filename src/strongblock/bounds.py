"""Exact integer arithmetic for the blocking-set size bounds.

Everything here runs on exact integers: comparisons against the irrational
interval endpoint are decided by sign analysis and squaring, never by
evaluating the square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InconclusiveE, NegativeDiscriminant
from .geometry import PointSet
from .partition import prime_power

LINE_BUDGET = 2 * 10 ** 7


def bset_size_poly(q):
    """|B(4,q)| as a polynomial in q."""
    return (q**12 + 2*q**11 + 3*q**10 + 2*q**9 - q**8 - 4*q**7 - 3*q**6
            - q**5 + 2*q**4 + 2*q**3 - q + 1)


def lower_bound_m(k, q):
    """Lower bound (k-1)(q+1) on the length of a minimal [n,k] code over GF(q)."""
    return (k - 1) * (q + 1)


def _lower_holds(plane_order, pe, size):
    # plane_order + 1 + plane_order/(pe+2) <= size, by cross-multiplication
    return (plane_order + 1) * (pe + 2) + plane_order <= size * (pe + 2)


def _upper_holds(plane_order, pe, size):
    # size <= (A - sqrt(D)) / 2 with A = plane_order*pe + 1, D = A^2 - 4*plane_order^2*pe
    A = plane_order * pe + 1
    D = A * A - 4 * plane_order * plane_order * pe
    if D < 0:
        raise NegativeDiscriminant("no real interval endpoint for p^e = %d" % pe)
    t = A - 2 * size
    return t >= 0 and t * t >= D


def szonyi_membership(plane_order, e, size):
    """Exact trichotomy of a size against the small-blocking-set interval.

    `plane_order` is the order of the plane (p^n); `e` indexes the interval.
    Raises NegativeDiscriminant when the upper endpoint is not real.
    """
    p, _h = prime_power(plane_order)
    if e < 1:
        raise ValueError("e must be at least 1")
    pe = p ** e
    if not _lower_holds(plane_order, pe, size):
        return "below"
    if not _upper_holds(plane_order, pe, size):
        return "above"
    return "inside"


@dataclass
class IntervalVerdict:
    e: int
    pe: int
    status: str   # "below" | "inside" | "above" | "no-upper-bound"
    excluded: bool


@dataclass
class IntervalReport:
    q: int
    p: int
    h: int
    plane_order: int
    size: int
    per_e: list
    certified: bool

    def inconclusive_es(self):
        return [v.e for v in self.per_e if not v.excluded]


def interval_violation_report(q, strict=True):
    """Certify that |B(4,q)| fits in no interval for any admissible e.

    Sweeps every e with p^e <= q^12.  An e is excluded when the size falls
    strictly below the lower endpoint or strictly above the upper one; when
    the upper endpoint is not real but the lower bound is met, nothing can be
    excluded for that e, and with `strict` set this raises InconclusiveE
    (this is exactly what happens for q = 9).
    """
    p, h = prime_power(q)
    if q % 2 == 0:
        raise ValueError("the interval argument covers odd q only")
    if q < 7:
        raise ValueError("the interval argument needs q >= 7")
    plane_order = q ** 12
    size = bset_size_poly(q)
    per_e = []
    for e in range(1, 12 * h + 1):
        pe = p ** e
        lower = _lower_holds(plane_order, pe, size)
        try:
            upper = _upper_holds(plane_order, pe, size)
        except NegativeDiscriminant:
            status = "below" if not lower else "no-upper-bound"
            per_e.append(IntervalVerdict(e, pe, status, excluded=not lower))
            continue
        if not lower:
            status, excluded = "below", True
        elif not upper:
            status, excluded = "above", True
        else:
            status, excluded = "inside", False
        per_e.append(IntervalVerdict(e, pe, status, excluded))
    report = IntervalReport(q=q, p=p, h=h, plane_order=plane_order, size=size,
                            per_e=per_e, certified=all(v.excluded for v in per_e))
    if strict and not report.certified:
        raise InconclusiveE(
            "q=%d: e in %r not excluded" % (q, report.inconclusive_es()))
    return report


@dataclass
class ModProfile:
    p: int
    census: dict  # intersection size -> line count
    holds: bool


def one_mod_p_profile(point_set: PointSet, p, budget=LINE_BUDGET):
    """Census of line intersection sizes, and the 1 (mod p) verdict.

    Exhaustive over all lines of the plane the set lives in.
    """
    space = point_set.space
    if space.n != 2:
        raise ValueError("profile is a plane operation")
    if space.num_points > budget:
        raise BudgetExceeded("%d lines exceed budget" % space.num_points)
    counts = np.zeros(space.num_points, dtype=np.int32)  # points per line
    for _rows, lines in space.pencils(point_set.matrix()):
        np.add.at(counts, lines.ravel(), 1)
    vals, cts = np.unique(counts, return_counts=True)
    census = {int(v): int(c) for v, c in zip(vals, cts)}
    holds = all(v % p == 1 for v in census)
    return ModProfile(p=p, census=census, holds=holds)
