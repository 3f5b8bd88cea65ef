"""Exact integer arithmetic for the blocking-set size bounds.

A small blocking set of a plane of order p^n has its size in one of the
intervals of Szonyi (FFA 1997), one per e.  `szonyi_membership` is the one
trichotomy of a size against the interval of one p^e ("below", "inside",
"above", or "no-upper-bound" when the upper endpoint is not real), and
`interval_violation_report` applies it to |B(4,q)| for every e.  Everything
runs on exact integers: comparisons against the irrational endpoint are
decided by sign analysis and squaring, never by evaluating the square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, InconclusiveE
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


def szonyi_membership(plane_order, pe, size):
    """Exact trichotomy of a size against the small-blocking-set interval
    [plane_order + 1 + plane_order/(pe + 2), (A - sqrt(D))/2] of a plane of
    order `plane_order` and a divisor p^e = `pe` of it, where
    A = plane_order pe + 1 and D = A^2 - 4 plane_order^2 pe.

    Returns "below" or "above" when the size falls outside the interval,
    "inside" when it is in it, and "no-upper-bound" when it meets the lower
    endpoint but D < 0, so that the upper one is not real.  The lower test
    cross-multiplies; the upper one compares A - 2 size >= 0 and its square
    against D.
    """
    if pe < 2:
        raise ValueError("p^e must be at least 2")
    if (plane_order + 1) * (pe + 2) + plane_order > size * (pe + 2):
        return "below"
    A = plane_order * pe + 1
    D = A * A - 4 * plane_order * plane_order * pe
    if D < 0:
        return "no-upper-bound"
    t = A - 2 * size
    return "inside" if t >= 0 and t * t >= D else "above"


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
        status = szonyi_membership(plane_order, p ** e, size)
        per_e.append(IntervalVerdict(e, p ** e, status,
                                     excluded=status in ("below", "above")))
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
