"""The subgroup R* = F_{q^(k-1)}* . F_{q^k}*, its cosets as subgeometries, and
the point set B(k,q) with weights.

All exponent bookkeeping happens in the ambient field GF(q^(k(k-1))): R* is the
set of exponents divisible by a fixed stride, each coset index in
[0, stride) names one F_q-subgeometry of PG(k-1, q^(k-1)), and together they
partition the point set.  `build_rgroup` certifies the stride exactly, for
every (q, k), with one gcd, and keeps the `CoordinateMap` over
GF(q^(k-1)); `subgeometry_points` coordinatizes one code per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BudgetExceeded, FieldTooLarge
from .field import DEFAULT_ORDER_CAP, CoordinateMap, Field, iroot, is_prime
from .geometry import PointSet, ProjectiveSpace


def prime_power(q):
    """(p, h) with q = p^h, or raise ValueError.

    Tries every h from log2(q) down to 1: q is a power of a prime exactly
    when some integer h-th root p has p^h = q and passes `is_prime`.
    """
    if q >= 2:
        for h in range(q.bit_length() - 1, 0, -1):
            p = iroot(q, h)
            if p ** h == q and is_prime(p):
                return p, h
    raise ValueError("q = %d is not a prime power" % q)


@dataclass
class RGroup:
    """Construction parameters plus the ambient field and the stride of R*."""

    q: int
    k: int
    field: Field                 # GF(q^(k(k-1)))
    coords: CoordinateMap        # coordinates over GF(q^(k-1))
    r: int                       # |R*|
    stride: int                  # cosets of R* <-> residues mod stride

    @property
    def geom_field(self):
        return self.coords.sub

    def in_rstar(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        return (codes != 0) & ((codes - 1) % self.stride == 0)

    def in_r(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        return (codes == 0) | self.in_rstar(codes)

    def coset_of(self, code):
        if code == 0:
            raise ValueError("zero lies in no coset")
        return (code - 1) % self.stride

    def coset_rep(self, coset_index):
        """Smallest-exponent representative g^c of coset c."""
        return self.field.from_exp(coset_index % self.stride)

    def rstar_codes(self):
        return np.arange(self.r, dtype=np.int64) * self.stride + 1

    def r_codes(self):
        return np.concatenate([[0], self.rstar_codes()])


def build_rgroup(q, k):
    """Build R* for the pair (q, k) and certify its stride.

    F_{q^(k-1)}* and F_{q^k}* are the exponents divisible by s_a = n/(q^(k-1)-1)
    and s_b = n/(q^k-1), n the group order, so their product set is the
    subgroup of exponents divisible by gcd(s_a, s_b); it is R* exactly when
    that gcd is the stride n/|R*|.
    """
    if q > DEFAULT_ORDER_CAP:
        # no such q builds a field; refuse it before testing q
        raise FieldTooLarge("q = %d exceeds the field order cap %d"
                            % (q, DEFAULT_ORDER_CAP))
    p, h = prime_power(q)
    if k < 3:
        raise ValueError("construction needs k >= 3")
    field = Field.build(p, h * k * (k - 1))
    n = field.group_order
    r = (q ** (k - 1) - 1) * (q ** k - 1) // (q - 1)
    if n % r:
        raise AssertionError("|R*| does not divide the group order")
    stride = n // r
    if math.gcd(n // (q ** (k - 1) - 1), n // (q ** k - 1)) != stride:
        raise AssertionError("R* closure check failed for q=%d k=%d" % (q, k))
    return RGroup(q=q, k=k, field=field,
                  coords=CoordinateMap(field, h * (k - 1)), r=r, stride=stride)


def subgeometry_points(rg: RGroup, coset_index):
    """Point set of the F_q-subgeometry named by a coset of R*.

    g^c R* = g^c K* L*, with K = F_{q^(k-1)} the coordinate field and
    L = F_{q^k}, and L* meets K* in F_q*.  So the points of coset c are the
    K*-classes of g^(c + s i), s = n/(q^k - 1) for the group order n,
    i < (q^k - 1)/(q - 1): one code per point.  They are coordinatized over K, returned in canonical
    index order and labelled with the coset.
    """
    coset_index %= rg.stride
    q, k = rg.q, rg.k
    step = rg.field.group_order // (q ** k - 1)
    codes = rg.field.from_exp(
        coset_index + step * np.arange((q ** k - 1) // (q - 1)))
    space = ProjectiveSpace(rg.geom_field, k - 1)
    norm = space.normalize_vec(rg.coords.coords(codes))
    idx = space.point_index_vec(norm)
    order = np.argsort(idx)
    if np.any(np.diff(idx[order]) == 0):
        raise AssertionError("two codes of coset %d give one point"
                             % coset_index)
    pts = [tuple(int(c) for c in row) for row in norm[order]]
    return PointSet(space, pts, {pt: coset_index for pt in pts})


def full_partition(rg: RGroup):
    """All coset subgeometries, indexed 0..stride-1."""
    return [subgeometry_points(rg, c) for c in range(rg.stride)]


def r_tuple_matrix(rg: RGroup, ncoords):
    """Normalized points of PG(ncoords-1, .) with every coordinate in R.

    Rows come out in canonical point-index order: leading-one blocks in
    ascending position, and within a block the ascending R codes count in
    base r+1 as the index counts in base Q.  Raises BudgetExceeded when the
    ((r+1)^ncoords - 1)/r rows exceed SCAN_BUDGET.
    """
    r = rg.r
    if (r + 1) ** ncoords - 1 > geometry.SCAN_BUDGET * r:
        raise BudgetExceeded("(r+1)^%d exceeds enumeration budget" % ncoords)
    rcodes = rg.r_codes()
    blocks = []
    for lead in range(ncoords):
        free = ncoords - lead - 1
        n_rows = (r + 1) ** free
        block = np.zeros((n_rows, ncoords), dtype=np.int64)
        block[:, lead] = 1
        rows = np.arange(n_rows)
        for j in range(free):
            div = (r + 1) ** (free - 1 - j)
            block[:, lead + 1 + j] = rcodes[(rows // div) % (r + 1)]
        blocks.append(block)
    return np.concatenate(blocks, axis=0)


@dataclass
class BSet:
    """B(k,q): the R-coordinate points of PG(k-2, q^(k(k-1))), with weights."""

    rgroup: RGroup
    space: ProjectiveSpace
    matrix: np.ndarray   # (|B|, k-1) normalized codes, canonical index order
    weights: np.ndarray  # nonzero-coordinate count per row

    def __len__(self):
        return self.matrix.shape[0]

    def weight_census(self):
        vals, counts = np.unique(self.weights, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def contains(self, coords):
        norm = self.space.normalize(coords)
        return bool(np.all(self.rgroup.in_r(np.asarray(norm, dtype=np.int64))))


def build_bset(rg: RGroup):
    """Materialize B(k,q) with weight labels attached at build time."""
    mat = r_tuple_matrix(rg, rg.k - 1)
    weights = np.count_nonzero(mat, axis=1)
    expected = ((rg.r + 1) ** (rg.k - 1) - 1) // rg.r
    if mat.shape[0] != expected:
        raise AssertionError("|B| = %d, expected %d" % (mat.shape[0], expected))
    space = ProjectiveSpace(rg.field, rg.k - 2)
    return BSet(rgroup=rg, space=space, matrix=mat, weights=weights)
