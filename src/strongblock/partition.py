"""The subgroup R* = F_{q^(k-1)}* . F_{q^k}*, its cosets as subgeometries, and
the point set B(k,q) with weights.

All exponent bookkeeping happens in the ambient field GF(q^(k(k-1))): R* is the
set of exponents divisible by a fixed stride, each coset index in
[0, stride) names one F_q-subgeometry of PG(k-1, q^(k-1)), and together they
partition the point set.  `build_rgroup` certifies the stride exactly, for
every (q, k), with one gcd, and keeps the `CoordinateMap` over
GF(q^(k-1)); `subgeometry_points` coordinatizes one element per point, and
`r_tuple_matrix` indexes the R codes by `geometry.canonical_points`.

The values of the big field enter only as cosets of R*: `RGroup` packs
R* once, g^(stride i) for i < r, by the block doubling of `Field.powers`,
and `RGroup.coset_values` multiplies entries of it by a representative g^c
(`Field.mul_packed`).  So the search and the coordinatization read r-entry
progressions (1,040 values at q = 3), never a table of the 531,440 of
GF(3^12).
"""

from __future__ import annotations

import functools
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

    @functools.cached_property
    def rstar_values(self):
        """int32 packed digits of g^(stride i), i < r: R* in exponent
        order, built on the first read by `Field.powers` and then kept."""
        return self.field.powers(self.stride, self.r)

    @functools.cached_property
    def _coset_heads(self):
        """int32 packed digits of the coset representatives g^c, c <
        stride."""
        return self.field.powers(1, self.stride)

    def coset_values(self, e, idx):
        """int32 packed digits of g^(e + stride i) for each i of a 1-D
        index array: with e = c + stride t, c < stride, the entries t + i
        (mod r) of `rstar_values` times g^c, by one `Field.mul_packed`.
        Every value the pipeline reads of the big field is one of these,
        so it never builds an order-size table."""
        t, c = divmod(e % self.field.group_order, self.stride)
        x = self.rstar_values.take((np.asarray(idx) + t) % self.r)
        return x if c == 0 else self.field.mul_packed(x, self._coset_heads[c])

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
    i < (q^k - 1)/(q - 1): one element per point.  s is the stride times
    (q^(k-1) - 1)/(q - 1), so these are the entries i (q^(k-1) - 1)/(q - 1)
    of coset c (`RGroup.coset_values`).  They are coordinatized over K,
    returned in canonical index order and labelled with the coset.
    """
    coset_index %= rg.stride
    q, k = rg.q, rg.k
    step = (q ** (k - 1) - 1) // (q - 1)
    packed = rg.coset_values(
        coset_index, step * np.arange((q ** k - 1) // (q - 1)))
    space = ProjectiveSpace(rg.geom_field, k - 1)
    norm = space.normalize_vec(rg.coords.coords(packed))
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
    """Normalized points of PG(ncoords-1, .) with every coordinate in R, in
    canonical index order: the ascending R codes (0, then the field's one)
    indexed by the base-(r+1) digits of `geometry.canonical_points`.  Raises
    BudgetExceeded when the ((r+1)^ncoords - 1)/r rows exceed SCAN_BUDGET.
    """
    r = rg.r
    if (r + 1) ** ncoords - 1 > geometry.SCAN_BUDGET * r:
        raise BudgetExceeded("(r+1)^%d exceeds enumeration budget" % ncoords)
    return rg.r_codes()[geometry.canonical_points(ncoords - 1, r + 1)]


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
