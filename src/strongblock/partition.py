"""The subgroup R* = F_{q^(k-1)}* . F_{q^k}*, its cosets as subgeometries, and
the point set B(k,q) with weights.

All exponent bookkeeping happens in the ambient field GF(q^(k(k-1))): R* is the
set of exponents divisible by a fixed stride, each coset index in
[0, stride) names one F_q-subgeometry of PG(k-1, q^(k-1)), and together they
partition the point set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded, FieldTooLarge, NoWitnessFound
from .field import DEFAULT_ORDER_CAP, Field, iroot, is_prime
from .geometry import PointSet, ProjectiveSpace

DEFAULT_ENUM_BUDGET = 2 * 10 ** 7


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
    p: int
    h: int
    field: Field                 # GF(q^(k(k-1)))
    geom: object                 # SubfieldMap onto GF(q^(k-1))
    r: int                       # |R*|
    stride: int                  # cosets of R* <-> residues mod stride

    @property
    def geom_field(self):
        return self.geom.sub

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


def build_rgroup(q, k, order_cap=None, verify_limit=10 ** 6, rng_seed=0):
    """Build R* for the pair (q, k) and verify its stride.

    For small r the product set F_{q^(k-1)}* . F_{q^k}* is enumerated in full
    and compared against the stride description; above `verify_limit` a random
    sample of products is checked instead.
    """
    cap = DEFAULT_ORDER_CAP if order_cap is None else order_cap
    if q > cap:
        # no such q builds a field; refuse it before testing q
        raise FieldTooLarge("q = %d exceeds the field order cap %d" % (q, cap))
    p, h = prime_power(q)
    if k < 3:
        raise ValueError("construction needs k >= 3")
    m = h * k * (k - 1)
    field = Field.build(p, m, order_cap=cap)
    n = field.group_order
    r = (q ** (k - 1) - 1) * (q ** k - 1) // (q - 1)
    if n % r:
        raise AssertionError("|R*| does not divide the group order")
    stride = n // r
    s_a = n // (q ** (k - 1) - 1)
    s_b = n // (q ** k - 1)
    if (q ** (k - 1) - 1) * (q ** k - 1) <= verify_limit:
        a = np.arange(q ** (k - 1) - 1, dtype=np.int64) * s_a
        b = np.arange(q ** k - 1, dtype=np.int64) * s_b
        prods = (a[:, None] + b[None, :]).ravel() % n
        distinct = np.unique(prods)
        if len(distinct) != r or np.any(distinct % stride != 0):
            raise AssertionError("R* closure check failed for q=%d k=%d" % (q, k))
    else:
        rng = random.Random(rng_seed)
        for _ in range(10 ** 4):
            e = (rng.randrange(q ** (k - 1) - 1) * s_a
                 + rng.randrange(q ** k - 1) * s_b) % n
            if e % stride:
                raise AssertionError("sampled product outside R*")
    geom = field.subfield(h * (k - 1))
    return RGroup(q=q, k=k, p=p, h=h, field=field, geom=geom, r=r, stride=stride)


def subgeometry_points(rg: RGroup, coset_index, basis=None):
    """Point set of the F_q-subgeometry named by a coset of R*.

    Coordinatizes the elements of g^coset * R* over GF(q^(k-1)) and returns
    the (q^k-1)/(q-1) distinct projective points, labelled with the coset.
    """
    coset_index %= rg.stride
    codes = rg.rstar_codes() + coset_index  # exponents coset + stride*j
    cm = rg.field.coord_map(rg.h * (rg.k - 1), basis)
    coords = cm.coords(codes)
    space = ProjectiveSpace(rg.geom_field, rg.k - 1)
    norm = space.normalize_vec(coords)
    idx = space.point_index_vec(norm)
    order = np.argsort(idx)
    keep = np.concatenate([[True], np.diff(idx[order]) != 0])
    pts = [tuple(int(c) for c in row) for row in norm[order][keep]]
    expected = (rg.q ** rg.k - 1) // (rg.q - 1)
    if len(pts) != expected:
        raise AssertionError("subgeometry has %d points, expected %d"
                             % (len(pts), expected))
    return PointSet(space, pts, {pt: coset_index for pt in pts})


def full_partition(rg: RGroup, basis=None):
    """All coset subgeometries, indexed 0..stride-1."""
    return [subgeometry_points(rg, c, basis) for c in range(rg.stride)]


def r_tuple_matrix(rg: RGroup, ncoords, budget=DEFAULT_ENUM_BUDGET):
    """Normalized points of PG(ncoords-1, .) with every coordinate in R.

    Rows come out in canonical point-index order: leading-one blocks in
    ascending position, and within a block the ascending R codes count in
    base r+1 as the index counts in base Q.  Raises BudgetExceeded when
    (r+1)^ncoords is out of reach.
    """
    r = rg.r
    if (r + 1) ** ncoords - 1 > budget * r:
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

    def points(self):
        return [tuple(int(c) for c in row) for row in self.matrix]


def build_bset(rg: RGroup, budget=DEFAULT_ENUM_BUDGET):
    """Materialize B(k,q) with weight labels attached at build time."""
    mat = r_tuple_matrix(rg, rg.k - 1, budget)
    weights = np.count_nonzero(mat, axis=1)
    expected = ((rg.r + 1) ** (rg.k - 1) - 1) // rg.r
    if mat.shape[0] != expected:
        raise AssertionError("|B| = %d, expected %d" % (mat.shape[0], expected))
    space = ProjectiveSpace(rg.field, rg.k - 2)
    return BSet(rgroup=rg, space=space, matrix=mat, weights=weights)


@dataclass
class OrbitWitness:
    source: tuple
    target: tuple
    sigma: tuple   # position permutation, f(v)_i = rho_i * v[sigma[i]]
    rhos: tuple
    verified: bool


def orbit_transitivity_check(bset: BSet, weight, samples=100, seed=0,
                             closure_samples=500):
    """Exhibit stabilizer maps carrying sampled same-weight point pairs onto
    each other, and spot-check that each map fixes B(k,q) setwise.

    Raises NoWitnessFound if a verification fails, which would falsify the
    transitivity claim.
    """
    rg = bset.rgroup
    f = rg.field
    rows = bset.matrix[bset.weights == weight]
    if rows.shape[0] == 0:
        raise ValueError("no points of weight %d" % weight)
    rng = random.Random(seed)
    n_pts = rows.shape[0]
    kk = rg.k - 1
    witnesses = []
    for _ in range(samples):
        P = tuple(int(c) for c in rows[rng.randrange(n_pts)])
        Q = tuple(int(c) for c in rows[rng.randrange(n_pts)])
        sp = [i for i, c in enumerate(P) if c]
        sq = [i for i, c in enumerate(Q) if c]
        sigma = [0] * kk
        rest_p = [i for i in range(kk) if i not in sp]
        rest_q = [i for i in range(kk) if i not in sq]
        for i, j in zip(sq, sp):
            sigma[i] = j
        for i, j in zip(rest_q, rest_p):
            sigma[i] = j
        rhos = tuple(f.div(Q[i], P[sigma[i]]) if Q[i] else 1 for i in range(kk))
        image = tuple(f.mul(rhos[i], P[sigma[i]]) for i in range(kk))
        ok = bset.space.normalize(image) == bset.space.normalize(Q)
        ok = ok and all(rg.in_rstar(np.array([rho])) for rho in rhos)
        # setwise fixing on a sample of B points
        for _ in range(min(closure_samples, len(bset))):
            row = bset.matrix[rng.randrange(len(bset))]
            img = tuple(f.mul(rhos[i], int(row[sigma[i]])) for i in range(kk))
            if not bset.contains(img):
                ok = False
                break
        if not ok:
            raise NoWitnessFound("stabilizer map failed for pair %r -> %r" % (P, Q))
        witnesses.append(OrbitWitness(P, Q, tuple(sigma), rhos, True))
    return witnesses
