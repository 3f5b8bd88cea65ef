"""Scalar reference implementations that tests compare the library's batched
paths against: the point of a canonical index, decoded block by block, the
normalization of one point, the dual form and incidence of a point and a
hyperplane, the points of the line through two points, the rank of a set of
points by elimination in Zech codes, and a class's support as a set of
columns.
Nothing in the library calls them, so they live with the tests; pytest does
not collect this module."""

import numpy as np

from strongblock.errors import DimensionMismatch


def scalar_point_at(space, index):
    """The point of canonical index `index`: the block of its leading one,
    then the base-Q digits of its offset in the block."""
    q = space.field.order
    for lead in range(space.n + 1):
        block = q ** (space.n - lead)
        if index < block:
            coords = [0] * lead + [1]
            rest = []
            for j in range(space.n - lead):
                index, rem = divmod(index, q)
                rest.append(rem)
            coords.extend(reversed(rest))
            return tuple(coords)
        index -= block
    raise IndexError("point index out of range")


def scalar_normalize(space, coords):
    """The point scaled so its first nonzero coordinate is one, one scalar
    `Field.mul` per coordinate."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != space.k:
        raise DimensionMismatch("expected %d coordinates" % space.k)
    f = space.field
    for c in coords:
        if c:
            inv = f.from_exp(-(c - 1))
            return tuple(f.mul(x, inv) for x in coords)
    raise ValueError("cannot normalize the zero vector")


def dot(space, a, b):
    if len(a) != space.k or len(b) != space.k:
        raise DimensionMismatch("expected %d coordinates" % space.k)
    f = space.field
    acc = 0
    for x, y in zip(a, b):
        acc = f.add(acc, f.mul(x, y))
    return acc


def incidence(space, point, hyperplane):
    """True iff the dual form vanishes at the point."""
    return dot(space, point, hyperplane) == 0


def line_through(space, P, Q):
    """The q+1 points of the line spanned by two distinct points."""
    P = space.normalize(P)
    Q = space.normalize(Q)
    if P == Q:
        raise ValueError("need two distinct points")
    f = space.field
    Pv = np.asarray(P, dtype=np.int64)
    Qv = np.asarray(Q, dtype=np.int64)
    ts = np.arange(f.order, dtype=np.int64)
    mat = f.add_vec(Qv[None, :], f.mul_vec(ts[:, None], Pv[None, :]))
    mat = np.concatenate([mat, Pv[None, :]], axis=0)
    return [tuple(int(c) for c in row) for row in space.normalize_vec(mat)]


def scalar_rank(space, pts):
    """Rank of the coordinate rows by Gauss elimination over the field's
    codes, one scalar `Field.sub` and `Field.mul` at a time."""
    f = space.field
    pivots = []  # (col, row) with row scaled to pivot 1
    for pt in pts:
        row = [int(c) for c in pt]
        for col, prow in pivots:
            c = row[col]
            if c:
                for j in range(col, space.k):
                    row[j] = f.sub(row[j], f.mul(c, prow[j]))
        col = next((j for j, c in enumerate(row) if c), None)
        if col is not None:
            inv = int(f.inv_vec(row[col]))
            pivots.append((col, [f.mul(c, inv) for c in row]))
    return len(pivots)


def support_set(profile, class_index):
    """The columns in the support of class `class_index` of a
    `codes.SupportProfile`."""
    bits = np.unpackbits(
        profile.supports[class_index].view(np.uint8), bitorder="little")
    return frozenset(np.flatnonzero(bits[:profile.n]).tolist())
