"""Scalar reference implementations that tests compare the library's batched
paths against: the point of a canonical index, decoded block by block, the
normalization of one point, the dual form and incidence of a point and a
hyperplane, the points of the line through two points, the rank of a set of
points by elimination in Zech codes, and the supports of a code's classes
with the minimality verdict that comparing all of them gives.
Nothing in the library calls them, so they live with the tests; pytest does
not collect this module."""

import numpy as np

from strongblock.errors import DimensionMismatch
from strongblock.geometry import canonical_points


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


def supports(G):
    """(C, n) bool array of the supports of code G, one row per projective
    message class in canonical order: the dual form of every message on
    every column, by `dot_block`."""
    space = G.message_space()
    msgs = canonical_points(space.n, space.field.order)
    return space.dot_block(msgs, G.entries.T) != 0


def support_set(G, class_index):
    """The columns in the support of class `class_index` of code G, from
    `dot_block`."""
    space = G.message_space()
    vals = space.dot_block([space.point_at(class_index)], G.entries.T)[0]
    return frozenset(np.flatnonzero(vals != 0).tolist())


def all_pairs_minimality(G):
    """(status, witness, classes_checked) of G by comparing supports pair
    by pair.

    The container b is the lowest-index class whose support holds another
    class's support, the contained class a the lowest-index other class
    inside it, and classes_checked is b + 1; a minimal code checks all C.
    A class inside b vanishes wherever b does, so the classes b whose
    first zero column is j are compared only with the classes that vanish
    at j; a b with no zero column holds every class.
    """
    S = supports(G)
    C, zero = len(S), ~S
    # a is inside b iff no column is in supp(a) and in Z(b); float32 counts
    # the columns exactly
    Sf, Zf = S.astype(np.float32), zero.astype(np.float32)
    first = np.where(zero.any(axis=1), np.argmax(zero, axis=1), -1)
    lowest = np.where(np.arange(C) == 0, 1, 0)  # inside a b with no zero
    for j in np.unique(first[first >= 0]):
        bs, others = np.flatnonzero(first == j), np.flatnonzero(zero[:, j])
        inside = (Zf[bs] @ Sf[others].T == 0) & (others != bs[:, None])
        lowest[bs] = np.where(inside.any(axis=1),
                              others[np.argmax(inside, axis=1)], C)
    space = G.message_space()
    for b in np.flatnonzero(lowest < C)[:1].tolist():
        return ("not-minimal",
                (space.point_at(int(lowest[b])), space.point_at(b)), b + 1)
    return "minimal", None, C
