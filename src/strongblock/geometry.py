"""PG(n, Q) over a Field: point/hyperplane enumeration, incidence, rank, lines.

Points are tuples of field codes, normalized so the first nonzero coordinate
is one.  The canonical enumeration orders points by the position of that
leading one (ascending), then lexicographically by the remaining codes; the
same indexing addresses hyperplanes through their dual coordinates, so scans
can be partitioned by index range without materializing the stream.

Every exhaustive scan reads incidences from one generator,
`ProjectiveSpace.pencils`: the canonical indices of the hyperplanes through
each point, MARK_BATCH incidences at a time.  N points cost
N (Q^n - 1)/(Q - 1) incidences instead of one dual form per point and
hyperplane.  `rank_stack` ranks a stack of equal-size hyperplane sections in
one batched elimination; the scalar `rank` is its independent oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DimensionMismatch
from .field import Field

MARK_BATCH = 1 << 17  # incidences generated per vectorized pencil batch


class ProjectiveSpace:
    """PG(n, Q) for the given field handle; immutable."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError("projective dimension must be at least 1")
        q = field.order
        count = 1  # points of PG(i, q), grown one dimension at a time
        for _ in range(n):
            count = count * q + 1
            if count >= 1 << 63:
                raise ValueError("PG(%d, %d) has 2^63 or more points, past "
                                 "the int64 canonical indices" % (n, q))
        self.field = field
        self.n = n
        self.k = n + 1  # ambient vector space dimension
        self.num_points = (q ** (n + 1) - 1) // (q - 1)
        # block offsets of the canonical order, by leading-one position
        offs = [0]
        for lead in range(n + 1):
            offs.append(offs[-1] + q ** (n - lead))
        self._offsets = offs

    # -- normalization -----------------------------------------------------

    def normalize(self, coords):
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.k:
            raise DimensionMismatch("expected %d coordinates" % self.k)
        for c in coords:
            if c:
                inv = self.field.inv(c)
                return tuple(self.field.mul(x, inv) for x in coords)
        raise ValueError("cannot normalize the zero vector")

    def normalize_vec(self, mat):
        """Row-wise normalization of an (N, n+1) code matrix."""
        mat = np.asarray(mat, dtype=np.int64)
        lead = np.argmax(mat != 0, axis=1)
        lead_val = mat[np.arange(mat.shape[0]), lead]
        if np.any(lead_val == 0):
            raise ValueError("cannot normalize the zero vector")
        return self.field.mul_vec(mat, self.field.inv_vec(lead_val)[:, None])

    # -- canonical enumeration ---------------------------------------------

    def points(self):
        """Yield all points in canonical order."""
        for i in range(self.num_points):
            yield self.point_at(i)

    def point_at(self, index):
        q = self.field.order
        for lead in range(self.n + 1):
            block = q ** (self.n - lead)
            if index < block:
                coords = [0] * lead + [1]
                rest = []
                for j in range(self.n - lead):
                    index, rem = divmod(index, q)
                    rest.append(rem)
                coords.extend(reversed(rest))
                return tuple(coords)
            index -= block
        raise IndexError("point index out of range")

    def points_block(self, start, stop):
        """(stop-start, n+1) coordinates of the points start..stop-1."""
        if not 0 <= start <= stop <= self.num_points:
            raise IndexError("point index out of range")
        q = self.field.order
        offs = np.asarray(self._offsets, dtype=np.int64)
        idx = np.arange(start, stop, dtype=np.int64)
        lead = np.searchsorted(offs, idx, side="right") - 1
        rem = idx - offs[lead]
        out = np.zeros((idx.size, self.k), dtype=np.int64)
        # base-q digits after the leading one; positions up to it decode to 0
        for j in range(self.n, 0, -1):
            out[:, j] = rem % q
            rem //= q
        out[np.arange(idx.size), lead] = 1
        return out

    def point_index(self, coords):
        coords = self.normalize(coords)
        q = self.field.order
        lead = next(i for i, c in enumerate(coords) if c)
        val = 0
        for c in coords[lead + 1:]:
            val = val * q + c
        return self._offsets[lead] + val

    def point_index_vec(self, mat):
        """Canonical indices of the rows of a normalized (N, n+1) matrix."""
        mat = np.asarray(mat, dtype=np.int64)
        q = self.field.order
        lead = np.argmax(mat != 0, axis=1)
        idx = np.asarray(self._offsets, dtype=np.int64)[lead]
        val = np.zeros(mat.shape[0], dtype=np.int64)
        for j in range(self.k):
            active = lead < j
            val = np.where(active, val * q + mat[:, j], val)
        return idx + val

    # -- incidence ---------------------------------------------------------

    def dot(self, a, b):
        if len(a) != self.k or len(b) != self.k:
            raise DimensionMismatch("expected %d coordinates" % self.k)
        f = self.field
        acc = 0
        for x, y in zip(a, b):
            acc = f.add(acc, f.mul(x, y))
        return acc

    def incidence(self, point, hyperplane):
        """True iff the dual form vanishes at the point."""
        return self.dot(point, hyperplane) == 0

    def dot_block(self, duals, pts):
        """(A, B) code matrix of dual-form values for A duals and B points.

        The forms run over the columns given, so a quotient's coordinates
        (fewer than n+1) pair up the same way.
        """
        duals = np.asarray(duals, dtype=np.int64)
        pts = np.asarray(pts, dtype=np.int64)
        f = self.field
        acc = np.zeros((duals.shape[0], pts.shape[0]), dtype=np.int64)
        for j in range(duals.shape[1]):
            acc = f.add_vec(acc, f.mul_vec(duals[:, j:j + 1], pts[None, :, j]))
        return acc

    def pencils(self, mat):
        """Yield (rows, hyperplanes) over the incidences of normalized points.

        `rows` holds consecutive row indices into the (N, n+1) matrix `mat`
        and hyperplanes[i] the canonical indices of every hyperplane through
        row rows[i]: at most MARK_BATCH incidences per batch, or one row's
        pencil if that is larger.  The hyperplanes through P, whose leading
        one sits at position l, are the duals c of PG(n-1) in canonical
        order with -(c . P') inserted at position l, where P' is P without
        position l.
        """
        f, n, k = self.field, self.n, self.k
        if n == 1:
            coeffs = np.ones((1, 1), dtype=np.int64)  # PG(0) is one point
        else:
            sub = ProjectiveSpace(f, n - 1)
            coeffs = sub.points_block(0, sub.num_points)
        step = max(1, MARK_BATCH // coeffs.shape[0])
        for start in range(0, mat.shape[0], step):
            rows = mat[start:start + step]
            b = rows.shape[0]
            lead = np.argmax(rows != 0, axis=1)
            keep = np.arange(k)[None, :] != lead[:, None]
            duals = np.empty((b, k, coeffs.shape[0]), dtype=np.int64)
            duals[keep] = np.tile(coeffs.T, (b, 1))
            duals[np.arange(b), lead] = f.neg_vec(
                self.dot_block(coeffs, rows[keep].reshape(b, n))).T
            flat = duals.transpose(0, 2, 1).reshape(-1, k)
            yield (np.arange(start, start + b),
                   self.point_index_vec(self.normalize_vec(flat)).reshape(b, -1))

    # -- rank --------------------------------------------------------------

    def rank(self, pts, target=None):
        """Rank of the coordinate matrix by elimination; 0 for the empty set.

        Stops early once `target` is reached (used by the strong-blocking
        scan, where most hyperplane sections reach full rank quickly).
        """
        f = self.field
        rows = []
        rank = 0
        pivots = []  # (col, row) with row scaled to pivot 1
        for pt in pts:
            row = list(pt)
            for col, prow in pivots:
                c = row[col]
                if c:
                    for j in range(col, self.k):
                        row[j] = f.sub(row[j], f.mul(c, prow[j]))
            col = next((j for j, c in enumerate(row) if c), None)
            if col is None:
                continue
            inv = f.inv(row[col])
            row = [f.mul(c, inv) for c in row]
            pivots.append((col, row))
            rank += 1
            if target is not None and rank >= target:
                return rank
        return rank

    def rank_stack(self, stack):
        """Ranks of the matrices of an (H, s, n+1) stack of code matrices.

        One batched elimination in Zech codes: for each column, every matrix
        takes its first row that is nonzero there as pivot and clears the
        column from all its rows, the pivot row included.  The pivot row is
        independent of the cleared rows, so each pivot adds one to the rank
        and dropping it loses nothing: the rank is the number of columns
        that found a pivot.
        """
        f = self.field
        a = np.array(stack, dtype=np.int64)
        H, s, k = a.shape
        ranks = np.zeros(H, dtype=np.int64)
        if s == 0:
            return ranks
        mats = np.arange(H)
        for col in range(k):
            piv = np.argmax(a[:, :, col] != 0, axis=1)
            lead = a[mats, piv, col]
            has = lead != 0
            ranks += has
            if col + 1 == k:
                break
            # pivot row scaled to -1 in this column: adding c times it to a
            # row whose entry here is c clears the entry
            scale = f.neg_vec(f.inv_vec(np.where(has, lead, 1)))
            prow = np.where(has[:, None],
                            f.mul_vec(a[mats, piv, col + 1:], scale[:, None]), 0)
            a[:, :, col + 1:] = f.add_vec(
                a[:, :, col + 1:],
                f.mul_vec(a[:, :, col:col + 1], prow[:, None, :]))
        return ranks

    # -- lines -------------------------------------------------------------

    def line_through(self, P, Q):
        """The q+1 points of the line spanned by two distinct points."""
        P = self.normalize(P)
        Q = self.normalize(Q)
        if P == Q:
            raise ValueError("need two distinct points")
        f = self.field
        Pv = np.asarray(P, dtype=np.int64)
        Qv = np.asarray(Q, dtype=np.int64)
        ts = np.arange(f.order, dtype=np.int64)
        mat = f.add_vec(Qv[None, :], f.mul_vec(ts[:, None], Pv[None, :]))
        mat = np.concatenate([mat, Pv[None, :]], axis=0)
        return [tuple(int(c) for c in row) for row in self.normalize_vec(mat)]

    def __repr__(self):
        return "PG(%d, %d)" % (self.n, self.field.order)


@dataclass
class PointSet:
    """A set of points with optional provenance labels."""

    space: ProjectiveSpace
    points: list
    labels: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        normalized = []
        seen = set()
        for pt in self.points:
            npt = self.space.normalize(pt)
            if npt not in seen:
                seen.add(npt)
                normalized.append(npt)
        self.points = normalized

    def __len__(self):
        return len(self.points)

    def matrix(self):
        return np.asarray(self.points, dtype=np.int64).reshape(-1, self.space.k)

    def indices(self):
        return self.space.point_index_vec(self.matrix())

    def to_json(self):
        f = self.space.field
        pts = self.points
        doc = {
            "field": f.meta(),
            "n": self.space.n,
            "points": [[f.elem_str(c) for c in pt] for pt in pts],
        }
        if self.labels:
            doc["labels"] = {str(i): self.labels[pt]
                             for i, pt in enumerate(pts) if pt in self.labels}
        return doc

    @staticmethod
    def from_json(doc):
        where = "points JSON"
        meta, n, rows = json_fields(doc, where, field=dict, n=int, points=list)
        if any(isinstance(row, list) and len(row) != n + 1 for row in rows):
            raise ValueError("%s: every point needs n + 1 = %d coordinates"
                             % (where, n + 1))
        f = field_from_json(meta, where)
        ps = PointSet(ProjectiveSpace(f, n), parse_rows(f, rows, where))
        if "labels" in doc:
            for key, tag in json_fields(doc, where, labels=dict)[0].items():
                if not (key.isdigit() and int(key) < len(ps)):
                    raise ValueError("%s: label key %r is not a point index"
                                     % (where, key))
                ps.labels[ps.points[int(key)]] = tag
        return ps

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @staticmethod
    def load(path):
        with open(path) as fh:
            return PointSet.from_json(json.load(fh))


# ---------------------------------------------------------------------------
# reading input files

_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer"}


def json_fields(doc, where, **kinds):
    """The values of the given keys of a JSON object, each type-checked.

    A document that is not an object, lacks a key or holds a value of the
    wrong JSON type raises ValueError naming `where` and the key.
    """
    if not isinstance(doc, dict):
        raise ValueError("%s: the document is not a JSON object" % where)
    values = []
    for key, kind in kinds.items():
        if key not in doc:
            raise ValueError("%s lacks key '%s'" % (where, key))
        value = doc[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError("%s: '%s' must be %s"
                             % (where, key, _JSON_KINDS[kind]))
        values.append(value)
    return values


def field_from_json(meta, where):
    """The field of a `Field.meta()` description read from a file."""
    p, m, modulus = json_fields(meta, "%s field" % where,
                                p=int, m=int, modulus=list)
    if not all(isinstance(c, int) for c in modulus):
        raise ValueError("%s: field modulus must be an array of integers"
                         % where)
    return Field.build(p, m, tuple(modulus))


def parse_rows(field, rows, where):
    """Field codes of rows of element strings ("0", "g^e")."""
    if not all(isinstance(row, list) and all(isinstance(s, str) for s in row)
               for row in rows):
        raise ValueError("%s: rows must be arrays of field element strings"
                         % where)
    return [[field.parse_elem(s) for s in row] for row in rows]
