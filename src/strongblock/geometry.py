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
hyperplane, and each incidence is solved for in closed form from the
point's last nonzero coordinate, about one field addition apiece, with no
dual form, normalization or index search; `dot_block` stays as its
oracle.
`line_pencils` solves for the planes of PG(3, Q) through lines the same
way, from each line's reduced echelon basis, for the strong scan's secant
lines.  `rank_stack` ranks a stack of equal-size hyperplane sections in
one batched elimination; the scalar `rank` is its independent oracle.
Six more facts of the scans have one home here: `check_scan` refuses a
space past SCAN_BUDGET hyperplanes before a scan allocates; `section`
masks the points on a hyperplane by polynomial digits, off every
addition table, for every witness re-check; `canonical_points` decodes
the canonical order over any base (the R-tuples of `partition` too) and
`leads` reads leading positions off indices; `hyperplane_counts` counts
the points on every hyperplane; `secant_keys` keys the lines through a
point.

Every batched kernel follows one working-set rule: each batch holds about
MARK_BATCH = 2^15 field values per temporary array (256 KiB of int64),
whatever the array's shape, so a batch stays in cache and the peak is
bounded before allocation.  A kernel sizes its batch by the values per
item: one per incidence for `pencils`, one per lookup for
`search.free_cosets`, r per prefix sum for the membership test of
`search.is_r_independent`, 4 (Q + 1) per line for `line_pencils`,
k (N - 1) per point for the strong scan's secant pass and (k - 1) s per
section of size s for its rank stacks.  The minimality pass of `codes`
keeps within it in bytes: one uint64 vanish word per class while the
support profiles are read, pencils of 8 columns per call, index blocks
of 1,024 ranks and AND blocks of at most 128 KiB apiece.  The field table build keeps within it too:
`field.TABLE_BLOCK` = 2^14 cells per step, so each of its temporaries
holds at most 128 KiB of int64.

The batched kernels keep row-major shapes, (N, n+1) for `normalize_vec` and
`point_index_vec` and (H, s, c) for `rank_stack`, and work on the transpose,
so each field kernel sweeps the long axis.  Callers on the hot path build
their data with the long axis last, which makes that transpose a free view.

Every input file is read by `read_file`, which names the path once in each
fault its parser raises; `PointSet.load` and `codes.import_code` use it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, StrongBlockError
from .field import Field

MARK_BATCH = 1 << 15  # field values per temporary array of a batched kernel
# the most hyperplanes, lines or R-points an exhaustive scan or enumeration
# may cover; read at call time, so a test can lower it
SCAN_BUDGET = 2 * 10 ** 7


def _block_offsets(n, base):
    """Starts of the leading-one blocks of the canonical order of PG(n, .)
    over `base` digits, and the total; a total of 2^63 or more raises
    ValueError before base^n is formed."""
    sizes = [1]  # blocks, the last leading position first
    for _ in range(n):
        sizes.append(sizes[-1] * base)
        if sum(sizes) >= 1 << 63:
            raise ValueError("PG(%d, %d) has 2^63 or more points, past "
                             "the int64 canonical indices" % (n, base))
    return [0, *itertools.accumulate(reversed(sizes))]


def canonical_points(n, base, start=0, stop=None):
    """Rows start..stop-1 of the canonical order of PG(n, .) over `base`
    digits: a leading one at ascending positions, zeros before it, and the
    base-`base` digits of the index within its block after it.  With the
    field order as base these are the points of PG(n, Q)."""
    offs = _block_offsets(n, base)
    stop = offs[-1] if stop is None else stop
    if not 0 <= start <= stop <= offs[-1]:
        raise IndexError("point index out of range")
    out = np.zeros((stop - start, n + 1), dtype=np.int64)
    for lead in range(n + 1):  # the part of each block in start..stop-1
        lo, hi = max(start, offs[lead]), min(stop, offs[lead + 1])
        if lo < hi:
            block = out[lo - start:hi - start]
            block[:, lead] = 1
            rem = np.arange(lo - offs[lead], hi - offs[lead], dtype=np.int64)
            for j in range(n, lead, -1):
                rem, block[:, j] = np.divmod(rem, base)
    return out


class ProjectiveSpace:
    """PG(n, Q) for the given field handle; immutable."""

    def __init__(self, field: Field, n: int):
        if n < 1:
            raise ValueError("projective dimension must be at least 1")
        self._offsets = _block_offsets(n, field.order)
        self.field = field
        self.n = n
        self.k = n + 1  # ambient vector space dimension
        self.num_points = self._offsets[-1]

    def check_scan(self):
        """Raise BudgetExceeded when the hyperplanes exceed SCAN_BUDGET; every
        exhaustive hyperplane scan calls it before it allocates."""
        if self.num_points > SCAN_BUDGET:
            raise BudgetExceeded("%d hyperplanes exceed scan budget"
                                 % self.num_points)

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
        """Row-wise normalization of an (N, n+1) code matrix.

        The work runs on the (n+1, N) transpose, a free view when the caller
        built the coordinates as (n+1, N) rows, so that every field kernel
        sweeps the long axis.
        """
        x = np.asarray(mat, dtype=np.int64).T
        lead_val = x[-1]
        for coord in x[-2::-1]:
            lead_val = np.where(coord != 0, coord, lead_val)
        if np.any(lead_val == 0):
            raise ValueError("cannot normalize the zero vector")
        return self.field.mul_vec(x, self.field.inv_vec(lead_val)[None, :]).T

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

    def leads(self, indices):
        """Position of the leading one of each canonical index."""
        return np.searchsorted(self._offsets, indices, side="right") - 1

    def point_index(self, coords):
        coords = self.normalize(coords)
        q = self.field.order
        lead = next(i for i, c in enumerate(coords) if c)
        val = 0
        for c in coords[lead + 1:]:
            val = val * q + c
        return self._offsets[lead] + val

    def point_index_vec(self, mat):
        """Canonical indices of the rows of a normalized (N, n+1) matrix,
        computed on its (n+1, N) transpose as `normalize_vec` is."""
        x = np.asarray(mat, dtype=np.int64).T
        q = self.field.order
        lead = np.zeros(x.shape[1], dtype=np.int64)
        for j in range(self.n, -1, -1):
            lead = np.where(x[j] != 0, j, lead)
        val = np.zeros(x.shape[1], dtype=np.int64)
        for j in range(1, self.k):
            val = np.where(lead < j, val * q + x[j], val)
        return np.asarray(self._offsets, dtype=np.int64)[lead] + val

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

    def section(self, points, dual):
        """Bool mask of the points on the hyperplane `dual`, found by
        polynomial digits: the one incidence evaluation of every witness
        re-check, off the batched paths.

        Each product x_i u_i is an exponent addition, whose m base-p
        digits `Field.exp_at` packs: from exp when the field holds it, by
        square-and-multiply on a big field that does not.  A point lies on
        the hyperplane iff every digit of sum_i x_i u_i, the sum of the
        products' digits, is 0 mod p.  No Zech or dense table, no
        `add_vec` or `Field.add` and no coset image is read: no re-check
        shares an addition with what it re-checks, and the relation
        re-check of `search.is_r_independent` shares no product either.
        """
        f = self.field
        u = np.asarray(dual, dtype=np.int64)
        x = np.asarray(points, dtype=np.int64)
        if u.shape != (self.k,):
            raise DimensionMismatch("expected %d coordinates" % self.k)
        if x.size == 0:
            return np.zeros(0, dtype=bool)
        if x.ndim != 2 or x.shape[1] != self.k:
            raise DimensionMismatch("expected %d coordinates" % self.k)
        packed = np.where((x == 0) | (u == 0), 0,
                          f.exp_at((x + u - 2) % f.group_order))
        on = np.ones(len(x), dtype=bool)
        for _ in range(f.m):
            packed, digit = np.divmod(packed, f.p)
            on &= digit.sum(axis=1) % f.p == 0
        return on

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
        """Yield (rows, hyperplanes) over the incidences of nonzero points.

        `rows` holds consecutive row indices into the (N, n+1) matrix `mat`
        and hyperplanes[i] the canonical indices of every hyperplane through
        row rows[i], in no particular order: at most MARK_BATCH incidences
        per batch, or one row's pencil if that is larger.  The rows need
        not be normalized; a zero row raises ValueError.

        The indices are solved for, not searched.  Let z be the position of
        the last nonzero coordinate of a row P.  A hyperplane u whose
        leading one sits at j > z contains P, so block j is the index range
        offs[j] .. offs[j+1]-1; none of block z does; and for j < z, u . P
        = 0 fixes u_z = c (P_j + sum_{j<i<z} u_i P_i) with c = -1/P_z and
        leaves the other digits free, so the index is offs[j] + d Q^(n-z+1)
        + u_z Q^(n-z) + t for d the base-Q value of (u_{j+1}, ..., u_{z-1})
        and t in [0, Q^(n-z)).  Over all d, u_z is the outer sum of the
        vectors c P_i x (every code) on top of c P_j: about one field
        addition per incidence.
        """
        f, n, q = self.field, self.n, self.field.order
        x = np.asarray(mat, dtype=np.int64)
        offs = self._offsets
        width = offs[-1] - offs[1]  # hyperplanes through a point
        codes = np.arange(q, dtype=np.int64)
        step = max(1, MARK_BATCH // width)
        for start in range(0, x.shape[0], step):
            rows = x[start:start + step]
            b = rows.shape[0]
            nonzero = rows != 0
            if not np.all(np.any(nonzero, axis=1)):
                raise ValueError("the zero vector is not a point")
            last = n - np.argmax(nonzero[:, ::-1], axis=1)
            out = np.empty((b, width), dtype=np.int64)
            for z in range(self.k):
                sel = np.flatnonzero(last == z)
                if sel.size == 0:
                    continue
                # c P_i for i < z, with c = -1/P_z, and c P_i u_i for every
                # u_i and the free digits 0 < i < z only: (s, z-1, Q), so
                # under n MARK_BATCH entries, and none on the line (z <= 1)
                cp = f.mul_vec(rows[sel, :z],
                               f.neg_vec(f.inv_vec(rows[sel, z]))[:, None])
                if z > 1:
                    terms = f.mul_vec(cp[:, 1:, None], codes)
                tail = q ** (n - z)
                col = 0
                for j in range(z):
                    uz = cp[:, j:j + 1]  # u_z over d, one digit at a time
                    for i in range(j + 1, z):
                        uz = f.add_vec(uz[:, :, None],
                                       terms[:, i - 1, None, :])
                        uz = uz.reshape(sel.size, -1)
                    base = offs[j] + np.arange(0, uz.shape[1] * q * tail,
                                               q * tail)
                    block = ((base + uz * tail)[:, :, None]
                             + np.arange(tail)).reshape(sel.size, -1)
                    out[sel, col:col + block.shape[1]] = block
                    col += block.shape[1]
                col_end = col + offs[-1] - offs[z + 1]
                if col_end != width:
                    raise AssertionError("pencil of %d hyperplanes, expected "
                                         "%d" % (col_end, width))
                out[sel, col:] = np.arange(offs[z + 1], offs[-1])
            yield np.arange(start, start + b), out

    def hyperplane_counts(self, mat):
        """Rows of `mat` on each hyperplane, by canonical index, from one
        pass over the pencils after `check_scan`.  int32 holds a count (at
        most the rows, so at most SCAN_BUDGET for a point set), and an
        np.int32 increment keeps `np.add.at` on its fast path."""
        self.check_scan()
        counts = np.zeros(self.num_points, dtype=np.int32)
        for _rows, hyperplanes in self.pencils(mat):
            np.add.at(counts, hyperplanes.ravel(), np.int32(1))
        return counts

    def line_pencils(self, first, second):
        """Yield (lines, hyperplanes) over the planes of PG(3, Q) through
        lines.

        Line i is spanned by the distinct points first[i] and second[i],
        rows of two (L, 4) matrices, normalized or not.  `lines` holds
        consecutive line indices and hyperplanes[i] the canonical indices
        of the Q + 1 planes through line lines[i].  Each line's planes
        take 4 (Q + 1) coordinates, so a batch holds at most MARK_BATCH
        coordinates per array, or one line's if that is more.  Equal points
        raise ValueError.

        Each line is brought to its reduced echelon basis a, b, with pivots
        l1 < l2 (a_l1 = b_l2 = 1, a_l2 = b_l1 = 0) and free columns
        f1 < f2.  A dual u contains it iff u.a = u.b = 0, so the planes are
        u = s e_f1 + t e_f2 - (s a_f1 + t a_f2) e_l1 - (s b_f1 + t b_f2) e_l2
        over (s, t) = (1, t) and (0, 1).
        """
        if self.n != 3:
            raise ValueError("line pencils are planes of PG(3, Q), not "
                             "hyperplanes of PG(%d, Q)" % self.n)
        f, q = self.field, self.field.order
        s = np.append(np.ones(q, dtype=np.int64), 0)
        t = np.append(np.arange(q, dtype=np.int64), 1)
        first = np.asarray(first, dtype=np.int64)
        second = np.asarray(second, dtype=np.int64)
        cols = np.arange(4)[:, None]
        step = max(1, MARK_BATCH // (4 * (q + 1)))
        for start in range(0, first.shape[0], step):
            a = self.normalize_vec(first[start:start + step]).T  # (4, b)
            b = self.normalize_vec(second[start:start + step]).T
            lines = np.arange(a.shape[1])
            la, lb = np.argmax(a != 0, axis=0), np.argmax(b != 0, axis=0)
            a, b = np.where(lb < la, b, a), np.where(lb < la, a, b)
            # equal leads: b - a clears b's lead (equal points give the zero
            # vector, which normalize_vec refuses)
            b = np.where(la == lb, f.add_vec(b, f.neg_vec(a)), b)
            b = self.normalize_vec(b.T).T
            l1, l2 = np.minimum(la, lb), np.argmax(b != 0, axis=0)
            a = f.add_vec(a, f.mul_vec(f.neg_vec(a[l2, lines]), b))
            f1, f2 = np.sort(np.where((cols != l1) & (cols != l2), cols, 4),
                             axis=0)[:2]
            u = np.empty((4, lines.size, q + 1), dtype=np.int64)
            u[f1, lines], u[f2, lines] = s, t
            for pivot, row in ((l1, a), (l2, b)):
                u[pivot, lines] = f.neg_vec(f.add_vec(
                    f.mul_vec(row[f1, lines, None], s),
                    f.mul_vec(row[f2, lines, None], t)))
            hyps = self.point_index_vec(self.normalize_vec(u.reshape(4, -1).T))
            yield start + lines, hyps.reshape(lines.size, q + 1)

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
        """Ranks of the matrices of an (H, s, c) stack of code matrices.

        One batched elimination in Zech codes on the (c, s, H) transpose, a
        free view when the caller built the stack that way, so each field
        kernel sweeps the H matrices.  For each column, every matrix takes
        its first row that is nonzero there as pivot and clears the column
        from all its rows, the pivot row included.  The pivot row is
        independent of the cleared rows, so each pivot adds one to the rank
        and dropping it loses nothing: the rank is the number of columns
        that found a pivot.
        """
        f = self.field
        a = np.asarray(stack, dtype=np.int64).T
        ranks = np.zeros(a.shape[-1], dtype=np.int64)
        if a.shape[1] == 0:
            return ranks
        mats = np.arange(a.shape[-1])
        while True:
            piv = np.argmax(a[0] != 0, axis=0)
            lead = a[0, piv, mats]
            has = lead != 0
            ranks += has
            if len(a) == 1:
                return ranks
            # pivot row scaled to -1 in this column: adding c times it to a
            # row whose entry here is c clears the entry
            scale = f.neg_vec(f.inv_vec(np.where(has, lead, 1)))
            prow = np.where(has, f.mul_vec(a[1:, piv, mats], scale), 0)
            a = f.add_vec(a[1:], f.mul_vec(a[0], prow[:, None, :]))

    # -- lines -------------------------------------------------------------

    def secant_keys(self, mat, p, r):
        """(b, s) keys of the lines through rows p (b,) of `mat` and rows
        r (b, s), equal in a row for rows on one line through its P.  With
        P normalized, its leading one at l, each R gives R - R_l P, 0 at l:
        rows on one line through P give one point up to scale
        (R' = c R + d P), and other lines other points, whatever the scale
        of the rows P and R.  Its canonical index is the key, worked out on
        the (k, N) transpose of `mat`, as in `normalize_vec`."""
        f, x = self.field, np.asarray(mat, dtype=np.int64).T
        pt = self.normalize_vec(x[:, p].T).T
        lead = np.argmax(pt != 0, axis=0)
        d = f.add_vec(x[:, r], f.mul_vec(f.neg_vec(x[lead[:, None], r]),
                                         pt[:, :, None]))
        d = self.normalize_vec(d.reshape(self.k, -1).T)
        return self.point_index_vec(d).reshape(np.shape(r))

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
        f = field_from_json(meta)
        space = ProjectiveSpace(f, n)  # refuses n < 1 before rows use it
        if any(isinstance(row, list) and len(row) != n + 1 for row in rows):
            raise ValueError("%s: every point needs n + 1 = %d coordinates"
                             % (where, n + 1))
        rows = parse_rows(f, rows)
        ps = PointSet(space, rows)
        if "labels" in doc:  # a key indexes the file's rows, repeats and all
            for key, tag in json_fields(doc, where, labels=dict)[0].items():
                if not (key.isdigit() and int(key) < len(rows)):
                    raise ValueError("%s: label key %r is not a point index"
                                     % (where, key))
                pt = space.normalize(rows[int(key)])
                if ps.labels.setdefault(pt, tag) != tag:
                    raise ValueError("%s: rows of one point carry the labels "
                                     "%r and %r" % (where, ps.labels[pt], tag))
        return ps

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)

    @staticmethod
    def load(path):
        """The point set of a JSON file, read by `read_file`."""
        return read_file(path, lambda fh: PointSet.from_json(json.load(fh)))


# ---------------------------------------------------------------------------
# reading input files

_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer"}


def read_file(path, parse):
    """`parse(fh)` of the file at `path`, opened as UTF-8 text, with the
    path once before the message of each fault: a ValueError (a JSON syntax
    error or a byte that is not UTF-8 too) as a plain one, a
    StrongBlockError (a field that `Field.build` refuses) of its own type."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except (ValueError, StrongBlockError) as exc:
        kind = type(exc) if isinstance(exc, StrongBlockError) else ValueError
        raise kind("%s: %s" % (path, exc)) from None


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


def field_from_json(meta):
    """The field of a `Field.meta()` description read from a file; what
    `Field.build` refuses (a reducible modulus, say) raises its own error."""
    p, m, modulus = json_fields(meta, "field", p=int, m=int, modulus=list)
    if not all(isinstance(c, int) for c in modulus):
        raise ValueError("field modulus must be an array of integers")
    return Field.build(p, m, tuple(modulus))


def parse_rows(field, rows):
    """Field codes of rows of element strings ("0", "g^e")."""
    if not all(isinstance(row, list) and all(isinstance(s, str) for s in row)
               for row in rows):
        raise ValueError("rows must be arrays of field element strings")
    return [[field.parse_elem(s) for s in row] for row in rows]
