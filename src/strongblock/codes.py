"""Projective systems as generator matrices: supports, minimality, export.

Codewords are enumerated by projective message classes (one representative
per scalar class), since minimality is scalar-invariant.  Supports live in
packed machine-word bitsets keyed by column order.  The minimality check
inverts them into a zero-set index, one bitset per column of the classes
that vanish there, since supp(a) <= supp(b) iff Z(b) <= Z(a), and ANDs
the bitsets of each zero set in batches of classes with equal |Z(b)|.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, RankDeficient
from .field import Field
from .geometry import (
    PointSet,
    ProjectiveSpace,
    field_from_json,
    json_fields,
    parse_rows,
)

# the most codeword classes `support_profiles` evaluates; read at call time
DEFAULT_CLASS_BUDGET = 10 ** 5
# bytes per batched AND block of the minimality check: the block and one
# gathered operand stay within a core's L2 cache
AND_BYTES = 1 << 20


@dataclass
class GeneratorMatrix:
    field: Field
    k: int
    n: int
    entries: np.ndarray  # (k, n) codes

    def column_points(self):
        """The projective system of the columns, in column order."""
        space = ProjectiveSpace(self.field, self.k - 1)
        return PointSet(space, [tuple(int(c) for c in col) for col in self.entries.T])

    def message_space(self):
        return ProjectiveSpace(self.field, self.k - 1)

    def __eq__(self, other):
        return (isinstance(other, GeneratorMatrix)
                and self.field.meta() == other.field.meta()
                and self.k == other.k and self.n == other.n
                and np.array_equal(self.entries, other.entries))


def generator_from_points(point_set: PointSet):
    """Generator matrix whose columns are the given points, input order.

    Requires the points to span the space; a `PointSet` holds normalized
    points only, so no column is zero.
    """
    if len(point_set) == 0:
        raise RankDeficient("empty point set")
    space = point_set.space
    k = space.k
    entries = point_set.matrix().T.copy()
    if space.rank(point_set.points, k) < k:
        raise RankDeficient("columns span a proper subspace")
    return GeneratorMatrix(field=space.field, k=k, n=entries.shape[1],
                           entries=entries)


@dataclass
class SupportProfile:
    """Per projective codeword class: packed support bitset and weight."""

    n: int
    class_count: int
    supports: np.ndarray  # (C, words) uint64, column j -> word j//64 bit j%64
    weights: np.ndarray   # (C,) int64

    def support_set(self, class_index):
        bits = np.unpackbits(
            self.supports[class_index].view(np.uint8), bitorder="little")
        return frozenset(np.flatnonzero(bits[:self.n]).tolist())


def support_profiles(G: GeneratorMatrix):
    """Evaluate one codeword per projective message class, canonical order.

    Class b vanishes at column j iff message hyperplane b passes through
    column j, so Z(b) is read off the pencils of the columns, 64 columns
    (one support word) at a time.  `pencils` takes the columns as they are
    (incidence is scale-invariant); a zero column, which lies on no pencil,
    vanishes on every class.
    """
    space = G.message_space()
    C = space.num_points
    if C > DEFAULT_CLASS_BUDGET:
        raise BudgetExceeded("%d codeword classes exceed budget" % C)
    words = (G.n + 63) // 64
    supports = np.zeros((C, words), dtype=np.uint64)
    weights = np.zeros(C, dtype=np.int64)
    cols = G.entries.T
    zero = np.all(cols == 0, axis=1)
    for w in range(words):
        live = np.flatnonzero(~zero[64 * w:64 * w + 64])
        # zero columns and the padding past column n vanish everywhere
        vanish = np.ones((C, 64), dtype=bool)
        vanish[:, live] = False
        for rows, msgs in space.pencils(cols[64 * w + live]):
            vanish[msgs, live[rows, None]] = True
        nz = ~vanish
        weights += nz.sum(axis=1)
        supports[:, w] = np.packbits(nz, axis=1, bitorder="little").view(
            np.uint64)[:, 0]
    if np.any(weights == 0):
        raise RankDeficient("a nonzero message gives the zero codeword: "
                            "the generator matrix is not of full rank")
    return SupportProfile(n=G.n, class_count=C, supports=supports,
                          weights=weights)


@dataclass
class MinimalityVerdict:
    status: str            # "minimal" | "not-minimal"
    witness: tuple | None  # (contained class message, containing class message)
    classes_checked: int


def check_minimal(G: GeneratorMatrix, profile=None):
    """Minimal iff no class's support sits inside a different class's support.

    With Z(x) the columns at which class x vanishes, supp(a) <= supp(b) iff
    Z(b) <= Z(a), so the classes contained in b are the AND over j in Z(b)
    of the bitsets "classes that vanish at column j" (all classes when Z(b)
    is empty).  One such AND per class b, minus b itself, flags every
    contained class at a cost of (zero incidences) x C/8 bytes instead of
    the C^2 x n/8 of comparing all pairs; `_contained` batches the ANDs by
    |Z(b)|.  The witness is the first flagged class in stable weight order
    with its lowest-index container, and is re-checked by scalar evaluation
    of both codewords.
    """
    prof = profile if profile is not None else support_profiles(G)
    C, S = prof.class_count, prof.supports
    order = np.argsort(prof.weights, kind="stable")
    flagged = np.unpackbits(_contained(prof), count=C,
                            bitorder="little")[order]
    if not flagged.any():
        return MinimalityVerdict("minimal", None, classes_checked=C)
    pos = int(np.argmax(flagged))
    a = int(order[pos])
    containers = np.all((S & S[a]) == S[a], axis=1)
    containers[a] = False
    b = int(np.flatnonzero(containers)[0])
    space = G.message_space()
    witness = (space.point_at(a), space.point_at(b))
    _recheck_witness(G, *witness)
    return MinimalityVerdict("not-minimal", witness, classes_checked=pos + 1)


def _contained(prof):
    """Packed bitset (little bit order) of the classes whose support sits
    inside the support of another class.

    The zero sets of a chunk of classes are read off the support bitsets in
    one pass, and the classes of the chunk with equal |Z(b)| = s are ANDed
    together: s row gathers of the zero-set index into one (G, width) block,
    then each class's own bit is cleared and the block is OR-reduced.  The
    OR does not depend on the order of the classes, and every block stays
    within AND_BYTES, so no (C, n) or (C, width) array is formed.
    """
    C, S, n = prof.class_count, prof.supports, prof.n
    # vanish[j]: bit c set iff class c vanishes at column j; built 512
    # bytes (4096 classes) at a time
    width = (C + 7) // 8
    vanish = np.empty((n, width), dtype=np.uint8)
    for lo in range(0, width, 512):
        bits = np.unpackbits(S[8 * lo:8 * (lo + 512)].view(np.uint8), axis=1,
                             count=n, bitorder="little")
        vanish[:, lo:lo + 512] = np.packbits(bits.T == 0, axis=1,
                                             bitorder="little")
    contained = np.zeros(width, dtype=np.uint8)
    chunk = max(1, AND_BYTES // max(width, n))
    for lo in range(0, C, chunk):
        zero = np.unpackbits(S[lo:lo + chunk].view(np.uint8), axis=1,
                             count=n, bitorder="little") == 0
        rows, cols = np.nonzero(zero)  # row-major: each Z(b) ascends
        sizes = np.bincount(rows, minlength=zero.shape[0])
        starts = np.cumsum(sizes) - sizes
        # return_counts keeps np.unique off its numpy.ma import
        for s in np.unique(sizes, return_counts=True)[0].tolist():
            group = np.flatnonzero(sizes == s)
            zb = cols[starts[group, None] + np.arange(s)]
            # an empty Z(b) leaves all ones: b contains every class
            inside = np.full((group.size, width), 0xFF, dtype=np.uint8)
            for t in range(s):
                inside &= vanish[zb[:, t]]
            b = lo + group
            inside[np.arange(group.size), b >> 3] &= ~(1 << (b & 7)).astype(
                np.uint8)
            contained |= np.bitwise_or.reduce(inside, axis=0)
    return contained


def _recheck_witness(G, contained, container):
    """Scalar re-evaluation of a minimality witness, off the bitset path."""
    space = G.message_space()
    cols = [tuple(int(c) for c in col) for col in G.entries.T]
    sa, sb = ({j for j, col in enumerate(cols) if space.dot(msg, col)}
              for msg in (contained, container))
    if (not sa or not sa <= sb
            or space.normalize(contained) == space.normalize(container)):
        raise AssertionError("minimality witness re-check failed")


def weight_distribution(G: GeneratorMatrix, profile=None):
    """Mapping weight -> number of projective codeword classes."""
    prof = profile if profile is not None else support_profiles(G)
    vals, counts = np.unique(prof.weights, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


# ---------------------------------------------------------------------------
# import/export


def export_code(G: GeneratorMatrix, path, format="json"):
    """Write the matrix so that import_code round-trips bit-exactly."""
    f = G.field
    if format == "json":
        doc = {
            "field": f.meta(),
            "k": G.k,
            "n": G.n,
            "entries": [[f.elem_str(int(c)) for c in row] for row in G.entries],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
    elif format == "text":
        with open(path, "w") as fh:
            header = [f.p, f.m, *f.modulus, G.k, G.n]
            fh.write(" ".join(str(v) for v in header) + "\n")
            for row in G.entries:
                fh.write(" ".join(f.elem_str(int(c)) for c in row) + "\n")
    else:
        raise ValueError("unknown format %r" % (format,))


def import_code(path):
    """Read a matrix written by export_code, JSON when the path ends in
    ".json" and text otherwise."""
    with open(path) as fh:
        if str(path).endswith(".json"):
            meta, k, n, rows = json_fields(json.load(fh), path, field=dict,
                                           k=int, n=int, entries=list)
        else:
            try:
                head = [int(v) for v in fh.readline().split()]
            except ValueError:  # a token that is not an integer
                head = []
            if len(head) < 2 or len(head) != head[1] + 5:
                raise ValueError("%s: header must be p, m, the m+1 modulus "
                                 "coefficients, k, n" % path)
            meta = {"p": head[0], "m": head[1], "modulus": head[2:-2]}
            k, n = head[-2:]
            rows = None
        if k < 1 or n < 1:
            raise ValueError("%s: k and n must be positive" % path)
        f = field_from_json(meta, path)
        if rows is None:
            rows = [line.split() for line in itertools.islice(fh, k)]
    if len(rows) != k:
        raise ValueError("%s: expected %d code rows, found %d"
                         % (path, k, len(rows)))
    if any(isinstance(row, list) and len(row) != n for row in rows):
        raise ValueError("%s: every code row needs n = %d entries" % (path, n))
    entries = np.asarray(parse_rows(f, rows, path), dtype=np.int64)
    return GeneratorMatrix(field=f, k=k, n=n, entries=entries)
