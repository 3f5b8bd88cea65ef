"""Projective systems as generator matrices: supports, minimality, export.

Codewords are enumerated by projective message classes (one representative
per scalar class), since minimality is scalar-invariant.  Supports live in
packed machine-word bitsets keyed by column order.  The minimality check
inverts them into a zero-set index, one bitset per column of the classes
that vanish there, since supp(a) <= supp(b) iff Z(b) <= Z(a).  A proper
containment needs |Z(a)| > |Z(b)|, so with the classes ranked by |Z| the
AND of b's zero set runs over the classes with larger zero sets only, and
one exact key per support row finds the equal supports.  A witness support
is re-checked as the columns off the mask of `ProjectiveSpace.section`.
A code file's name picks its format, for export and import alike
(`code_format`), and `import_code` reads it through `read_file`.
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
    read_file,
)

# the most codeword classes `support_profiles` evaluates; read at call time
DEFAULT_CLASS_BUDGET = 10 ** 5
# bytes per batched AND block of the minimality check, with the unpacked
# zero sets of its classes: the block and one gathered operand hold at most
# 128 KiB apiece, half the working-set rule of `geometry`'s batched
# kernels, so that the minimality pass stays under the strong scan's peak
AND_BYTES = 1 << 18
# columns per `pencils` call of `support_profiles`: 8 pencils of PG(3, 27)
# (6,056 incidences) hold about 0.24 MB of temporaries (tracemalloc), where
# a full MARK_BATCH batch of 43 holds 1.06 MB, and the pass is no slower
PENCIL_ROWS = 8
# set bits of each byte value
_ONES = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8)


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
    # (C, words) uint64, column j -> word j//64 bit j%64; bits past n are 0
    supports: np.ndarray
    weights: np.ndarray   # (C,) int64

    def support_set(self, class_index):
        bits = np.unpackbits(
            self.supports[class_index].view(np.uint8), bitorder="little")
        return frozenset(np.flatnonzero(bits[:self.n]).tolist())


def support_profiles(G: GeneratorMatrix):
    """Evaluate one codeword per projective message class, canonical order.

    Class b vanishes at column j iff message hyperplane b passes through
    column j, so Z(b) is read off the pencils of the columns, 64 columns
    (one support word, one uint64 vanish word per class) at a time and
    PENCIL_ROWS columns per `pencils` call: each column's pencil sets its
    bit in the words of its hyperplanes, which are distinct within one
    pencil.  `pencils` takes the columns as they
    are (incidence is scale-invariant); a zero column, which lies on no
    pencil, vanishes on every class.
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
    bit = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    for w in range(words):
        live = np.flatnonzero(~zero[64 * w:64 * w + 64])
        # zero columns and the padding past column n vanish everywhere
        vanish = np.full(C, ~np.bitwise_or.reduce(bit[live]))
        for lo in range(0, live.size, PENCIL_ROWS):
            part = live[lo:lo + PENCIL_ROWS]
            for rows, msgs in space.pencils(cols[64 * w + part]):
                for row, hyperplanes in zip(rows.tolist(), msgs):
                    vanish[hyperplanes] |= bit[part[row]]
        # the support bits are the vanish bits flipped, 0 for zero columns
        # and padding
        weights += 64 - _ONES[vanish.view(np.uint8)].reshape(C, 8).sum(
            axis=1, dtype=np.int64)
        supports[:, w] = ~vanish
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
    of the bitsets "classes that vanish at column j".  `_contained` takes
    that AND only over the classes with |Z(a)| > |Z(b)|, the only ones a
    different support can properly contain, and flags equal supports by one
    exact key per support row.  That costs the sum over b of
    |Z(b)| x |{a : |Z(a)| > |Z(b)|}|/8 bytes, never more than the
    (zero incidences) x C/8 of ANDing over all classes and nothing when
    every zero set has one size, instead of the C^2 x n/8 of comparing all
    pairs.  The witness is the first flagged class in stable weight order
    with its lowest-index container, and is re-checked by the incidence
    masks of `_recheck_witness`.
    """
    prof = profile if profile is not None else support_profiles(G)
    C, S = prof.class_count, prof.supports
    contained = _contained(prof)
    order = np.argsort(prof.weights, kind="stable")
    flagged = np.unpackbits(contained, count=C, bitorder="little")[order]
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

    For a != b, supp(a) <= supp(b) iff Z(b) is a proper subset of Z(a),
    so |Z(a)| > |Z(b)|, or Z(a) = Z(b).  The classes are ranked by |Z|,
    largest first (stable), the zero-set index is built over that ranking,
    and each container b ANDs its |Z(b)| index rows over the prefix of
    ranks with strictly larger zero sets only, rounded up to a byte; b's own
    bit is cleared where it falls inside, and any other class of the
    rounded byte is flagged only by an equal support, a containment too.
    `_repeated_rows` flags every equal support, before the index is built,
    so that its sorts and the index are never alive together.  The sizes
    are read off the first n bits of the supports, never off
    `prof.weights`, and every AND block stays within AND_BYTES, so no
    (C, n) or (C, width) array is formed; the sizes and the ranks are
    int32, and the supports are copied masked only when a bit past column
    n is set.  An empty Z(b) contains every
    class, so it also sets the padding bits past C.
    """
    C, n = prof.class_count, prof.n
    S = prof.supports
    # columns past n never count, even where a forged profile sets them:
    # S is copied masked only when one of its words past column n has a bit
    mask = np.packbits(np.arange(64 * S.shape[1]) < n,
                       bitorder="little").view(np.uint64)
    if np.any(S[:, n // 64:] & ~mask[n // 64:]):
        S = S & mask
    flagged = _repeated_rows(S)
    z = n - _ONES[S.view(np.uint8)].sum(axis=1, dtype=np.int32)
    rank = np.argsort(-z, kind="stable").astype(np.int32)
    # return_counts keeps np.unique off its numpy.ma import
    sizes, counts = np.unique(z, return_counts=True)
    # larger[i]: the classes with |Z| > sizes[i], ranks 0 .. larger[i] - 1
    larger = C - np.cumsum(counts)
    # vanish[j]: bit r set iff class rank[r] vanishes at column j, over the
    # ranks some container reads; built 128 bytes (1,024 ranks) at a time,
    # so the unpacked block holds 1,024 n bytes
    vwidth = (int(larger[0]) + 7) // 8
    vanish = np.empty((n, vwidth), dtype=np.uint8)
    for lo in range(0, vwidth, 128):
        zero = np.unpackbits(~S[rank[8 * lo:8 * min(lo + 128, vwidth)]].view(
            np.uint8), axis=1, count=n, bitorder="little")
        vanish[:, lo:lo + 128] = np.packbits(zero.T, axis=1,
                                             bitorder="little")
    hits = np.zeros(vwidth, dtype=np.uint8)  # rank order
    for s, lo, end in zip(sizes.tolist(), larger.tolist(),
                          (larger + counts).tolist()):
        pw = (lo + 7) // 8
        if pw == 0:
            continue
        # the block, one gathered operand and the unpacked zero sets
        chunk = max(1, AND_BYTES // (2 * pw + n))
        for r0 in range(lo, end, chunk):
            r = np.arange(r0, min(r0 + chunk, end))
            zero = np.unpackbits(~S[rank[r]].view(np.uint8), axis=1, count=n,
                                 bitorder="little")
            # row-major, so each row of zb is one Z(b) in ascending order
            zb = np.flatnonzero(zero)
            zb %= n
            zb = zb.reshape(r.size, s)
            if s == 0:  # b contains every larger class
                inside = np.full((r.size, pw), 0xFF, dtype=np.uint8)
            else:
                inside = vanish[zb[:, 0], :pw]
            for t in range(1, s):
                inside &= vanish[zb[:, t], :pw]
            own = r[r < 8 * pw]
            inside[own - r0, own >> 3] &= ~(1 << (own & 7)).astype(np.uint8)
            hits[:pw] |= np.bitwise_or.reduce(inside, axis=0)
    flagged[rank[:8 * vwidth]] |= np.unpackbits(
        hits, count=min(C, 8 * vwidth), bitorder="little").astype(bool)
    contained = np.packbits(flagged, bitorder="little")
    if sizes[0] == 0 and C % 8:
        contained[-1] |= 0xFF << C % 8 & 0xFF
    return contained


def _repeated_rows(S):
    """Bool mask of the rows of a (C, words) array that equal another row.

    The rows fold into one exact key, word by word: the dense rank (below
    C) of the rows so far, times C, plus the dense rank of the next word,
    ranked again so that it never reaches C^2 (10^10 under
    DEFAULT_CLASS_BUDGET).  Equal keys are equal rows.
    """
    key = _dense_rank(S[:, 0])
    for word in S.T[1:]:
        key *= len(S)
        key += _dense_rank(word)
        key = _dense_rank(key)
    return np.bincount(key)[key] > 1


def _dense_rank(x):
    """int64 rank of each entry of the 1-D, 64-bit x among its distinct
    values, by one unstable sort; the sorted copy of x becomes the ranks in
    place."""
    order = np.argsort(x)
    ranks = x[order].view(np.int64)  # equal entries stay equal
    ranks[1:] = ranks[1:] != ranks[:-1]
    ranks[0] = 0
    np.cumsum(ranks, out=ranks)
    out = np.empty_like(ranks)
    out[order] = ranks
    return out


def _recheck_witness(G, contained, container):
    """Re-evaluation of a minimality witness off the bitset path: a
    message's support is the columns off its hyperplane's section mask."""
    space = G.message_space()
    sa, sb = (~space.section(G.entries.T, msg)
              for msg in (contained, container))
    if (not sa.any() or (sa & ~sb).any()
            or space.normalize(contained) == space.normalize(container)):
        raise AssertionError("minimality witness re-check failed")


def weight_distribution(G: GeneratorMatrix, profile=None):
    """Mapping weight -> number of projective codeword classes."""
    prof = profile if profile is not None else support_profiles(G)
    vals, counts = np.unique(prof.weights, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


# ---------------------------------------------------------------------------
# import/export


def code_format(path):
    """The format of a code file: "json" for a ".json" name, else "text"."""
    return "json" if str(path).endswith(".json") else "text"


def export_code(G: GeneratorMatrix, path):
    """Write the matrix in its `code_format`, so that import_code
    round-trips it bit-exactly."""
    f = G.field
    with open(path, "w") as fh:
        if code_format(path) == "json":
            json.dump({"field": f.meta(), "k": G.k, "n": G.n,
                       "entries": [[f.elem_str(int(c)) for c in row]
                                   for row in G.entries]}, fh, indent=1)
        else:
            header = [f.p, f.m, *f.modulus, G.k, G.n]
            fh.write(" ".join(str(v) for v in header) + "\n")
            for row in G.entries:
                fh.write(" ".join(f.elem_str(int(c)) for c in row) + "\n")


def import_code(path):
    """Read a matrix written by export_code, in its `code_format`, through
    `read_file`."""
    return read_file(path, lambda fh: _parse_code(fh, code_format(path)))


def _parse_code(fh, fmt):
    if fmt == "json":
        meta, k, n, rows = json_fields(json.load(fh), "code JSON", field=dict,
                                       k=int, n=int, entries=list)
    else:
        try:
            head = [int(v) for v in fh.readline().split()]
        except ValueError:  # a token that is not an integer
            head = []
        if len(head) < 2 or len(head) != head[1] + 5:
            raise ValueError("header must be p, m, the m+1 modulus "
                             "coefficients, k, n")
        meta = {"p": head[0], "m": head[1], "modulus": head[2:-2]}
        k, n = head[-2:]
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    f = field_from_json(meta)
    if fmt == "text":
        rows = [line.split() for line in itertools.islice(fh, k)]
    if len(rows) != k:
        raise ValueError("expected %d code rows, found %d" % (k, len(rows)))
    if any(isinstance(row, list) and len(row) != n for row in rows):
        raise ValueError("every code row needs n = %d entries" % n)
    entries = np.asarray(parse_rows(f, rows), dtype=np.int64)
    return GeneratorMatrix(field=f, k=k, n=n, entries=entries)
