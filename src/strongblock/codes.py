"""Projective systems as generator matrices: supports, minimality, export.

Codewords are enumerated by projective message classes (one representative
per scalar class), since minimality is scalar-invariant.  Supports live in
packed machine-word bitsets keyed by column order, so the pairwise
containment test is a word-wise and-compare.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, RankDeficient, ZeroColumn
from .field import Field
from .geometry import PointSet, ProjectiveSpace

DEFAULT_CLASS_BUDGET = 10 ** 5


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

    Requires the points to span the space; normalized points can never give a
    zero column, but the invariant is checked all the same.
    """
    if len(point_set) == 0:
        raise RankDeficient("empty point set")
    space = point_set.space
    k = space.k
    entries = point_set.matrix().T.copy()
    if np.any(np.all(entries == 0, axis=0)):
        raise ZeroColumn("zero column in generator matrix")
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


def support_profiles(G: GeneratorMatrix, budget=DEFAULT_CLASS_BUDGET):
    """Evaluate one codeword per projective message class, canonical order."""
    space = G.message_space()
    C = space.num_points
    if C > budget:
        raise BudgetExceeded("%d codeword classes exceed budget" % C)
    words = (G.n + 63) // 64
    supports = np.zeros((C, words), dtype=np.uint64)
    weights = np.zeros(C, dtype=np.int64)
    pad = words * 64 - G.n
    # a class's support is the complement of its message hyperplane's section
    for start, msgs, incident in space.sections(G.entries.T):
        stop = start + len(msgs)
        nz = ~incident
        weights[start:stop] = nz.sum(axis=1)
        if pad:
            nz = np.concatenate(
                [nz, np.zeros((nz.shape[0], pad), dtype=bool)], axis=1)
        packed = np.packbits(nz, axis=1, bitorder="little")
        supports[start:stop] = packed.view(np.uint64)
    if np.any(weights == 0):
        raise AssertionError("zero-weight class contradicts full rank")
    return SupportProfile(n=G.n, class_count=C, supports=supports,
                          weights=weights)


@dataclass
class MinimalityVerdict:
    status: str            # "minimal" | "not-minimal"
    witness: tuple | None  # (contained class message, containing class message)
    classes_checked: int


def check_minimal(G: GeneratorMatrix, budget=DEFAULT_CLASS_BUDGET,
                  profile=None):
    """Minimal iff no class's support sits inside a different class's support.

    Classes are visited in weight order; a support can only be contained in a
    heavier-or-equal one, so the scan short-circuits on the first witness.
    """
    prof = profile if profile is not None else support_profiles(G, budget)
    S, w = prof.supports, prof.weights
    order = np.argsort(w, kind="stable")
    space = G.message_space()
    for pos, a in enumerate(order):
        sa = S[a]
        containers = np.all((S & sa) == sa, axis=1)
        containers[a] = False
        hits = np.flatnonzero(containers)
        if hits.size:
            b = int(hits[0])
            return MinimalityVerdict(
                "not-minimal",
                (space.point_at(int(a)), space.point_at(b)),
                classes_checked=pos + 1)
    return MinimalityVerdict("minimal", None, classes_checked=prof.class_count)


def weight_distribution(G: GeneratorMatrix, budget=DEFAULT_CLASS_BUDGET,
                        profile=None):
    """Mapping weight -> number of projective codeword classes."""
    prof = profile if profile is not None else support_profiles(G, budget)
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


def import_code(path, format=None):
    if format is None:
        format = "json" if str(path).endswith(".json") else "text"
    with open(path) as fh:
        if format == "json":
            doc = json.load(fh)
            try:
                meta, k, n, rows = doc["field"], doc["k"], doc["n"], doc["entries"]
                p, m, modulus = meta["p"], meta["m"], meta["modulus"]
            except KeyError as exc:
                raise ValueError("%s lacks key %s" % (path, exc)) from None
        else:
            head = [int(v) for v in fh.readline().split()]
            if len(head) < 2 or len(head) != head[1] + 5:
                raise ValueError("%s: header must be p, m, the m+1 modulus "
                                 "coefficients, k, n" % path)
            p, m, modulus, (k, n) = head[0], head[1], head[2:-2], head[-2:]
            rows = [fh.readline().split() for _ in range(k)]
    f = Field.build(p, m, tuple(modulus))
    entries = np.asarray([[f.parse_elem(s) for s in row] for row in rows],
                         dtype=np.int64)
    if entries.shape != (k, n):
        raise ValueError("matrix shape mismatch in %s" % path)
    return GeneratorMatrix(field=f, k=k, n=n, entries=entries)
