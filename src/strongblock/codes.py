"""Projective systems as generator matrices: supports, minimality, export.

Codewords are enumerated by projective message classes (one representative
per scalar class), since minimality is scalar-invariant: class u is the
codeword of message hyperplane u, and vanishes exactly at the columns on u.
So the weights are column counts of `ProjectiveSpace.hyperplane_counts`,
and the code is minimal exactly when its nonzero columns form a strong
blocking set (Alfarano-Borello-Neri, Adv. Math. Commun. 2022;
Tang-Qiu-Liao-Zhou, IEEE Trans. IT 2021), which the strong scan decides:
`check_minimal` runs it, `minimality` reads a scan already run.  A witness
support is re-checked as the columns off the mask of `section`.
A code file's name picks its format, for export and import alike
(`code_format`), and `import_code` reads it through `read_file`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .field import Field
from .geometry import (
    PointSet,
    ProjectiveSpace,
    field_from_json,
    json_fields,
    parse_rows,
    read_file,
)
from .strong import verify_strong_blocking


@dataclass
class GeneratorMatrix:
    field: Field
    k: int
    n: int
    entries: np.ndarray  # (k, n) codes

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
    if space.rank(entries.T) < k:
        raise RankDeficient("columns span a proper subspace")
    return GeneratorMatrix(field=space.field, k=k, n=entries.shape[1],
                           entries=entries)


def _live_columns(G):
    """The nonzero columns of G, as rows, in column order."""
    return G.entries.T[np.any(G.entries != 0, axis=0)]


@dataclass
class SupportProfile:
    """Per projective codeword class: its weight, by canonical index."""

    class_count: int
    weights: np.ndarray  # (C,) narrowest unsigned dtype of the nonzero columns


def support_profiles(G: GeneratorMatrix):
    """Weight of one codeword per projective message class, canonical order.

    Class u vanishes at column j iff column j is zero or lies on message
    hyperplane u, so weight(u) = n - (zero columns) - (nonzero columns on
    u, with multiplicity).  The counts come from one
    `ProjectiveSpace.hyperplane_counts` over the nonzero columns, in the
    narrowest unsigned dtype that holds them, and become the weights in
    place.  A zero weight, a message hyperplane through every column,
    raises RankDeficient.
    """
    space = G.message_space()
    live = _live_columns(G)
    weights = space.hyperplane_counts(live)
    np.subtract(len(live), weights, out=weights)
    if not weights.all():
        raise RankDeficient("a nonzero message gives the zero codeword: "
                            "the generator matrix is not of full rank")
    return SupportProfile(class_count=space.num_points, weights=weights)


@dataclass
class MinimalityVerdict:
    status: str            # "minimal" | "not-minimal"
    witness: tuple | None  # (contained class message, containing class message)
    classes_checked: int


def check_minimal(G: GeneratorMatrix):
    """Minimal iff no class's support sits inside a different class's
    support, iff the nonzero columns form a strong blocking set of the
    message space, which `strong.verify_strong_blocking` decides.

    With Z(x) the columns at which class x vanishes (the zero columns and
    those on hyperplane x), supp(a) <= supp(b) iff Z(b) <= Z(a).  For
    a != b that holds iff the columns on b lie in a n b, a subspace of
    codimension one in b; and b holds such an a iff its section does not
    span b, for a proper subspace of b lies in a second hyperplane.
    """
    space = G.message_space()
    live = _live_columns(G)
    if space.rank(live) < space.k:
        raise RankDeficient("columns span a proper subspace")
    return minimality(G, verify_strong_blocking(PointSet(space, live)))


def minimality(G: GeneratorMatrix, sv):
    """The verdict of code G read off `sv`, the strong verdict of the
    points of its nonzero columns.  The witness is (a, b): b is the scan's,
    the lowest-index class whose support contains another's, and a the
    lowest-index other hyperplane through every column on b."""
    if sv.witness is None:
        return MinimalityVerdict("minimal", None, sv.hyperplanes_checked)
    space = G.message_space()
    live = _live_columns(G)
    a = _lowest_through(space, live[space.section(live, sv.witness)],
                        sv.hyperplanes_checked - 1)
    witness = (space.point_at(a), sv.witness)
    _recheck_witness(G, *witness)
    return MinimalityVerdict("not-minimal", witness, sv.hyperplanes_checked)


def _lowest_through(space, section, b):
    """Lowest index of a hyperplane other than hyperplane b that passes
    through every row of `section`; with no rows, every one does."""
    through = np.flatnonzero(space.hyperplane_counts(section) == len(section))
    return int(through[through != b][0])


def _recheck_witness(G, contained, container):
    """Re-evaluation of a minimality witness off the scan path and the
    product table: a message's support is the columns off its hyperplane's
    section mask, and two messages are distinct iff of rank 2."""
    space = G.message_space()
    sa, sb = (~space.section(G.entries.T, msg)
              for msg in (contained, container))
    if (not sa.any() or (sa & ~sb).any()
            or space.rank([contained, container]) != 2):
        raise AssertionError("minimality witness re-check failed")


def weight_distribution(weights):
    """Mapping weight -> number of classes, from the weight of each."""
    vals, counts = np.unique(weights, return_counts=True)
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
