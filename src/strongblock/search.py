"""R-independence decisions, searches for hyperplanes missing B(k,q), the
coset-quotient and dual-marking blocking scans, and the weight-1 line
statistics.

Independence of (a_1, ..., a_m) is certified through the incidence of the
hyperplane with dual coordinates (a_1, ..., a_m) against the set of points
with all coordinates in R: a nontrivial relation exists exactly when some such
point lies on the hyperplane.  A relation is fixed by its first m-1 entries
(the last is the one rho_m in R that cancels their sum, if any), so
`is_r_independent` enumerates only the R-points of PG(m-2, .): for a triple,
1,042 at q = 3 and 5,357 at q = 4, a few milliseconds each.  Independent
coset representatives make the union of their subgeometries a strong
blocking set; the converse fails (at q = 2, 367 of the 703 unions of coset 0
with two others are strong, and only 24 of those triples are independent).

So every blocking question here is one question: which hyperplane, if any,
misses a point set?  For B(k,q) with k <= 4 the answer depends only on the
cosets of the dual coordinates, and `free_cosets` reads it off the Zech
table for all of them at once.  Otherwise `mark_lines_through` marks the
hyperplanes through each point (`ProjectiveSpace.pencils`) in any PG(n, Q),
and `_first_unmarked_line` returns the lowest-index survivor.  Either
witness is re-checked off its own path: scalar incidences for a hyperplane,
the exhaustive `is_r_independent` for a tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .geometry import MARK_BATCH, ProjectiveSpace
from .partition import BSet, DEFAULT_ENUM_BUDGET, RGroup, r_tuple_matrix


@dataclass
class IndependenceVerdict:
    status: str          # "independent" | "dependent" | "unknown"
    witness: tuple | None  # rho codes with sum rho_i * alpha_i = 0
    certification: str


@dataclass
class BlockingVerdict:
    status: str          # "blocking" | "not-blocking"
    witness: tuple | None  # hyperplane dual coordinates missing B
    method: str
    lines_scanned: int = 0


@dataclass
class SearchResult:
    status: str          # "found" | "not-found"
    alphas: tuple | None
    strategy: str
    seed: int | None
    trials: int
    certification: str


def _relation_value(rg: RGroup, alphas, rhos):
    f = rg.field
    acc = 0
    for a, rho in zip(alphas, rhos):
        acc = f.add(acc, f.mul(a, rho))
    return acc


def is_r_independent(alphas, rg: RGroup, budget=DEFAULT_ENUM_BUDGET,
                     fallback_samples=10 ** 5, seed=0):
    """Decide whether the given nonzero field elements are R-independent.

    A nontrivial relation sum rho_i a_i = 0, scaled so that its leading rho
    is 1, has its first m-1 entries a normalized R-point of PG(m-2, .):
    they cannot all be zero, since a_m != 0.  Its last entry is then fixed
    by the partial sum s of the first m-1 products: rho_m = 0 when s = 0,
    else rho_m = -s/a_m, which lies in R exactly when coset(s) = coset(a_m),
    as -1 lies in R*.  So certification enumerates the ((r+1)^(m-1) - 1)/r
    R-points of PG(m-2, .) (1,042 at q = 3, m = 3) instead of those of
    PG(m-1, .), and since each prefix admits at most one rho_m, the first
    hit in prefix order is the first relation in canonical order.  When the
    prefix enumeration is out of budget, only randomized refutation runs
    and the verdict may be "unknown".
    """
    alphas = tuple(int(a) for a in alphas)
    m = len(alphas)
    if m < 2:
        raise ValueError("need at least two elements")
    if any(a == 0 for a in alphas):
        raise ValueError("alphas must be nonzero")
    f = rg.field
    try:
        mat = r_tuple_matrix(rg, m - 1, budget)
    except BudgetExceeded:
        rng = random.Random(seed)
        rcodes = rg.r_codes()
        for _ in range(fallback_samples):
            rhos = tuple(int(rcodes[rng.randrange(len(rcodes))]) for _ in range(m))
            if all(r == 0 for r in rhos):
                continue
            if _relation_value(rg, alphas, rhos) == 0:
                return IndependenceVerdict("dependent", rhos, "randomized")
        return IndependenceVerdict("unknown", None, "randomized")
    acc = np.zeros(mat.shape[0], dtype=np.int64)
    for j in range(m - 1):
        acc = f.add_vec(acc, f.mul_vec(mat[:, j], alphas[j]))
    last = alphas[-1]
    hits = np.flatnonzero((acc == 0) | ((acc - last) % rg.stride == 0))
    if hits.size:
        s = int(acc[hits[0]])
        rho_m = f.div(f.neg(s), last) if s else 0
        rhos = tuple(int(c) for c in mat[hits[0]]) + (rho_m,)
        if (_relation_value(rg, alphas, rhos) != 0
                or not np.all(rg.in_r(rhos))):
            raise AssertionError("R-relation re-check failed")
        return IndependenceVerdict("dependent", rhos, "exhaustive-bset-incidence")
    return IndependenceVerdict("independent", None, "exhaustive-bset-incidence")


# ---------------------------------------------------------------------------
# coset quotient: the independent tuples of length m <= 3


def free_cosets(rg: RGroup, m):
    """Which normalized coset tuples of length m = 2 or 3 are R-independent.

    Returns a boolean array of shape (stride,) * (m - 1) whose entry c says
    whether (1, g^c_1, ..., g^c_(m-1)) is R-independent; every element of
    the cosets named by c gives the same answer, since scaling an entry by
    R* leaves independence unchanged.  (1, b) is dependent exactly when
    coset(b) = 0.  (1, b, c) with b, c nonzero is dependent exactly when
    coset(b) = 0, coset(c) = 0, coset(c) = coset(b), or coset(c) lies in
    D(b) = {coset(x + b) : x in R*}.  With b = g^cb and x = g^(s i), where s
    is the stride, coset(x + b) = (cb + zech[(s i - cb) mod N]) mod s, so D
    over every coset costs one pass over the Zech table, MARK_BATCH lookups
    at a time.
    """
    s = rg.stride
    if m == 2:
        return np.arange(s) != 0
    if m != 3:
        raise ValueError("the coset quotient covers m = 2 and 3, not %d" % m)
    f = rg.field
    free = np.ones((s, s), dtype=bool)
    free[0, :] = free[:, 0] = False
    np.fill_diagonal(free, False)
    rstar = np.arange(rg.r, dtype=np.int64) * s  # exponents of R*
    step = max(1, MARK_BATCH // rg.r)
    for lo in range(1, s, step):
        cb = np.arange(lo, min(lo + step, s), dtype=np.int64)[:, None]
        free[cb, (cb + f.zech[(rstar - cb) % f.group_order]) % s] = False
    return free


def _first_free_tuple(rg: RGroup, m):
    """(canonical index, alphas) of the lowest-index R-independent
    (1, a_2, ..., a_m) in PG(m-1, Q), or (None, None) when there is none.

    The lowest index has the lowest free coset in position 2, then in
    position 3, each represented by its smallest code g^c.
    """
    free = free_cosets(rg, m).ravel()
    first = int(np.argmax(free))
    if not free[first]:
        return None, None
    cosets = np.unravel_index(first, (rg.stride,) * (m - 1))
    alphas = (rg.field.one,) + tuple(rg.coset_rep(int(c)) for c in cosets)
    return ProjectiveSpace(rg.field, m - 1).point_index(alphas), alphas


# ---------------------------------------------------------------------------
# dual-marking scan over the hyperplanes of PG(n, Q)


def mark_lines_through(space: ProjectiveSpace, mat, marks=None):
    """Mark, in a bitset over canonical hyperplane indices, every hyperplane
    through any of the given normalized points.  Returns the bitset.

    The marks are scattered batch by batch from `space.pencils`; no
    incidence is kept.
    """
    if marks is None:
        marks = np.zeros(space.num_points, dtype=bool)
    for _rows, hyperplanes in space.pencils(mat):
        marks[hyperplanes] = True
    return marks


def _recheck_line(space: ProjectiveSpace, mat, dual):
    """Raise unless the hyperplane `dual` misses every row of `mat`, checked
    with scalar incidences, off the marking and quotient paths."""
    if any(space.incidence(row, dual) for row in mat.tolist()):
        raise AssertionError("witness line re-check failed")


def _first_unmarked_line(space: ProjectiveSpace, mat):
    """(index, dual coordinates) of the lowest-index hyperplane through no
    row of `mat`, or (None, None) when every hyperplane is marked.
    """
    free = np.flatnonzero(~mark_lines_through(space, mat))
    if free.size == 0:
        return None, None
    dual = space.point_at(int(free[0]))
    _recheck_line(space, mat, dual)
    return int(free[0]), dual


def blocking_status(bset: BSet, budget=DEFAULT_ENUM_BUDGET):
    """Exhaustive blocking verdict for B(k,q).

    A hyperplane misses B exactly when its dual coordinates are
    R-independent, so for k <= 4 the coset quotient decides it; above that
    every hyperplane through a point of B is marked.  The witness, when
    present, is the lowest-index hyperplane missing B, re-checked for zero
    incidences with every point of B.
    """
    space = bset.space
    if space.n <= 2:
        _index, dual = _first_free_tuple(bset.rgroup, space.k)
        if dual is not None:
            _recheck_line(space, bset.matrix, dual)
        method = "coset-quotient"
    else:
        if space.num_points > budget:
            raise BudgetExceeded("%d hyperplanes exceed scan budget"
                                 % space.num_points)
        _index, dual = _first_unmarked_line(space, bset.matrix)
        method = "dual-marking-scan"
    return BlockingVerdict("blocking" if dual is None else "not-blocking", dual,
                           method, lines_scanned=space.num_points)


# ---------------------------------------------------------------------------
# independent tuple search


def find_independent_tuple(rg: RGroup, m=None, strategy="random", seed=1,
                           max_iters=10 ** 4, budget=DEFAULT_ENUM_BUDGET):
    """Search for an R-independent tuple of coset representatives.

    Random strategy samples m distinct cosets per trial (independence is
    invariant under scaling each entry by R*, so representatives suffice)
    and decides each with `is_r_independent`.  Exhaustive strategy returns
    the lowest-index independent tuple of PG(m-1, .), read off the coset
    quotient (`free_cosets`) for m <= 3 and found by marking every
    hyperplane through the R-points above that, and certifies it with the
    exhaustive `is_r_independent`; none means the R-coordinate points form
    a blocking set, reported as status "not-found".
    """
    if m is None:
        m = rg.k - 1
    if m < 2:
        raise ValueError("an R-independent tuple needs m >= 2, not %d" % m)
    if strategy == "random":
        if m > rg.stride:
            raise ValueError("the random strategy samples m distinct cosets, "
                             "but m = %d exceeds the %d cosets of R*"
                             % (m, rg.stride))
        rng = random.Random(seed)
        for trial in range(1, max_iters + 1):
            cosets = rng.sample(range(rg.stride), m)
            alphas = tuple(rg.coset_rep(c) for c in cosets)
            verdict = is_r_independent(alphas, rg, budget)
            if verdict.status == "independent":
                return SearchResult("found", alphas, "random", seed, trial,
                                    verdict.certification)
            if verdict.status == "unknown":
                raise BudgetExceeded("cannot certify candidates at this size")
        return SearchResult("not-found", None, "random", seed, max_iters, "none")
    if strategy == "exhaustive":
        order = rg.field.order
        lines = (order ** m - 1) // (order - 1)  # hyperplanes of PG(m-1, .)
        if m <= 3:
            index, alphas = _first_free_tuple(rg, m)
            certification = "coset-quotient"
        elif lines > budget:
            raise BudgetExceeded("%d hyperplanes exceed scan budget" % lines)
        else:
            index, alphas = _first_unmarked_line(
                ProjectiveSpace(rg.field, m - 1), r_tuple_matrix(rg, m, budget))
            certification = "dual-marking-scan"
        if alphas is None:
            return SearchResult("not-found", None, "exhaustive", None, lines,
                                certification)
        verdict = is_r_independent(alphas, rg, budget)
        if verdict.status == "dependent":
            raise AssertionError("witness hyperplane is not R-independent")
        if verdict.status != "independent":
            raise BudgetExceeded("cannot certify the witness at this size")
        return SearchResult("found", alphas, "exhaustive", None, index + 1,
                            certification)
    raise ValueError("unknown strategy %r" % (strategy,))


# ---------------------------------------------------------------------------
# weight-1 line statistics


@dataclass
class LineStats:
    point: tuple
    lines_total: int
    secant_count: int
    secant_sizes: dict   # intersection size -> number of secants
    tangent_count: int


def line_stats_weight1(bset: BSet, point=None):
    """Classify all lines through a weight-1 point of B(k,q) in the plane.

    Computes, for every other point of B, the line it spans with P (as a
    cross-product dual), and histograms the pencil.  Lines through P meeting
    no further B point are tangents.
    """
    if bset.space.n != 2:
        raise ValueError("line statistics implemented for the plane case k=4")
    space = bset.space
    f = space.field
    if point is None:
        P = tuple(int(c) for c in bset.matrix[bset.weights == 1][0])
    else:
        P = space.normalize(point)
        if not bset.contains(P) or sum(1 for c in P if c) != 1:
            raise ValueError("point must be a weight-1 member of B")
    mat = bset.matrix
    self_row = np.all(mat == np.asarray(P, dtype=np.int64), axis=1)
    others = mat[~self_row]
    Pv = np.asarray(P, dtype=np.int64)

    def cross(u_mat, v):
        def minor(i, j):
            return f.add_vec(f.mul_vec(u_mat[:, i], v[j]),
                             f.neg_vec(f.mul_vec(u_mat[:, j], v[i])))
        return np.stack([minor(1, 2), minor(2, 0), minor(0, 1)], axis=1)

    duals = cross(others, Pv)
    idx = space.point_index_vec(space.normalize_vec(duals))
    uniq, counts = np.unique(idx, return_counts=True)
    sizes = counts + 1  # plus P itself
    census = {}
    for s in sizes:
        census[int(s)] = census.get(int(s), 0) + 1
    q1 = f.order + 1
    return LineStats(point=P, lines_total=q1, secant_count=int(uniq.size),
                     secant_sizes=census, tangent_count=q1 - int(uniq.size))
