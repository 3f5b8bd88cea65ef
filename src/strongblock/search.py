"""R-independence decisions, searches for hyperplanes missing B(k,q), the
coset-quotient blocking verdict, the dual-marking scan, and the weight-1 line
statistics.

Independence of (a_1, ..., a_m) is certified through the incidence of the
hyperplane with dual coordinates (a_1, ..., a_m) against the set of points
with all coordinates in R: a nontrivial relation exists exactly when some such
point lies on the hyperplane.  A relation is fixed by its first m-1 entries
(the last is the one rho_m in R that cancels their sum, if any), so
`is_r_independent` enumerates only the R-points of PG(m-2, .): for a triple,
1,042 at q = 3 and 5,357 at q = 4, a few milliseconds each.  It reads no
table of GF(q^(k(k-1))): its terms and targets are coset images of R*
(`RGroup.coset_values`), each prefix sum is added in packed base-p digits
and tested for membership in a coset of R*, so a search builds no exp,
Zech or log table of the big field.  A prefix enumeration beyond
SCAN_BUDGET raises BudgetExceeded; no verdict is guessed.
Independent coset representatives make the union of their subgeometries a
strong blocking set; the converse fails (at q = 2, 367 of the 703 unions of
coset 0 with two others are strong, and only 24 of those triples are
independent).

So every blocking question here is one question: which hyperplane, if any,
misses a point set?  For B(k,q) the answer depends only on the cosets of the
dual coordinates, and `free_cosets` reads it off the exp and log tables
for all of them at once; since `build_bset` refuses every k >= 5, that
decides every B(k,q).  A tuple with more entries than R* has cosets is
never independent (pigeonhole).  Any other point set, in any PG(n, Q),
goes through `mark_lines_through`, which checks the scan budget
(`ProjectiveSpace.check_scan`) and marks the hyperplanes through each point
(`ProjectiveSpace.pencils`); `strong.verify_blocking` takes the lowest-index
survivor.  Each witness is re-checked off its own path: by the mask of
`ProjectiveSpace.section` for a hyperplane missing B and for a relation's
rhos, by the exhaustive `is_r_independent` for a tuple.  The batched passes,
`free_cosets`, the membership blocks of `is_r_independent` and the pencils,
hold about MARK_BATCH values per array, one per lookup, comparison or
incidence.  The weight-1 line statistics key the lines through a point by
`ProjectiveSpace.secant_keys`, as the strong scan does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BudgetExceeded
from .geometry import ProjectiveSpace
from .partition import BSet, RGroup, r_tuple_matrix


@dataclass
class IndependenceVerdict:
    status: str          # "independent" | "dependent"
    witness: tuple | None  # rho codes with sum rho_i * alpha_i = 0


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


def is_r_independent(alphas, rg: RGroup):
    """Decide whether the given nonzero field elements are R-independent.

    A nontrivial relation sum rho_i a_i = 0, scaled so that its leading rho
    is 1, has its first m-1 entries a normalized R-point of PG(m-2, .):
    they cannot all be zero, since a_m != 0.  Its last entry is then fixed
    by the partial sum s of the first m-1 products: rho_m = 0 when s = 0,
    else rho_m = -s/a_m, which lies in R exactly when coset(s) = coset(a_m),
    as -1 lies in R*.  So certification enumerates the ((r+1)^(m-1) - 1)/r
    R-points of PG(m-2, .) (1,042 at q = 3, m = 3) instead of those of
    PG(m-1, .), and since each prefix admits at most one rho_m, the first
    hit in prefix order is the first relation in canonical order.  Raises
    BudgetExceeded when the prefix enumeration exceeds SCAN_BUDGET.

    No table of the big field is read.  The relations of the alphas are
    those of the alphas divided by a_1 = g^c_1, so with a_j = g^c_j and
    rho = g^(stride i) in R*, the product rho a_j / a_1 is entry i of the
    coset image of c_j - c_1 (`RGroup.coset_values`), packed in base-p
    digits; the first column, 0 or 1 on a normalized R-point, reads R*
    itself.  The sums are added by `Field.add_packed`, and s = -rho_m a_m /
    a_1 with rho_m in R* exactly when s is one of the r packed values of
    the coset image of c_m - c_1; the first one equal to s, entry i, gives
    rho_m = -g^(stride i).  That membership is one equality test per pair,
    about MARK_BATCH pairs per block, with no sort, and stops at the first
    block with a hit.  A prefix entry off R is refused before any sum: the
    coset images index R* by it.  A relation's re-check (rhos on the
    hyperplane alphas, `ProjectiveSpace.section`) evaluates its products
    by `Field.exp_at`, by square-and-multiply on a field without exp,
    which shares no kernel with the coset images; it runs in PG(m-1, Q),
    under 2^63 points by the budget.
    """
    alphas = tuple(int(a) for a in alphas)
    m = len(alphas)
    if m < 2:
        raise ValueError("need at least two elements")
    if any(a == 0 for a in alphas):
        raise ValueError("alphas must be nonzero")
    f = rg.field
    mat = r_tuple_matrix(rg, m - 1)
    if not np.all(rg.in_r(mat)):
        raise AssertionError("R-relation re-check failed: a prefix entry "
                             "lies off R")
    index = (mat - 1) // rg.stride  # of each nonzero entry in R*
    *head, last = alphas
    sums = None  # packed digits of the prefix sums, one per R-point
    for col, i, a in zip(mat.T, index.T, head):
        term = np.where(col == 0, 0, rg.coset_values(a - alphas[0], i))
        sums = term if sums is None else f.add_packed(sums, term)
    targets = rg.coset_values(last - alphas[0], np.arange(rg.r))
    step = max(1, geometry.MARK_BATCH // rg.r)
    for lo in range(0, sums.size, step):
        block = sums[lo:lo + step, None]
        equal = block == targets
        hits = np.flatnonzero((block[:, 0] == 0) | equal.any(axis=1))
        if hits.size:
            h = int(hits[0])
            rho_m = 0
            if block[h, 0]:  # -g^(stride i) for the first target equal to s
                rho_m = f.neg(f.from_exp(
                    rg.stride * int(np.argmax(equal[h]))))
            rhos = tuple(int(c) for c in mat[lo + h]) + (rho_m,)
            on = ProjectiveSpace(f, m - 1).section([rhos], alphas)
            if not on[0] or not np.all(rg.in_r(rhos)):
                raise AssertionError("R-relation re-check failed")
            return IndependenceVerdict("dependent", rhos)
    return IndependenceVerdict("independent", None)


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
    is the stride, coset(x + b) = (cb + zech[e]) mod s for e = s i - cb mod
    N, and as (i, cb) runs over R* and the nonzero cosets, e runs over every
    exponent off R* once, with cb = -e mod s.  So D over every coset costs
    one pass over exp, and zech[e] = log[1 + g^e] is gathered from exp and
    log (`Field.plus_one`).  The pass reads exp as an (r, s) array, e = s j
    + t at [j, t], in tiles of MARK_BATCH exponents: 64 columns t, which
    are 64 values of cb, so that each tile reads 256 bytes of an exp row
    and scatters into 64 rows of the result (fewer columns only when
    MARK_BATCH is smaller).  An exponent of R* gives cb = 0, whose row is
    already dependent.
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
    grid = f.exp.reshape(rg.r, s)
    width = min(64, geometry.MARK_BATCH)
    rows = geometry.MARK_BATCH // width
    for t in range(0, s, width):
        cb = -np.arange(t, min(t + width, s), dtype=np.int32) % s
        for j in range(0, rg.r, rows):
            x = grid[j:j + rows, t:t + width]  # g^e
            free[cb, (cb + f.log.take(f.plus_one(x))) % s] = False
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


def mark_lines_through(space: ProjectiveSpace, mat):
    """Mark, in a bitset over canonical hyperplane indices, every hyperplane
    through any of the given normalized points.  Returns the bitset.

    A space past SCAN_BUDGET hyperplanes raises BudgetExceeded before the
    bitset is allocated.  The marks are scattered batch by batch from
    `space.pencils`; no incidence is kept.
    """
    space.check_scan()
    marks = np.zeros(space.num_points, dtype=bool)
    for _rows, hyperplanes in space.pencils(mat):
        marks[hyperplanes] = True
    return marks


def blocking_status(bset: BSet):
    """Exhaustive blocking verdict for B(k,q), read off the coset quotient.

    A hyperplane misses B exactly when its dual coordinates are
    R-independent, so `free_cosets` decides every hyperplane of PG(k-2, Q)
    at once; B(k,q) exists only for k <= 4 (`build_bset` refuses the rest),
    where the quotient covers the k-1 = 2 or 3 dual coordinates.  The
    witness, when present, is the lowest-index hyperplane missing B,
    re-checked by `ProjectiveSpace.section` for zero incidences with every
    point of B.
    """
    space = bset.space
    _index, dual = _first_free_tuple(bset.rgroup, space.k)
    if dual is not None and space.section(bset.matrix, dual).any():
        raise AssertionError("witness line re-check failed")
    return BlockingVerdict("blocking" if dual is None else "not-blocking", dual,
                           "coset-quotient", lines_scanned=space.num_points)


# ---------------------------------------------------------------------------
# independent tuple search


def find_independent_tuple(rg: RGroup, m=None, strategy="random", seed=1,
                           max_iters=10 ** 4):
    """Search for an R-independent tuple of coset representatives.

    Random strategy samples m distinct cosets per trial (independence is
    invariant under scaling each entry by R*, so representatives suffice)
    and decides each with `is_r_independent`; max_iters >= 1 trials without
    a hit raise BudgetExceeded, since a random miss proves nothing.
    Exhaustive strategy returns the lowest-index independent tuple of
    PG(m-1, .), read off the coset quotient (`free_cosets`) for m <= 3, and
    certifies it with the exhaustive `is_r_independent`.  For m > stride
    there is none by pigeonhole: two of the m entries share a coset of R*,
    a_j = rho a_i, and rho a_i - a_j = 0 is an R-relation.  Either way,
    none means the R-coordinate points form a blocking set, reported as
    status "not-found".  Every other m >= 4 needs more than SCAN_BUDGET
    hyperplanes (at least the 729^3 of PG(3, 729)) and raises
    BudgetExceeded; a PG(m-1, .) of 2^63 points or more raises ValueError.
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
        if max_iters < 1:
            raise ValueError("max_iters must be at least 1, not %d"
                             % max_iters)
        rng = random.Random(seed)
        for trial in range(1, max_iters + 1):
            cosets = rng.sample(range(rg.stride), m)
            alphas = tuple(rg.coset_rep(c) for c in cosets)
            verdict = is_r_independent(alphas, rg)
            if verdict.status == "independent":
                return SearchResult("found", alphas, "random", seed, trial,
                                    "exhaustive-bset-incidence")
        raise BudgetExceeded("no R-independent tuple in %d random trials"
                             % max_iters)
    if strategy == "exhaustive":
        lines = ProjectiveSpace(rg.field, m - 1).num_points
        if m <= 3:
            index, alphas = _first_free_tuple(rg, m)
            certification = "coset-quotient"
        elif m > rg.stride:
            alphas, certification = None, "pigeonhole"
        else:
            raise BudgetExceeded("%d hyperplanes exceed scan budget" % lines)
        if alphas is None:
            return SearchResult("not-found", None, "exhaustive", None, lines,
                                certification)
        if is_r_independent(alphas, rg).status != "independent":
            raise AssertionError("witness hyperplane is not R-independent")
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

    Keys, for every other point of B, the line it spans with P
    (`ProjectiveSpace.secant_keys`), and histograms the pencil.  Lines
    through P meeting no further B point are tangents.
    """
    if bset.space.n != 2:
        raise ValueError("line statistics implemented for the plane case k=4")
    space = bset.space
    if point is None:
        P = tuple(int(c) for c in bset.matrix[bset.weights == 1][0])
    else:
        P = space.normalize(point)
        if not bset.contains(P) or sum(1 for c in P if c) != 1:
            raise ValueError("point must be a weight-1 member of B")
    self_row = np.all(bset.matrix == np.asarray(P, dtype=np.int64), axis=1)
    keys = space.secant_keys(bset.matrix, np.flatnonzero(self_row),
                             np.flatnonzero(~self_row)[None, :])
    uniq, counts = np.unique(keys, return_counts=True)
    sizes = counts + 1  # plus P itself
    census = {}
    for s in sizes:
        census[int(s)] = census.get(int(s), 0) + 1
    q1 = space.field.order + 1
    return LineStats(point=P, lines_total=q1, secant_count=int(uniq.size),
                     secant_sizes=census, tangent_count=q1 - int(uniq.size))
