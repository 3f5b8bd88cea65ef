"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Every numeric expectation is exact; runtime budgets are asserted with
perf_counter around the work they cover.
"""

import time
from math import comb

import numpy as np
import pytest
from sympy import factorint

from strongblock.bounds import (
    bset_size_poly,
    interval_violation_report,
    one_mod_p_profile,
)
from strongblock.codes import check_minimal, generator_from_points, \
    support_profiles
from strongblock.errors import InconclusiveE
from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace, canonical_points
from strongblock.partition import (
    build_bset,
    build_rgroup,
    full_partition,
    subgeometry_points,
)
from strongblock.search import (
    blocking_status,
    find_independent_tuple,
    line_stats_weight1,
)
from strongblock.strong import union_subgeometries, verify_strong_blocking

from oracles import all_pairs_minimality, line_through


def emit(criterion, description, ok):
    print("ACCEPTANCE %2d: %-58s %s" % (criterion, description,
                                        "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (criterion, description)


def section_rank(point_set, dual):
    space = point_set.space
    vals = space.dot_block(np.asarray([dual], dtype=np.int64),
                           point_set.matrix())[0]
    return space.rank([point_set.points[j] for j in np.flatnonzero(vals == 0)])


def test_criterion_01_strong_set_q2():
    t0 = time.perf_counter()
    rg = build_rgroup(2, 4)
    res = find_independent_tuple(rg, 3, strategy="random", seed=1)
    S = union_subgeometries(rg, res.alphas)
    verdict = verify_strong_blocking(S)
    elapsed = time.perf_counter() - t0
    ok = (res.status == "found" and len(S) == 45
          and verdict.status == "strong"
          and verdict.hyperplanes_checked == 585
          and elapsed < 5.0)
    emit(1, "45-point strong set in PG(3,8), 585 planes, < 5 s", ok)


def test_criterion_02_strong_set_q3():
    t0 = time.perf_counter()
    rg = build_rgroup(3, 4)
    res = find_independent_tuple(rg, 3, strategy="random", seed=1)
    S = union_subgeometries(rg, res.alphas)
    verdict = verify_strong_blocking(S)
    elapsed = time.perf_counter() - t0
    ok = (res.status == "found" and len(S) == 120
          and verdict.status == "strong"
          and verdict.hyperplanes_checked == 20440
          and elapsed < 60.0)
    emit(2, "120-point strong set in PG(3,27), 20440 planes, < 60 s", ok)


def test_criterion_03_minimality_strongness_equivalence(rg23, rg24, rg34):
    cases = []

    def add(point_set):
        if point_set.space.rank(point_set.points) == point_set.space.k:
            cases.append(point_set)

    # PG(3,8) column sets
    space8 = ProjectiveSpace(rg24.geom_field, 3)
    res = find_independent_tuple(rg24, 3, strategy="random", seed=1)
    add(union_subgeometries(rg24, res.alphas))
    add(subgeometry_points(rg24, 0))
    f = rg24.field
    add(union_subgeometries(rg24, (f.one, f.from_exp(1))))
    line = line_through(space8, (1, 0, 0, 0), (0, 1, 0, 0))
    add(PointSet(space8, line + [(0, 0, 1, 0), (0, 0, 0, 1)]))
    rng = np.random.default_rng(0)
    for _ in range(6):
        idx = rng.choice(space8.num_points, 40, replace=False)
        add(PointSet(space8, [space8.point_at(int(i)) for i in idx]))
    for _ in range(2):
        idx = rng.choice(space8.num_points, 12, replace=False)
        add(PointSet(space8, [space8.point_at(int(i)) for i in idx]))
    # PG(2,4) column sets
    space4 = ProjectiveSpace(rg23.geom_field, 2)
    res = find_independent_tuple(rg23, 2, strategy="exhaustive")
    add(union_subgeometries(rg23, res.alphas))
    add(subgeometry_points(rg23, 0))
    add(PointSet(space4, canonical_points(2, 4)))
    for _ in range(4):
        idx = rng.choice(space4.num_points, 10, replace=False)
        add(PointSet(space4, [space4.point_at(int(i)) for i in idx]))
    # PG(3,27) column sets
    space27 = ProjectiveSpace(rg34.geom_field, 3)
    res = find_independent_tuple(rg34, 3, strategy="random", seed=1)
    add(union_subgeometries(rg34, res.alphas))
    add(subgeometry_points(rg34, 0))
    idx = rng.choice(space27.num_points, 60, replace=False)
    add(PointSet(space27, [space27.point_at(int(i)) for i in idx]))

    # the all-pairs support comparison, not `check_minimal`, which is the
    # strong scan itself
    disagreements = 0
    for S in cases:
        strong = verify_strong_blocking(S).status == "strong"
        G = generator_from_points(S)
        minimal = all_pairs_minimality(G)[0] == "minimal"
        if strong != minimal:
            disagreements += 1
    broken = sum(1 for S in cases
                 if verify_strong_blocking(S).status != "strong")
    ok = len(cases) >= 20 and disagreements == 0 and broken > 0
    emit(3, "minimal <=> strong on %d column sets, 0 disagreements"
         % len(cases), ok)


def test_criterion_04_code_45_4_8(rg24):
    res = find_independent_tuple(rg24, 3, strategy="random", seed=1)
    S = union_subgeometries(rg24, res.alphas)
    G = generator_from_points(S)
    t0 = time.perf_counter()
    prof = support_profiles(G)
    verdict = check_minimal(G)
    elapsed = time.perf_counter() - t0
    ok = ((G.n, G.k) == (45, 4) and prof.class_count == 585
          and verdict.status == "minimal"
          and verdict.classes_checked == 585  # every class's containers
          and elapsed < 5.0)
    emit(4, "[45,4]_8 minimal, containers of all 585 classes, < 5 s", ok)


@pytest.mark.parametrize("expect", [(2, 3, 3, 7, 21), (2, 4, 39, 15, 585),
                                    (3, 4, 511, 40, 20440)])
def test_criterion_05_partition(expect):
    q, k, cosets, size, total = expect
    rg = build_rgroup(q, k)
    parts = full_partition(rg)
    union = set()
    disjoint = True
    for ps in parts:
        if union & set(ps.points):
            disjoint = False
        union |= set(ps.points)
    ok = (len(parts) == cosets
          and all(len(ps) == size for ps in parts)
          and disjoint
          and len(union) == total == parts[0].space.num_points)
    emit(5, "partition of PG(%d,%d): %d x %d = %d"
         % (k - 1, q ** (k - 1), cosets, size, total), ok)


def test_criterion_06_weight1_line_stats(bset24):
    ok = True
    for row in bset24.matrix[bset24.weights == 1]:
        stats = line_stats_weight1(bset24, tuple(int(c) for c in row))
        ok = ok and (stats.lines_total == 4097
                     and stats.secant_count == 107
                     and stats.secant_sizes == {107: 107}
                     and stats.tangent_count == 3990)
    emit(6, "weight-1 pencils in B(4,2): 107 secants of 107, 3990 tangents",
         ok)


def test_criterion_07_bset_census(bset24):
    vals, counts = np.unique(bset24.weights, return_counts=True)
    census = dict(zip(vals.tolist(), counts.tolist()))
    r = bset24.rgroup.r
    ok = (len(bset24) == 11343 == bset_size_poly(2)
          and census == {1: 3, 2: 315, 3: 11025}
          and census == {w: comb(3, w) * r ** (w - 1) for w in (1, 2, 3)})
    emit(7, "|B(4,2)| = 11343 with census (3, 315, 11025), poly agrees", ok)


def test_criterion_08_blocking_scan_consistency(rg24, bset24):
    t0 = time.perf_counter()
    verdict = blocking_status(bset24)
    res = find_independent_tuple(rg24, 3, strategy="exhaustive")
    elapsed = time.perf_counter() - t0
    agree = (verdict.status == "not-blocking") == (res.status == "found")
    if verdict.status == "not-blocking":
        agree = agree and verdict.witness == res.alphas
    ok = (verdict.lines_scanned == 16781313 and agree and elapsed < 600.0)
    emit(8, "16781313-line scan agrees with exhaustive triple search, < 10 min"
         + " (verdict: %s)" % verdict.status, ok)


def test_criterion_09_interval_certification():
    t0 = time.perf_counter()
    qs = [7] + [q for q in range(11, 1001)
                if q % 2 and len(factorint(q)) == 1]
    certified = all(interval_violation_report(q).certified for q in qs)
    q9_fails = False
    try:
        interval_violation_report(9)
    except InconclusiveE:
        q9_fails = True
    elapsed = time.perf_counter() - t0
    ok = certified and q9_fails and len(qs) == 181 and elapsed < 10.0
    emit(9, "interval exclusion certified for %d odd q, q=9 fails, < 10 s"
         % len(qs), ok)


def test_criterion_10_baer_subplane(rg33):
    baer = subgeometry_points(rg33, 0)
    prof = one_mod_p_profile(baer, 3)
    ok = (prof.census == {1: 78, 4: 13}
          and sum(prof.census.values()) == 91
          and prof.holds)
    emit(10, "Baer subplane of PG(2,9): line sizes {1,4}, 1 (mod 3), 91 lines",
         ok)


def test_criterion_11_dependent_triple_q4():
    t0 = time.perf_counter()
    rg = build_rgroup(4, 4)
    f = rg.field
    # (alpha, alpha*rho, beta) with rho in R*: the first two share a coset,
    # so (1, -1, 0) is a nontrivial R-relation and the triple is dependent;
    # its union collapses to the two distinct coset subgeometries
    alpha, beta = f.one, f.from_exp(1)
    sub_a = subgeometry_points(rg, rg.coset_of(alpha))
    sub_b = subgeometry_points(rg, rg.coset_of(beta))
    S = PointSet(sub_a.space, sub_a.points + sub_b.points)
    verdict = verify_strong_blocking(S)
    elapsed = time.perf_counter() - t0
    witness_ok = (verdict.witness is not None
                  and section_rank(S, verdict.witness) == verdict.witness_rank
                  and verdict.witness_rank < 3)
    ok = (len(S) == 170 and S.space.num_points == 266305
          and verdict.status == "not-strong" and witness_ok
          and elapsed < 300.0)
    emit(11, "dependent triple at q=4: not strong in PG(3,64), < 5 min", ok)


def test_criterion_12_field_geometry_property_suites():
    ok = True
    # exhaustive pairwise axioms for small orders
    for p, m in ((2, 3), (2, 8), (3, 4), (5, 2)):
        f = Field.build(p, m)
        codes = np.arange(f.order, dtype=np.int64)
        a, b = np.meshgrid(codes, codes, indexing="ij")
        ok = ok and np.array_equal(f.add_vec(a, b), f.add_vec(b, a))
        ok = ok and np.array_equal(f.mul_vec(a, b), f.mul_vec(b, a))
        ok = ok and np.array_equal(f.add_vec(a, 0), a)
        ok = ok and np.array_equal(f.mul_vec(a, f.one), a)
    # exhaustive structural checks up to order 2^16, sampled batches above
    for p, m, samples in ((2, 16, 10 ** 5), (3, 10, 10 ** 5),
                          (2, 20, 10 ** 5)):
        f = Field.build(p, m)
        exhaustive = f.order <= 1 << 16
        # Zech bijection
        z = f.zech
        ok = ok and int(np.count_nonzero(z < 0)) == 1
        ok = ok and np.array_equal(np.sort(z[z >= 0]),
                                   np.arange(1, f.group_order))
        # Frobenius fixes exactly the prime field
        if exhaustive:
            exps = np.arange(f.group_order, dtype=np.int64)
        else:
            rng = np.random.default_rng(m)
            exps = rng.integers(0, f.group_order, samples)
        fixed = (exps * p) % f.group_order == exps
        ok = ok and np.array_equal(fixed,
                                   exps % (f.group_order // (p - 1)) == 0)
        # sampled associativity and distributivity
        rng = np.random.default_rng(p * m)
        a = rng.integers(0, f.order, samples)
        b = rng.integers(0, f.order, samples)
        c = rng.integers(0, f.order, samples)
        ok = ok and np.array_equal(f.add_vec(f.add_vec(a, b), c),
                                   f.add_vec(a, f.add_vec(b, c)))
        ok = ok and np.array_equal(f.mul_vec(f.mul_vec(a, b), c),
                                   f.mul_vec(a, f.mul_vec(b, c)))
        ok = ok and np.array_equal(f.mul_vec(a, f.add_vec(b, c)),
                                   f.add_vec(f.mul_vec(a, b), f.mul_vec(a, c)))
    # point/line counts and rank invariance
    space = ProjectiveSpace(Field.build(2, 2), 2)
    ok = ok and space.num_points == 21
    lines = set()
    pts = list(map(tuple, canonical_points(2, 4).tolist()))
    for i, P in enumerate(pts):
        for Q in pts[i + 1:]:
            lines.add(frozenset(line_through(space, P, Q)))
    ok = ok and len(lines) == 21 and all(len(l) == 5 for l in lines)
    space = ProjectiveSpace(Field.build(2, 3), 3)
    ok = ok and space.num_points == 585
    fgeo = space.field
    rng = np.random.default_rng(99)
    for _ in range(20):
        npts = int(rng.integers(1, 7))
        raw = [tuple(int(c) for c in row)
               for row in rng.integers(0, 8, (npts, 4))]
        while True:
            M = rng.integers(0, 8, (4, 4))
            if space.rank([tuple(int(c) for c in row) for row in M]) == 4:
                break
        moved = []
        for pt in raw:
            img = [0, 0, 0, 0]
            for i in range(4):
                for j in range(4):
                    img[i] = fgeo.add(img[i], fgeo.mul(int(M[i, j]), pt[j]))
            moved.append(tuple(img))
        ok = ok and space.rank(moved) == space.rank(raw)
    emit(12, "field and geometry property suites (exhaustive + sampled)", ok)
