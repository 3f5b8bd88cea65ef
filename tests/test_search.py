"""Tests for R-independence decisions, line marking, and line statistics."""

import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
import types

import numpy as np
import pytest

import strongblock

from strongblock import field as field_mod
from strongblock import geometry, search
from strongblock.errors import BudgetExceeded
from strongblock.field import Field
from strongblock.geometry import ProjectiveSpace, canonical_points
from strongblock.partition import r_tuple_matrix
from strongblock.search import (
    IndependenceVerdict,
    blocking_status,
    find_independent_tuple,
    free_cosets,
    is_r_independent,
    line_stats_weight1,
    mark_lines_through,
)


def relation_exists(rg, alphas):
    """Definitional oracle: scan all R-tuples for a nontrivial relation."""
    f = rg.field
    rcodes = [int(c) for c in rg.r_codes()]
    m = len(alphas)

    def rec(i, acc, trivial):
        if i == m:
            return acc == 0 and not trivial
        for rho in rcodes:
            if rec(i + 1, f.add(acc, f.mul(alphas[i], rho)),
                   trivial and rho == 0):
                return True
        return False

    return rec(0, 0, True)


def test_pairs_against_definitional_oracle(rg23):
    # every coset pair (1, g^j), j < stride, both ways
    f = rg23.field
    for j in range(rg23.stride):
        alphas = (f.one, f.from_exp(j))
        verdict = is_r_independent(alphas, rg23)
        expect = relation_exists(rg23, alphas)
        assert (verdict.status == "dependent") == expect
        # dependence holds exactly when the quotient lies in R*
        assert expect == bool(rg23.in_rstar(
            np.array([f.mul(alphas[1], int(f.inv_vec(alphas[0])))]))[0])


def test_dependent_witness_reevaluates_to_zero(rg24):
    f = rg24.field
    alphas = (f.one, f.from_exp(rg24.stride))  # same coset, so dependent
    verdict = is_r_independent(alphas, rg24)
    assert verdict.status == "dependent"
    acc = 0
    for a, rho in zip(alphas, verdict.witness):
        acc = f.add(acc, f.mul(a, rho))
    assert acc == 0
    assert np.all(rg24.in_r(np.asarray(verdict.witness)))
    assert any(rho != 0 for rho in verdict.witness)


def test_same_coset_triples_are_dependent(rg24):
    f = rg24.field
    for c in (0, 5, 20):
        rep = rg24.coset_rep(c)
        alphas = (rep, f.mul(rep, rg24.rstar_codes()[3]),
                  f.mul(rep, rg24.rstar_codes()[10]))
        assert is_r_independent(alphas, rg24).status == "dependent"


def test_independence_input_validation(rg23):
    with pytest.raises(ValueError):
        is_r_independent((1,), rg23)
    with pytest.raises(ValueError):
        is_r_independent((1, 0), rg23)


def test_over_budget_prefix_enumeration_raises(rg24, monkeypatch):
    # a pair enumerates one R-point, so only a triple can exceed the budget;
    # no verdict is guessed, dependent or not, and the random search stops
    # at its first trial
    f = rg24.field
    dependent = (f.one, f.from_exp(rg24.stride), f.from_exp(2 * rg24.stride))
    independent = find_independent_tuple(rg24, 3, "exhaustive").alphas
    monkeypatch.setattr(geometry, "SCAN_BUDGET", 10)
    assert is_r_independent(dependent[:2], rg24).status == "dependent"
    for alphas in (dependent, independent):
        with pytest.raises(BudgetExceeded):
            is_r_independent(alphas, rg24)
    with pytest.raises(BudgetExceeded):
        find_independent_tuple(rg24, 3, strategy="random")


def full_enumeration_verdict(alphas, rg):
    """Oracle: the first of all normalized R-points of PG(m-1, .), in
    canonical order, on the hyperplane with dual coordinates alphas."""
    f = rg.field
    mat = r_tuple_matrix(rg, len(alphas))
    acc = np.zeros(mat.shape[0], dtype=np.int64)
    for j, a in enumerate(alphas):
        acc = f.add_vec(acc, f.mul_vec(mat[:, j], a))
    hits = np.flatnonzero(acc == 0)
    if hits.size:
        return IndependenceVerdict("dependent",
                                   tuple(int(c) for c in mat[hits[0]]))
    return IndependenceVerdict("independent", None)


@pytest.mark.parametrize("name,m,independent", [
    ("rg23", 2, 2), ("rg24", 2, 38), ("rg33", 2, 6),
    ("rg23", 3, 0), ("rg24", 3, 48), ("rg33", 3, 0),
    ("rg23", 4, 0),
])
def test_prefix_enumeration_matches_full_enumeration(name, m, independent,
                                                     request):
    # every coset tuple (0, c_2, ..., c_m), repeated cosets included, and
    # about 200 of them again with each entry scaled by R* and the whole
    # tuple by some g^e
    rg = request.getfixturevalue(name)
    f = rg.field
    rng = np.random.default_rng(m)
    rstar = rg.rstar_codes()
    every = max(1, rg.stride ** (m - 1) // 200)
    found = 0
    for i, cosets in enumerate(np.ndindex(*(rg.stride,) * (m - 1))):
        alphas = (f.one,) + tuple(rg.coset_rep(c) for c in cosets)
        verdict = is_r_independent(alphas, rg)
        assert verdict == full_enumeration_verdict(alphas, rg), alphas
        found += verdict.status == "independent"
        if i % every == 0:
            shift = f.from_exp(int(rng.integers(f.group_order)))
            scaled = tuple(f.mul(shift, f.mul(a, int(rng.choice(rstar))))
                           for a in alphas)
            scaled_verdict = is_r_independent(scaled, rg)
            assert scaled_verdict == full_enumeration_verdict(scaled, rg)
            assert scaled_verdict.status == verdict.status
    assert found == independent


def zech_sum_verdict(alphas, rg):
    """Oracle: the prefix sums added through the Zech table by `dot_block`,
    and rho_m = -s/a_m wherever s is 0 or shares a_m's coset."""
    f = rg.field
    mat = r_tuple_matrix(rg, len(alphas) - 1)
    acc = ProjectiveSpace(f, len(alphas) - 1).dot_block([alphas[:-1]],
                                                        mat)[0]
    last = alphas[-1]
    hits = np.flatnonzero((acc == 0) | ((acc - last) % rg.stride == 0))
    if not hits.size:
        return IndependenceVerdict("independent", None)
    s = int(acc[hits[0]])
    rho_m = f.mul(f.neg(s), int(f.inv_vec(last))) if s else 0
    return IndependenceVerdict(
        "dependent", tuple(int(c) for c in mat[hits[0]]) + (rho_m,))


PACKED_SUM_CORPUS = [
    ("rg24", 3, None, 48), ("rg23", 2, None, 2), ("rg23", 4, None, 0),
    ("rg34", 3, 40, 5), ("rg43", 2, None, 12), ("rg43", 3, 40, 0),
    ("rg43", 4, 10, 0), ("rg25", 4, 2, 0),
]


@pytest.mark.parametrize("name,m,samples,independent,batch", [
    pytest.param(*case, batch, id="-".join(map(str, case)) + suffix)
    for batch, suffix in ((1 << 14, ""), (1, "-batch1"))
    for case in PACKED_SUM_CORPUS])
def test_packed_sums_match_zech_sums(name, m, samples, independent, batch,
                                     request, monkeypatch):
    # every coset tuple (0, c_2, ..., c_m), or a seeded sample of them, with
    # each entry of a sampled tuple scaled by a random element of R*: the
    # exp-only decision gives the verdict and witness of Zech-table sums,
    # whether its one pass sums and looks up one prefix per block or 2^14
    monkeypatch.setattr(geometry, "MARK_BATCH", batch)
    rg = request.getfixturevalue(name)
    f = rg.field
    shape = (rg.stride,) * (m - 1)
    rng = random.Random(m)
    if samples is None:
        tuples = list(np.ndindex(*shape))
    else:  # sampled by index: k = 5 has 2255^3 coset tuples
        tuples = [tuple(int(c) for c in np.unravel_index(i, shape))
                  for i in rng.sample(range(rg.stride ** (m - 1)), samples)]
    found = 0
    for cosets in tuples:
        alphas = (f.one,) + tuple(rg.coset_rep(c) for c in cosets)
        if samples is not None:
            alphas = tuple(f.mul(a, int(rng.choice(rg.rstar_codes())))
                           for a in alphas)
        verdict = is_r_independent(alphas, rg)
        assert verdict == zech_sum_verdict(alphas, rg), alphas
        found += verdict.status == "independent"
    assert found == independent


# tracemalloc peak of one k = 5 decision, as measured (run alone), plus
# 64 KiB for temporaries that move between numpy versions: its prefixes
# are built a MARK_BATCH block at a time, where building all 217,623 of
# them first peaked at 10,449,992 and summing every prefix before the
# lookup at 16,975,250
K5_DECISION_PEAK_BYTES = 1_284_692 + (64 << 10)


def test_k5_decision_peak_memory(rg25):
    # the four cosets of the k = 5 union of test_strong.py
    alphas = tuple(rg25.coset_rep(c) for c in (0, 7, 100, 1000))
    is_r_independent(alphas, rg25)  # builds the cached R* progressions
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verdict = is_r_independent(alphas, rg25)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert verdict.witness == (1, 2256, 317956, 1039556)
    assert peak <= K5_DECISION_PEAK_BYTES


def test_relation_recheck_needs_r_coefficients(rg24, monkeypatch):
    # a forged prefix (g^1) gives (g^1, 1), a relation of (1, g^1) whose
    # first coefficient lies outside R: the re-check refuses it
    monkeypatch.setattr(search, "r_tuple_matrix",
                        lambda rg, n, start, stop: np.array(
                            [[2]], dtype=np.int64))
    with pytest.raises(AssertionError, match="R-relation re-check failed"):
        is_r_independent((rg24.field.one, 2), rg24)


def test_relation_space_fits_int64_indices():
    # is_r_independent re-checks a relation in PG(m-1, Q): for every (q, k)
    # that build_rgroup builds, the largest m whose prefixes r_tuple_matrix
    # admits leaves that space under the 2^63 points ProjectiveSpace allows
    cap = field_mod.DEFAULT_ORDER_CAP
    spaces = 0
    for q in range(2, field_mod.iroot(cap, 6) + 1):
        if len(field_mod.factor(q)) > 1:
            continue
        k = 3
        while q ** (k * (k - 1)) <= cap:
            r = (q ** (k - 1) - 1) * (q ** k - 1) // (q - 1)
            # m: the longest tuple, m - 1 prefix coordinates admitted, m not
            m = 2
            while (r + 1) ** m - 1 <= geometry.SCAN_BUDGET * r:
                m += 1
            with pytest.raises(BudgetExceeded):
                r_tuple_matrix(types.SimpleNamespace(r=r), m)
            assert geometry._block_offsets(m - 1, q ** (k * (k - 1)))[-1] \
                < 1 << 63, (q, k, m)
            spaces += 1
            k += 1
    assert spaces == 15


def test_scaling_invariance_of_independence(rg24):
    # multiplying any entry by an element of R* preserves the verdict
    f = rg24.field
    rng = np.random.default_rng(17)
    rstar = rg24.rstar_codes()
    for _ in range(10):
        cosets = rng.choice(rg24.stride, 2, replace=False)
        alphas = tuple(rg24.coset_rep(int(c)) for c in cosets)
        base = is_r_independent(alphas, rg24).status
        scaled = tuple(f.mul(a, int(rstar[rng.integers(0, rg24.r)]))
                       for a in alphas)
        assert is_r_independent(scaled, rg24).status == base


# ---------------------------------------------------------------------------
# dual marking


def test_mark_lines_matches_brute_force():
    def check(space, pts):
        marks = mark_lines_through(space, pts)
        assert marks.shape == (space.num_points,)
        duals = canonical_points(space.n, space.field.order)
        expect = np.any(space.dot_block(duals, pts) == 0, axis=1)
        assert np.array_equal(marks, expect)

    space = ProjectiveSpace(Field.build(2, 2), 2)
    check(space, np.asarray([space.point_at(i) for i in (0, 4, 11, 17)],
                            dtype=np.int64))
    # random sets in PG(1,64), PG(2,9), PG(3,8) and PG(4,4)
    rng = np.random.default_rng(7)
    for p, m, n in [(2, 6, 1), (3, 2, 2), (2, 3, 3), (2, 2, 4)]:
        space = ProjectiveSpace(Field.build(p, m), n)
        for size in (1, 5, 23):
            idx = np.sort(rng.choice(space.num_points, size, replace=False))
            check(space, np.asarray([space.point_at(int(i)) for i in idx],
                                    dtype=np.int64))


def test_mark_lines_counts_per_point():
    # a single point lies on exactly q+1 lines
    space = ProjectiveSpace(Field.build(3, 2), 2)
    for i in (0, 30, 90):
        marks = mark_lines_through(
            space, np.asarray([space.point_at(i)], dtype=np.int64))
        assert int(marks.sum()) == space.field.order + 1


# ---------------------------------------------------------------------------
# coset quotient


def quotient_lines(rg, m):
    """PG(m-1, Q) and the hyperplanes (1, b[, c]) that `free_cosets` calls
    independent, expanded from cosets to every element of them."""
    space = ProjectiveSpace(rg.field, m - 1)
    Q = rg.field.order
    cosets = (np.arange(1, Q) - 1) % rg.stride  # coset of each nonzero code
    free = free_cosets(rg, m)
    lines = np.zeros(space.num_points, dtype=bool)
    if m == 2:
        lines[1:Q] = free[cosets]  # (1, b) has index b
    else:
        # (1, b, c) has index b Q + c
        lines[:Q * Q].reshape(Q, Q)[1:, 1:] = free[np.ix_(cosets, cosets)]
    return space, lines


@pytest.mark.parametrize("name,m,count,first", [
    ("rg24", 3, 529200, (1, 2, 18)),
    ("rg23", 3, 0, None),
    ("rg33", 3, 0, None),
    ("rg23", 2, 42, (1, 2)),
])
def test_free_cosets_match_marking_scan(name, m, count, first, request):
    rg = request.getfixturevalue(name)
    space, lines = quotient_lines(rg, m)
    unmarked = ~mark_lines_through(space, r_tuple_matrix(rg, m))
    assert np.array_equal(lines, unmarked)
    assert int(lines.sum()) == count
    res = find_independent_tuple(rg, m, strategy="exhaustive")
    assert res.certification == "coset-quotient"
    if first is None:
        assert (res.status, res.alphas, res.trials) == (
            "not-found", None, space.num_points)
        return
    index = int(np.argmax(lines))
    assert space.point_at(index) == first == res.alphas
    assert res.trials == index + 1


def test_blocking_status_reads_the_quotient(bset23, bset24):
    verdict = blocking_status(bset24)
    assert (verdict.status, verdict.witness, verdict.method,
            verdict.lines_scanned) == ("not-blocking", (1, 2, 18),
                                       "coset-quotient", 16781313)
    # B(3,2) has 23 of the 65 points of PG(1,64), so most points miss it
    verdict = blocking_status(bset23)
    assert (verdict.status, verdict.witness, verdict.method,
            verdict.lines_scanned) == ("not-blocking", (1, 2),
                                       "coset-quotient", 65)


def test_free_cosets_rejects_other_lengths(rg23):
    for m in (1, 4):
        with pytest.raises(ValueError):
            free_cosets(rg23, m)


def quotient_random_search(rg, m, seed, max_iters=10 ** 4):
    """(trials, alphas) of the random search with every candidate decided
    by `free_cosets`, its cosets shifted so that the first is 0."""
    free = free_cosets(rg, m)
    rng = random.Random(seed)
    for trial in range(1, max_iters + 1):
        cosets = rng.sample(range(rg.stride), m)
        if free[tuple((c - cosets[0]) % rg.stride for c in cosets[1:])]:
            return trial, tuple(rg.coset_rep(c) for c in cosets)
    return max_iters, None


@pytest.mark.parametrize("name,seeds", [("rg24", range(1, 31)),
                                        ("rg34", [1])])
def test_free_cosets_predict_the_random_search(name, seeds, request):
    # the random search decides each candidate with `is_r_independent`
    rg = request.getfixturevalue(name)
    for seed in seeds:
        res = find_independent_tuple(rg, 3, strategy="random", seed=seed)
        assert (res.trials, res.alphas) == quotient_random_search(rg, 3, seed)
    if name == "rg34":
        assert res.trials == 15
        assert res.alphas == (278, 5, 481)  # codes of g^277, g^4, g^480


# ---------------------------------------------------------------------------
# tuple search


def test_exhaustive_pair_search_small_case(rg23):
    res = find_independent_tuple(rg23, 2, strategy="exhaustive")
    assert res.status == "found"
    # PG(1,64) has 65 points and B(3,2) occupies 23, leaving 42 candidates
    assert is_r_independent(res.alphas, rg23).status == "independent"
    # the witness is the first non-B point in canonical order
    space = ProjectiveSpace(rg23.field, 1)
    idx = res.trials - 1
    assert space.point_at(idx) == res.alphas
    for j in range(idx):
        pair = space.point_at(j)
        if 0 in pair:
            continue  # a zero coordinate always admits the relation (0, rho)
        assert is_r_independent(pair, rg23).status == "dependent"
    # every line of PG(2,64) meets an R-point: no independent triple
    res = find_independent_tuple(rg23, 3, strategy="exhaustive")
    assert (res.status, res.alphas, res.trials) == ("not-found", None, 4161)
    assert res.certification == "coset-quotient"


def test_random_search_reproducible(rg24):
    res1 = find_independent_tuple(rg24, 3, strategy="random", seed=1)
    res2 = find_independent_tuple(rg24, 3, strategy="random", seed=1)
    assert res1.status == "found"
    assert res1.alphas == res2.alphas
    assert res1.trials == res2.trials
    assert is_r_independent(res1.alphas, rg24).status == "independent"
    res3 = find_independent_tuple(rg24, 3, strategy="random", seed=2)
    assert res3.status == "found"
    assert is_r_independent(res3.alphas, rg24).status == "independent"


def test_exhaustive_search_refuses_unindexable_space_at_once(rg23):
    # PG(10^12 - 1, 64) has 2^63 or more points: the space refuses it
    # before 64^(10^12), or even a count of it, is formed
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"2\^63"):
        find_independent_tuple(rg23, 10 ** 12, "exhaustive")
    assert time.perf_counter() - start < 0.1


def test_search_strategy_validation(rg24):
    with pytest.raises(ValueError):
        find_independent_tuple(rg24, 3, strategy="greedy")
    # PG(3,4096) has 6.9e10 hyperplanes
    with pytest.raises(BudgetExceeded):
        find_independent_tuple(rg24, 4, strategy="exhaustive")


def test_random_search_out_of_trials_raises(rg23):
    # B(3,2) meets every line of PG(2,64), so no trial can succeed, and a
    # random miss proves nothing
    with pytest.raises(BudgetExceeded, match="in 5 random trials"):
        find_independent_tuple(rg23, 3, strategy="random", max_iters=5)


@pytest.mark.parametrize("max_iters", [0, -5])
def test_random_search_needs_a_trial(rg23, max_iters):
    # no trial at all is a usage error, not a search out of trials
    with pytest.raises(ValueError, match="max_iters must be at least 1"):
        find_independent_tuple(rg23, 3, strategy="random", max_iters=max_iters)


# ---------------------------------------------------------------------------
# weight-1 line statistics


def test_weight1_line_stats(bset24):
    stats = line_stats_weight1(bset24)
    assert stats.lines_total == 4097
    assert stats.secant_count == 107
    assert stats.secant_sizes == {107: 107}
    assert stats.tangent_count == 3990
    # double count: P plus 106 further B points on each of 107 secants
    assert 1 + sum((s - 1) * c for s, c in stats.secant_sizes.items()) == len(
        bset24)


def test_weight1_line_stats_all_three_points(bset24):
    for row in bset24.matrix[bset24.weights == 1]:
        stats = line_stats_weight1(bset24, tuple(int(c) for c in row))
        assert stats.secant_sizes == {107: 107}


def test_weight1_point_validation(bset24):
    with pytest.raises(ValueError):
        line_stats_weight1(bset24, tuple(int(c)
                                         for c in bset24.matrix[bset24.weights == 3][0]))


def test_line_stats_rejects_non_plane(bset23):
    with pytest.raises(ValueError):
        line_stats_weight1(bset23)


RECHECK_SCRIPT = textwrap.dedent("""
    import sys
    import numpy as np
    from strongblock import search
    from strongblock.geometry import ProjectiveSpace
    from strongblock.partition import build_bset, build_rgroup

    def expect_error(name, call):
        try:
            call()
        except AssertionError as exc:
            print(name, "raised:", exc)
        else:
            print(name, "passed silently")

    print("optimize", sys.flags.optimize)
    rg23, rg24 = build_rgroup(2, 3), build_rgroup(2, 4)
    one = rg23.field.one
    # a forged kernel puts no point on any hyperplane
    real_section = ProjectiveSpace.section
    ProjectiveSpace.section = lambda self, points, dual: np.zeros(
        len(points), dtype=bool)
    expect_error("relation", lambda: search.is_r_independent((one, one), rg23))
    ProjectiveSpace.section = real_section
    # a forged quotient calls every coset pair free: its first witness,
    # (1, 1, 1), meets B and is dependent
    search.free_cosets = (
        lambda rg, m: np.ones((rg.stride,) * (m - 1), dtype=bool))
    expect_error("witness-line", lambda: search.blocking_status(build_bset(rg24)))
    expect_error("independence", lambda: search.find_independent_tuple(
        rg24, 3, strategy="exhaustive"))
""")


def test_rechecks_survive_python_O():
    # the witness re-checks are explicit raises, so python -O keeps them
    src = os.path.dirname(os.path.dirname(strongblock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-O", "-c", RECHECK_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "optimize 1",
        "relation raised: R-relation re-check failed",
        "witness-line raised: witness line re-check failed",
        "independence raised: witness hyperplane is not R-independent",
    ]
