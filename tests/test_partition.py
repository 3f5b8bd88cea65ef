"""Tests for R*, the coset subgeometry partition, and B(k,q)."""

from math import comb

import numpy as np
import pytest

from strongblock import geometry
from strongblock.errors import BudgetExceeded, FieldTooLarge
from strongblock.field import MR_EXACT_BELOW, factor, is_prime
from strongblock.geometry import ProjectiveSpace
from strongblock.partition import (
    build_bset,
    build_rgroup,
    full_partition,
    prime_power,
    r_tuple_matrix,
    subgeometry_points,
)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    for q in (6, 1, 0, -8):
        with pytest.raises(ValueError):
            prime_power(q)


def test_prime_power_matches_factor():
    for q in range(2, 10 ** 5 + 1):
        fac = factor(q)
        if len(fac) == 1:
            assert prime_power(q) == next(iter(fac.items())), q
        else:
            with pytest.raises(ValueError):
                prime_power(q)


def test_prime_power_matches_sympy_on_large_q():
    sympy = pytest.importorskip("sympy")
    primes = [sympy.prevprime(10 ** 12), sympy.nextprime(10 ** 15),
              1000000000000037, 2 ** 61 - 1, sympy.prevprime(MR_EXACT_BELOW)]
    for p in primes:
        assert is_prime(p)
        assert prime_power(p) == (p, 1)
    for p, h in [(3, 40), (2, 77), (10 ** 9 + 7, 2), (1000003, 3),
                 (sympy.nextprime(10 ** 6), 3)]:
        assert prime_power(p ** h) == (p, h)
    # strong pseudoprimes to many of the bases, Carmichael numbers, and
    # products of two large primes are not prime powers
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321,
              3825123056546413051, 561, 41041, 825265,
              (10 ** 9 + 7) * (10 ** 9 + 9), (10 ** 6 + 3) ** 2 * 5):
        assert not sympy.isprime(n) and len(sympy.factorint(n)) > 1
        assert not is_prime(n)
        with pytest.raises(ValueError):
            prime_power(n)
    rng = np.random.default_rng(11)
    for n in rng.integers(10 ** 12, 10 ** 18, 300).tolist():
        assert is_prime(n) == sympy.isprime(n), n
    # past the proven bound of the twelve bases nothing is certified
    with pytest.raises(BudgetExceeded):
        is_prime(MR_EXACT_BELOW)


def test_build_rgroup_rejects_small_k():
    with pytest.raises(ValueError):
        build_rgroup(2, 2)


def test_build_rgroup_refuses_q_past_the_cap_before_factoring():
    # 2^61 - 1 is prime: trial division would take about 10^9 steps
    with pytest.raises(FieldTooLarge):
        build_rgroup(2 ** 61 - 1, 4)


@pytest.mark.parametrize("expect", [(2, 3, 21, 3), (2, 4, 105, 39),
                                    (3, 3, 104, 7), (3, 4, 1040, 511),
                                    (4, 3, 315, 13)])
def test_rgroup_parameters(expect):
    q, k, r, stride = expect
    rg = build_rgroup(q, k)
    assert (rg.r, rg.stride) == (r, stride)
    assert rg.field.order == q ** (k * (k - 1))
    assert rg.geom_field.order == q ** (k - 1)
    assert rg.r * rg.stride == rg.field.group_order


@pytest.mark.parametrize("qk", [(2, 3), (2, 4), (16, 3)])
def test_rstar_is_product_set(qk):
    # independent recomputation: exponents of F_{q^(k-1)}* . F_{q^k}*;
    # (16, 3) lives in GF(2^24), the field of criterion 11
    q, k = qk
    rg = build_rgroup(q, k)
    n = rg.field.group_order
    a = np.arange(q ** (k - 1) - 1, dtype=np.int64) * (n // (q ** (k - 1) - 1))
    b = np.arange(q ** k - 1, dtype=np.int64) * (n // (q ** k - 1))
    prods = np.unique((a[:, None] + b[None, :]) % n)
    assert np.array_equal(prods, rg.rstar_codes() - 1)


def test_rstar_membership_predicates(rg24):
    codes = rg24.rstar_codes()
    assert len(codes) == rg24.r
    assert np.all(rg24.in_rstar(codes))
    assert np.all(rg24.in_r(rg24.r_codes()))
    assert not rg24.in_rstar(np.array([0]))[0]
    assert rg24.in_r(np.array([0]))[0]
    # multiplicative closure
    rng = np.random.default_rng(1)
    a = codes[rng.integers(0, rg24.r, 500)]
    b = codes[rng.integers(0, rg24.r, 500)]
    assert np.all(rg24.in_rstar(rg24.field.mul_vec(a, b)))


def test_coset_bookkeeping(rg24):
    f = rg24.field
    with pytest.raises(ValueError):
        rg24.coset_of(0)
    for c in range(rg24.stride):
        rep = rg24.coset_rep(c)
        assert rg24.coset_of(rep) == c
        # coset is invariant under scaling by R*
        scaled = f.mul(rep, int(rg24.rstar_codes()[5]))
        assert rg24.coset_of(scaled) == c


@pytest.mark.parametrize("qk", [(2, 3), (2, 4), (3, 4)])
def test_coset_subgeometries_partition_the_space(qk):
    q, k = qk
    rg = build_rgroup(q, k)
    parts = full_partition(rg)
    size = (q ** k - 1) // (q - 1)
    assert len(parts) == rg.stride
    seen = set()
    for ps in parts:
        assert len(ps) == size
        assert not (seen & set(ps.points))
        seen |= set(ps.points)
    assert len(seen) == parts[0].space.num_points


def test_subgeometry_structure(rg24):
    sub = subgeometry_points(rg24, 7)
    assert len(sub) == 15
    assert all(tag == 7 for tag in sub.labels.values())
    # spans the whole space
    assert sub.space.rank(sub.points) == 4
    # canonical index order and determinism
    idx = list(sub.space.point_index_vec(sub.matrix()))
    assert idx == sorted(idx)
    assert sub.points == subgeometry_points(rg24, 7).points


def points_of_all_of_the_coset(rg, c):
    """The points of coset c from every one of its |R*| codes: coordinatized,
    normalized, de-duplicated and sorted by canonical index."""
    space = ProjectiveSpace(rg.geom_field, rg.k - 1)
    norm = space.normalize_vec(
        rg.coords.coords(rg.field.exp_at(rg.rstar_codes() - 1 + c)))
    _, first = np.unique(space.point_index_vec(norm), return_index=True)
    return [tuple(int(x) for x in row) for row in norm[first]]


@pytest.mark.parametrize("qk,cosets", [((2, 4), None), ((3, 3), None),
                                       ((3, 4), 20)])
def test_one_code_per_point_matches_all_of_rstar(qk, cosets):
    rg = build_rgroup(*qk)
    rng = np.random.default_rng(5)
    picks = (range(rg.stride) if cosets is None
             else rng.choice(rg.stride, cosets, replace=False).tolist())
    for c in picks:
        sub = subgeometry_points(rg, c)
        assert sub.points == points_of_all_of_the_coset(rg, c)
        assert sub.labels == {pt: c for pt in sub.points}


@pytest.mark.parametrize("q,cosets", [(2, None), (3, None), (4, 12)])
def test_coset_values_match_exp(q, cosets):
    # R* and the coset images of the table-free path equal exp.take of the
    # same exponents: every coset at q = 2 and 3 and a seeded sample at
    # q = 4, then exponents off the smallest representative at seeded
    # index arrays with repeats, in no order
    rg = build_rgroup(q, 4)
    f, s, r = rg.field, rg.stride, rg.r
    rng = np.random.default_rng(q)
    picks = (range(s) if cosets is None
             else rng.choice(s, cosets, replace=False).tolist())
    idx = np.arange(r)
    images = [rg.coset_values(c, idx) for c in picks]
    samples = []
    for _ in range(20):
        e, i = int(rng.integers(0, f.group_order)), rng.integers(0, r, 50)
        samples.append((e, i, rg.coset_values(e, i)))
    assert "exp" not in vars(f)
    assert np.array_equal(rg.rstar_values, f.exp.take(idx * s))
    for c, image in zip(picks, images):
        assert image.dtype == np.int32
        assert np.array_equal(image, f.exp.take(c + idx * s)), c
    for e, i, values in samples:
        assert np.array_equal(values, f.exp.take((e + i * s) % f.group_order))


def test_fano_subgeometry(rg23):
    # q=2, k=3: each coset subgeometry is a Fano plane inside PG(2,4)
    sub = subgeometry_points(rg23, 0)
    assert len(sub) == 7
    space = sub.space
    pts = set(sub.points)
    # every pair of its points spans a line meeting it in exactly 3 points
    for P in pts:
        for Q in pts:
            if P != Q:
                line = set(space.line_through(P, Q))
                assert len(line & pts) == 3


def test_r_tuple_matrix(rg23, rg24, monkeypatch):
    from strongblock.geometry import ProjectiveSpace
    for rg, ncoords in ((rg23, 2), (rg24, 3)):
        mat = r_tuple_matrix(rg, ncoords)
        r = rg.r
        assert mat.shape == (((r + 1) ** ncoords - 1) // r, ncoords)
        assert np.all(rg.in_r(mat))
        space = ProjectiveSpace(rg.field, ncoords - 1)
        idx = space.point_index_vec(mat)
        assert np.all(np.diff(idx) > 0)  # canonical order, no duplicates
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "SCAN_BUDGET", 10)
            with pytest.raises(BudgetExceeded):
                r_tuple_matrix(rg, ncoords)
    assert mat.shape[0] == 11343


def test_bset_census(bset24):
    # |B(4,2)| and the weight census C(3,w) r^(w-1)
    r = bset24.rgroup.r
    assert len(bset24) == ((r + 1) ** 3 - 1) // r == 11343
    census = bset24.weight_census()
    assert census == {w: comb(3, w) * r ** (w - 1) for w in (1, 2, 3)}
    assert census == {1: 3, 2: 315, 3: 11025}


def test_bset_small_case(bset23):
    assert len(bset23) == 23
    assert bset23.weight_census() == {1: 2, 2: 21}


def test_bset_contains(bset24):
    rng = np.random.default_rng(8)
    for i in rng.integers(0, len(bset24), 50):
        assert bset24.contains(tuple(int(c) for c in bset24.matrix[int(i)]))
    f = bset24.rgroup.field
    non_r = next(c for c in range(2, f.order) if not bset24.rgroup.in_r(
        np.array([c]))[0])
    assert not bset24.contains((1, non_r, 0))


def test_bset_budget(rg24, monkeypatch):
    monkeypatch.setattr(geometry, "SCAN_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        build_bset(rg24)
