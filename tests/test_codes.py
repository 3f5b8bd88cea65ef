"""Tests for generator matrices, supports, minimality, and code export."""

import json
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import strongblock
from strongblock.codes import (
    GeneratorMatrix,
    check_minimal,
    export_code,
    generator_from_points,
    import_code,
    support_profiles,
    weight_distribution,
)
from strongblock.errors import BudgetExceeded, RankDeficient
from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace, canonical_points
from strongblock.search import find_independent_tuple
from strongblock.strong import union_subgeometries, verify_strong_blocking

from oracles import all_pairs_minimality, line_through, support_set, supports

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"


@pytest.fixture(scope="module")
def union45(rg24):
    res = find_independent_tuple(rg24, 3, strategy="random", seed=1)
    return union_subgeometries(rg24, res.alphas)


@pytest.fixture(scope="module")
def code45(union45):
    return generator_from_points(union45)


def test_generator_shape_and_column_order(code45, union45):
    assert (code45.k, code45.n) == (4, 45)
    assert PointSet(union45.space, [tuple(c) for c in code45.entries.T]
                    ).points == union45.points
    assert np.array_equal(code45.entries.T, union45.matrix())


def test_generator_rejects_bad_input(gf8):
    space = ProjectiveSpace(gf8, 3)
    with pytest.raises(RankDeficient):
        generator_from_points(PointSet(space, []))
    line = line_through(space, (1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(RankDeficient):
        generator_from_points(PointSet(space, line))


def test_simplex_code_constant_weight(gf8):
    # all points of PG(2,8): every nonzero codeword has weight q^(k-1) = 64
    space = ProjectiveSpace(gf8, 2)
    G = generator_from_points(PointSet(space, canonical_points(2, 8)))
    assert (G.k, G.n) == (3, 73)
    prof = support_profiles(G)
    assert prof.class_count == 73
    assert np.all(prof.weights == 64)
    assert check_minimal(G).status == "minimal"


def test_support_profiles_against_direct_evaluation(code45):
    prof = support_profiles(code45)
    rng = np.random.default_rng(21)
    for i in rng.integers(0, prof.class_count, 40):
        assert prof.weights[int(i)] == len(support_set(code45, int(i)))


def test_support_profiles_match_dot_block_oracle(code45, gf8):
    rng = np.random.default_rng(11)
    corpus = [code45]
    for p, m, k, n in [(2, 3, 3, 20), (2, 3, 3, 64), (2, 3, 3, 130),
                       (3, 2, 2, 12), (2, 1, 5, 40), (2, 2, 4, 70),
                       (2, 1, 3, 300)]:
        f = Field.build(p, m)
        while True:
            entries = rng.integers(0, f.order, (k, n))
            # repeated columns, scaled copies and a zero column
            entries[:, 1] = entries[:, 0]
            entries[:, 2] = f.mul_vec(entries[:, 0], f.order - 1)
            entries[:, n // 2] = 0
            G = GeneratorMatrix(field=f, k=k, n=n, entries=entries)
            if G.message_space().rank(
                    [tuple(int(c) for c in col) for col in entries.T]) == k:
                break
        corpus.append(G)
    dtypes = set()
    for G in corpus:
        prof = support_profiles(G)
        assert np.array_equal(prof.weights, supports(G).sum(axis=1))
        # the narrowest unsigned dtype that holds the nonzero columns
        live = np.count_nonzero(np.any(G.entries != 0, axis=0))
        assert prof.weights.dtype == np.min_scalar_type(live)
        dtypes.add(prof.weights.dtype)
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16)}


def test_weights_are_hyperplane_complements(code45, union45):
    # weight of class m equals n minus the size of the hyperplane section
    prof = support_profiles(code45)
    space = code45.message_space()
    duals = canonical_points(space.n, space.field.order)
    on_hyperplane = (space.dot_block(duals, union45.matrix()) == 0).sum(axis=1)
    assert np.array_equal(prof.weights, code45.n - on_hyperplane)


def test_weight_distribution_45(code45):
    dist = weight_distribution(support_profiles(code45).weights)
    assert dist == {34: 45, 38: 180, 40: 225, 42: 135}
    assert sum(dist.values()) == 585


def test_minimal_45(code45):
    verdict = check_minimal(code45)
    assert verdict.status == "minimal"
    assert verdict.classes_checked == 585


def test_not_minimal_witness_verified(gf8):
    # a line plus two extra spanning points: planes through the line see a
    # rank-2 section, so the code cannot be minimal
    space = ProjectiveSpace(gf8, 3)
    pts = line_through(space, (1, 0, 0, 0), (0, 1, 0, 0))
    pts += [(0, 0, 1, 0), (0, 0, 0, 1)]
    S = PointSet(space, pts)
    G = generator_from_points(S)
    assert verify_strong_blocking(S).status == "not-strong"
    verdict = check_minimal(G)
    assert verdict.status == "not-minimal"
    contained, container = verdict.witness
    ia, ib = space.point_index_vec(
        space.normalize_vec([contained, container]))
    assert ia != ib
    assert support_set(G, ia) < support_set(G, ib)


def oracle_corpus(code45):
    """Generator matrices for the oracle comparison, with what each covers."""
    rng = np.random.default_rng(2024)
    corpus = [code45]
    for (p, m, n), sizes in (((2, 2, 2), range(3, 21)),
                             ((2, 3, 3), range(4, 84, 4)),
                             ((2, 4, 2), range(3, 120, 6))):
        space = ProjectiveSpace(Field.build(p, m), n)
        for size in sizes:
            while True:
                idx = rng.choice(space.num_points, size, replace=False)
                S = PointSet(space, [space.point_at(int(i)) for i in idx])
                if space.rank(S.points) == space.k:
                    break
            corpus.append(generator_from_points(S))
    # PG(2,64): the three sides of a triangle (strong), then without one
    # non-vertex point
    space = ProjectiveSpace(Field.build(2, 6), 2)
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    sides = [pt for i in range(3)
             for pt in line_through(space, e[i], e[(i + 1) % 3])]
    triangle = PointSet(space, sides)
    corpus.append(generator_from_points(triangle))
    corpus.append(generator_from_points(PointSet(space, [
        pt for pt in triangle.points if pt != (1, 1, 0)])))
    # repeated columns, once verbatim and once as a scalar multiple
    f = code45.field
    cols = np.concatenate([np.eye(4, dtype=np.int64), code45.entries[:, :3]],
                          axis=1)[:, [0, 1, 2, 3, 4, 5, 6, 4, 6]]
    cols[:, 8] = f.mul_vec(cols[:, 8], f.from_exp(3))
    corpus.append(GeneratorMatrix(field=f, k=4, n=9, entries=cols))
    # identity codes: every support is a coordinate set shared by many classes
    for field, k in ((Field.build(2, 2), 3), (f, 4), (Field.build(2, 4), 2)):
        corpus.append(GeneratorMatrix(field=field, k=k, n=k,
                                      entries=np.eye(k, dtype=np.int64)))
    return corpus


def test_check_minimal_matches_all_pairs_oracle(code45):
    corpus = oracle_corpus(code45)
    assert len(corpus) >= 60
    seen = set()
    for G in corpus:
        v = check_minimal(G)
        want = all_pairs_minimality(G)
        assert (v.status, v.witness, v.classes_checked) == want
        S = supports(G)
        weights = support_profiles(G).weights
        assert np.array_equal(weights, S.sum(axis=1))
        seen.add(v.status)
        if v.status == "not-minimal":
            if v.classes_checked > 1:
                seen.add("container past the first class")
            if weights[v.classes_checked - 1] == np.count_nonzero(
                    S.any(axis=0)):
                seen.add("container missing every column")
        if weights.max() == G.n:
            seen.add("full-weight class")
        if len(np.unique(S, axis=0)) < len(S):
            seen.add("equal supports")
        if len(PointSet(G.message_space(),
                        [tuple(c) for c in G.entries.T])) < G.n:
            seen.add("repeated column")
    assert seen == {"minimal", "not-minimal", "container past the first class",
                    "container missing every column", "full-weight class",
                    "equal supports", "repeated column"}


# tracemalloc peaks on the [120,4]_27 pipeline code, as measured (run alone),
# plus 64 KiB for temporaries that move between numpy versions:
# support_profiles 630,768 bytes, and the strong scan of its 120 columns
# 850,119, which is all of check_minimal on a minimal code
PROFILE_PEAK_BYTES = 630_768 + (64 << 10)
MINIMALITY_PEAK_BYTES = 850_119 + (64 << 10)
# support_profiles on the 255 columns of `random_pg3_64`, with the 266,305
# classes' supports and weights it held as packed bitsets
Q4_PROFILE_PEAK_BYTES = 10_957_682 + (64 << 10)


def test_minimality_peak_memory(rg34):
    # the union of `pipeline --q 3 --seed 1006`
    union = union_subgeometries(
        rg34, [rg34.field.from_exp(e) for e in (506, 393, 389)])
    G = generator_from_points(union)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        support_profiles(G)
        profile_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        verdict = check_minimal(G)
        minimality_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (G.n, verdict.status) == (120, "minimal")
    assert profile_peak <= PROFILE_PEAK_BYTES
    assert minimality_peak <= MINIMALITY_PEAK_BYTES


def test_support_profiles_peak_memory_at_q4(random_pg3_64):
    G = generator_from_points(random_pg3_64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prof = support_profiles(G)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (prof.class_count, G.n) == (266_305, 255)
    assert peak <= Q4_PROFILE_PEAK_BYTES


RECHECK_SCRIPT = textwrap.dedent("""
    import sys
    from strongblock import codes
    from strongblock.field import Field
    from strongblock.geometry import PointSet, ProjectiveSpace

    print("optimize", sys.flags.optimize)
    # a line of PG(3, 8) and two points spanning the rest
    space = ProjectiveSpace(Field.build(2, 3), 3)
    G = codes.generator_from_points(PointSet(
        space, [(1, c, 0, 0) for c in range(8)]
        + [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))
    # forged: the container itself stands in for the contained class
    codes._lowest_through = lambda space, section, b: b
    try:
        codes.check_minimal(G)
    except AssertionError as exc:
        print("witness raised:", exc)
    else:
        print("witness passed silently")
""")


def test_minimality_recheck_survives_python_O():
    # the forged witness names one class twice, so it must be refused
    src = os.path.dirname(os.path.dirname(strongblock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-O", "-c", RECHECK_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "optimize 1",
        "witness raised: minimality witness re-check failed",
    ]


def test_zero_weight_class_is_rank_deficient(gf8):
    G = GeneratorMatrix(field=gf8, k=3, n=2,
                        entries=np.asarray([[1, 0], [0, 1], [0, 0]]))
    with pytest.raises(RankDeficient):
        support_profiles(G)
    with pytest.raises(RankDeficient):
        check_minimal(G)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimality_matches_strong_blocking(rg43, seed):
    # random spanning column sets in PG(2,16): the strong scan's verdict
    # must agree with comparing every pair of supports
    space = ProjectiveSpace(rg43.geom_field, 2)
    rng = np.random.default_rng(seed)
    idx = rng.choice(space.num_points, 40, replace=False)
    S = PointSet(space, [space.point_at(int(i)) for i in idx])
    if space.rank(S.points) < 3:
        pytest.skip("sampled columns do not span")
    G = generator_from_points(S)
    minimal = all_pairs_minimality(G)[0] == "minimal"
    strong = verify_strong_blocking(S).status == "strong"
    assert minimal == strong


def test_row_transform_invariance(code45, gf8):
    # G -> M G for invertible M permutes the codeword classes only
    rng = np.random.default_rng(33)
    space = code45.message_space()
    while True:
        M = rng.integers(0, gf8.order, (4, 4))
        if space.rank([tuple(int(c) for c in row) for row in M]) == 4:
            break
    entries = np.zeros_like(code45.entries)
    for i in range(4):
        acc = np.zeros(code45.n, dtype=np.int64)
        for j in range(4):
            acc = gf8.add_vec(acc, gf8.mul_vec(code45.entries[j], int(M[i, j])))
        entries[i] = acc
    G2 = generator_from_points(PointSet(space, list(code45.entries.T)))
    G2.entries = entries  # same columns transformed in place
    s1, s2 = (sorted(map(tuple, np.unique(supports(G), axis=0)))
              for G in (code45, G2))
    assert s1 == s2
    assert (weight_distribution(support_profiles(code45).weights)
            == weight_distribution(support_profiles(G2).weights))
    assert check_minimal(G2).status == "minimal"


def test_budget(code45, monkeypatch):
    monkeypatch.setattr("strongblock.geometry.SCAN_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        support_profiles(code45)
    with pytest.raises(BudgetExceeded):
        check_minimal(code45)


@pytest.mark.parametrize("format", ["json", "text"])
def test_export_import_roundtrip(code45, tmp_path, format):
    path = tmp_path / ("code." + ("json" if format == "json" else "txt"))
    export_code(code45, path)
    back = import_code(path)
    assert back == code45
    assert back.field.meta() == code45.field.meta()


@pytest.mark.parametrize("format", ["json", "text"])
def test_import_rejects_ragged_rows(code45, tmp_path, format):
    path = tmp_path / ("code." + ("json" if format == "json" else "txt"))
    export_code(code45, path)
    # drop the last entry of the first row
    if format == "json":
        doc = json.loads(path.read_text())
        doc["entries"][0].pop()
        path.write_text(json.dumps(doc))
    else:
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0]
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="%s: every code row needs n = 45"
                       % re.escape(str(path))):
        import_code(path)
