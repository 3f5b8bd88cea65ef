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
from strongblock import codes as codes_mod
from strongblock.codes import (
    GeneratorMatrix,
    SupportProfile,
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

from oracles import line_through, support_set

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
    G = generator_from_points(PointSet(
        space, [space.point_at(i) for i in range(space.num_points)]))
    assert (G.k, G.n) == (3, 73)
    prof = support_profiles(G)
    assert prof.class_count == 73
    assert np.all(prof.weights == 64)
    assert check_minimal(G, profile=prof).status == "minimal"


def test_support_profiles_against_direct_evaluation(code45):
    prof = support_profiles(code45)
    space = code45.message_space()
    rng = np.random.default_rng(21)
    cols = code45.entries.T
    for i in rng.integers(0, prof.class_count, 40):
        msg = np.asarray([space.point_at(int(i))], dtype=np.int64)
        vals = space.dot_block(msg, cols)[0]
        support = frozenset(np.flatnonzero(vals != 0).tolist())
        assert support_set(prof, int(i)) == support
        assert prof.weights[int(i)] == len(support)


def dot_block_profile(G):
    """Supports and weights from every message's dual form on every column."""
    space = G.message_space()
    msgs = canonical_points(space.n, space.field.order)
    nz = space.dot_block(msgs, G.entries.T) != 0
    words = (G.n + 63) // 64
    nz = np.concatenate(
        [nz, np.zeros((nz.shape[0], words * 64 - G.n), dtype=bool)], axis=1)
    supports = np.packbits(nz, axis=1, bitorder="little").view(np.uint64)
    return supports, nz.sum(axis=1)


def test_support_profiles_match_dot_block_oracle(code45, gf8):
    rng = np.random.default_rng(11)
    corpus = [code45]
    for p, m, k, n in [(2, 3, 3, 20), (2, 3, 3, 64), (2, 3, 3, 130),
                       (3, 2, 2, 12), (2, 1, 5, 40), (2, 2, 4, 70)]:
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
    for G in corpus:
        prof = support_profiles(G)
        supports, weights = dot_block_profile(G)
        assert np.array_equal(prof.supports, supports)
        assert np.array_equal(prof.weights, weights)


def test_weights_are_hyperplane_complements(code45, union45):
    # weight of class m equals n minus the size of the hyperplane section
    prof = support_profiles(code45)
    space = code45.message_space()
    mat = union45.matrix()
    duals = np.asarray([space.point_at(i) for i in range(prof.class_count)],
                       dtype=np.int64)
    on_hyperplane = (space.dot_block(duals, mat) == 0).sum(axis=1)
    assert np.array_equal(prof.weights, code45.n - on_hyperplane)


@pytest.mark.parametrize("batch", [1 << 14, 8])
def test_popcounts_match_byte_table(batch, monkeypatch):
    # the shift-and-mask counts of whole words against a table of the set
    # bits of each byte value: zero words, all-ones words, bit 63 alone
    # and random words, in blocks of 2^14 bytes or of one row
    monkeypatch.setattr("strongblock.geometry.MARK_BATCH", batch)
    ones = np.array([bin(b).count("1") for b in range(256)])
    rng = np.random.default_rng(7)
    for words in (1, 2, 5):
        S = rng.integers(0, 2 ** 64, (3000, words), dtype=np.uint64)
        S[0], S[1], S[2] = 0, ~np.uint64(0), np.uint64(1) << np.uint64(63)
        expect = ones[S.view(np.uint8)].sum(axis=1)
        assert expect[:3].tolist() == [0, 64 * words, words]
        for dtype in (np.int64, np.int32):
            got = codes_mod._popcounts(S, dtype)
            assert got.dtype == dtype
            assert np.array_equal(got, expect)


def test_weight_distribution_45(code45):
    dist = weight_distribution(code45)
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
    prof = support_profiles(G)
    verdict = check_minimal(G, profile=prof)
    assert verdict.status == "not-minimal"
    contained, container = verdict.witness
    ia, ib = space.point_index_vec(
        space.normalize_vec([contained, container]))
    assert ia != ib
    assert support_set(prof, ia) < support_set(prof, ib)


def all_pairs_minimality(G, prof):
    """Reference check: every class against the whole support matrix.

    Classes go in stable weight order; the first whose support sits inside
    another class's support is the witness, with its lowest-index container.
    """
    S = prof.supports
    order = np.argsort(prof.weights, kind="stable")
    space = G.message_space()
    for pos, a in enumerate(order):
        containers = np.all((S & S[a]) == S[a], axis=1)
        containers[a] = False
        hits = np.flatnonzero(containers)
        if hits.size:
            return ("not-minimal",
                    (space.point_at(int(a)), space.point_at(int(hits[0]))),
                    pos + 1)
    return "minimal", None, prof.class_count


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
    # PG(2,64) has 4161 classes, more than one step of the index build: the
    # three sides of a triangle (strong), then without one non-vertex point
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
        prof = support_profiles(G)
        v = check_minimal(G, profile=prof)
        assert (v.status, v.witness, v.classes_checked) == \
            all_pairs_minimality(G, prof)
        seen.add(v.status)
        if v.status == "not-minimal" and v.classes_checked > 1:
            seen.add("witness past the lightest class")
        if prof.weights.max() == G.n:
            seen.add("full-weight class")
        if len(np.unique(prof.supports, axis=0)) < prof.class_count:
            seen.add("equal supports")
        if len(PointSet(G.message_space(),
                        [tuple(c) for c in G.entries.T])) < G.n:
            seen.add("repeated column")
    assert seen == {"minimal", "not-minimal", "witness past the lightest class",
                    "full-weight class", "equal supports", "repeated column"}


def loop_contained(prof):
    """Reference containment bitset: the per-class loop that the batched
    `codes._contained` replaced, one zero-set lookup and one AND reduction
    of the zero-set index per class."""
    C, S = prof.class_count, prof.supports
    bits = np.unpackbits(S.view(np.uint8), axis=1, count=prof.n,
                         bitorder="little")
    vanish = np.packbits(bits.T == 0, axis=1, bitorder="little")
    contained = np.zeros((C + 7) // 8, dtype=np.uint8)
    for b in range(C):
        byte, bit = b >> 3, np.uint8(1 << (b & 7))
        zb = np.flatnonzero(vanish[:, byte] & bit)
        # an empty Z(b) reduces to all ones: b contains every class
        inside = np.bitwise_and.reduce(vanish[zb], axis=0)
        inside[byte] &= ~bit
        contained |= inside
    return contained


@pytest.fixture(scope="module")
def containment_codes(code45, gf8):
    """The codes the containment pass is checked on."""
    space = ProjectiveSpace(gf8, 3)
    line_plus_two = PointSet(space, line_through(space,
        (1, 0, 0, 0), (0, 1, 0, 0)) + [(0, 0, 1, 0), (0, 0, 0, 1)])
    # 500 random points of PG(2,64): 4161 classes, 4148 of them with more
    # than one zero, so the containers with one zero read the zero-set
    # index past its first build step
    plane = ProjectiveSpace(Field.build(2, 6), 2)
    picks = np.random.default_rng(64).choice(plane.num_points, 500,
                                             replace=False)
    random_plane = PointSet(plane, [plane.point_at(int(i)) for i in picks])
    return [code45, generator_from_points(line_plus_two),
            import_code(GOLDEN / "code_pair_pg3_8.json"),
            import_code(GOLDEN / "code_zero_column_pg2_8.json"),
            GeneratorMatrix(field=Field.build(2, 2), k=3, n=3,
                            entries=np.eye(3, dtype=np.int64)),
            generator_from_points(random_plane),
            # 13 classes; (1, 1, 0) and (1, 2, 0) share the support {0, 1}
            GeneratorMatrix(field=Field.build(3, 1), k=3, n=3,
                            entries=np.eye(3, dtype=np.int64))]


@pytest.mark.parametrize("batch", [None, 1])
def test_batched_containment_matches_per_class_loop(containment_codes,
                                                    monkeypatch, batch):
    # batch = 1: AND blocks of 16 bytes, so every class is its own block on
    # every code of more than 8 columns, and the weights and zero-set sizes
    # are counted one support row at a time
    if batch is not None:
        monkeypatch.setattr("strongblock.geometry.MARK_BATCH", batch)
    seen = set()
    for G in containment_codes:
        prof = support_profiles(G)
        assert np.array_equal(codes_mod._contained(prof), loop_contained(prof))
        got = check_minimal(G, profile=prof)
        with monkeypatch.context() as mp:
            mp.setattr(codes_mod, "_contained", loop_contained)
            want = check_minimal(G, profile=prof)
        assert (got.status, got.witness, got.classes_checked) == \
            (want.status, want.witness, want.classes_checked)
        seen.add(got.status)
        C, z = prof.class_count, G.n - prof.weights
        sizes, counts = np.unique(z, return_counts=True)
        # containers of size sizes[i] AND over ranks 0 .. larger[i] - 1,
        # and the first of them has rank larger[i]
        larger = C - np.cumsum(counts)
        _, first, copies = np.unique(prof.supports, axis=0, return_index=True,
                                     return_counts=True)
        if sizes[0] == 0:
            seen.add("empty zero set")
        if sizes.size >= 4:
            seen.add("several zero-set sizes")
        if np.any((copies > 1) & (z[first] > sizes[0])):
            seen.add("equal supports above a smaller zero set")
        if C % 8 and np.any(larger % 8):
            seen.add("own bit in the rounded prefix")
        if np.any((sizes > 0) & (larger > 8 * 512)):
            seen.add("index past one build step")
    assert seen == {"minimal", "not-minimal", "empty zero set",
                    "several zero-set sizes",
                    "equal supports above a smaller zero set",
                    "own bit in the rounded prefix",
                    "index past one build step"}


def lexsort_repeated_rows(S):
    """Reference equal-support flags: the rows sorted word by word by
    `np.lexsort`, and each pair of equal neighbours flagged."""
    by_row = np.lexsort(S.T)
    sorted_rows = S[by_row]
    same = np.all(sorted_rows[1:] == sorted_rows[:-1], axis=1)
    flagged = np.zeros(len(S), dtype=bool)
    flagged[by_row[1:][same]] = flagged[by_row[:-1][same]] = True
    return flagged


def test_repeated_rows_match_lexsort(containment_codes):
    rng = np.random.default_rng(28)
    seen = set()
    for G in containment_codes:
        S = support_profiles(G).supports
        # forged: a third of the rows overwritten by copies of other rows,
        # then one word of another third copied from random rows, which
        # leaves rows that are equal in that word only
        copied = S.copy()
        copied[rng.choice(len(S), len(S) // 3)] = S[rng.choice(len(S),
                                                              len(S) // 3)]
        word = copied.copy()
        rows = rng.choice(len(S), len(S) // 3)
        w = rng.integers(S.shape[1])
        word[rows, w] = copied[rng.choice(len(S), rows.size), w]
        for supports in (S, copied, word):
            flagged = codes_mod._repeated_rows(supports)
            assert np.array_equal(flagged, lexsort_repeated_rows(supports))
            if flagged.any():
                seen.add("equal supports")
            if len(np.unique(supports[:, 0])) < len(np.unique(supports,
                                                              axis=0)):
                seen.add("rows equal in a word, unequal in another")
    assert seen == {"equal supports",
                    "rows equal in a word, unequal in another"}


def test_containment_reads_the_first_n_bits_only(code45):
    # a profile handed to check_minimal may set the bits past column n
    prof = support_profiles(code45)
    forged = SupportProfile(
        n=prof.n, class_count=prof.class_count, weights=prof.weights,
        supports=prof.supports | np.uint64(2 ** 64 - 2 ** prof.n))
    assert np.array_equal(codes_mod._contained(forged), loop_contained(prof))
    assert check_minimal(code45, profile=forged).status == "minimal"


# tracemalloc peaks on the [120,4]_27 pipeline code, as measured (run alone),
# plus 64 KiB for temporaries that move between numpy versions:
# support_profiles 630,768 bytes, of which the supports and the weights of
# the 20,440 classes hold 490,560, and check_minimal on the finished profile
# 678,823.  A (C, n) bool array of those classes and 120 columns is 2.45 MB
PROFILE_PEAK_BYTES = 630_768 + (64 << 10)
MINIMALITY_PEAK_BYTES = 678_823 + (64 << 10)
# support_profiles on the 255 columns of `random_pg3_64`, as measured: the
# supports and the weights of its 266,305 classes hold 10,652,200 bytes
Q4_PROFILE_PEAK_BYTES = 10_957_682 + (64 << 10)


def test_minimality_peak_memory(rg34):
    # the union of `pipeline --q 3 --seed 1006`
    union = union_subgeometries(
        rg34, [rg34.field.from_exp(e) for e in (506, 393, 389)])
    G = generator_from_points(union)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prof = support_profiles(G)
        profile_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        verdict = check_minimal(G, profile=prof)
        minimality_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (G.n, verdict.status) == (120, "minimal")
    assert profile_peak <= PROFILE_PEAK_BYTES
    assert minimality_peak <= MINIMALITY_PEAK_BYTES


def test_support_profiles_peak_memory_at_q4(random_pg3_64, monkeypatch):
    # PG(3,64) has 266,305 codeword classes, past the class budget
    monkeypatch.setattr(codes_mod, "DEFAULT_CLASS_BUDGET", 266_305)
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
    space = ProjectiveSpace(Field.build(2, 3), 2)
    G = codes.generator_from_points(PointSet(
        space, [space.point_at(i) for i in range(space.num_points)]))
    prof = codes.support_profiles(G)
    prof.supports[0] &= prof.supports[1]  # forged: class 0 inside class 1
    try:
        codes.check_minimal(G, profile=prof)
    except AssertionError as exc:
        print("witness raised:", exc)
    else:
        print("witness passed silently")
""")


def test_minimality_recheck_survives_python_O():
    # the simplex code is minimal, so the forged witness must be refused
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimality_matches_strong_blocking(rg43, seed):
    # random spanning column sets in PG(2,16): the two verdicts must agree
    space = ProjectiveSpace(rg43.geom_field, 2)
    rng = np.random.default_rng(seed)
    idx = rng.choice(space.num_points, 40, replace=False)
    S = PointSet(space, [space.point_at(int(i)) for i in idx])
    if space.rank(S.points) < 3:
        pytest.skip("sampled columns do not span")
    G = generator_from_points(S)
    minimal = check_minimal(G).status == "minimal"
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
    p1 = support_profiles(code45)
    p2 = support_profiles(G2)
    s1 = sorted(tuple(sorted(support_set(p1, i)))
                for i in range(p1.class_count))
    s2 = sorted(tuple(sorted(support_set(p2, i)))
                for i in range(p2.class_count))
    assert s1 == s2
    assert weight_distribution(code45) == weight_distribution(G2)


def test_budget(code45, monkeypatch):
    monkeypatch.setattr(codes_mod, "DEFAULT_CLASS_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        support_profiles(code45)


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
