"""Fault injection: every witness re-check reads no addition table and no
dense table, and the relation re-check no product of the coset-image
kernel.

Once a decision is made (for minimality, once the strong scan and the
search for the contained class return), scalar `Field.add` raises, the
field's Zech and dense addition tables are replaced by ones that make
every sum zero and its dense multiplication table by one that makes
every product zero; or,
for an R-relation, the kernel that multiplies R* into its cosets
(`field._times_g_to_the_b`) multiplies by one instead.  The re-checks of
true witnesses must still pass, since their incidences are the digit sums
of `ProjectiveSpace.section`, evaluated without that kernel, and the rank
of a not-strong section, or of two distinct messages, is the mod-p rank of
its GF(p) digits (`ProjectiveSpace.rank`).  Forged witnesses must still
raise, under python -O too, since the re-checks are explicit raises.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import strongblock

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

FAULT_SCRIPT = textwrap.dedent("""
    import copy
    import os
    import sys
    import numpy as np
    from strongblock import codes, search, strong
    from strongblock import field as field_mod
    from strongblock.field import Field
    from strongblock.geometry import PointSet, ProjectiveSpace, canonical_points
    from strongblock.partition import build_bset, build_rgroup

    real = (Field.add, search.free_cosets, strong.mark_lines_through,
            strong._short_by_counts, field_mod._times_g_to_the_b,
            ProjectiveSpace.section, codes._lowest_through)

    def broken_add(self, a, b):
        raise RuntimeError("scalar Field.add read by a re-check")

    def break_addition(f):
        # every sum and every dense product reads zero: a re-check that
        # reads these tables fails a true witness or passes a forged one
        Field.add = broken_add
        f.zech = np.full_like(f.zech, -1)
        if f.add_tab is not None:
            f.add_tab = np.zeros_like(f.add_tab)
        if f.mul_tab is not None:
            f.mul_tab = np.zeros_like(f.mul_tab)

    def breaking_after(owner, name, f):
        # owner.name ends a decision; addition breaks once it returns
        real = getattr(owner, name)

        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            break_addition(f)
            return out
        setattr(owner, name, call)

    def case(name, run):
        try:
            print(name + ":", run())
        except Exception as exc:
            print(name, "raised", type(exc).__name__ + ":", exc)
        finally:
            (Field.add, search.free_cosets, strong.mark_lines_through,
             strong._short_by_counts, field_mod._times_g_to_the_b,
             ProjectiveSpace.section, codes._lowest_through) = real

    def not_minimal(forge):
        # a line of PG(3, 8) and two points spanning the rest: plane 1,
        # (1, 0, 0, 1), holds the rank-2 section {(0, 1, 0, 0), (0, 0, 1, 0)},
        # and addition breaks once the strong scan and the search for the
        # contained class, plane 0, return
        space = ProjectiveSpace(Field.build(2, 3), 3)
        pts = [(1, c, 0, 0) for c in range(8)] + [(0, 1, 0, 0)]
        G = codes.generator_from_points(
            PointSet(space, pts + [(0, 0, 1, 0), (0, 0, 0, 1)]))
        if forge:  # plane 9, (1, 0, 1, 1), misses (0, 0, 1, 0)
            codes._lowest_through = lambda space, section, b: 9
        breaking_after(codes, "_lowest_through", G.field)
        return codes.check_minimal(G).status

    def relation(cosets, forge):
        # the decision adds its prefix sums by `add_packed`, which keeps
        # the true tables through a copy of the field taken before they
        # are broken, unless forged
        rg = build_rgroup(2, 4)
        rg.field.add_packed = forge or copy.copy(rg.field).add_packed
        break_addition(rg.field)
        alphas = tuple(rg.coset_rep(c) for c in cosets)
        return search.is_r_independent(alphas, rg).status

    def products_by_one(mat, p, count):
        return lambda v: v.astype(np.int32)

    def kernel_relation(cosets, forge):
        # the decision multiplies R* into its cosets by the kernel, which
        # multiplies by one once the re-check starts: a re-check that read
        # exp, which the big field does not hold, would build it so
        rg = build_rgroup(2, 4)
        if forge:
            rg.field.add_packed = forge
        section = ProjectiveSpace.section

        def breaking_section(self, points, dual):
            field_mod._times_g_to_the_b = products_by_one
            return section(self, points, dual)
        ProjectiveSpace.section = breaking_section
        alphas = tuple(rg.coset_rep(c) for c in cosets)
        return search.is_r_independent(alphas, rg).status

    def zero_sums(a, b):  # forged: every partial sum of a relation is 0
        return np.zeros(np.broadcast(a, b).shape, dtype=np.int64)

    def b42(forge):
        rg = build_rgroup(2, 4)
        if forge:  # every coset pair free: the witness (1, 1, 1) meets B
            search.free_cosets = lambda rg, m: np.ones(
                (rg.stride,) * (m - 1), dtype=bool)
        breaking_after(search, "free_cosets", rg.field)
        return search.blocking_status(build_bset(rg)).status

    def not_blocking(forge):
        space = ProjectiveSpace(Field.build(2, 2), 2)
        pts = [(1, 0, 0), (0, 1, 0)] if not forge else canonical_points(
            2, 4)
        if forge:  # no hyperplane marked: the first one looks missed
            strong.mark_lines_through = lambda space, mat: np.zeros(
                space.num_points, dtype=bool)
        breaking_after(strong, "mark_lines_through", space.field)
        return strong.verify_blocking(PointSet(space, pts)).status

    def not_strong(forge):
        # 28 points of PG(3, 8), decided by section counts: plane 19 holds
        # 3 collinear points
        S = PointSet.load(os.path.join(sys.argv[1], "collinear_pg3_8.json"))
        if forge:  # every plane short: plane 0, of full rank, comes first
            strong._short_by_counts = lambda space, mat: (
                np.ones(space.num_points, dtype=bool),
                np.full(space.num_points, len(mat)))
        breaking_after(strong, "_short_by_counts", S.space.field)
        v = strong.verify_strong_blocking(S)
        return v.status, v.witness, v.witness_rank

    print("optimize", sys.flags.optimize)
    case("not-minimal", lambda: not_minimal(False))
    case("dependent", lambda: relation((0, 1, 2), None))
    case("dependent, kernel", lambda: kernel_relation((0, 1, 2), None))
    case("B(4,2)", lambda: b42(False))
    case("not-blocking", lambda: not_blocking(False))
    case("not-strong", lambda: not_strong(False))
    case("forged not-minimal", lambda: not_minimal(True))
    case("forged dependent", lambda: relation((0, 1, 17), zero_sums))
    case("forged dependent, kernel",
         lambda: kernel_relation((0, 1, 17), zero_sums))
    case("forged B(4,2)", lambda: b42(True))
    case("forged not-blocking", lambda: not_blocking(True))
    case("forged not-strong", lambda: not_strong(True))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_rechecks_read_no_addition_table(flags):
    src = os.path.dirname(os.path.dirname(strongblock.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, *flags, "-c", FAULT_SCRIPT, GOLDEN],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [
        "optimize %d" % len(flags),
        "not-minimal: not-minimal",
        "dependent: dependent",
        "dependent, kernel: dependent",
        "B(4,2): not-blocking",
        "not-blocking: not-blocking",
        "not-strong: ('not-strong', (1, 0, 2, 3), 2)",
        "forged not-minimal raised AssertionError: "
        "minimality witness re-check failed",
        "forged dependent raised AssertionError: R-relation re-check failed",
        "forged dependent, kernel raised AssertionError: "
        "R-relation re-check failed",
        "forged B(4,2) raised AssertionError: witness line re-check failed",
        "forged not-blocking raised AssertionError: "
        "strong witness re-check failed",
        "forged not-strong raised AssertionError: "
        "strong witness re-check failed",
    ]
