"""Field arithmetic tests.

The independent oracle is a from-scratch polynomial-arithmetic model of
GF(p^m): elements are coefficient tuples reduced modulo the same modulus,
with no exponent tables involved.  Table-driven results must agree with it.
"""

import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongblock.errors import (
    FieldTooLarge,
    NonPrimeP,
    NonPrimitiveModulus,
    NotADivisor,
    ReducibleModulus,
)
from strongblock import field as field_mod
from strongblock.field import Field, factor
from strongblock.partition import build_rgroup
from strongblock.search import find_independent_tuple
from strongblock.strong import union_subgeometries


class PolyModel:
    """Coefficient-tuple arithmetic in GF(p)[x] / (modulus)."""

    def __init__(self, p, modulus):
        self.p = p
        self.m = len(modulus) - 1
        self.modulus = modulus

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        res = [0] * (2 * self.m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % self.p
        for deg in range(len(res) - 1, self.m - 1, -1):
            lead = res[deg]
            if lead:
                res[deg] = 0
                for j in range(self.m + 1):
                    res[deg - self.m + j] = (res[deg - self.m + j]
                                             - lead * self.modulus[j]) % self.p
        return tuple(res[:self.m])

    def pack(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))


def model_for(field):
    return PolyModel(field.p, field.modulus)


def code_to_coeffs(field, code):
    return tuple(int(d) for d in field.digits(np.array([code]))[0])


# ---------------------------------------------------------------------------
# construction


def test_default_modulus_gf8(gf8):
    # smallest primitive cubic over GF(2) is x^3 + x + 1
    assert gf8.modulus == (1, 1, 0, 1)
    assert gf8.order == 8


def test_default_modulus_gf4096(gf4096):
    assert gf4096.modulus == (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)


def assert_same_field(f, g):
    assert f.meta() == g.meta()
    for name in ("exp", "log", "zech"):
        assert np.array_equal(getattr(f, name), getattr(g, name)), name


def test_each_build_is_a_new_field():
    # nothing is cached: two requests give two equal fields
    f, g = Field.build(3, 12), Field.build(3, 12)
    assert f is not g
    assert_same_field(f, g)


@pytest.mark.parametrize("p,m", [(3, 12), (5, 3)])
def test_default_and_explicit_modulus_share_one_field(p, m):
    f = Field.build(p, m)
    assert_same_field(Field.build(p, m, f.modulus), f)


def test_exp_table_matches_polynomial_model(gf8, gf9):
    for field in (gf8, gf9):
        model = model_for(field)
        x = tuple([0, 1] + [0] * (field.m - 2))
        acc = tuple([1] + [0] * (field.m - 1))
        for i in range(field.group_order):
            assert int(field.exp[i]) == model.pack(acc)
            acc = model.mul(acc, x)
        assert acc == tuple([1] + [0] * (field.m - 1))  # g has full order


def test_generator_order_gf4096(gf4096):
    # 4095 = 3^2 * 5 * 7 * 13; g^(4095/ell) != 1 certifies primitivity,
    # the powers taken in the polynomial model
    model = model_for(gf4096)
    g = code_to_coeffs(gf4096, gf4096.from_exp(1))
    one = code_to_coeffs(gf4096, gf4096.one)
    for d in (1365, 819, 585, 315):
        assert model_pow(model, g, d) != one
    assert model_pow(model, g, 4095) == one


def test_nonprime_p_rejected():
    # 2^25 - 1 = 31 * 601 * 1801 lies just under the order cap
    for p, m in ((4, 2), (0, 1), (1, 1), (9, 1), (2 ** 25 - 1, 1)):
        with pytest.raises(NonPrimeP, match="p = %d is not prime" % p):
            Field.build(p, m)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        Field.build(2, 2, (1, 0, 1))


def test_irreducible_but_imprimitive_modulus_rejected():
    # x^4+x^3+x^2+x+1 divides x^5-1, so x has order 5 < 15
    with pytest.raises(NonPrimitiveModulus):
        Field.build(2, 4, (1, 1, 1, 1, 1))


def test_order_cap():
    with pytest.raises(FieldTooLarge):
        Field.build(2, 26)
    # a characteristic past the cap fails the order check, prime or not
    for p in (2 ** 31 - 1, 2 ** 40):
        with pytest.raises(FieldTooLarge):
            Field.build(p, 1)


def test_huge_degree_refused_before_the_power():
    # p^m for m = 10^8 took 0.6 s at p = 2 and did not finish at p = 3
    for p in (2, 3):
        t0 = time.perf_counter()
        with pytest.raises(FieldTooLarge, match="GF\\(%d\\^100000000\\)" % p):
            Field.build(p, 10 ** 8)
        assert time.perf_counter() - t0 < 0.1


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 10 ** 5 + 1):
        assert factor(n) == sympy.factorint(n), n
    near = range(2 ** 25 - 60, 2 ** 25 + 60)
    assert any(sympy.isprime(n) for n in near)
    for n in near:
        assert factor(n) == sympy.factorint(n), n
    assert factor(1) == {}
    for n in (0, -7):
        with pytest.raises(ValueError):
            factor(n)


# ---------------------------------------------------------------------------
# scalar arithmetic against the polynomial model


@pytest.mark.parametrize("params", [(2, 3), (3, 2), (2, 4), (5, 2), (7, 1)])
def test_add_mul_exhaustive_against_model(params):
    p, m = params
    field = Field.build(p, m)
    model = model_for(field)
    coeffs = [code_to_coeffs(field, c) for c in range(field.order)]
    for a in range(field.order):
        for b in range(field.order):
            s = field.add(a, b)
            assert coeffs[s] == model.add(coeffs[a], coeffs[b])
            t = field.mul(a, b)
            assert coeffs[t] == model.mul(coeffs[a], coeffs[b])


def test_add_example_gf8(gf8):
    # g + g^2 = g^4 under x^3 + x + 1
    assert gf8.add(gf8.from_exp(1), gf8.from_exp(2)) == gf8.from_exp(4)


def test_sampled_add_against_model_gf4096(gf4096):
    model = model_for(gf4096)
    rng = np.random.default_rng(7)
    a = rng.integers(0, gf4096.order, 2000)
    b = rng.integers(0, gf4096.order, 2000)
    s = gf4096.add_vec(a, b)
    for x, y, z in zip(a, b, s):
        expect = model.add(code_to_coeffs(gf4096, int(x)),
                           code_to_coeffs(gf4096, int(y)))
        assert code_to_coeffs(gf4096, int(z)) == expect


def test_inverse_and_negation(gf9):
    for a in range(1, gf9.order):
        assert gf9.mul(a, int(gf9.inv_vec(a))) == gf9.one
        assert gf9.add(a, gf9.neg(a)) == gf9.zero
        assert gf9.sub(a, a) == gf9.zero
    with pytest.raises(ZeroDivisionError):
        gf9.inv_vec(0)


def model_pow(model, a, e):
    acc = (1,) + (0,) * (model.m - 1)
    while e:
        if e & 1:
            acc = model.mul(acc, a)
        a = model.mul(a, a)
        e >>= 1
    return acc


def test_scalar_add_keeps_pow_exact():
    # the int32 Zech table must not leak an int32 scalar out of `add`:
    # the exponent product (a - 1) * e would wrap for e near the group order
    f = Field.build(3, 12)
    model = model_for(f)
    rng = np.random.default_rng(13)
    for a, b in rng.integers(1, f.order, (8, 2)).tolist():
        c = f.add(a, b)
        assert type(c) is int
        for e in (f.group_order - 1, f.group_order - 2, f.group_order + 5):
            got = f.from_exp((f.add(a, b) - 1) * e)
            assert got == (c - 1) * e % f.group_order + 1
            assert code_to_coeffs(f, got) == model_pow(
                model, code_to_coeffs(f, c), e)


# ---------------------------------------------------------------------------
# vectorized arithmetic agrees with scalar


@pytest.mark.parametrize("kernel", ["vec", "zech"])
@pytest.mark.parametrize("name", ["gf9", "gf4096"])
def test_vector_ops_match_scalar(request, name, kernel):
    # "vec" is the public entry point (the dense tables of GF(9), Zech for
    # GF(4096)); "zech" runs the Zech kernels on both fields
    f = request.getfixturevalue(name)
    add, mul = ((f.add_vec, f.mul_vec) if kernel == "vec"
                else (f._zech_add, f._zech_mul))
    rng = np.random.default_rng(3)
    a = rng.integers(0, f.order, 500)
    b = rng.integers(0, f.order, 500)
    a[:20], b[10:30] = 0, 0  # every zero case: 0+0, 0+b, a+0
    sums = add(a, b)
    prods = mul(a, b)
    neg = f.neg_vec(a)
    for i in range(500):
        assert int(sums[i]) == f.add(int(a[i]), int(b[i]))
        assert int(prods[i]) == f.mul(int(a[i]), int(b[i]))
        assert int(neg[i]) == f.neg(int(a[i]))
    # broadcast shapes, as dot_block and rank_stack pass them
    assert np.array_equal(add(a[:, None], b[None, :7]),
                          f.add_vec(a[:, None], b[None, :7]))
    assert np.array_equal(mul(a[:, None], b[None, :7]),
                          f.mul_vec(a[:, None], b[None, :7]))
    nz = a[a != 0]
    inv = f.inv_vec(nz)
    assert np.all(mul(nz, inv) == f.one)
    with pytest.raises(ZeroDivisionError):
        f.inv_vec(np.array([0, 1]))


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (3, 3), (2, 6), (5, 3),
                                 (7, 3), (2, 9)])
def test_dense_tables_match_zech(p, m):
    f = Field.build(p, m)
    assert f.order ** 2 <= field_mod.DENSE_CELLS
    a, b = np.indices((f.order, f.order))
    assert f.add_tab.shape == f.mul_tab.shape == (f.order, f.order)
    assert f.add_tab.dtype == f.mul_tab.dtype == np.int64
    assert np.array_equal(f.add_tab, f._zech_add(a, b))
    assert np.array_equal(f.mul_tab, f._zech_mul(a, b))
    assert np.array_equal(f.add_vec(a, b), f._zech_add(a, b))
    assert np.array_equal(f.mul_vec(a, b), f._zech_mul(a, b))


def test_dense_tables_stop_at_gf512():
    assert Field.build(2, 9).add_tab is not None
    big = Field.build(2, 10)
    assert big.order ** 2 > field_mod.DENSE_CELLS
    assert big.add_tab is None and big.mul_tab is None


def test_field_tables_are_read_only(gf9, gf4096):
    tables = [gf9.exp, gf9.log, gf9.zech, gf9.add_tab, gf9.mul_tab,
              gf4096.exp, gf4096.log, gf4096.zech]
    for table in tables:
        with pytest.raises(ValueError):
            table[..., 0] = 1


# ---------------------------------------------------------------------------
# table build: the block-doubling builders against the per-element loops


def loop_tables_char2(poly, m):
    """exp/log/zech of GF(2^m), one multiplication by x per element."""
    poly_int = sum(c << i for i, c in enumerate(poly))
    order = 1 << m
    exp = np.empty(order - 1, dtype=np.int32)
    x = 1
    for i in range(order - 1):
        exp[i] = x
        x <<= 1
        if x & order:
            x ^= poly_int
    log = np.full(order, -1, dtype=np.int32)
    log[exp] = np.arange(order - 1)
    return exp, log, log[exp ^ 1]


def loop_tables_odd(poly, p, m):
    """exp/log/zech of GF(p^m), p odd, one multiplication by x per element."""
    order = p ** m
    exp = np.empty(order - 1, dtype=np.int32)
    coeffs = [1] + [0] * (m - 1)
    pw = [p ** i for i in range(m)]
    for i in range(order - 1):
        exp[i] = sum(c * w for c, w in zip(coeffs, pw))
        lead = coeffs[m - 1]
        coeffs = [0] + coeffs[:-1]
        if lead:
            for j in range(m):
                coeffs[j] = (coeffs[j] - lead * poly[j]) % p
    log = np.full(order, -1, dtype=np.int32)
    log[exp] = np.arange(order - 1)
    c0 = exp % p
    return exp, log, log[exp - c0 + (c0 + 1) % p]


def assert_tables_match_loop(p, m):
    # the builder's exp, the zech that a field gathers through a transient
    # log on its first read, and the log that it scatters from exp
    poly = field_mod._smallest_primitive_poly(p, m)
    exp, log, zech = (loop_tables_char2(poly, m) if p == 2
                      else loop_tables_odd(poly, p, m))
    f = Field.build(p, m)
    got = (f.exp, f.zech, f.log)
    for a, b in zip(got, (exp, zech, log)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("p,m", [(2, m) for m in range(1, 21)]
                         + [(3, m) for m in range(1, 11)]
                         + [(5, m) for m in range(1, 5)]
                         + [(7, m) for m in range(1, 4)]
                         + [(65521, 1), (509, 2)])
def test_doubling_tables_match_loop(p, m):
    assert_tables_match_loop(p, m)


def times_x_packed(v, poly, p, m):
    """x * v mod poly on an array of packed values, digit by digit."""
    digits = [v // p ** i % p for i in range(m)]
    lead = digits[-1]
    shifted = [np.zeros_like(lead)] + digits[:-1]
    return sum((d - lead * a) % p * p ** i
               for i, (d, a) in enumerate(zip(shifted, poly)))


@pytest.mark.parametrize("p,m", [(3, 12), (2, 12), (2, 20), (5, 8), (7, 6),
                                 (65521, 1), (509, 2)])
def test_tables_at_workload_sizes(p, m):
    # the fields the workloads and the coset quotient build: exp is the
    # power sequence of x (blockwise step oracle) and a permutation, log
    # inverts it and zech is the log of 1 + g^i; all read-only int32
    f = Field.build(p, m)
    exp, log, zech = f.exp, f.log, f.zech
    for table in (exp, log, zech):
        assert table.dtype == np.int32 and not table.flags.writeable
    assert exp[0] == 1
    nxt = np.roll(exp, -1)  # x * g^(order-2) = g^0
    for lo in range(0, exp.size, 1 << 16):
        v = exp[lo:lo + (1 << 16)].astype(np.int64)
        assert np.array_equal(times_x_packed(v, f.modulus, p, m),
                              nxt[lo:lo + (1 << 16)])
    assert np.array_equal(np.bincount(exp, minlength=f.order),
                          np.r_[0, np.ones(f.group_order, dtype=np.int64)])
    assert log[0] == -1
    assert np.array_equal(log[exp], np.arange(f.group_order))
    c0 = exp % p
    plus_one = exp - c0 + (c0 + 1) % p
    assert np.array_equal(zech, log[plus_one])
    assert np.count_nonzero(zech < 0) == 1


def test_table_build_peak_memory():
    # `Field.build` builds no order-size table; the first read of exp holds
    # exp plus block-sized temporaries: MARK_BATCH = 2^14 cells hold at
    # most 128 KiB of int64 apiece
    f = Field.build(3, 12)
    assert "exp" not in vars(f)
    tracemalloc.start()
    try:
        exp = f.exp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exp.nbytes == 4 * (3 ** 12 - 1)
    assert peak < exp.nbytes + (3 << 18)


def test_pipeline_leaves_the_big_log_unbuilt():
    # the search, the union and its coordinates read progressions of R*
    # and the subfield's log, never the exp, log or zech of GF(q^12)
    for q in (3, 4):
        rg = build_rgroup(q, 4)
        res = find_independent_tuple(rg, 3, strategy="random", seed=1)
        union_subgeometries(rg, res.alphas)
        assert not {"exp", "log", "zech"} & set(vars(rg.field)), q
    f = build_rgroup(3, 4).field
    log = f.log
    assert log.dtype == np.int32 and not log.flags.writeable
    assert log[0] == -1
    assert np.array_equal(log[f.exp], np.arange(f.group_order))
    assert f.log is log


def test_field_holds_only_its_tables():
    # the kernel of `powers` and `mul_packed` keeps nothing between calls:
    # past what `__init__` sets, a field holds only its lazy tables
    params = {"p", "m", "order", "group_order", "modulus", "add_tab",
              "mul_tab", "zero", "one", "neg_one"}
    for p in (3, 2):
        f = Field.build(p, 12)
        for count in (1040, 4096):
            f.powers(5, count)
        for y in (2, 7):
            f.mul_packed(f.powers(1, 100), y)
        assert f.exp.size == f.log.size - 1 == f.zech.size
        assert set(vars(f)) <= params | {"exp", "log", "zech", "_square_rows"}


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (65521, 1), (2, 12),
                                 (3, 12), (5, 6)])
def test_squared_powers_match_exp(p, m):
    # the evaluation `Field.exp_at` makes without exp equals the gather
    # from exp: at every exponent, or past 2^16 at both ends and a seeded
    # sample
    f = Field.build(p, m)
    n = f.group_order
    e = (np.arange(n) if n <= 1 << 16 else np.r_[
        0, 1, n - 1, np.random.default_rng(m).integers(0, n, 1 << 14)])
    assert np.array_equal(f._squared_powers(e), f.exp.take(e))


@pytest.mark.parametrize("block", [1, 7])
def test_doubling_tables_with_small_blocks(monkeypatch, block):
    # steps of one cell, and blocks that split every doubling step; the
    # chunk tables shrink with MARK_BATCH, to one digit at block 1
    monkeypatch.setattr(field_mod, "MARK_BATCH", block)
    for p, m in ((2, 9), (3, 5), (5, 3)):
        assert_tables_match_loop(p, m)


def test_odd_tables_refuse_digit_overflow():
    # the same p, m and modulus through Field.build: an order past
    # DEFAULT_ORDER_CAP, whose codes would not fit int32, is refused before
    # the modulus is checked or any table is allocated
    with pytest.raises(FieldTooLarge):
        Field.build(94906297, 1, (1, 1))


# ---------------------------------------------------------------------------
# default modulus search


def unfiltered_smallest_primitive_poly(p, m):
    """Reference search: the power test of `_is_primitive` on every monic
    candidate with a nonzero constant term, in packed order."""
    for packed in range(p ** m):
        coeffs = []
        v = packed
        for _ in range(m):
            v, rem = divmod(v, p)
            coeffs.append(rem)
        mod = tuple(coeffs) + (1,)
        if mod[0] and field_mod._is_primitive(mod, p):
            return mod
    raise AssertionError("no primitive polynomial found")


def small_fields(bound):
    return [(p, m) for p in range(2, bound + 1) if factor(p) == {p: 1}
            for m in range(1, bound.bit_length()) if p ** m <= bound]


def test_filtered_modulus_search_matches_unfiltered():
    cases = small_fields(1 << 14) + [(3, 12), (2, 18), (2, 24), (5, 8),
                                     (3, 9)]
    for p, m in cases:
        assert field_mod._smallest_primitive_poly(p, m) == \
            unfiltered_smallest_primitive_poly(p, m), (p, m)


def rgroup_fields():
    """Every (p, h k (k-1)) that `build_rgroup(q, k)` builds, q = p^h and
    k >= 3, under the order cap: q^(k (k-1)) <= DEFAULT_ORDER_CAP."""
    cap = field_mod.DEFAULT_ORDER_CAP
    pairs = set()
    for q in range(2, field_mod.iroot(cap, 6) + 1):
        if len(factor(q)) > 1:
            continue
        (p, h), = factor(q).items()
        k = 3
        while q ** (k * (k - 1)) <= cap:
            pairs.add((p, h * k * (k - 1)))
            k += 1
    return pairs


def test_default_moduli_are_the_smallest_primitive():
    assert set(field_mod.DEFAULT_MODULI) == rgroup_fields()
    assert len(field_mod.DEFAULT_MODULI) == 12
    for (p, m), mod in field_mod.DEFAULT_MODULI.items():
        assert mod == field_mod._smallest_primitive_poly(p, m), (p, m)


def test_default_modulus_is_certified_not_searched(monkeypatch):
    monkeypatch.setattr(field_mod, "_smallest_primitive_poly", None)
    checked = []
    is_primitive = field_mod._is_primitive
    monkeypatch.setattr(field_mod, "_is_primitive", lambda mod, p: (
        checked.append(mod) or is_primitive(mod, p)))
    assert Field.build(3, 6).modulus == field_mod.DEFAULT_MODULI[3, 6]
    assert checked == [field_mod.DEFAULT_MODULI[3, 6]]
    # x^6 + x^3 + 1 is irreducible over GF(2) but x has order 9
    monkeypatch.setitem(field_mod.DEFAULT_MODULI, (2, 6),
                        (1, 0, 0, 1, 0, 0, 1))
    with pytest.raises(AssertionError, match="not primitive"):
        Field.build(2, 6)


def test_modulus_filters_reject_only_imprimitive_candidates():
    # every monic candidate: one whose (-1)^m f(0) is not a generator of
    # GF(p)*, or (for m > 1) with a root in GF(p), is never primitive
    seen = set()
    for p, m in [(2, 6), (3, 4), (5, 3), (7, 2), (13, 2), (11, 1)]:
        units = set(range(1, p))
        for packed in range(p ** m):
            mod = tuple(packed // p ** i % p for i in range(m)) + (1,)
            norm = (-1) ** m * mod[0] % p
            generator = norm and {pow(norm, e, p) for e in range(p)} >= units
            root = m > 1 and any(
                sum(c * x ** i for i, c in enumerate(mod)) % p == 0
                for x in range(p))
            if not generator:
                seen.add("norm")
                assert not field_mod._is_primitive(mod, p), (p, mod)
            if root:
                seen.add("root")
                assert not field_mod._is_primitive(mod, p), (p, mod)
            if generator and not root and field_mod._is_primitive(mod, p):
                seen.add("primitive")
    assert seen == {"norm", "root", "primitive"}


# ---------------------------------------------------------------------------
# structural properties


@pytest.mark.parametrize("params", [(2, 8), (2, 16), (3, 6), (5, 4)])
def test_zech_bijection(params):
    p, m = params
    field = Field.build(p, m)
    z = field.zech
    # 1 + g^i sweeps every element except 1, so the non-sentinel values are
    # exactly the exponents 1..order-2, and -1 appears exactly once
    assert np.count_nonzero(z < 0) == 1
    vals = np.sort(z[z >= 0])
    assert np.array_equal(vals, np.arange(1, field.group_order))


@pytest.mark.parametrize("params", [(2, 8), (2, 16), (3, 6), (7, 4)])
def test_frobenius_fixes_exactly_prime_field(params):
    p, m = params
    field = Field.build(p, m)
    codes = np.arange(field.order, dtype=np.int64)
    exps = codes[1:] - 1
    fixed = (exps * p) % field.group_order == exps
    stride = field.group_order // (p - 1)
    expect = exps % stride == 0
    assert np.array_equal(fixed, expect)
    assert int(np.count_nonzero(fixed)) == p - 1


def test_log_exp_roundtrip(gf4096):
    for i in range(gf4096.group_order):
        assert gf4096.log[gf4096.exp[i]] == i


def test_elem_str_parse_roundtrip(gf8):
    for c in range(gf8.order):
        assert gf8.parse_elem(gf8.elem_str(c)) == c
    with pytest.raises(ValueError):
        gf8.parse_elem("x^2")


# ---------------------------------------------------------------------------
# subfields and coordinates


def test_subfield_strides(gf4096):
    assert gf4096.subfield_stride(1) == 4095
    assert gf4096.subfield_stride(2) == 1365
    assert gf4096.subfield_stride(3) == 585
    assert gf4096.subfield_stride(4) == 273
    assert gf4096.subfield_stride(6) == 65
    assert gf4096.subfield_stride(12) == 1
    with pytest.raises(NotADivisor):
        gf4096.subfield_stride(5)


def test_subfield_is_field_homomorphism(gf4096):
    cm = field_mod.CoordinateMap(gf4096, 4)
    sub = cm.sub
    assert sub.order == 16
    codes = np.arange(sub.order, dtype=np.int64)
    big = to_parent(cm, codes)
    for a in range(sub.order):
        for b in range(sub.order):
            s = sub.add(a, b)
            t = sub.mul(a, b)
            assert int(to_parent(cm, np.array([s]))[0]) == gf4096.add(
                int(big[a]), int(big[b]))
            assert int(to_parent(cm, np.array([t]))[0]) == gf4096.mul(
                int(big[a]), int(big[b]))


def test_row_reduce_mod_p_is_the_reduced_echelon_form():
    # sparse random matrices mod p, so zero rows and columns occur; the
    # row space is enumerated as every combination of the rows
    rng = np.random.default_rng(29)
    for p in (2, 3, 5):
        for shape in [(0, 3), (3, 0), (1, 4), (3, 3), (4, 2), (2, 5)]:
            for _ in range(10):
                a = rng.integers(0, p, shape) * (rng.random(shape) < 0.6)
                reduced, pivots = field_mod.row_reduce_mod_p(a, p)
                n = len(pivots)
                assert reduced.shape == a.shape and not reduced[n:].any()
                assert pivots == sorted(set(pivots))
                assert np.array_equal(reduced[:n, pivots],
                                      np.eye(n, dtype=np.int64))
                for i, col in enumerate(pivots):
                    assert not reduced[i, :col].any()

                def span(rows):
                    return {tuple(np.dot(c, rows) % p) for c in
                            itertools.product(range(p), repeat=len(rows))}
                assert span(a) == span(reduced[:n])


def to_parent(cm, codes):
    """Big-field codes of subfield codes: subfield exponent j is parent
    exponent j * stride."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.where(codes == 0, 0, cm.parent.from_exp((codes - 1) * cm.stride))


def recompose(cm, coords):
    """The big-field codes of subfield coordinates, sum_i c_i basis_i added
    through the parent's Zech kernels: the round-trip oracle of
    `CoordinateMap.coords`."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    big = to_parent(cm, coords)
    acc = np.zeros(coords.shape[0], dtype=np.int64)
    for i, b in enumerate(cm.basis):
        acc = cm.parent.add_vec(acc, cm.parent.mul_vec(big[:, i], b))
    return acc


def coords_of_codes(cm, codes):
    f = cm.parent
    return cm.coords(f.digits(codes) @ f.p ** np.arange(f.m))


def test_coords_roundtrip_and_bijection(gf4096):
    cm = field_mod.CoordinateMap(gf4096, 4)
    codes = np.arange(gf4096.order, dtype=np.int64)
    coords = coords_of_codes(cm, codes)
    assert coords.shape == (4096, 3)
    assert np.array_equal(recompose(cm, coords), codes)
    packed = coords @ np.array([16 ** 2, 16, 1])
    assert len(np.unique(packed)) == 4096


def test_coords_of_basis_elements(gf4096):
    cm = field_mod.CoordinateMap(gf4096, 4)
    sub_one = cm.sub.one
    for i, b in enumerate(cm.basis):
        row = coords_of_codes(cm, np.array([b]))[0]
        expect = [0, 0, 0]
        expect[i] = sub_one
        assert list(row) == expect
    assert list(cm.coords(np.array([0]))[0]) == [0, 0, 0]


def test_coords_linear_over_subfield(gf4096):
    cm = field_mod.CoordinateMap(gf4096, 4)
    rng = np.random.default_rng(11)
    a = rng.integers(0, gf4096.order, 200)
    b = rng.integers(0, gf4096.order, 200)
    lam = rng.integers(1, cm.sub.order, 200)
    # additivity
    lhs = coords_of_codes(cm, gf4096.add_vec(a, b))
    rhs = cm.sub.add_vec(coords_of_codes(cm, a), coords_of_codes(cm, b))
    assert np.array_equal(lhs, rhs)
    # scaling by subfield elements
    big_lam = to_parent(cm, lam)
    lhs = coords_of_codes(cm, gf4096.mul_vec(a, big_lam))
    rhs = cm.sub.mul_vec(coords_of_codes(cm, a), lam[:, None])
    assert np.array_equal(lhs, rhs)


def minimal_polynomial_by_conjugates(f, d):
    """Coefficients (low to high) of prod_t (x - gamma^(p^t)), t < d, the
    minimal polynomial of gamma = g^s, s = (p^m - 1)/(p^d - 1), expanded by
    scalar products in f itself."""
    gamma = f.from_exp(f.group_order // (f.p ** d - 1))
    poly, conj = [f.one], gamma
    for _ in range(d):
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] = f.add(new[i + 1], c)
            new[i] = f.add(new[i], f.mul(f.neg(conj), c))
        poly, conj = new, f.from_exp((conj - 1) * f.p)
    coeffs = [0 if c == 0 else int(f.exp[c - 1]) for c in poly]
    assert all(c < f.p for c in coeffs)  # every coefficient lies in GF(p)
    return tuple(coeffs)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 6), (2, 12), (2, 20),
                                 (3, 4), (3, 6), (3, 12), (5, 4), (7, 2),
                                 (13, 2), (4093, 1)])
def test_subfield_modulus_from_the_inverse(p, m):
    # the modulus read off gamma^d's coordinates against the expansion over
    # its conjugates, for every d | m, d = 1 and d = m included
    f = Field.build(p, m)
    for d in range(1, m + 1):
        if m % d:
            continue
        cm = field_mod.CoordinateMap(f, d)
        assert cm.stride == (p ** m - 1) // (p ** d - 1)
        assert cm.sub.modulus == minimal_polynomial_by_conjugates(f, d)
        if d == m:
            assert_same_field(cm.sub, f)


# ---------------------------------------------------------------------------
# hypothesis properties in GF(729)


GF729 = Field.build(3, 6)
codes729 = st.integers(min_value=0, max_value=GF729.order - 1)


@settings(max_examples=200, deadline=None)
@given(codes729, codes729, codes729)
def test_ring_axioms_gf729(a, b, c):
    f = GF729
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@settings(max_examples=100, deadline=None)
@given(codes729)
def test_identities_gf729(a):
    f = GF729
    assert f.add(a, f.zero) == a
    assert f.mul(a, f.one) == a
    assert f.mul(a, f.zero) == f.zero
