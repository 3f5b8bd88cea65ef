"""Exact arithmetic in GF(p^m) using exponent representation and Zech logarithms.

Elements are integer codes: code 0 is the zero element, and code c in
[1, order-1] denotes g^(c-1) where g is the root of the (primitive) modulus.
With this encoding, multiplication is index addition and addition is a Zech
table lookup.  `Field.build` builds no order-size table (the order is
capped at DEFAULT_ORDER_CAP = 2^25, so every code fits int32): exp, log
and zech are built when something first reads them.  exp comes from one
stateless block-doubling builder for every p and m, `Field.powers`, made
of table gathers only, which packs any progression g^(step i);
`Field.mul_packed` applies its step once to multiply packed values by
one element.  log and zech come from exp: the scalar `add` and the Zech
kernels read zech.  A caller that only multiplies, names cosets and adds
packed digits holds none of them,
as the pipeline's GF(q^12) does not: it reads the cosets of R* as images
of R* (`partition.RGroup.coset_values`), and any other power through
`Field.exp_at`, by square-and-multiply.  The builder works MARK_BATCH =
2^14 cells at a time, and no lookup table of a doubling step holds more,
so each temporary holds at most 128 KiB of int64 and stays in cache:
MARK_BATCH is defined here, the bottom module, and `geometry` states the
working-set rule that every batched kernel keeps with it.  The
first read of exp of GF(3^12) peaks (tracemalloc) 0.61 MiB above the
table, at 2.63 MiB against the 4.68 MiB of building exp and zech, and
takes about 0.01-0.02 s; that of GF(2^24) 0.1-0.15 s.  A field with at
most DENSE_CELLS code pairs (every order up to 512, which covers the
PG(3, q^3) scans for q <= 8) also holds dense order x order addition and
multiplication tables, built once from the Zech kernels, so each
vectorized add or mul is one table gather, with no zero case and no
modular reduction; larger fields use the Zech kernels directly.  All
operations come in scalar and numpy-vectorized flavours; scalar results
are Python integers, vectorized ones int64 arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import (
    BudgetExceeded,
    FieldTooLarge,
    NonPrimeP,
    NonPrimitiveModulus,
    NotADivisor,
    ReducibleModulus,
)

DEFAULT_ORDER_CAP = 1 << 25
MARK_BATCH = 1 << 14  # values per temporary array of a batched kernel
DENSE_CELLS = 1 << 18  # largest order^2 with dense add/mul tables (GF(512))

# The smallest primitive modulus (as `_smallest_primitive_poly` returns it,
# low-to-high, monic) of every GF(p^(h k (k-1))) that `build_rgroup` builds
# under DEFAULT_ORDER_CAP, q = p^h and k >= 3; `Field.build` certifies the
# entry it takes with one `_is_primitive` call instead of the search.
DEFAULT_MODULI = {
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 6): (5, 1, 3, 0, 0, 0, 1),
    (2, 18): (1, 1, 1, 0, 0, 1) + (0,) * 12 + (1,),
    (3, 12): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (11, 6): (8, 2, 1, 0, 0, 0, 1),
    (13, 6): (2, 2, 1, 0, 0, 0, 1),
    (2, 24): (1, 1, 0, 1, 1) + (0,) * 19 + (1,),
    (17, 6): (12, 1, 0, 0, 0, 0, 1),
    (2, 20): (1, 0, 0, 1) + (0,) * 16 + (1,),
}


def factor(n):
    """Prime factorization {prime: exponent} of a positive integer.

    Trial division: the integers factored here are p, m and p^m - 1 under
    the order cap, all small; `is_prime` serves larger ones.  factor(1) is
    {}.
    """
    if n < 1:
        raise ValueError("can only factor a positive integer, not %r" % (n,))
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Miller-Rabin with these bases is exact below this bound (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n):
    """Deterministic primality of an integer below MR_EXACT_BELOW.

    Strong probable-prime tests to the first twelve prime bases; past the
    bound, where these bases are not proven, it raises BudgetExceeded.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_EXACT_BELOW:
        raise BudgetExceeded("cannot certify the primality of %d" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n, h):
    """The integer h-th root floor(n^(1/h)) of n >= 0, by Newton's method."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // h)  # at least the root
    while True:
        y = ((h - 1) * x + n // x ** (h - 1)) // h
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficients low-to-high as python tuples


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mulmod(a, b, mod, p):
    """(a*b) mod `mod` over GF(p); `mod` monic."""
    m = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    for deg in range(len(res) - 1, m - 1, -1):
        lead = res[deg]
        if lead:
            res[deg] = 0
            for j in range(m + 1):
                res[deg - m + j] = (res[deg - m + j] - lead * mod[j]) % p
    return _poly_trim(res[:m] + [0] * max(0, m - len(res)))


def _poly_powmod(a, e, mod, p):
    result = (1,)
    base = a
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                       for i in range(n)])


def _poly_mod(a, b, p):
    """Remainder of a divided by b over GF(p); b nonzero."""
    a = list(_poly_trim(a))
    b = _poly_trim(b)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        lead = a[-1]
        if lead:
            f = lead * inv_lead % p
            shift = len(a) - len(b)
            for j, cj in enumerate(b):
                a[shift + j] = (a[shift + j] - f * cj) % p
        a.pop()
    return _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(mod, p):
    """Rabin's test for a monic polynomial over GF(p)."""
    m = len(mod) - 1
    if m == 1:
        return True
    x = (0, 1)
    for ell in factor(m):
        h = _poly_powmod(x, p ** (m // ell), mod, p)
        if len(_poly_gcd(_poly_sub(h, x, p), mod, p)) > 1:
            return False
    h = _poly_powmod(x, p ** m, mod, p)
    return not _poly_sub(h, x, p)


def _is_primitive(mod, p):
    """True iff x generates the multiplicative group modulo the monic `mod`.

    A positive answer certifies irreducibility too: a reducible modulus has a
    unit group of order strictly below p^m - 1.
    """
    m = len(mod) - 1
    group = p ** m - 1
    x = (0, 1)
    if _poly_powmod(x, group, mod, p) != (1,):
        return False
    for ell in factor(group):
        if _poly_powmod(x, group // ell, mod, p) == (1,):
            return False
    return True


def _smallest_primitive_poly(p, m):
    """Monic primitive polynomial of degree m with the smallest packed value.

    Candidates are ordered by the base-p integer of their coefficient sequence
    (low-to-high digits), which makes the default modulus deterministic.  Two
    exact necessary conditions reject most candidates before the power test
    of `_is_primitive`, which still certifies the one returned.  The roots of
    a primitive f are conjugates of a generator g, so (-1)^m f(0), their
    product, is the norm g^((p^m-1)/(p-1)) and generates GF(p)*
    (Lidl-Niederreiter, Finite Fields, Thm 3.18).  And for m > 1, f is
    irreducible, so it has no root in GF(p): gcd(f, x^p - x) = 1.
    """
    cofactors = [(p - 1) // ell for ell in factor(p - 1)]
    sign = -1 if m % 2 else 1
    x = (0, 1)
    for packed in range(p ** m):
        mod = tuple(_digits_of(packed, p, m)) + (1,)
        norm = sign * mod[0] % p
        if norm == 0 or any(pow(norm, e, p) == 1 for e in cofactors):
            continue
        # x^p - x is the product of x - a over GF(p)
        if m > 1 and len(_poly_gcd(_poly_sub(
                _poly_powmod(x, p, mod, p), x, p), mod, p)) > 1:
            continue
        if _is_primitive(mod, p):
            return mod
    raise AssertionError("no primitive polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# table construction


def _ilog(n, base):
    """The largest e with base^e <= n."""
    e = 0
    while base ** (e + 1) <= n:
        e += 1
    return e


def _times_g_to_the_b(mat, p, count):
    """The map v -> v y on an int32 array of packed values of GF(p^m),
    m > 1, where row j of `mat` holds the digits of x^j y: y = h^B for a
    doubling step of `Field.powers`, or any one element for
    `Field.mul_packed`.

    The map is GF(p)-linear on the digits.  Split into c chunks of h
    digits, each chunk value has its image in a table of p^h entries, and
    a block costs c gathers.  A table holds at most MARK_BATCH entries,
    and past one digit at most max(64, count / 4) for the `count` values
    the map serves: a table entry costs more to build than a gather, and
    under 64 entries the number of chunks, not their size, sets the cost.
    So the 1,040 values of R* at q = 3 take 3 chunks of 81 entries, not 2
    of 729, which halves the cost of a coset image.  For p = 2 the
    packed images combine by XOR.  For odd p they are stored in base
    b = c(p-1)+1, where c digits below p add without carries, with one
    accumulator per group of w digits, b^w <= MARK_BATCH (or w = 1), so no
    sum leaves int32; a gather from one b^w-entry table reduces a group's
    digits mod p and repacks them in base p, times p^g for the group at
    digit g (`_odd_layout`).
    """
    m = len(mat)
    c = -(-m // max(1, _ilog(min(MARK_BATCH, max(64, count // 4)), p)))
    h = -(-m // c)  # chunks of (nearly) equal width
    chunks = [mat[t:t + h] for t in range(0, m, h)]
    if p == 2:  # a chunk table doubles with each bit: T[v + 2^j] = T[v] ^ I_j
        tables = []
        for rows in chunks:
            table = np.zeros(1, dtype=np.int32)
            for image in (rows @ (1 << np.arange(m))).tolist():
                table = np.concatenate([table, table ^ image])
            tables.append(table)
        mask = (1 << h) - 1

        def step(v):
            out = tables[0].take(v & mask)
            for t in range(1, c):
                out ^= tables[t].take(v >> t * h & mask)
            return out
        return step
    digits, base, w, reduce = _odd_layout(p, m, c, h)
    images = [digits[:p ** len(rows), :len(rows)] @ rows % p
              for rows in chunks]
    groups = range(0, m, w)
    tables = [[(img[:, g:g + w] @ base ** np.arange(min(w, m - g))
                ).astype(np.int32) for g in groups] for img in images]
    unit = p ** h

    def step(v):
        values = []  # chunk values, low to high
        for _ in range(c - 1):
            rest = v // unit
            values.append(v - rest * unit)
            v = rest
        values.append(v)
        out = None
        for i, g in enumerate(groups):
            acc = tables[0][i].take(values[0])
            for t in range(1, c):
                acc += tables[t][i].take(values[t])
            acc = reduce.take(acc)
            out = acc if out is None else out + acc * np.int32(p ** g)
        return out
    return step


def _odd_layout(p, m, c, h):
    """(digits, base, w, reduce) of c chunks of h digits, p odd: the
    digits of every chunk value, the carry-free base b = c(p-1)+1, the
    width w of the digit groups of one accumulator each, and the table
    that maps w base-b digits d to sum (d_i % p) p^i, which group g scales
    by p^g."""
    digits = np.arange(p ** h)[:, None] // p ** np.arange(h) % p
    base = c * (p - 1) + 1
    w = min(m, max(1, _ilog(MARK_BATCH, base)))
    digit = np.arange(base, dtype=np.int32) % p
    reduce = np.zeros(1, dtype=np.int32)
    for i in range(w):
        reduce = (digit[:, None] * p ** i + reduce).ravel()
    return digits, base, w, reduce


def _digits_of(v, p, m):
    """The m base-p digits, low to high, of a packed value or a trimmed
    coefficient tuple."""
    if isinstance(v, tuple):
        return list(v) + [0] * (m - len(v))
    return [v // p ** i % p for i in range(m)]


def _times_x(d, poly, p):
    """The digits of x y mod `poly` from the digits d of y."""
    lead = d[-1]
    return [(c - lead * a) % p for c, a in zip([0] + d[:-1], poly)]


def _times(poly, p, y, src, dst):
    """dst[:] = src y for packed values src of GF(p^m) and the m digits y
    of one element, MARK_BATCH values at a time: a product mod p for
    m = 1 (below 2^50), else the step of `_times_g_to_the_b` whose row j
    holds the digits of x^j y.  No temporary holds more than a block."""
    m = len(poly) - 1
    if m == 1:
        step = lambda v: v.astype(np.int64) * y[0] % p
    else:
        rows = []
        for _ in range(m):
            rows.append(y)
            y = _times_x(y, poly, p)
        step = _times_g_to_the_b(np.array(rows, dtype=np.int64), p,
                                 src.size)
    for lo in range(0, src.size, MARK_BATCH):
        dst[lo:lo + MARK_BATCH] = step(src[lo:lo + MARK_BATCH])


def _log_table(exp):
    """int32 log with log[exp[i]] = i and log[0] = -1, scattered
    MARK_BATCH entries at a time."""
    log = np.full(exp.size + 1, -1, dtype=np.int32)
    for lo in range(0, exp.size, MARK_BATCH):
        hi = min(lo + MARK_BATCH, exp.size)
        np.put(log, exp[lo:hi], np.arange(lo, hi, dtype=np.int32))
    return log


# ---------------------------------------------------------------------------


class Field:
    """Immutable handle for GF(p^m); safe for concurrent shared reads.

    It holds its build parameters and read-only tables, nothing else: the
    kernel of `powers` and `mul_packed` builds its chunk and reduction
    tables on each call.  For an order with order^2 <=
    DENSE_CELLS it holds the int64 `add_tab` and `mul_tab`, the codes of
    a + b and a * b at [a, b], built with the field (None for larger
    orders).  The int32 `exp` (exp[i] packs the digits of g^i in base p),
    `log` (log[exp[i]] = i, log[0] = -1) and `zech` (zech[i] = log[1 +
    g^i]) are built on their first read and kept, so a big field that
    only multiplies, names cosets and adds packed digits holds none of
    them: its readers take the progressions they need from `powers` and
    `mul_packed`, and `exp_at` evaluates any other power without a table.
    """

    def __init__(self, p, m, modulus):
        self.p = p
        self.m = m
        self.order = p ** m
        self.group_order = self.order - 1
        self.modulus = tuple(modulus)
        self.add_tab = self.mul_tab = None
        if self.order ** 2 <= DENSE_CELLS:
            codes = np.arange(self.order, dtype=np.int64)
            self.add_tab = self._zech_add(codes[:, None], codes[None, :])
            self.mul_tab = self._zech_mul(codes[:, None], codes[None, :])
            self.add_tab.flags.writeable = False
            self.mul_tab.flags.writeable = False
        self.zero = 0
        self.one = 1
        # exponent of -1 is (order-1)/2 in odd characteristic
        self.neg_one = 1 if p == 2 else self.group_order // 2 + 1

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(p, m, modulus=None):
        """A new GF(p^m) with a verified-primitive modulus.

        Defaults to the primitive polynomial with the smallest packed
        coefficient value, so identical parameters give equal fields:
        read from DEFAULT_MODULI and certified by one `_is_primitive` call
        for the fields `build_rgroup` builds, searched for otherwise.  An
        explicit modulus is checked for irreducibility and primitivity.
        Nothing is cached: each field builds its own tables, and a caller
        that shares a field holds it.  An order past DEFAULT_ORDER_CAP is
        refused with FieldTooLarge before anything is allocated.  No
        order-size table is built here: exp, log and zech wait for their
        first read.
        """
        # a p past the cap fails the order check below, prime or not
        if p <= DEFAULT_ORDER_CAP and not is_prime(p):
            raise NonPrimeP("p = %r is not prime" % (p,))
        if m < 1:
            raise ValueError("extension degree must be positive")
        if m > DEFAULT_ORDER_CAP.bit_length():  # p^m >= 2^m > the cap
            raise FieldTooLarge("GF(%d^%d) exceeds the order cap %d"
                                % (p, m, DEFAULT_ORDER_CAP))
        if p ** m > DEFAULT_ORDER_CAP:
            raise FieldTooLarge("order %d exceeds cap %d"
                                % (p ** m, DEFAULT_ORDER_CAP))
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not _is_irreducible(modulus, p):
                raise ReducibleModulus("modulus %r factors over GF(%d)"
                                       % (modulus, p))
            if not _is_primitive(modulus, p):
                raise NonPrimitiveModulus(
                    "modulus %r is irreducible but not primitive" % (modulus,))
        elif (p, m) in DEFAULT_MODULI:
            modulus = DEFAULT_MODULI[p, m]
            if not _is_primitive(modulus, p):
                raise AssertionError("default modulus %r of GF(%d^%d) is "
                                     "not primitive" % (modulus, p, m))
        else:
            modulus = _smallest_primitive_poly(p, m)
        return Field(p, m, modulus)

    @functools.cached_property
    def exp(self):
        """The read-only int32 exp, exp[i] packing the digits of g^i,
        built by block doubling on the first read (`powers`) and then
        kept, a few vectorized gathers per entry instead of one Python step
        per element.  Two first reads at once may each build it; the
        tables are equal."""
        exp = self.powers(1, self.group_order)
        exp.flags.writeable = False
        return exp

    @functools.cached_property
    def log(self):
        """The read-only int32 log, log[exp[i]] = i and log[0] = -1,
        scattered from exp on the first read (`_log_table`) and then kept.
        Two first reads at once may each build it; the tables are equal."""
        log = _log_table(self.exp)
        log.flags.writeable = False
        return log

    @functools.cached_property
    def zech(self):
        """The read-only int32 Zech table, zech[i] = log[1 + g^i], gathered
        MARK_BATCH cells at a time on the first read and then kept, the
        scalar `add` and the Zech kernels its readers.  It reads the log
        when that is built, else a transient one, so `zech` alone adds one
        order-size table to a field.  Two first reads at once may each
        build it; the tables are equal."""
        log = vars(self).get("log")
        if log is None:
            log = _log_table(self.exp)
        zech = np.empty_like(self.exp)
        for lo in range(0, zech.size, MARK_BATCH):
            zech[lo:lo + MARK_BATCH] = log.take(
                self.plus_one(self.exp[lo:lo + MARK_BATCH]))
        zech.flags.writeable = False
        return zech

    # -- element codecs ----------------------------------------------------

    def from_exp(self, i):
        """Code of g^i."""
        return i % self.group_order + 1

    def elem_str(self, c):
        return "0" if c == 0 else "g^%d" % (c - 1)

    def parse_elem(self, s):
        s = s.strip()
        if s == "0":
            return 0
        if s.startswith("g^"):
            try:
                return self.from_exp(int(s[2:]))
            except ValueError:  # "g^x", or an exponent of 5000 digits
                pass
        raise ValueError("cannot parse field element %r" % (s,))

    def meta(self):
        """Serializable field description (modulus low-to-high)."""
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus)}

    # -- scalar arithmetic -------------------------------------------------

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        # a Python int: an int32 scalar would carry int32 wraparound into
        # the caller's arithmetic on the returned code
        z = int(self.zech[(b - a) % self.group_order])
        if z < 0:
            return 0
        return (a - 1 + z) % self.group_order + 1

    def neg(self, a):
        return self.mul(a, self.neg_one)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return (a + b - 2) % self.group_order + 1

    # -- vectorized arithmetic on numpy code arrays ------------------------

    def add_vec(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.add_tab is None:
            return self._zech_add(a, b)
        return self.add_tab.take(a * self.order + b)

    def mul_vec(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.mul_tab is None:
            return self._zech_mul(a, b)
        return self.mul_tab.take(a * self.order + b)

    def _zech_add(self, a, b):
        """Addition through the Zech table: `add_vec` past DENSE_CELLS, and
        the builder and test oracle of `add_tab`."""
        a, b = np.broadcast_arrays(a, b)
        d = (b - a) % self.group_order
        z = self.zech[d]
        out = (a - 1 + z) % self.group_order + 1
        out = np.where(z < 0, 0, out)
        out = np.where(a == 0, b, out)
        out = np.where(b == 0, np.where(a == 0, 0, a), out)
        return out

    def _zech_mul(self, a, b):
        """Multiplication by exponent addition: `mul_vec` past DENSE_CELLS,
        and the builder and test oracle of `mul_tab`."""
        out = (a + b - 2) % self.group_order + 1
        return np.where((a == 0) | (b == 0), 0, out)

    def add_packed(self, x, y):
        """Digit-wise sum mod p of arrays of packed polynomials, such as exp
        values: the sum of the elements they pack, XOR for p = 2."""
        p = self.p
        if p == 2:
            return x ^ y
        out = 0
        for i in range(self.m):
            x, a = np.divmod(x, p)
            y, b = np.divmod(y, p)
            out = out + (a + b) % p * p ** i
        return out

    def mul_packed(self, x, y):
        """int32 packed digits of x y for each packed x of a 1-D array and
        one packed y, by one `_times_g_to_the_b` map (a product mod p for
        m = 1), MARK_BATCH values at a time: the builder's own step."""
        out = np.empty(len(x), dtype=np.int32)
        _times(self.modulus, self.p, _digits_of(int(y), self.p, self.m),
               np.asarray(x), out)
        return out

    def powers(self, step, count):
        """int32 array of the packed digits of h^i, i < count, for h =
        g^step: exp for step 1 and count p^m - 1, and a subgroup such as
        R* for the stride of `partition.RGroup`.

        Block doubling (Huber, "Some comments on Zech's logarithms", IEEE
        Trans. IT 1990): entries B .. B+n-1 are entries 0 .. n-1 times h^B,
        n = min(B, count - B), by `_times`; h^B is h^(B-1) h, one
        polynomial product per step.  `build` refuses an order past
        DEFAULT_ORDER_CAP; below the cap every code fits int32.  No
        full-size temporary is formed: MARK_BATCH = 2^14, the chunk table
        cap too, keeps each block's temporaries at 128 KiB of int64 at
        most, within the working-set rule of `geometry`'s batched kernels;
        smaller blocks are no faster, and larger ones only raise the peak.
        """
        p, m, poly = self.p, self.m, self.modulus
        h = _digits_of(_poly_powmod((0, 1), step, poly, p), p, m)
        out = np.empty(count, dtype=np.int32)
        out[0] = 1
        b = 1
        while b < count:
            n = min(b, count - b)
            y = _poly_mulmod(_digits_of(int(out[b - 1]), p, m), h, poly, p)
            _times(poly, p, _digits_of(y, p, m), out[:n], out[b:b + n])
            b += n
        return out

    def exp_at(self, e):
        """exp.take(e) for an int64 array of exponents in [0, group order),
        whether or not the field holds exp: gathered from exp when it does,
        and else evaluated by square-and-multiply (`_squared_powers`,
        int64), which shares no table or kernel with `powers` and
        `mul_packed`."""
        exp = vars(self).get("exp")
        return exp.take(e) if exp is not None else self._squared_powers(e)

    def _squared_powers(self, e):
        """int64 packed digits of g^e for an array of exponents in [0,
        group order), by square-and-multiply: the digits of 1 times the
        matrix of g^(2^b) mod p for every set bit b."""
        digits = np.zeros(e.shape + (self.m,), dtype=np.int64)
        digits[..., 0] = 1
        for b, rows in enumerate(self._square_rows):
            digits = np.where((e >> b & 1)[..., None] == 1,
                              digits @ rows % self.p, digits)
        return digits @ self.p ** np.arange(self.m)

    @functools.cached_property
    def _square_rows(self):
        """(bits, m, m) array whose [b, j] row holds the digits of x^j
        g^(2^b), for every bit of an exponent below the group order."""
        p, m, poly = self.p, self.m, self.modulus
        y = _times_x([1] + [0] * (m - 1), poly, p)  # g
        out = []
        for _ in range(max(1, (self.group_order - 1).bit_length())):
            rows = []
            for _ in range(m):
                rows.append(y)
                y = _times_x(y, poly, p)
            out.append(rows)
            y = _digits_of(_poly_mulmod(rows[0], rows[0], poly, p), p, m)
        return np.array(out, dtype=np.int64)

    def unpack(self, packed):
        """Digits (low-to-high, int64, a last axis of m) of an array of
        packed values."""
        packed = np.asarray(packed, dtype=np.int64)
        out = np.empty(packed.shape + (self.m,), dtype=np.int64)
        for i in range(self.m):
            packed, out[..., i] = np.divmod(packed, self.p)
        return out

    def plus_one(self, packed):
        """The packed digits of 1 + x from those of x, for an array of
        packed x, in its dtype: only the constant digit changes, mod p
        (x - x // p * p is x % p, in the faster division by a constant)."""
        p = self.p
        if p == 2:
            return packed ^ 1
        wraps = packed - packed // p * p == p - 1
        return packed + 1 - wraps * packed.dtype.type(p)

    def neg_vec(self, a):
        return self.mul_vec(a, np.full_like(np.asarray(a), self.neg_one))

    def inv_vec(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverting zero")
        return -(a - 1) % self.group_order + 1

    # -- subfields ---------------------------------------------------------

    def subfield_stride(self, d):
        """Exponent stride s = (p^m - 1)/(p^d - 1) of GF(p^d) inside this
        field: its nonzero elements are the powers g^(j*s)."""
        if d < 1 or self.m % d != 0:
            raise NotADivisor("%d does not divide %d" % (d, self.m))
        return self.group_order // (self.p ** d - 1)

    # -- misc --------------------------------------------------------------

    def digits(self, codes):
        """Polynomial coefficient digits (low-to-high) of an array of codes,
        by `exp_at`."""
        codes = np.asarray(codes, dtype=np.int64)
        return self.unpack(np.where(codes == 0, 0,
                                    self.exp_at(np.maximum(codes - 1, 0))))

    def __repr__(self):
        return "Field(GF(%d^%d), modulus=%s)" % (self.p, self.m, list(self.modulus))


def row_reduce_mod_p(mat, p):
    """(reduced, pivots): the reduced row echelon form mod p of an integer
    matrix by Gauss-Jordan elimination, whose rows past len(pivots) are
    zero, and the ascending columns of its leading ones."""
    a = np.array(mat, dtype=np.int64) % p
    pivots = []
    for col in range(a.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(a[r:, col])
        if below.size:
            i = r + below[0]  # pivot row, scaled to 1 in this column
            row = a[i] * pow(int(a[i, col]), p - 2, p) % p
            a = (a - np.outer(a[:, col], row)) % p  # clears row i too
            a[i], a[r] = a[r], row
            pivots.append(col)
    return a, pivots


class CoordinateMap:
    """The subfield GF(p^d) of a field GF(p^m) and the coordinates of the
    field's elements over it, in the basis (1, g, ..., g^(m/d - 1)).

    The subfield `sub` is generated by gamma = g^stride and has gamma's
    minimal polynomial as modulus, so subfield exponent j is big-field
    exponent j*stride.  One mod-p inverse, `row_reduce_mod_p` of [A | I],
    gives both the coordinates and that modulus: it inverts the m x m
    matrix A whose column (i, t) holds the GF(p)-digits of g^i gamma^t,
    i < m/d, t < d.  gamma^d lies in the subfield, so its coordinates fall
    in the i = 0 block and read gamma^d = sum c_t gamma^t: the minimal
    polynomial is x^d - sum c_t x^t, which `Field.build` verifies as
    irreducible and primitive.  For d = m, gamma = g has the parent's
    modulus, so `sub` is a second build equal to the parent.
    """

    def __init__(self, parent, d):
        p, m = parent.p, parent.m
        self.parent = parent
        self.d = d
        self.stride = parent.subfield_stride(d)
        e = m // d
        self.basis = tuple(parent.from_exp(i) for i in range(e))
        # column i*d + t: the digits of g^i gamma^t = g^(i + t*stride); then
        # those of gamma^d
        exps = np.arange(e)[:, None] + np.arange(d) * self.stride
        digits = parent.digits(parent.from_exp(
            np.append(exps.ravel(), d * self.stride)))
        reduced, pivots = row_reduce_mod_p(
            np.hstack([digits[:-1].T, np.eye(m, dtype=np.int64)]), p)
        if pivots != list(range(m)):  # [A | I] reduces to [I | A^-1]
            raise AssertionError("polynomial basis is dependent over GF(%d^%d)"
                                 % (p, d))
        inv = reduced[:, m:]
        power = inv @ digits[-1] % p
        if power[d:].any():
            raise AssertionError("gamma^%d lies outside GF(%d^%d)" % (d, p, d))
        self.sub = Field.build(p, d, [-int(c) for c in power[:d]] + [1])
        self._inv = inv
        self._e = e
        self._pw = np.array([p ** t for t in range(d)], dtype=np.int64)

    def coords(self, packed):
        """(N, m/d) array of the subfield codes c_i with sum(c_i basis_i)
        = x, for each x of a 1-D array of packed digits (as exp holds them:
        `Field.exp_at`, or a progression such as
        `partition.RGroup.coset_values`)."""
        dig = self.parent.unpack(np.atleast_1d(packed))  # (N, m)
        u = dig @ self._inv.T % self.parent.p  # (N, m), grouped (i, t)
        u = u.reshape(dig.shape[0], self._e, self.d)
        packed = (u * self._pw).sum(axis=2)
        return np.where(packed == 0, 0,
                        self.sub.log[packed].astype(np.int64) + 1)
