"""Exact arithmetic in GF(p^m) using exponent representation and Zech logarithms.

Elements are integer codes: code 0 is the zero element, and code c in
[1, order-1] denotes g^(c-1) where g is the root of the (primitive) modulus.
With this encoding, multiplication is index addition and addition is a Zech
table lookup.  A field with at most DENSE_CELLS code pairs (every order up
to 512, which covers the PG(3, q^3) scans for q <= 8) also holds dense
order x order addition and multiplication tables, built once from the Zech
kernels, so each vectorized add or mul is one table gather, with no zero
case and no modular reduction; larger fields use the Zech kernels
directly.  All operations come in scalar and numpy-vectorized flavours.
"""

from __future__ import annotations

from dataclasses import dataclass

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
TABLE_BLOCK = 1 << 16  # table cells per vectorized step of a table build
DENSE_CELLS = 1 << 18  # largest order^2 with dense add/mul tables (GF(512))

# Fields are immutable, so identical build requests share one instance; a
# default-modulus field is keyed both under None and under its modulus.
_FIELD_CACHE: dict = {}


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
        coeffs = []
        v = packed
        for _ in range(m):
            v, rem = divmod(v, p)
            coeffs.append(rem)
        mod = tuple(coeffs) + (1,)
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


def _doubling_steps(n):
    """(B, count) for each block-doubling step of an n-entry power table:
    entries B .. B+count-1 are entries 0 .. count-1 times g^B."""
    b = 1
    while b < n:
        count = min(b, n - b)
        yield b, count
        b += count


def _tables_from_exp(exp, order, plus_one):
    """(exp, log, zech), with log[exp[i]] = i and zech[i] = log[1 + g^i]
    (`plus_one` on packed values), filled TABLE_BLOCK entries at a time so
    that no full-size temporary is formed."""
    log = np.full(order, -1, dtype=np.int64)
    zech = np.empty(order - 1, dtype=np.int64)
    for lo in range(0, order - 1, TABLE_BLOCK):
        hi = min(lo + TABLE_BLOCK, order - 1)
        log[exp[lo:hi]] = np.arange(lo, hi)
    for lo in range(0, order - 1, TABLE_BLOCK):
        zech[lo:lo + TABLE_BLOCK] = log[plus_one(exp[lo:lo + TABLE_BLOCK])]
    return exp, log, zech


def _build_tables_char2(poly, m):
    """exp/log/zech of GF(2^m), by block doubling (Huber, "Some comments on
    Zech's logarithms", IEEE Trans. IT 1990).

    exp[B:2B] = exp[0:B] * g^B, and multiplying by g^B is GF(2)-linear on
    the packed bits: it is the XOR of one 256-entry table per byte, built
    from the images x^j * g^B of the m basis bits.  So each entry costs a
    few vectorized lookups, in steps of at most TABLE_BLOCK cells.
    """
    poly_int = sum(c << i for i, c in enumerate(poly))
    order = 1 << m

    def times_x(v):
        v <<= 1
        return v ^ poly_int if v >> m else v

    exp = np.empty(order - 1, dtype=np.int64)
    exp[0] = 1
    nbytes = -(-m // 8)
    byte = np.arange(256, dtype=np.int64)
    rows = max(1, TABLE_BLOCK // m)
    for b, count in _doubling_steps(order - 1):
        image = times_x(int(exp[b - 1]))  # g^B, then x^j g^B
        tables = np.zeros((nbytes, 256), dtype=np.int64)
        for j in range(m):
            tables[j // 8] ^= np.where(byte >> (j % 8) & 1, image, 0)
            image = times_x(image)
        for lo in range(0, count, rows):
            x = exp[lo:min(lo + rows, count)]
            out = tables[0][x & 255]
            for t in range(1, nbytes):
                out ^= tables[t][x >> (8 * t) & 255]
            exp[b + lo:b + lo + x.size] = out
    return _tables_from_exp(exp, order, lambda e: e ^ 1)


def _build_tables_odd(poly, p, m):
    """exp/log/zech of GF(p^m), p odd, by block doubling.

    exp[B:2B] = exp[0:B] * g^B, applied as the m x m GF(p) matrix whose
    row j holds the digits of x^j * g^B: unpack the digits of a block of
    entries, multiply by the matrix, reduce mod p and repack.  The product
    is a float64 (BLAS) matrix product: an entry sums m products of digits,
    below m (p-1)^2, so it is exact for every field under DEFAULT_ORDER_CAP
    (at most 2^50, at m = 1); a larger cap past the 2^53 float64 mantissa
    is refused.
    """
    order = p ** m
    if m * (p - 1) ** 2 >= 1 << 53:
        raise FieldTooLarge("GF(%d^%d) digit products overflow float64"
                            % (p, m))

    def times_x(d):
        lead = d[-1]
        return [(c - lead * a) % p for c, a in zip([0] + d[:-1], poly)]

    def digits(packed):
        out = np.empty(packed.shape + (m,), dtype=np.int64)
        for i in range(m):
            packed, out[..., i] = np.divmod(packed, p)
        return out

    exp = np.empty(order - 1, dtype=np.int64)
    exp[0] = 1
    pw = p ** np.arange(m, dtype=np.int64)
    rows = max(1, TABLE_BLOCK // m)
    for b, count in _doubling_steps(order - 1):
        image = times_x(digits(exp[b - 1]).tolist())  # g^B, then x^j g^B
        mat = np.empty((m, m), dtype=np.float64)
        for j in range(m):
            mat[j] = image  # row j: digits of x^j g^B
            image = times_x(image)
        for lo in range(0, count, rows):
            x = exp[lo:min(lo + rows, count)]
            prod = (digits(x).astype(np.float64) @ mat).astype(np.int64)
            exp[b + lo:b + lo + x.size] = prod % p @ pw
    # 1 + g^i changes only the constant digit, mod p
    return _tables_from_exp(exp, order,
                            lambda e: e - e % p + (e % p + 1) % p)


# ---------------------------------------------------------------------------


class Field:
    """Immutable handle for GF(p^m); safe for concurrent shared reads.

    Its tables are read-only arrays: `exp`, `log` and `zech`, and for an
    order with order^2 <= DENSE_CELLS also `add_tab` and `mul_tab`, the
    codes of a + b and a * b at [a, b] (None for larger orders).
    """

    def __init__(self, p, m, modulus, exp, log, zech):
        self.p = p
        self.m = m
        self.order = p ** m
        self.group_order = self.order - 1
        self.modulus = tuple(modulus)
        self.exp = exp
        self.log = log
        self.zech = zech
        self.add_tab = self.mul_tab = None
        if self.order ** 2 <= DENSE_CELLS:
            codes = np.arange(self.order, dtype=np.int64)
            self.add_tab = self._zech_add(codes[:, None], codes[None, :])
            self.mul_tab = self._zech_mul(codes[:, None], codes[None, :])
        for table in (exp, log, zech, self.add_tab, self.mul_tab):
            if table is not None:
                table.flags.writeable = False
        self.zero = 0
        self.one = 1
        # exponent of -1 is (order-1)/2 in odd characteristic
        self.neg_one = 1 if p == 2 else self.group_order // 2 + 1
        self._coord_maps = {}
        self._subfields = {}

    # -- construction ------------------------------------------------------

    @staticmethod
    def build(p, m, modulus=None):
        """Build GF(p^m) with a verified-primitive modulus.

        Defaults to the primitive polynomial with the smallest packed
        coefficient value, so identical parameters give identical fields.
        The exp/log/zech tables are built by block doubling, a few
        vectorized passes over the table instead of one Python step per
        element (`_build_tables_char2`, `_build_tables_odd`).
        """
        # a p past the cap fails the order check below, prime or not
        if p < 2 or (p <= DEFAULT_ORDER_CAP and factor(p) != {p: 1}):
            raise NonPrimeP("p = %r is not prime" % (p,))
        if m < 1:
            raise ValueError("extension degree must be positive")
        if p ** m > DEFAULT_ORDER_CAP:
            raise FieldTooLarge("order %d exceeds cap %d"
                                % (p ** m, DEFAULT_ORDER_CAP))
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
        key = (p, m, modulus)
        if key in _FIELD_CACHE:  # only verified moduli are ever cached
            return _FIELD_CACHE[key]
        if modulus is None:
            mod = _smallest_primitive_poly(p, m)
        else:
            mod = modulus
            if not _is_irreducible(mod, p):
                raise ReducibleModulus("modulus %r factors over GF(%d)"
                                       % (mod, p))
            if not _is_primitive(mod, p):
                raise NonPrimitiveModulus(
                    "modulus %r is irreducible but not primitive" % (mod,))
        # the default and the explicit request of one modulus share a field
        f = _FIELD_CACHE.get((p, m, mod))
        if f is None:
            if p == 2:
                exp, log, zech = _build_tables_char2(mod, m)
            else:
                exp, log, zech = _build_tables_odd(mod, p, m)
            f = _FIELD_CACHE[p, m, mod] = Field(p, m, mod, exp, log, zech)
        _FIELD_CACHE[key] = f
        return f

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
            return self.from_exp(int(s[2:]))
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
        z = self.zech[(b - a) % self.group_order]
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

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return -(a - 1) % self.group_order + 1

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverting zero")
            return 0 if e else 1
        return (a - 1) * e % self.group_order + 1

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

    def neg_vec(self, a):
        return self.mul_vec(a, np.full_like(np.asarray(a), self.neg_one))

    def inv_vec(self, a):
        a = np.asarray(a, dtype=np.int64)
        if np.any(a == 0):
            raise ZeroDivisionError("inverting zero")
        return -(a - 1) % self.group_order + 1

    # -- subfields ---------------------------------------------------------

    def subfield_stride(self, d):
        """Exponent stride of GF(p^d) inside this field.

        The nonzero subfield elements are exactly the powers g^(j*s); each
        claimed member is verified against the Frobenius fixed-point test.
        """
        if d < 1 or self.m % d != 0:
            raise NotADivisor("%d does not divide %d" % (d, self.m))
        s = self.group_order // (self.p ** d - 1)
        exps = np.arange(self.p ** d - 1, dtype=np.int64) * s
        if np.any((exps * self.p ** d) % self.group_order != exps):
            raise AssertionError("Frobenius test failed for subfield degree %d" % d)
        return s

    def subfield(self, d):
        """Embedded-subfield view GF(p^d), generated by gamma = g^stride.

        Returns a :class:`SubfieldMap` whose `sub` field uses the minimal
        polynomial of gamma as modulus, so small-field exponent j corresponds
        to big-field exponent j*stride.
        """
        if d in self._subfields:
            return self._subfields[d]
        s = self.subfield_stride(d)
        if d == self.m:
            sm = SubfieldMap(self, self, d, 1)
            self._subfields[d] = sm
            return sm
        gamma = self.from_exp(s)
        # minimal polynomial of gamma: product of (x - gamma^(p^t))
        poly = [self.one]  # coefficients in this field, low-to-high
        conj = gamma
        for _ in range(d):
            new = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] = self.add(new[i + 1], c)
                new[i] = self.add(new[i], self.mul(self.neg(conj), c))
            poly = new
            conj = self.pow(conj, self.p)
        coeffs = []
        for c in poly:
            v = 0 if c == 0 else int(self.exp[c - 1])
            if v >= self.p:
                raise AssertionError("minimal polynomial coefficient outside GF(p)")
            coeffs.append(v)
        sub = Field.build(self.p, d, tuple(coeffs))
        sm = SubfieldMap(self, sub, d, s)
        self._subfields[d] = sm
        return sm

    # -- coordinates over a subfield ---------------------------------------

    def coord_map(self, d):
        """Coordinate map of this field over its subfield GF(p^d), in the
        polynomial basis (1, g, g^2, ...)."""
        if d not in self._coord_maps:
            self._coord_maps[d] = CoordinateMap(self, self.subfield(d))
        return self._coord_maps[d]

    # -- misc --------------------------------------------------------------

    def digits(self, codes):
        """Polynomial coefficient digits (low-to-high) of an array of codes."""
        codes = np.asarray(codes, dtype=np.int64)
        packed = np.where(codes == 0, 0, self.exp[np.maximum(codes - 1, 0)])
        out = np.empty(codes.shape + (self.m,), dtype=np.int64)
        for i in range(self.m):
            packed, out[..., i] = np.divmod(packed, self.p)
        return out

    def __repr__(self):
        return "Field(GF(%d^%d), modulus=%s)" % (self.p, self.m, list(self.modulus))


@dataclass(frozen=True)
class SubfieldMap:
    """Embedding of a small field into a big one via exponent stride."""

    parent: Field
    sub: Field
    d: int
    stride: int

    def to_parent(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        return np.where(codes == 0, 0, (codes - 1) * self.stride + 1)


def _matrix_inverse_mod_p(mat, p):
    """Inverse of a square integer matrix mod p, or None if singular."""
    n = mat.shape[0]
    a = mat % p
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if aug[row, col] % p:
                pivot = row
                break
        if pivot is None:
            return None
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv = pow(int(aug[col, col]), p - 2, p)
        aug[col] = aug[col] * inv % p
        for row in range(n):
            if row != col and aug[row, col]:
                aug[row] = (aug[row] - aug[row, col] * aug[col]) % p
    return aug[:, n:]


class CoordinateMap:
    """Coordinates of big-field elements over a subfield, in the polynomial
    basis (1, g, ..., g^(m/d - 1))."""

    def __init__(self, parent, sm):
        self.parent = parent
        self.submap = sm
        p, m, d = parent.p, parent.m, sm.d
        e = m // d
        self.basis = tuple(parent.from_exp(i) for i in range(e))
        gamma = parent.from_exp(sm.stride)
        # columns (i,t): GF(p)-digits of basis_i * gamma^t
        cols = np.empty((m, m), dtype=np.int64)
        for i in range(e):
            for t in range(d):
                prod = parent.mul(self.basis[i], parent.pow(int(gamma), t))
                cols[:, i * d + t] = parent.digits(np.array([prod]))[0]
        inv = _matrix_inverse_mod_p(cols, p)
        if inv is None:
            raise AssertionError("polynomial basis is dependent over GF(%d^%d)"
                                 % (p, d))
        self._inv = inv
        self._e, self._d = e, d
        self._pw = np.array([p ** t for t in range(d)], dtype=np.int64)

    def coords(self, codes):
        """(N, m/d) array of subfield codes with sum(c_i * basis_i) = code."""
        codes = np.atleast_1d(np.asarray(codes, dtype=np.int64))
        dig = self.parent.digits(codes)  # (N, m)
        u = dig @ self._inv.T % self.parent.p  # (N, m), grouped (i, t)
        u = u.reshape(codes.shape[0], self._e, self._d)
        packed = (u * self._pw).sum(axis=2)
        sub = self.submap.sub
        out = np.where(packed == 0, 0, sub.log[packed] + 1)
        return out

    def recompose(self, coords):
        """Inverse of :meth:`coords`; used as the round-trip oracle."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        big = self.submap.to_parent(coords)
        acc = np.zeros(coords.shape[0], dtype=np.int64)
        for i, b in enumerate(self.basis):
            acc = self.parent.add_vec(acc, self.parent.mul_vec(big[:, i], b))
        return acc
