"""Exact arithmetic in F_q (q an odd prime power) and in the quadratic
extension F_q[Z] defined by Z^2 = c for a fixed non-square c.

Conventions
-----------
* An element of F_q is defined by a coefficient tuple of length e (low
  degree first), reduced modulo a fixed monic irreducible modulus over Z_p.
* The canonical ordering of F_q enumerates elements by the integer encoding
  c_0 + c_1*p + ... + c_{e-1}*p^{e-1}, so the prime subfield 0, 1, ..., p-1
  comes first.  This ordering is used everywhere symbols or vertices need a
  reproducible order.
* Elements are held as these encodings: an `FqElem` stores one, an
  `Fq2Elem` u + vZ stores those of u and v.  Each `FieldSpec` builds one
  set of add, mul, neg, inverse and norm tables, numpy arrays (q x q for
  the binary ones), once from the (q, e) digit array of the encodings; the
  same builder serves every q = p^e, and q is capped at FIELD_SIZE_LIMIT.
  Every operation is a table lookup.  `coeffs`, `.u`, `.v` and the labels
  are read off the encodings.
* The modulus is the lexicographically smallest monic irreducible of its
  degree (coefficients compared low degree first); for e = 1 it is the
  variable itself.  c is the first non-square in the canonical ordering.
  Both choices are deterministic so every downstream object is
  bit-reproducible.
* Conjugation on F_q[Z] is the Frobenius x -> x^q, which fixes F_q and sends
  Z to -Z.  The norm N(x) = x * conj(x) lands in F_q.
* Many F_q[Z] values at once are a pair (nu, nv) of int arrays of one shape.
  The `pair_*` methods gather from the tables in `FieldSpec.arrays`
  elementwise with exactly the formulas of the `Fq2Elem` operators, which
  read single entries of the same tables, so a batch of products or
  norms is a handful of table gathers over whole arrays.

All values are immutable by convention and all operations are pure.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p (coefficient lists, low degree first)

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod_zp(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder in Z_p[x]; b must be nonzero."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(_poly_trim(a)) >= len(b):
        a = _poly_trim(a)
        shift = len(a) - len(b)
        factor = (a[-1] * inv_lead) % p
        q[shift] = factor
        for i, bi in enumerate(b):
            a[i + shift] = (a[i + shift] - factor * bi) % p
    return _poly_trim(q), _poly_trim(a)


def _monic_polys_zp(degree: int, p: int) -> Iterator[list[int]]:
    """Monic degree-d polynomials over Z_p in lexicographic order of the
    low-to-high coefficient sequence."""
    def rec(prefix: list[int]) -> Iterator[list[int]]:
        if len(prefix) == degree:
            yield prefix + [1]
            return
        for coeff in range(p):
            yield from rec(prefix + [coeff])
    yield from rec([])


def _is_irreducible_zp(f: list[int], p: int) -> bool:
    """Exhaustive trial division; fine at desk scale (p^e small)."""
    deg = len(f) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys_zp(d, p):
            _, r = _poly_divmod_zp(f, g, p)
            if not r:
                return False
    return True


# ---------------------------------------------------------------------------
# the field F_q


FIELD_SIZE_LIMIT = 2048
_BLOCK_DIGITS = 1 << 18  # entries of one digit temporary in the table builder


class SizeCapExceeded(RuntimeError):
    """Raised when an instance is larger than a configured resource limit."""


def _encode(coeffs, p: int) -> int:
    """The canonical encoding c_0 + c_1*p + ... of a coefficient sequence."""
    return sum(x * p**i for i, x in enumerate(coeffs))


class FieldArrays(NamedTuple):
    """The arithmetic of a `FieldSpec` as int arrays indexed by encodings:
    add[a, b] and mul[a, b] are (q, q); neg, inv (0 at 0) and cmul (c
    times each element) are (q,); norm is (q*q,), indexed by the F_q[Z]
    encoding u + q*v."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    cmul: np.ndarray
    norm: np.ndarray


# (nu, nv): int arrays of one shape holding the F_q[Z] values nu + nv Z
Pair = tuple[np.ndarray, np.ndarray]


class FieldSpec:
    """The field F_q, q = p^e odd, together with the fixed non-square c.

    Elements are held as their canonical encodings 0..q-1.  The constructor
    builds the arithmetic once, as the `FieldArrays` tables in `arrays`,
    from the (q, e) array of coefficient digits: addition digit by digit
    mod p, multiplication as schoolbook polynomial products reduced by the
    modulus from the top degree down.  The same builder serves every e,
    prime fields included (their modulus is x).  `FqElem` and `Fq2Elem`
    operators read single entries of these tables.  The modulus must be
    monic irreducible of degree e; `make_field` picks it.  Instances are
    immutable by convention and compare by their defining data (p, e,
    modulus, c).
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        q = p**e
        self.p, self.e, self.q, self.modulus = p, e, q, tuple(modulus)
        powers = p ** np.arange(e)
        digits = np.arange(q)[:, None] // powers % p  # (q, e), low degree first
        self._coeffs = list(map(tuple, digits.tolist()))
        neg = -digits % p @ powers
        fold = -np.array(self.modulus[:e]) % p
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        # a block of rows at a time, so that no digit temporary holds more
        # than _BLOCK_DIGITS entries (every field up to q = 31 is one block)
        step = max(1, _BLOCK_DIGITS // (q * (2 * e - 1)))
        for r in range(0, q, step):
            rows = digits[r:r + step]
            add[r:r + step] = (rows[:, None] + digits[None]) % p @ powers
            # schoolbook products, then x^k = x^(k-e) * -(m_0 + ... + m_{e-1} x^(e-1))
            # for k from the top degree down, keeping every digit below p
            prod = np.zeros((len(rows), q, 2 * e - 1), dtype=np.int64)
            for i in range(e):
                prod[:, :, i:i + e] += rows[:, None, i, None] * digits[None]
            prod %= p
            for k in range(2 * e - 2, e - 1, -1):
                prod[:, :, k - e:k] += prod[:, :, k, None] * fold
                prod[:, :, k - e:k] %= p
            mul[r:r + step] = prod[:, :, :e] @ powers
        inv = np.argmax(mul == 1, axis=1)  # 0 at 0, which has no inverse
        # c is the first non-square in the canonical ordering
        sq = np.diagonal(mul)
        is_square = np.zeros(q, dtype=bool)
        is_square[sq] = True
        c = int(np.argmin(is_square))
        self.c = self._coeffs[c]
        cmul = mul[c]
        # N(u + vZ) = u^2 - c v^2, indexed by the F_q[Z] encoding u + q*v
        norm = add[sq[None, :], neg[cmul[sq]][:, None]].ravel()
        self.arrays = FieldArrays(add, mul, neg, inv, cmul, norm)
        self._hash = hash(self._key())

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.p, self.e, self.modulus, self.c)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FieldSpec) and self._key() == other._key())

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus}, c={self.c})"

    # -- element-level API ---------------------------------------------------

    def _code(self, value) -> int:
        """Canonical encoding of an int (taken mod q), a coefficient
        sequence, or an element of this field."""
        if isinstance(value, int):
            return value % self.q
        if isinstance(value, FqElem):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value.n
        coeffs = [int(x) % self.p for x in value]
        if len(coeffs) != self.e:
            raise ValueError(f"coefficient sequence must have length {self.e}")
        return _encode(coeffs, self.p)

    def elem(self, value) -> "FqElem":
        """Coerce an int (canonical encoding) or coefficient sequence."""
        return FqElem(self, self._code(value))

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def c_elem(self) -> "FqElem":
        return FqElem(self, self.arrays.cmul.item(1))  # c * 1

    def elements(self) -> list["FqElem"]:
        """All of F_q in canonical order."""
        return [FqElem(self, n) for n in range(self.q)]

    def ext(self, u, v=0) -> "Fq2Elem":
        """u + vZ from encodings, coefficient sequences or elements."""
        if isinstance(u, int) and isinstance(v, int):  # the common case: constants
            return Fq2Elem(self, u % self.q, v % self.q)
        return Fq2Elem(self, self._code(u), self._code(v))

    # -- array API: F_q[Z] values as pairs (nu, nv) of int arrays ------------

    def pair(self, elems) -> Pair:
        """The pair of arrays holding a sequence of `Fq2Elem`s."""
        return (np.array([x.nu for x in elems], dtype=np.intp),
                np.array([x.nv for x in elems], dtype=np.intp))

    def pair_add(self, x: Pair, y: Pair) -> Pair:
        add = self.arrays.add
        return add[x[0], y[0]], add[x[1], y[1]]

    def pair_neg(self, x: Pair) -> Pair:
        neg = self.arrays.neg
        return neg[x[0]], neg[x[1]]

    def pair_mul(self, x: Pair, y: Pair) -> Pair:
        """Elementwise `Fq2Elem.__mul__`; the operands broadcast."""
        t = self.arrays
        (a, b), (c, d) = x, y
        u = t.add[t.mul[a, c], t.cmul[t.mul[b, d]]]
        v = t.add[t.mul[a, d], t.mul[b, c]]
        return u, v

    def pair_conj(self, x: Pair) -> Pair:
        return x[0], self.arrays.neg[x[1]]

    def pair_norm(self, x: Pair) -> np.ndarray:
        """The encodings of N(x) in F_q."""
        return self.arrays.norm[x[0] + self.q * x[1]]


class FqElem:
    """An element of F_q held as its canonical encoding n; immutable by
    convention."""

    __slots__ = ("spec", "n")

    def __init__(self, spec: FieldSpec, n: int):
        self.spec = spec
        self.n = n

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The reduced coefficient tuple, low degree first."""
        return self.spec._coeffs[self.n]

    def __eq__(self, other) -> bool:
        return (isinstance(other, FqElem) and self.n == other.n
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self) -> int:
        return hash(self.n)

    def __add__(self, other: "FqElem") -> "FqElem":
        return FqElem(self.spec, self.spec.arrays.add.item(self.n, other.n))

    def __sub__(self, other: "FqElem") -> "FqElem":
        t = self.spec.arrays
        return FqElem(self.spec, t.add.item(self.n, t.neg.item(other.n)))

    def __neg__(self) -> "FqElem":
        return FqElem(self.spec, self.spec.arrays.neg.item(self.n))

    def __mul__(self, other: "FqElem") -> "FqElem":
        return FqElem(self.spec, self.spec.arrays.mul.item(self.n, other.n))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElem":
        mul = self.spec.arrays.mul.item
        result, base = 1, self.n
        while n:
            if n & 1:
                result = mul(result, base)
            base = mul(base, base)
            n >>= 1
        return FqElem(self.spec, result)

    def inverse(self) -> "FqElem":
        if not self.n:
            raise ZeroDivisionError("inversion of zero in F_q")
        return FqElem(self.spec, self.spec.arrays.inv.item(self.n))

    def is_zero(self) -> bool:
        return not self.n

    def encoding(self) -> int:
        return self.n

    def __str__(self) -> str:
        return fq_label(self)

    def __repr__(self) -> str:
        return f"Fq({fq_label(self)})"


class Fq2Elem:
    """An element u + vZ of F_q[Z], Z^2 = c, held as the encodings nu, nv
    of u and v; immutable by convention."""

    __slots__ = ("spec", "nu", "nv")

    def __init__(self, spec: FieldSpec, nu: int, nv: int):
        self.spec = spec
        self.nu = nu
        self.nv = nv

    @property
    def u(self) -> FqElem:
        return FqElem(self.spec, self.nu)

    @property
    def v(self) -> FqElem:
        return FqElem(self.spec, self.nv)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Fq2Elem) and self.nu == other.nu and self.nv == other.nv
                and (self.spec is other.spec or self.spec == other.spec))

    def __hash__(self) -> int:
        return hash((self.nu, self.nv))

    def __add__(self, other: "Fq2Elem") -> "Fq2Elem":
        add = self.spec.arrays.add.item
        return Fq2Elem(self.spec, add(self.nu, other.nu), add(self.nv, other.nv))

    def __sub__(self, other: "Fq2Elem") -> "Fq2Elem":
        t = self.spec.arrays
        add, neg = t.add.item, t.neg.item
        return Fq2Elem(self.spec, add(self.nu, neg(other.nu)), add(self.nv, neg(other.nv)))

    def __neg__(self) -> "Fq2Elem":
        neg = self.spec.arrays.neg.item
        return Fq2Elem(self.spec, neg(self.nu), neg(self.nv))

    def __mul__(self, other: "Fq2Elem") -> "Fq2Elem":
        # (a + bZ)(c + dZ) = (ac + c_Z bd) + (ad + bc)Z, c_Z the non-square
        t = self.spec.arrays
        add, mul = t.add.item, t.mul.item
        a, b, c, d = self.nu, self.nv, other.nu, other.nv
        u = add(mul(a, c), t.cmul.item(mul(b, d)))
        v = add(mul(a, d), mul(b, c))
        return Fq2Elem(self.spec, u, v)

    def __truediv__(self, other: "Fq2Elem") -> "Fq2Elem":
        return self * other.inverse()

    def conj(self) -> "Fq2Elem":
        """Frobenius conjugate: u + vZ -> u - vZ."""
        return Fq2Elem(self.spec, self.nu, self.spec.arrays.neg.item(self.nv))

    def norm(self) -> FqElem:
        """N(u + vZ) = u^2 - c v^2, an element of F_q."""
        s = self.spec
        return FqElem(s, s.arrays.norm.item(self.nu + s.q * self.nv))

    def inverse(self) -> "Fq2Elem":
        """conj(x) / N(x)."""
        s, t = self.spec, self.spec.arrays
        n = t.norm.item(self.nu + s.q * self.nv)
        if not n:
            raise ZeroDivisionError("inversion of zero in F_q[Z]")
        ninv = t.inv.item(n)
        return Fq2Elem(s, t.mul.item(self.nu, ninv), t.mul.item(t.neg.item(self.nv), ninv))

    def is_zero(self) -> bool:
        return not (self.nu or self.nv)

    def encoding(self) -> int:
        return self.nu + self.spec.q * self.nv

    def __str__(self) -> str:
        return fq2_label(self)

    def __repr__(self) -> str:
        return f"Fq2({fq2_label(self)})"


# ---------------------------------------------------------------------------
# labels


def fq_label(a: FqElem) -> str:
    """Render a base-field element as a polynomial in w, so an element of
    the prime subfield (every element of a prime field) as an integer."""
    return _fq_text(a.coeffs)


def _fq_text(coeffs: tuple[int, ...]) -> str:
    parts = []
    for i, coeff in enumerate(coeffs):
        if coeff == 0:
            continue
        if i == 0:
            parts.append(str(coeff))
        else:
            wpow = "w" if i == 1 else f"w^{i}"
            parts.append(wpow if coeff == 1 else f"{coeff}{wpow}")
    return "+".join(parts) if parts else "0"


def fq2_label(x: Fq2Elem) -> str:
    """Render u + vZ, e.g. '2+2Z', 'Z', '0', '(1+w)Z'."""
    return _fq2_text(fq_label(x.u), fq_label(x.v))


def fq2_labels(elems: list[Fq2Elem]) -> list[str]:
    """`fq2_label` of each element of one field, with each F_q coefficient
    rendered once."""
    if not elems:
        return []
    coeffs = elems[0].spec._coeffs
    text = {n: _fq_text(coeffs[n]) for n in {x.nu for x in elems} | {x.nv for x in elems}}
    return [_fq2_text(text[x.nu], text[x.nv]) for x in elems]


def _fq2_text(u: str, v: str) -> str:
    """The label of u + vZ from the labels of u and v ("0" only for zero)."""
    if v == "0":
        return u
    ztxt = "Z" if v == "1" else f"({v})Z" if "+" in v else f"{v}Z"
    return ztxt if u == "0" else f"{u}+{ztxt}"


# ---------------------------------------------------------------------------
# construction and fibers


def make_field(p: int, e: int = 1) -> FieldSpec:
    """Build F_q for q = p^e with the deterministic modulus and non-square.

    Raises ValueError unless p is an odd prime and e >= 1, and
    SizeCapExceeded when q exceeds FIELD_SIZE_LIMIT; both are decided
    before any modulus is searched or any table is built.
    """
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    # p^e > 2^e, so e at the limit's bit length is over it: no huge power
    if p ** min(e, FIELD_SIZE_LIMIT.bit_length()) > FIELD_SIZE_LIMIT:
        raise SizeCapExceeded(f"fields capped at q = {FIELD_SIZE_LIMIT} elements")
    if not _is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    # irreducibles exist in every degree; for e = 1 the first is x itself
    modulus = next(tuple(f) for f in _monic_polys_zp(e, p) if _is_irreducible_zp(f, p))
    spec = FieldSpec(p, e, modulus)
    # non-square certificate: c^((q-1)/2) = -1
    cert = spec.c_elem() ** ((spec.q - 1) // 2)
    if cert != -spec.one():
        raise RuntimeError("non-square certificate failed")
    return spec


def torus_generator(spec: FieldSpec) -> Pair:
    """The generator u of the norm-one torus ker N in F_q[Z]^x, a cyclic
    group of order q + 1, that comes first in the canonical order, as a
    pair of 0-d arrays.  Every element of the torus is raised to the powers
    1..q + 1 at once by `pair_mul`; u is the first whose first power equal
    to 1 is the (q + 1)-th."""
    q = spec.q
    codes = np.flatnonzero(spec.arrays.norm == 1)  # 1 encodes the one of F_q
    torus = (codes % q, codes // q)
    order, power = np.zeros(len(codes), dtype=np.intp), torus
    for k in range(1, q + 2):
        order[(order == 0) & (power[0] == 1) & (power[1] == 0)] = k
        power = spec.pair_mul(power, torus)
    u = int(np.argmax(order == q + 1))
    if order[u] != q + 1:
        raise RuntimeError("the norm-one torus is not cyclic of order q + 1")  # would signal a field bug
    return torus[0][u], torus[1][u]


def norm_fiber(spec: FieldSpec, target: FqElem) -> list[Fq2Elem]:
    """All alpha in F_q[Z] with N(alpha) = target, in canonical order.

    The fiber of any nonzero target has exactly q + 1 elements and is closed
    under negation.  A zero target is rejected.
    """
    target = spec.elem(target)
    if target.is_zero():
        raise ValueError("norm fiber of zero is not used; target must be nonzero")
    q = spec.q
    codes = np.flatnonzero(spec.arrays.norm == target.n).tolist()
    fiber = [Fq2Elem(spec, n % q, n // q) for n in codes]
    if len(fiber) != spec.q + 1:
        raise RuntimeError("norm fiber has unexpected size")  # would signal a field bug
    return fiber
