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
  `Fq2Elem` u + vZ stores those of u and v.  Each `FieldSpec` builds flat
  add, mul, neg, inverse and norm tables once (q^2 entries for the binary
  ones) from the coefficient-tuple arithmetic, or for a prime field from
  residue arithmetic mod p, and every operation is a table lookup.
  `coeffs`, `.u`, `.v` and the labels are read off the encodings.
* The modulus is the lexicographically smallest monic irreducible of its
  degree (coefficients compared low degree first); for e = 1 it is the
  variable itself.  c is the first non-square in the canonical ordering.
  Both choices are deterministic so every downstream object is
  bit-reproducible.
* Conjugation on F_q[Z] is the Frobenius x -> x^q, which fixes F_q and sends
  Z to -Z.  The norm N(x) = x * conj(x) lands in F_q.
* Many F_q[Z] values at once are a pair (nu, nv) of int arrays of one shape.
  `FieldSpec.arrays` holds numpy copies of the tables, built on first use,
  and the `pair_*` methods gather from them elementwise with exactly the
  formulas of the `Fq2Elem` operators, so a batch of products or inverses
  is a handful of table gathers over whole arrays.

All values are immutable by convention and all operations are pure.
"""

from __future__ import annotations

from functools import cached_property
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


def _encode(coeffs, p: int) -> int:
    """The canonical encoding c_0 + c_1*p + ... of a coefficient sequence."""
    return sum(x * p**i for i, x in enumerate(coeffs))


class FieldArrays(NamedTuple):
    """numpy copies of a `FieldSpec`'s tables, indexed like the lists (inv
    holds 0 at 0, where the list holds None)."""

    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    cmul: np.ndarray
    norm: np.ndarray


# (nu, nv): int arrays of one shape holding the F_q[Z] values nu + nv Z
Pair = tuple[np.ndarray, np.ndarray]


def _poly_mulmod_zp(a, b, modulus: tuple[int, ...], p: int) -> list[int]:
    """a * b reduced modulo the monic modulus in Z_p[x]: the definition the
    multiplication table is built from."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_divmod_zp(prod, list(modulus), p)[1]


class FieldSpec:
    """The field F_q, q = p^e odd, together with the fixed non-square c.

    Elements are held as their canonical encodings 0..q-1.  The constructor
    builds the arithmetic once as flat lists indexed by encodings (a*q + b
    for two operands), defined on coefficient tuples: addition digit by
    digit mod p, multiplication as polynomials reduced by the modulus.  A
    prime field (e = 1) fills the same tables from residues mod p directly.
    `FqElem` and `Fq2Elem` operators are lookups into these tables.  The
    modulus must be monic irreducible of degree e; `make_field` picks it.
    Instances are immutable by convention and compare by their defining
    data (p, e, modulus, c).
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        q = p**e
        self.p, self.e, self.q, self.modulus = p, e, q, tuple(modulus)
        self._coeffs = coeffs = [tuple(n // p**i % p for i in range(e)) for n in range(q)]
        self._neg = [_encode([-x % p for x in a], p) for a in coeffs]
        self._inv = [None] * q  # zero has no inverse
        if e == 1:
            # Z_p itself: encodings are residues, so nothing is reduced by the
            # modulus; the entries are items of `res`, which shares their ints
            res = list(range(p))
            self._add = [x for a in res for x in res[a:] + res[:a]]
            self._mul = mul = [res[a * b % p] for a in res for b in res]
            self._inv[1:] = [pow(a, p - 2, p) for a in res[1:]]
        else:
            self._add = [_encode([(x + y) % p for x, y in zip(a, b)], p)
                         for a in coeffs for b in coeffs]
            self._mul = mul = [_encode(_poly_mulmod_zp(a, b, self.modulus, p), p)
                               for a in coeffs for b in coeffs]
            for ab, prod in enumerate(mul):
                if prod == 1:
                    self._inv[ab // q] = ab % q
        # c is the first non-square in the canonical ordering
        squared = [mul[u * q + u] for u in range(q)]
        squares = set(squared)
        c = next(n for n in range(1, q) if n not in squares)
        self.c = coeffs[c]
        self._cmul = [mul[c * q + n] for n in range(q)]
        # N(u + vZ) = u^2 - c v^2, indexed by the F_q[Z] encoding u + q*v
        self._norm = [self._add[s * q + t] for t in (self._neg[self._cmul[x]] for x in squared)
                      for s in squared]
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

    def zero(self) -> "FqElem":
        return FqElem(self, 0)

    def one(self) -> "FqElem":
        return FqElem(self, 1)

    def c_elem(self) -> "FqElem":
        return FqElem(self, self._cmul[1])  # c * 1

    def elements(self) -> list["FqElem"]:
        """All of F_q in canonical order."""
        return [FqElem(self, n) for n in range(self.q)]

    def ext_elements(self) -> list["Fq2Elem"]:
        """All of F_q[Z] in canonical order (u varies fastest)."""
        q = self.q
        return [Fq2Elem(self, n % q, n // q) for n in range(q * q)]

    def ext(self, u, v=0) -> "Fq2Elem":
        """u + vZ from encodings, coefficient sequences or elements."""
        if isinstance(u, int) and isinstance(v, int):  # the common case: constants
            return Fq2Elem(self, u % self.q, v % self.q)
        return Fq2Elem(self, self._code(u), self._code(v))

    # -- array API: F_q[Z] values as pairs (nu, nv) of int arrays ------------

    @cached_property
    def arrays(self) -> FieldArrays:
        """The tables as int arrays, built on first use."""
        inv = [0] + self._inv[1:]
        return FieldArrays(*(np.array(t, dtype=np.intp) for t in
                             (self._add, self._mul, self._neg, inv, self._cmul, self._norm)))

    def pair(self, elems) -> Pair:
        """The pair of arrays holding a sequence of `Fq2Elem`s."""
        return (np.array([x.nu for x in elems], dtype=np.intp),
                np.array([x.nv for x in elems], dtype=np.intp))

    def pair_add(self, x: Pair, y: Pair) -> Pair:
        add, q = self.arrays.add, self.q
        return add[x[0] * q + y[0]], add[x[1] * q + y[1]]

    def pair_neg(self, x: Pair) -> Pair:
        neg = self.arrays.neg
        return neg[x[0]], neg[x[1]]

    def pair_mul(self, x: Pair, y: Pair) -> Pair:
        """Elementwise `Fq2Elem.__mul__`; the operands broadcast."""
        t, q = self.arrays, self.q
        (a, b), (c, d) = x, y
        u = t.add[t.mul[a * q + c] * q + t.cmul[t.mul[b * q + d]]]
        v = t.add[t.mul[a * q + d] * q + t.mul[b * q + c]]
        return u, v

    def pair_conj(self, x: Pair) -> Pair:
        return x[0], self.arrays.neg[x[1]]

    def pair_norm(self, x: Pair) -> np.ndarray:
        """The encodings of N(x) in F_q."""
        return self.arrays.norm[x[0] + self.q * x[1]]

    def pair_inverse(self, x: Pair) -> Pair:
        """Elementwise `Fq2Elem.inverse`: conj(x) / N(x)."""
        t, q = self.arrays, self.q
        n = self.pair_norm(x)
        if not n.all():
            raise ZeroDivisionError("inversion of zero in F_q[Z]")
        ninv = t.inv[n]
        return t.mul[x[0] * q + ninv], t.mul[t.neg[x[1]] * q + ninv]


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
        s = self.spec
        return FqElem(s, s._add[self.n * s.q + other.n])

    def __sub__(self, other: "FqElem") -> "FqElem":
        s = self.spec
        return FqElem(s, s._add[self.n * s.q + s._neg[other.n]])

    def __neg__(self) -> "FqElem":
        return FqElem(self.spec, self.spec._neg[self.n])

    def __mul__(self, other: "FqElem") -> "FqElem":
        s = self.spec
        return FqElem(s, s._mul[self.n * s.q + other.n])

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElem":
        s = self.spec
        mul, q = s._mul, s.q
        result, base = 1, self.n
        while n:
            if n & 1:
                result = mul[result * q + base]
            base = mul[base * q + base]
            n >>= 1
        return FqElem(s, result)

    def inverse(self) -> "FqElem":
        if not self.n:
            raise ZeroDivisionError("inversion of zero in F_q")
        return FqElem(self.spec, self.spec._inv[self.n])

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
        s = self.spec
        add, q = s._add, s.q
        return Fq2Elem(s, add[self.nu * q + other.nu], add[self.nv * q + other.nv])

    def __sub__(self, other: "Fq2Elem") -> "Fq2Elem":
        s = self.spec
        add, neg, q = s._add, s._neg, s.q
        return Fq2Elem(s, add[self.nu * q + neg[other.nu]], add[self.nv * q + neg[other.nv]])

    def __neg__(self) -> "Fq2Elem":
        neg = self.spec._neg
        return Fq2Elem(self.spec, neg[self.nu], neg[self.nv])

    def __mul__(self, other: "Fq2Elem") -> "Fq2Elem":
        # (a + bZ)(c + dZ) = (ac + c_Z bd) + (ad + bc)Z, c_Z the non-square
        s = self.spec
        add, mul, q = s._add, s._mul, s.q
        a, b, c, d = self.nu, self.nv, other.nu, other.nv
        u = add[mul[a * q + c] * q + s._cmul[mul[b * q + d]]]
        v = add[mul[a * q + d] * q + mul[b * q + c]]
        return Fq2Elem(s, u, v)

    def __truediv__(self, other: "Fq2Elem") -> "Fq2Elem":
        return self * other.inverse()

    def conj(self) -> "Fq2Elem":
        """Frobenius conjugate: u + vZ -> u - vZ."""
        return Fq2Elem(self.spec, self.nu, self.spec._neg[self.nv])

    def norm(self) -> FqElem:
        """N(u + vZ) = u^2 - c v^2, an element of F_q."""
        s = self.spec
        return FqElem(s, s._norm[self.nu + s.q * self.nv])

    def inverse(self) -> "Fq2Elem":
        """conj(x) / N(x)."""
        s = self.spec
        mul, q = s._mul, s.q
        n = s._norm[self.nu + q * self.nv]
        if not n:
            raise ZeroDivisionError("inversion of zero in F_q[Z]")
        ninv = s._inv[n]
        return Fq2Elem(s, mul[self.nu * q + ninv], mul[s._neg[self.nv] * q + ninv])

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
    """Render a base-field element: an integer for prime fields, a
    polynomial in w otherwise."""
    if a.spec.e == 1:
        return str(a.coeffs[0])
    parts = []
    for i, coeff in enumerate(a.coeffs):
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
    if x.v.is_zero():
        return fq_label(x.u)
    vlab = fq_label(x.v)
    if vlab == "1":
        ztxt = "Z"
    elif "+" in vlab:
        ztxt = f"({vlab})Z"
    else:
        ztxt = f"{vlab}Z"
    if x.u.is_zero():
        return ztxt
    return f"{fq_label(x.u)}+{ztxt}"


# ---------------------------------------------------------------------------
# construction and fibers


def make_field(p: int, e: int = 1) -> FieldSpec:
    """Build F_q for q = p^e with the deterministic modulus and non-square.

    Raises ValueError unless p is an odd prime and e >= 1.
    """
    if not _is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if e == 1:
        modulus = (0, 1)
    else:
        modulus = None
        for f in _monic_polys_zp(e, p):
            if _is_irreducible_zp(f, p):
                modulus = tuple(f)
                break
        if modulus is None:  # cannot happen: irreducibles exist in every degree
            raise RuntimeError("no irreducible modulus found")
    spec = FieldSpec(p, e, modulus)
    # non-square certificate: c^((q-1)/2) = -1
    cert = spec.c_elem() ** ((spec.q - 1) // 2)
    if cert != -spec.one():
        raise RuntimeError("non-square certificate failed")
    return spec


def norm_fiber(spec: FieldSpec, target: FqElem) -> list[Fq2Elem]:
    """All alpha in F_q[Z] with N(alpha) = target, in canonical order.

    The fiber of any nonzero target has exactly q + 1 elements and is closed
    under negation.  A zero target is rejected.
    """
    target = spec.elem(target)
    if target.is_zero():
        raise ValueError("norm fiber of zero is not used; target must be nonzero")
    q, t = spec.q, target.n
    fiber = [Fq2Elem(spec, n % q, n // q) for n, norm in enumerate(spec._norm) if norm == t]
    if len(fiber) != spec.q + 1:
        raise RuntimeError("norm fiber has unexpected size")  # would signal a field bug
    return fiber
