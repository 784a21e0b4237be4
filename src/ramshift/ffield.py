"""Exact arithmetic in F_q (q an odd prime power) and in the quadratic
extension F_q[Z] defined by Z^2 = c for a fixed non-square c.

Conventions
-----------
* An element of F_q is a coefficient tuple of length e (low degree first),
  reduced modulo a fixed monic irreducible modulus over Z_p.
* The canonical ordering of F_q enumerates elements by the integer encoding
  c_0 + c_1*p + ... + c_{e-1}*p^{e-1}, so the prime subfield 0, 1, ..., p-1
  comes first.  This ordering is used everywhere symbols or vertices need a
  reproducible order.
* The modulus is the lexicographically smallest monic irreducible of its
  degree (coefficients compared low degree first); for e = 1 it is the
  variable itself.  c is the first non-square in the canonical ordering.
  Both choices are deterministic so every downstream object is
  bit-reproducible.
* Conjugation on F_q[Z] is the Frobenius x -> x^q, which fixes F_q and sends
  Z to -Z.  The norm N(x) = x * conj(x) lands in F_q.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


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


class FieldSpec:
    """The field F_q, q = p^e odd, together with the fixed non-square c.

    Carries the raw tuple arithmetic; `FqElem` and `Fq2Elem` wrap it with
    operators.  Instances are immutable by convention and compare by their
    defining data (p, e, modulus, c).
    """

    def __init__(self, p: int, e: int, modulus: tuple[int, ...], c: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self.c = c
        # x^e = -(m_0 + m_1 x + ... + m_{e-1} x^{e-1})
        self._fold = tuple((-m) % p for m in modulus[:e])

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.p, self.e, self.modulus, self.c)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus}, c={self.c})"

    # -- raw coefficient-tuple arithmetic -----------------------------------

    def _zero(self) -> tuple[int, ...]:
        return (0,) * self.e

    def _one(self) -> tuple[int, ...]:
        return (1,) + (0,) * (self.e - 1)

    def _add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def _sub(self, a, b) -> tuple[int, ...]:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def _neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % self.p for x in a)

    def _mul(self, a, b) -> tuple[int, ...]:
        e, p = self.e, self.p
        if e == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        # reduce degree >= e using x^e = fold
        for k in range(2 * e - 2, e - 1, -1):
            coeff = prod[k]
            if coeff:
                prod[k] = 0
                for i, fi in enumerate(self._fold):
                    prod[k - e + i] = (prod[k - e + i] + coeff * fi) % p
        return tuple(prod[:e])

    def _pow(self, a, n: int) -> tuple[int, ...]:
        result = self._one()
        base = a
        while n:
            if n & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            n >>= 1
        return result

    def _inv(self, a) -> tuple[int, ...]:
        if not any(a):
            raise ZeroDivisionError("inversion of zero in F_q")
        return self._pow(a, self.q - 2)

    # -- canonical enumeration ----------------------------------------------

    def _enc(self, a) -> int:
        return sum(coeff * self.p**i for i, coeff in enumerate(a))

    def _dec(self, n: int) -> tuple[int, ...]:
        coeffs = []
        for _ in range(self.e):
            coeffs.append(n % self.p)
            n //= self.p
        return tuple(coeffs)

    # -- element-level API ---------------------------------------------------

    def elem(self, value) -> "FqElem":
        """Coerce an int (canonical encoding) or coefficient sequence."""
        if isinstance(value, FqElem):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FqElem(self, self._dec(value % self.q))
        coeffs = tuple(int(x) % self.p for x in value)
        if len(coeffs) != self.e:
            raise ValueError(f"coefficient sequence must have length {self.e}")
        return FqElem(self, coeffs)

    def zero(self) -> "FqElem":
        return FqElem(self, self._zero())

    def one(self) -> "FqElem":
        return FqElem(self, self._one())

    def c_elem(self) -> "FqElem":
        return FqElem(self, self.c)

    def elements(self) -> list["FqElem"]:
        """All of F_q in canonical order."""
        return [FqElem(self, self._dec(n)) for n in range(self.q)]

    def ext_elements(self) -> list["Fq2Elem"]:
        """All of F_q[Z] in canonical order (u varies fastest)."""
        out = []
        for nv in range(self.q):
            v = FqElem(self, self._dec(nv))
            for nu in range(self.q):
                out.append(Fq2Elem(self, FqElem(self, self._dec(nu)), v))
        return out

    def ext(self, u, v=0) -> "Fq2Elem":
        return Fq2Elem(self, self.elem(u), self.elem(v))


@dataclass(frozen=True)
class FqElem:
    """An element of F_q as a reduced coefficient tuple."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _wrap(self, coeffs) -> "FqElem":
        return FqElem(self.spec, coeffs)

    def __add__(self, other: "FqElem") -> "FqElem":
        return self._wrap(self.spec._add(self.coeffs, other.coeffs))

    def __sub__(self, other: "FqElem") -> "FqElem":
        return self._wrap(self.spec._sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "FqElem":
        return self._wrap(self.spec._neg(self.coeffs))

    def __mul__(self, other: "FqElem") -> "FqElem":
        return self._wrap(self.spec._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        return self * other.inverse()

    def __pow__(self, n: int) -> "FqElem":
        return self._wrap(self.spec._pow(self.coeffs, n))

    def inverse(self) -> "FqElem":
        return self._wrap(self.spec._inv(self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def encoding(self) -> int:
        return self.spec._enc(self.coeffs)

    def is_square(self) -> bool:
        """Nonzero squares only; zero counts as a square."""
        if self.is_zero():
            return True
        half = self**((self.spec.q - 1) // 2)
        return half == self.spec.one()

    def __str__(self) -> str:
        return fq_label(self)

    def __repr__(self) -> str:
        return f"Fq({fq_label(self)})"


@dataclass(frozen=True)
class Fq2Elem:
    """An element u + vZ of F_q[Z], Z^2 = c."""

    spec: FieldSpec
    u: FqElem
    v: FqElem

    def _wrap(self, u: FqElem, v: FqElem) -> "Fq2Elem":
        return Fq2Elem(self.spec, u, v)

    def __add__(self, other: "Fq2Elem") -> "Fq2Elem":
        return self._wrap(self.u + other.u, self.v + other.v)

    def __sub__(self, other: "Fq2Elem") -> "Fq2Elem":
        return self._wrap(self.u - other.u, self.v - other.v)

    def __neg__(self) -> "Fq2Elem":
        return self._wrap(-self.u, -self.v)

    def __mul__(self, other: "Fq2Elem") -> "Fq2Elem":
        c = self.spec.c_elem()
        u = self.u * other.u + c * (self.v * other.v)
        v = self.u * other.v + self.v * other.u
        return self._wrap(u, v)

    def __truediv__(self, other: "Fq2Elem") -> "Fq2Elem":
        return self * other.inverse()

    def conj(self) -> "Fq2Elem":
        """Frobenius conjugate: u + vZ -> u - vZ."""
        return self._wrap(self.u, -self.v)

    def norm(self) -> FqElem:
        """N(u + vZ) = u^2 - c v^2, an element of F_q."""
        c = self.spec.c_elem()
        return self.u * self.u - c * (self.v * self.v)

    def inverse(self) -> "Fq2Elem":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("inversion of zero in F_q[Z]")
        ninv = n.inverse()
        conj = self.conj()
        return self._wrap(conj.u * ninv, conj.v * ninv)

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def encoding(self) -> int:
        return self.u.encoding() + self.spec.q * self.v.encoding()

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
    spec = FieldSpec(p, e, modulus, (0,) * e)
    c = None
    for a in spec.elements():
        if not a.is_zero() and not a.is_square():
            c = a
            break
    if c is None:
        raise RuntimeError("no non-square found")  # impossible for odd q
    spec = FieldSpec(p, e, modulus, c.coeffs)
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
    fiber = [x for x in spec.ext_elements() if x.norm() == target]
    if len(fiber) != spec.q + 1:
        raise RuntimeError("norm fiber has unexpected size")  # would signal a field bug
    return fiber
