"""Symbolic arithmetic for quaternions of the form u(t) + x(t)F.

The ambient algebra over F_q(t) has relations Z^2 = c, F^2 = t and
ZF = -FZ, so F a = conj(a) F for a in F_q[Z] and

    (u1 + x1 F)(u2 + x2 F) = (u1 u2 + t x1 conj(x2)) + (u1 x2 + x1 conj(u2)) F.

Elements with both components polynomial in t are closed under this product,
which is all the lattice relations ever need, so only that two-component
form is implemented.  Arithmetic is exact; t is never evaluated.

Polynomials are tuples of Fq2Elem coefficients, low degree first, with
trailing zeros trimmed (the zero polynomial is the empty tuple).

`QuatBatch` holds N such elements at once, each component as a pair of int
arrays of shape (N, L) (see `ffield.Pair`), padded with zero coefficients
instead of trimmed.  Its product uses the formula above and
`proportional_batch` the same test as `proportional` (the cross product
u1 x2 - u2 x1 must vanish), both as table gathers over whole columns.
Each component of a product is a sum of polynomial products t^k a b,
accumulated column by column into one preallocated zero batch, so no
batch is ever padded or shifted by copying.  Certifying many relations
costs a few dozen numpy calls instead of one `QuatElem` product per
relation.  `QuatElem` and `proportional` stay the element API and the
reference for the batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ffield import FieldSpec, Fq2Elem, Pair, fq2_label


Poly = tuple[Fq2Elem, ...]


def _trim(coeffs: list[Fq2Elem]) -> Poly:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


def p_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] = out[i] + bi
    return _trim(out)


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    spec = a[0].spec
    zero = spec.ext(0, 0)
    out = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return _trim(out)


def p_shift(a: Poly) -> Poly:
    """Multiply by t."""
    if not a:
        return ()
    return (a[0].spec.ext(0, 0),) + a


def p_conj(a: Poly) -> Poly:
    """Coefficient-wise Frobenius conjugation."""
    return tuple(ai.conj() for ai in a)


def p_label(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        coeff = fq2_label(ai)
        if "+" in coeff and i > 0:
            coeff = f"({coeff})"
        if i == 0:
            parts.append(coeff)
        elif i == 1:
            parts.append("t" if coeff == "1" else f"{coeff}t")
        else:
            parts.append(f"t^{i}" if coeff == "1" else f"{coeff}t^{i}")
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class QuatElem:
    """u(t) + x(t)F with Fq2Elem polynomial components."""

    spec: FieldSpec
    u: Poly
    x: Poly

    @staticmethod
    def scalar(spec: FieldSpec, value: Fq2Elem) -> "QuatElem":
        return QuatElem(spec, _trim([value]), ())

    @staticmethod
    def one(spec: FieldSpec) -> "QuatElem":
        return QuatElem.scalar(spec, spec.ext(1, 0))

    @staticmethod
    def one_plus_alpha_f(spec: FieldSpec, alpha: Fq2Elem) -> "QuatElem":
        """The group generator 1 + alpha*F."""
        return QuatElem(spec, (spec.ext(1, 0),), _trim([alpha]))

    def __mul__(self, other: "QuatElem") -> "QuatElem":
        if self.spec != other.spec:
            raise ValueError("quaternion operands live over different fields")
        u = p_add(p_mul(self.u, other.u), p_shift(p_mul(self.x, p_conj(other.x))))
        x = p_add(p_mul(self.u, other.x), p_mul(self.x, p_conj(other.u)))
        return QuatElem(self.spec, u, x)

    def is_zero(self) -> bool:
        return not self.u and not self.x

    def is_scalar(self) -> bool:
        """True when the F-component vanishes (value in F_q[Z][t])."""
        return not self.x

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        if not self.x:
            return p_label(self.u)
        xl = p_label(self.x)
        if " + " in xl or "+" in xl:
            xl = f"({xl})"
        if not self.u:
            return f"{xl}*F"
        return f"{p_label(self.u)} + {xl}*F"

    def __repr__(self) -> str:
        return f"Quat({self})"


def proportional(g1: QuatElem, g2: QuatElem) -> bool:
    """Projective equality: is g2 a nonzero F_q(t)-scalar multiple of g1?

    Decided exactly by the polynomial cross product u1*x2 = u2*x1 together
    with agreement of which components vanish.  Zero arguments are rejected.
    """
    if g1.is_zero() or g2.is_zero():
        raise ValueError("proportionality is only defined for nonzero elements")
    if (not g1.u) != (not g2.u) or (not g1.x) != (not g2.x):
        return False
    return p_mul(g1.u, g2.x) == p_mul(g2.u, g1.x)


# ---------------------------------------------------------------------------
# batches: polynomial components as pairs of (N, L) int arrays


def _sum_of_products(spec: FieldSpec, terms) -> Pair:
    """Row-wise sum of the polynomial products t^k a b over the terms
    (a, b, k), each a and b an (N, L) batch, accumulated into one
    preallocated zero batch as long as the longest term."""
    n = terms[0][0][0].shape[0]
    length = max(a[0].shape[1] + b[0].shape[1] - 1 + k for a, b, k in terms)
    out = np.zeros((2, n, length), dtype=np.intp)
    for a, b, k in terms:
        lb = b[0].shape[1]
        for i in range(a[0].shape[1]):
            term = spec.pair_mul((a[0][:, i:i + 1], a[1][:, i:i + 1]), b)
            j = slice(i + k, i + k + lb)
            out[:, :, j] = spec.pair_add((out[0, :, j], out[1, :, j]), term)
    return out[0], out[1]


def _zero_rows(a: Pair) -> np.ndarray:
    return ~(a[0].any(axis=1) | a[1].any(axis=1))


@dataclass(frozen=True, eq=False)
class QuatBatch:
    """N elements u(t) + x(t)F: row n of the polynomial batches u and x
    (pairs of (N, L) int arrays, one length L >= 1 per component, zero
    padded) is element n."""

    spec: FieldSpec
    u: Pair
    x: Pair

    @staticmethod
    def generators(spec: FieldSpec, alpha: Pair) -> "QuatBatch":
        """The generators 1 + alpha_n F for a pair of 1-d arrays alpha."""
        one = np.ones((len(alpha[0]), 1), dtype=np.intp)
        return QuatBatch(spec, (one, np.zeros_like(one)), (alpha[0][:, None], alpha[1][:, None]))

    def __mul__(self, other: "QuatBatch") -> "QuatBatch":
        """Row-wise `QuatElem.__mul__`."""
        if self.spec != other.spec:
            raise ValueError("quaternion operands live over different fields")
        s = self.spec
        u = _sum_of_products(s, [(self.u, other.u, 0), (self.x, s.pair_conj(other.x), 1)])
        x = _sum_of_products(s, [(self.u, other.x, 0), (self.x, s.pair_conj(other.u), 0)])
        return QuatBatch(s, u, x)

    def rows(self, index) -> "QuatBatch":
        """The batch of the rows `index` (a slice or index array) selects."""
        return QuatBatch(self.spec, (self.u[0][index], self.u[1][index]), (self.x[0][index], self.x[1][index]))

    def is_scalar(self) -> np.ndarray:
        """Row-wise `QuatElem.is_scalar`."""
        return _zero_rows(self.x)


def proportional_batch(g1: QuatBatch, g2: QuatBatch) -> np.ndarray:
    """Row-wise `proportional`: True where row n of g2 is a nonzero
    F_q(t)-multiple of row n of g1.  A zero row in either is rejected."""
    zu1, zx1, zu2, zx2 = (_zero_rows(c) for c in (g1.u, g1.x, g2.u, g2.x))
    if (zu1 & zx1).any() or (zu2 & zx2).any():
        raise ValueError("proportionality is only defined for nonzero elements")
    # the cross product u1 x2 - u2 x1 vanishes
    cross = _sum_of_products(g1.spec, [(g1.u, g2.x, 0), (g1.spec.pair_neg(g2.u), g1.x, 0)])
    return (zu1 == zu2) & (zx1 == zx2) & _zero_rows(cross)
