"""Field arithmetic: construction determinism, the quadratic extension,
conjugation, norms, and norm fibers.  Expected values are frozen from
brute-force oracles computed inside the tests."""

import numpy as np
import pytest

from ramshift import ffield
from ramshift.ffield import FIELD_SIZE_LIMIT, SizeCapExceeded, make_field, norm_fiber
from reference import ext_elements


def brute_nonresidue(p):
    squares = {(x * x) % p for x in range(1, p)}
    return min(x for x in range(1, p) if x not in squares)


def test_make_field_q3():
    spec = make_field(3, 1)
    assert spec.q == 3
    assert spec.c == (brute_nonresidue(3),) == (2,)
    assert spec.modulus == (0, 1)


def test_make_field_q5_and_q7():
    assert make_field(5, 1).c == (brute_nonresidue(5),) == (2,)
    assert make_field(7, 1).c == (brute_nonresidue(7),) == (3,)


@pytest.mark.parametrize("p", [2, 4, 9, 15, 1])
def test_make_field_rejects_non_odd_primes(p):
    with pytest.raises(ValueError, match="odd prime"):
        make_field(p, 1)


def test_make_field_q9_modulus_is_irreducible(f9):
    # oracle: no root in Z_3 and degree 2 means irreducible
    m = f9.modulus
    assert len(m) == 3 and m[2] == 1
    for x in range(3):
        assert (m[0] + m[1] * x + m[2] * x * x) % 3 != 0
    # c really is a non-square: exhaustive square set
    squares = {(a * a).encoding() for a in f9.elements()}
    assert f9.c_elem().encoding() not in squares
    # non-square certificate
    assert f9.c_elem() ** ((f9.q - 1) // 2) == -f9.one()


def test_canonical_order_is_the_integer_encoding(f9):
    encs = [a.encoding() for a in f9.elements()]
    assert encs == list(range(9))
    # the prime subfield comes first
    assert [a.coeffs for a in f9.elements()[:3]] == [(0, 0), (1, 0), (2, 0)]


def test_fq2_norm_example(f3):
    assert (f3.ext(1, 1)).norm() == f3.elem(2)  # N(1+Z) = 2


def test_fq2_inverse_by_exhaustive_search(f3):
    one = f3.ext(1, 0)
    alpha = f3.ext(1, 1)
    # oracle: scan all 9 elements for the product = 1
    inverses = [x for x in ext_elements(f3) if (alpha * x) == one]
    assert len(inverses) == 1
    assert inverses[0] == f3.ext(2, 1)  # 2+Z
    assert alpha.inverse() == inverses[0]


def test_inversion_of_zero_rejected(f3):
    with pytest.raises(ZeroDivisionError):
        f3.ext(0, 0).inverse()
    with pytest.raises(ZeroDivisionError):
        f3.elem(0).inverse()


@pytest.mark.parametrize("fixture", ["f3", "f9"])
def test_conj_is_an_order_two_ring_hom(fixture, request):
    spec = request.getfixturevalue(fixture)
    elems = ext_elements(spec)
    for x in elems:
        assert x.conj().conj() == x
        if x.v.is_zero():
            assert x.conj() == x  # fixes F_q pointwise
    z = spec.ext(0, 1)
    assert z.conj() == -z
    for x in elems:
        for y in elems[:: max(1, len(elems) // 12)]:
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()


@pytest.mark.parametrize("fixture", ["f3", "f5", "f9"])
def test_norm_multiplicative_exhaustive(fixture, request):
    spec = request.getfixturevalue(fixture)
    elems = ext_elements(spec)
    for x in elems:
        for y in elems:
            assert (x * y).norm() == x.norm() * y.norm()


def test_norm_fiber_q3(f3):
    v = norm_fiber(f3, f3.elem(1))
    assert [str(x) for x in v] == ["1", "2", "Z", "2Z"]
    h = norm_fiber(f3, f3.elem(2))
    assert {str(x) for x in h} == {"1+Z", "2+Z", "1+2Z", "2+2Z"}


def test_norm_fiber_q5_by_exhaustive_enumeration(f5):
    # independent oracle: recompute norms element by element
    c = f5.c_elem()
    expected = {
        x for x in ext_elements(f5)
        if (x.u * x.u - c * (x.v * x.v)) == f5.one()
    }
    fiber = norm_fiber(f5, f5.elem(1))
    assert set(fiber) == expected
    assert len(fiber) == 6


def test_norm_fiber_rejects_zero_target(f3):
    with pytest.raises(ValueError, match="nonzero"):
        norm_fiber(f3, f3.elem(0))


@pytest.mark.parametrize("fixture", ["f3", "f5", "f9"])
def test_fibers_partition_the_units(fixture, request):
    spec = request.getfixturevalue(fixture)
    seen = set()
    for target in spec.elements():
        if target.is_zero():
            continue
        fiber = norm_fiber(spec, target)
        assert len(fiber) == spec.q + 1
        assert all(-x in fiber for x in fiber)  # closed under negation
        assert seen.isdisjoint(fiber)
        seen.update(fiber)
    assert len(seen) == spec.q * spec.q - 1


# ---------------------------------------------------------------------------
# the tables against the coefficient-tuple definition


class TupleField:
    """F_q and F_q[Z] on coefficient tuples: schoolbook products folded by
    x^e = -(m_0 + ... + m_{e-1} x^{e-1}), inverses by a^(q-2).  Independent
    of the tables the field builds."""

    def __init__(self, spec):
        self.p, self.e, self.q, self.c = spec.p, spec.e, spec.q, spec.c
        self.fold = [(-m) % spec.p for m in spec.modulus[:spec.e]]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        e, p = self.e, self.p
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for k in range(2 * e - 2, e - 1, -1):
            coeff, prod[k] = prod[k], 0
            for i, fi in enumerate(self.fold):
                prod[k - e + i] = (prod[k - e + i] + coeff * fi) % p
        return tuple(prod[:e])

    def inv(self, a):
        result, n = (1,) + (0,) * (self.e - 1), self.q - 2
        while n:
            if n & 1:
                result = self.mul(result, a)
            a, n = self.mul(a, a), n >> 1
        return result

    def mul2(self, x, y):
        (a, b), (c, d) = x, y
        return (self.add(self.mul(a, c), self.mul(self.c, self.mul(b, d))),
                self.add(self.mul(a, d), self.mul(b, c)))

    def norm2(self, x):
        u, v = x
        return self.sub(self.mul(u, u), self.mul(self.c, self.mul(v, v)))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (11, 1), (31, 1), (101, 1),
                                 (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)])
def test_tables_match_the_tuple_definition_on_every_pair(p, e):
    # one builder for every p^e: prime fields reduce by the modulus x, and
    # e = 3, 4 take more than one reduction step
    spec = make_field(p, e)
    ref = TupleField(spec)
    elems = spec.elements()
    assert [a.coeffs for a in elems] == sorted({a.coeffs for a in elems}, key=lambda c: c[::-1])
    for a in elems:
        assert (-a).coeffs == ref.neg(a.coeffs)
        if not a.is_zero():
            assert a.inverse().coeffs == ref.inv(a.coeffs)
        for b in elems:
            assert (a + b).coeffs == ref.add(a.coeffs, b.coeffs)
            assert (a - b).coeffs == ref.sub(a.coeffs, b.coeffs)
            assert (a * b).coeffs == ref.mul(a.coeffs, b.coeffs)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_extension_ops_match_the_tuple_definition_on_every_pair(p, e):
    spec = make_field(p, e)
    ref = TupleField(spec)
    pair = lambda x: (x.u.coeffs, x.v.coeffs)
    elems = ext_elements(spec)
    for x in elems:
        assert pair(x.conj()) == (x.u.coeffs, ref.neg(x.v.coeffs))
        assert x.norm().coeffs == ref.norm2(pair(x))
        for y in elems:
            prod = x * y
            assert pair(prod) == ref.mul2(pair(x), pair(y))
            if not y.is_zero():
                # x / y is the z with z * y = x
                assert ref.mul2(pair(x / y), pair(y)) == pair(x)


def test_elements_keep_their_encoding_api(f9):
    x = f9.ext(f9.elem((1, 1)), (2, 1))
    assert (x.u.encoding(), x.v.encoding(), x.encoding()) == (4, 5, 4 + 9 * 5)
    assert f9.ext(4, 5) == x and hash(f9.ext(4, 5)) == hash(x)
    assert str(x) == "1+w+(2+w)Z"
    assert f9.elem(13) == f9.elem(4)  # ints are taken mod q
    with pytest.raises(ValueError, match="length 2"):
        f9.elem((1, 1, 1))


def test_equal_encodings_in_different_fields_differ(f3, f5):
    assert f3.elem(1) != f5.elem(1)
    assert f3.ext(1, 1) != f5.ext(1, 1)
    assert make_field(3, 1).elem(2) == f3.elem(2)  # equal fields built twice
    with pytest.raises(ValueError, match="different field"):
        f5.elem(f3.elem(1))


def test_make_field_builds_the_tables_once(monkeypatch):
    built = []
    original = ffield.FieldSpec.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(ffield.FieldSpec, "__init__", counting)
    make_field(3, 3)
    assert len(built) == 1


@pytest.mark.parametrize("p,e", [(2053, 1), (3, 7), (3, 8), (3, 10**9), (4099, 3)])
def test_fields_above_the_size_cap_are_refused_before_any_work(p, e, monkeypatch):
    def refuse(*args):
        raise AssertionError("no modulus search and no table above the cap")

    monkeypatch.setattr(ffield, "_monic_polys_zp", refuse)
    monkeypatch.setattr(ffield.FieldSpec, "__init__", refuse)
    with pytest.raises(SizeCapExceeded, match=f"capped at q = {FIELD_SIZE_LIMIT}"):
        make_field(p, e)


def test_the_largest_prime_field_under_the_cap_builds():
    spec = make_field(2039)
    assert spec.q == 2039 and spec.arrays.add.shape == spec.arrays.mul.shape == (2039, 2039)
    assert spec.c == (brute_nonresidue(2039),)
    assert len(norm_fiber(spec, spec.one())) == 2040


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2)])
def test_pair_ops_match_the_element_ops_on_every_pair(p, e):
    spec = make_field(p, e)
    elems = ext_elements(spec)
    xs = [x for x in elems for _ in elems]
    ys = elems * len(elems)
    x, y = spec.pair(xs), spec.pair(ys)
    as_list = lambda pair: list(zip(pair[0].tolist(), pair[1].tolist()))
    codes = lambda values: [(z.nu, z.nv) for z in values]
    assert as_list(spec.pair_add(x, y)) == codes(a + b for a, b in zip(xs, ys))
    assert as_list(spec.pair_mul(x, y)) == codes(a * b for a, b in zip(xs, ys))
    assert as_list(spec.pair_neg(x)) == codes(-a for a in xs)
    assert as_list(spec.pair_conj(x)) == codes(a.conj() for a in xs)
    assert spec.pair_norm(x).tolist() == [a.norm().n for a in xs]


def test_pair_ops_broadcast_like_numpy(f5):
    # a column times a row is the table of all products
    elems = ext_elements(f5)[:6]
    u, v = f5.pair(elems)
    table = f5.pair_mul((u[:, None], v[:, None]), (u[None, :], v[None, :]))
    assert table[0].shape == table[1].shape == (6, 6)
    assert [list(zip(*row)) for row in zip(table[0].tolist(), table[1].tolist())] == \
        [[((a * b).nu, (a * b).nv) for b in elems] for a in elems]


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_batch_labels_match_the_element_labels(p, e):
    spec = make_field(p, e)
    elems = ext_elements(spec)
    assert ffield.fq2_labels(elems) == [ffield.fq2_label(x) for x in elems]
    assert ffield.fq2_labels(elems[::-7]) == [ffield.fq2_label(x) for x in elems[::-7]]
    assert ffield.fq2_labels([]) == []
    assert len(set(ffield.fq2_labels(elems))) == spec.q ** 2


@pytest.mark.parametrize("p,e", [(3, 1), (31, 1), (3, 3), (5, 2), (3, 4)])
def test_tables_built_in_row_blocks_are_the_one_block_tables(p, e, monkeypatch):
    whole = make_field(p, e).arrays
    for rows in (1, 2, 7):
        # blocks of one row, of two, and of seven with a shorter last block
        monkeypatch.setattr(ffield, "_BLOCK_DIGITS", rows * p ** e * (2 * e - 1))
        blocked = make_field(p, e).arrays
        for name, table in zip(whole._fields, whole):
            assert getattr(blocked, name).dtype == table.dtype
            assert np.array_equal(getattr(blocked, name), table), name
