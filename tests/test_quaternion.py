"""Quaternion oracle: the multiplication law, reduced norms, and projective
proportionality.  Frozen products were expanded by hand from F^2 = t and
F a = conj(a) F."""

import random

import numpy as np
import pytest

from ramshift.ffield import make_field
from ramshift.quaternion import QuatBatch, QuatElem, proportional, proportional_batch
from reference import ext_elements, reduced_norm


def gen(spec, alpha):
    return QuatElem.one_plus_alpha_f(spec, alpha)


def test_one_plus_f_times_one_minus_f(f3):
    one = f3.ext(1, 0)
    g = gen(f3, one) * gen(f3, -one)
    # 1 - t: scalar with coefficients (1, -1)
    assert g.x == ()
    assert g.u == (f3.ext(1, 0), f3.ext(2, 0))


def test_hand_expanded_product(f3):
    # (1+F)(1+(1+Z)F) = (1 + (1+2Z)t) + (2+Z)F
    g = gen(f3, f3.ext(1, 0)) * gen(f3, f3.ext(1, 1))
    assert g.u == (f3.ext(1, 0), f3.ext(1, 2))
    assert g.x == (f3.ext(2, 1),)
    assert str(g) == "1 + (1+2Z)t + (2+Z)*F"


def test_identity_is_neutral(f3):
    one = QuatElem.one(f3)
    for alpha in [f3.ext(1, 1), f3.ext(0, 2), f3.ext(2, 0)]:
        g = gen(f3, alpha)
        assert g * one == g
        assert one * g == g


def test_mismatched_fields_rejected(f3, f5):
    with pytest.raises(ValueError, match="different fields"):
        QuatElem.one(f3) * QuatElem.one(f5)


def _random_quat(spec, rng, max_deg=2):
    def poly():
        coeffs = tuple(
            spec.ext(rng.randrange(spec.q), rng.randrange(spec.q))
            for _ in range(rng.randint(1, max_deg + 1))
        )
        return coeffs
    g = QuatElem(spec, poly(), poly())
    # normalize through a multiplication by one to trim
    return g * QuatElem.one(spec)


@pytest.mark.parametrize("p", [3, 7])
def test_associativity_on_random_triples(p, request):
    from ramshift.ffield import make_field

    spec = make_field(p, 1)
    rng = random.Random(20240811 + p)
    for _ in range(25):
        a, b, c = (_random_quat(spec, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_reduced_norm_of_generators(f3, f5):
    from ramshift.ffield import norm_fiber

    for spec in (f3, f5):
        for target in spec.elements():
            if target.is_zero():
                continue
            for alpha in norm_fiber(spec, target):
                nrd = reduced_norm(gen(spec, alpha))
                # 1 - N(alpha) t
                assert nrd == (spec.one(), -alpha.norm())


def test_reduced_norm_of_one(f3):
    assert reduced_norm(QuatElem.one(f3)) == (f3.one(),)


def test_reduced_norm_multiplicative_on_random_pairs(f3):
    rng = random.Random(17)
    from ramshift.quaternion import p_mul

    done = 0
    while done < 10:
        g1, g2 = _random_quat(f3, rng), _random_quat(f3, rng)
        lhs = reduced_norm(g1 * g2)
        # independent side: polynomial product of the two norms over F_q
        n1, n2 = reduced_norm(g1), reduced_norm(g2)
        lift = lambda poly: tuple(f3.ext(c.coeffs, 0) for c in poly)
        rhs = tuple(c.u for c in p_mul(lift(n1), lift(n2)))
        assert lhs == rhs
        done += 1


def test_proportional_scalar_multiple(f3):
    g = gen(f3, f3.ext(1, 1))
    two = QuatElem.scalar(f3, f3.ext(2, 0))
    assert proportional(g, two * g)


def test_proportional_corrected_row(f3):
    # (1+F)(1+(1+Z)F) is proportional to (1+(2+2Z)F)(1+2Z F) ...
    lhs = gen(f3, f3.ext(1, 0)) * gen(f3, f3.ext(1, 1))
    rhs = gen(f3, f3.ext(2, 2)) * gen(f3, f3.ext(0, 2))
    assert proportional(lhs, rhs)
    # ... but not to (1+(2+2Z)F)(1+2F): the scalar parts differ in the
    # t-coefficient
    bad = gen(f3, f3.ext(2, 2)) * gen(f3, f3.ext(2, 0))
    assert not proportional(lhs, bad)


def test_proportional_rejects_zero(f3):
    zero = QuatElem(f3, (), ())
    with pytest.raises(ValueError, match="nonzero"):
        proportional(zero, QuatElem.one(f3))


def test_inverse_relation_is_scalar(f3):
    from ramshift.ffield import norm_fiber

    for target in (f3.elem(1), f3.elem(2)):
        for alpha in norm_fiber(f3, target):
            prod = gen(f3, alpha) * gen(f3, -alpha)
            assert prod.is_scalar()
            # and the scalar is 1 - N(alpha) t, projectively trivial
            expected = QuatElem(f3, (f3.ext(1, 0), f3.ext((-alpha.norm()).coeffs, 0)), ())
            assert proportional(prod, QuatElem.one(f3))
            assert prod == expected


# ---------------------------------------------------------------------------
# batches against the element API


def batch_of(spec, quats):
    """The QuatBatch whose rows are `quats`, components zero padded."""
    def component(polys):
        length = max(1, *(len(p) for p in polys))
        rows = [list(p) + [spec.ext(0, 0)] * (length - len(p)) for p in polys]
        return tuple(np.array([[getattr(c, part) for c in row] for row in rows], dtype=np.intp)
                     for part in ("nu", "nv"))
    return QuatBatch(spec, component([g.u for g in quats]), component([g.x for g in quats]))


def rows_of(batch):
    """The QuatElems of a batch's rows, trimmed."""
    spec = batch.spec

    def poly(pair, n):
        return _trimmed([spec.ext(a, b) for a, b in zip(pair[0][n].tolist(), pair[1][n].tolist())])
    return [QuatElem(spec, poly(batch.u, n), poly(batch.x, n)) for n in range(len(batch.u[0]))]


def _trimmed(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize("p,e", [(3, 1), (7, 1), (3, 2)])
def test_three_generator_products_match_quat_elem(p, e):
    spec = make_field(p, e)
    rng = random.Random(31 * p + e)
    elems = ext_elements(spec)
    alphas = [[rng.choice(elems) for _ in range(3)] for _ in range(150)]
    gens = [QuatBatch.generators(spec, spec.pair([row[i] for row in alphas])) for i in range(3)]
    expected = [gen(spec, a) * gen(spec, b) * gen(spec, c) for a, b, c in alphas]
    assert rows_of(gens[0] * gens[1] * gens[2]) == expected
    assert rows_of(gens[0] * (gens[1] * gens[2])) == expected


@pytest.mark.parametrize("p", [3, 7])
def test_batch_products_of_longer_polynomials_match_quat_elem(p):
    spec = make_field(p, 1)
    rng = random.Random(5 + p)
    left = [_random_quat(spec, rng, max_deg=3) for _ in range(60)]
    right = [_random_quat(spec, rng, max_deg=2) for _ in range(60)]
    # a zero component pads to a zero row
    left[0] = QuatElem(spec, (), left[0].x or (spec.ext(1, 0),))
    assert rows_of(batch_of(spec, left) * batch_of(spec, right)) == [a * b for a, b in zip(left, right)]


def test_proportional_batch_matches_the_scalar_test(f5):
    rng = random.Random(11)
    elems = ext_elements(f5)[1:]
    firsts, seconds = [], []
    for _ in range(80):
        g = gen(f5, rng.choice(elems)) * gen(f5, rng.choice(elems))
        scale = QuatElem.scalar(f5, rng.choice(elems))
        other = gen(f5, rng.choice(elems)) * gen(f5, rng.choice(elems))
        firsts += [g, g, g, QuatElem.one(f5), gen(f5, rng.choice(elems))]
        seconds += [scale * g, other, g * scale, scale, QuatElem(f5, (), (rng.choice(elems),))]
    verdicts = proportional_batch(batch_of(f5, firsts), batch_of(f5, seconds))
    assert verdicts.tolist() == [proportional(a, b) for a, b in zip(firsts, seconds)]
    assert verdicts.any() and not verdicts.all()


def test_proportional_batch_rejects_zero_rows(f3):
    ones = [QuatElem.one(f3)] * 3
    zero = QuatElem(f3, (), ())
    for first, second in ((ones, ones[:2] + [zero]), (ones[:2] + [zero], ones)):
        with pytest.raises(ValueError, match="nonzero"):
            proportional_batch(batch_of(f3, first), batch_of(f3, second))


def test_batch_operands_over_different_fields_are_rejected(f3, f5):
    with pytest.raises(ValueError, match="different fields"):
        batch_of(f3, [QuatElem.one(f3)]) * batch_of(f5, [QuatElem.one(f5)])


def test_batch_rows_select_elements(f5):
    rng = random.Random(17)
    quats = [_random_quat(f5, rng, max_deg=2) for _ in range(9)]
    batch = batch_of(f5, quats)
    assert rows_of(batch.rows(slice(2, 6))) == rows_of(batch)[2:6]
    assert rows_of(batch.rows(np.array([8, 0, 8]))) == [rows_of(batch)[k] for k in (8, 0, 8)]
