"""Datum construction and its one form of R, the twist formula,
validation, relation certification, Wang tiles, and the file format."""

import random
from collections import Counter
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import random_vh_datum

from ramshift.ffield import fq2_label, make_field
from ramshift.quaternion import QuatBatch, QuatElem, proportional, proportional_batch
from ramshift.vhdatum import (
    DatumReport,
    InvalidDatum,
    VHDatum,
    _twisted_pairs,
    build_quaternionic_datum,
    datum_from_dict,
    datum_to_dict,
    dumps_datum,
    loads_datum,
    read_datum,
    tiles_to_svg,
    validate_datum,
    verify_relations,
    write_datum,
)
from reference import direct_product_datum, zeta

GOLDEN = "tests/data/d12_q3.json"


def test_zeta_values(f3):
    assert zeta(f3.ext(1, 0), f3.ext(1, 1)) == f3.ext(2, 0)
    assert zeta(f3.ext(1, 1), f3.ext(1, 0)) == f3.ext(0, 2)


@pytest.mark.parametrize("fixture", ["f3", "f5"])
def test_zeta_has_norm_one(fixture, request):
    from ramshift.ffield import norm_fiber

    spec = request.getfixturevalue(fixture)
    v = norm_fiber(spec, spec.elem(1))
    h = norm_fiber(spec, spec.elem(2).inverse())
    for alpha in v:
        for beta in h:
            assert zeta(alpha, beta).norm() == spec.one()


def test_zeta_preconditions(f3):
    with pytest.raises(ValueError, match="nonzero"):
        zeta(f3.ext(1, 0), f3.ext(0, 0))
    with pytest.raises(ValueError, match="N\\(alpha\\)"):
        zeta(f3.ext(1, 0), f3.ext(2, 0))  # both norm 1


def test_datum_q3_shape_and_contents(d12_q3):
    assert (len(d12_q3.V), len(d12_q3.H), len(d12_q3.R)) == (4, 4, 16)
    labeled = {
        (d12_q3.V[a], d12_q3.H[b], d12_q3.H[c], d12_q3.V[d])
        for a, b, c, d in d12_q3.R
    }
    assert ("1", "1+Z", "2+2Z", "2Z") in labeled


def test_datum_preconditions(f3):
    with pytest.raises(ValueError, match="distinct"):
        build_quaternionic_datum(f3, 1, 1)
    with pytest.raises(ValueError, match="nonzero"):
        build_quaternionic_datum(f3, 0, 2)


def _hand_built():
    # the (1, 1) direct product, R given as a mix of tuples and lists
    return VHDatum(V=["a", "a'"], H=["x", "x'"], inv_V=[1, 0], inv_H=[1, 0],
                   R=[(0, 0, 0, 0), [0, 1, 1, 0], (1, 0, 0, 1), [1, 1, 1, 1]])


@pytest.mark.parametrize("source", ["built", "read", "direct_product", "hand_built", "empty"])
def test_r_is_one_read_only_int64_array_of_rows(source, d12_q3):
    datum = {
        "built": lambda: d12_q3,
        "read": lambda: loads_datum(dumps_datum(d12_q3)),
        "direct_product": lambda: direct_product_datum(2, 3),
        "hand_built": _hand_built,
        # an empty R is never valid (`test_empty_datum_is_refused`): the smallest datum
        "empty": lambda: direct_product_datum(1, 1),
    }[source]()
    R = datum.R
    assert type(R) is np.ndarray and R.dtype == np.int64 and R.shape == (len(R), 4)
    assert not R.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        R[0:1, 0] = 0
    assert R.T.base is R  # the four columns are views


def test_construction_copies_a_callers_array():
    rows = np.array([[0, 0, 0, 0], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1]])
    datum = replace(_hand_built(), R=rows)
    assert rows.flags.writeable and not np.shares_memory(rows, datum.R)
    assert datum.R.tolist() == rows.tolist()


@pytest.mark.parametrize("entry,error,message", [
    pytest.param((0, 1, 1), ValueError, "4-tuples", id="three_wide"),
    pytest.param((0, 1, 1, 0, 0), ValueError, "4-tuples", id="five_wide"),
    pytest.param((0, 1.0, 1, 0), TypeError, "float64", id="float"),
    pytest.param((0, 2 ** 70, 1, 0), TypeError, "object", id="beyond_int64"),
    pytest.param((0, "1", 1, 0), TypeError, "integers", id="string"),
])
def test_construction_refuses_r_that_is_no_int64_rows(entry, error, message, d12_q3):
    # one bad entry among valid rows, at construction and in a replace
    rows = d12_q3.R.tolist()
    rows[5] = entry
    with pytest.raises(error, match=message):
        VHDatum(V=d12_q3.V, H=d12_q3.H, inv_V=d12_q3.inv_V, inv_H=d12_q3.inv_H, R=rows)
    with pytest.raises(error, match=message):
        replace(d12_q3, R=rows)
    with pytest.raises(error, match=message):
        replace(d12_q3, R=[entry])  # not ragged: the whole R is 3 or 5 wide, or of one bad type


def _stand_in(V, H, inv_V, inv_H, R):
    """The five fields of a datum, R as int64 rows, without the check that
    construction runs: what `validate_datum` and its loop reference read."""
    return SimpleNamespace(V=V, H=H, inv_V=inv_V, inv_H=inv_H, R=np.array(R, dtype=np.int64).reshape(-1, 4))


def _refused(**fields) -> DatumReport:
    """The report of the `InvalidDatum` that constructing `fields` raises,
    which equals `validate_datum` of their stand-in."""
    with pytest.raises(InvalidDatum) as refused:
        VHDatum(**fields)
    report = refused.value.report
    assert str(refused.value) == f"invalid datum: {report.violations[0]}"
    want = validate_datum(_stand_in(**fields))
    assert (report.violations, report.checked) == (want.violations, want.checked)
    return report


def test_validate_flags_degenerate_tuple():
    # a lone (a, b, b^-1, a^-1) tuple violates property (2) (and more)
    report = _refused(V=["a", "a'"], H=["x", "x'"], inv_V=[1, 0], inv_H=[1, 0], R=[(0, 0, 1, 1)])
    assert not report.ok
    assert any("property (2)" in v for v in report.violations)


def test_validate_flags_projection_collision():
    report = _refused(
        V=["a", "a'"], H=["x", "x'"], inv_V=[1, 0], inv_H=[1, 0],
        R=[(0, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1), (1, 1, 0, 0)],
    )
    assert any("projection (a,b)" in v for v in report.violations)


def test_validate_flags_broken_involution():
    report = _refused(V=["a", "a'"], H=["x", "x'"], inv_V=[0, 1], inv_H=[1, 0], R=[])
    assert any("fixed point" in v for v in report.violations)


def test_empty_datum_is_refused():
    # both sides need symbols; the rule ends the check before R is read
    report = _refused(V=[], H=[], inv_V=[], inv_H=[], R=[])
    assert (report.violations, report.checked) == (["V and H must be nonempty"], 2)
    with pytest.raises(InvalidDatum, match="^invalid datum: V and H must be nonempty$"):
        VHDatum([], [], [], [], [])
    # one empty side: every other rule holds vacuously for an empty R
    assert _refused(V=["a", "a'"], H=[], inv_V=[1, 0], inv_H=[], R=[]).violations == ["V and H must be nonempty"]


def loop_validate_datum(datum):
    """One tuple at a time, with a set of the tuples and a dict per
    projection: the reference for `validate_datum` (which also requires
    distinct labels, a check this loop leaves out)."""
    bad = []
    checked = 0
    nv, nh = len(datum.V), len(datum.H)

    def tup_label(t):
        a, b, c, d = t
        return f"({datum.V[a]}, {datum.H[b]}, {datum.H[c]}, {datum.V[d]})"

    for name, size, inv in (("inv_V", nv, datum.inv_V), ("inv_H", nh, datum.inv_H)):
        checked += 1
        if len(inv) != size or sorted(inv) != list(range(size)):
            bad.append(f"{name} is not a permutation of 0..{size - 1}")
            continue
        for i, j in enumerate(inv):
            if j == i:
                bad.append(f"{name} has fixed point at index {i}")
            if inv[j] != i:
                bad.append(f"{name} is not an involution at index {i}")
    if nv % 2 or nh % 2:
        bad.append("V and H must have even size")
    if not (nv and nh):
        bad.append("V and H must be nonempty")
    if bad:
        return DatumReport(bad, checked)

    rows = list(map(tuple, datum.R.tolist()))
    rset = set(rows)
    if len(rset) != len(rows):
        bad.append("R contains duplicate tuples")
    for t in rows:
        a, b, c, d = t
        if not (0 <= a < nv and 0 <= d < nv and 0 <= b < nh and 0 <= c < nh):
            bad.append(f"tuple {t} has out-of-range indices")
            return DatumReport(bad, checked)

    ia, ih = datum.inv_V, datum.inv_H
    for t in rows:
        a, b, c, d = t
        checked += 1
        for comp in ((ia[a], c, b, ia[d]), (ia[d], ih[c], ih[b], ia[a]), (d, ih[b], ih[c], a)):
            if comp not in rset:
                bad.append(f"property (1): companion {tup_label(comp)} of {tup_label(t)} missing")
        if c == ih[b] and d == ia[a]:
            bad.append(f"property (2): degenerate tuple {tup_label(t)}")

    if len(rows) != nv * nh:
        bad.append(f"|R| = {len(rows)} but |V||H| = {nv * nh}")
    for name, proj in (
        ("(a,b)", lambda t: (t[0], t[1])),
        ("(c,d)", lambda t: (t[2], t[3])),
        ("(a,c)", lambda t: (t[0], t[2])),
        ("(b,d)", lambda t: (t[1], t[3])),
    ):
        checked += 1
        seen = {}
        for t in rows:
            key = proj(t)
            if key in seen:
                bad.append(f"property (3): projection {name} collides on {tup_label(t)} and {tup_label(seen[key])}")
            seen[key] = t
    return DatumReport(bad, checked)


def _mutations(datum, rng):
    """Single mutations of a valid datum, each with its name and its five
    fields: one kind of fault at a time, at seeded random places.  An index
    beyond int64 is no mutation: construction refuses it as no int64 row
    (`test_construction_refuses_r_that_is_no_int64_rows`)."""
    R, nv, nh = list(map(tuple, datum.R.tolist())), len(datum.V), len(datum.H)
    j, k = rng.sample(range(len(R)), 2)
    a, b, c, d = R[k]
    other = R[j]
    fields = dict(V=list(datum.V), H=list(datum.H), inv_V=list(datum.inv_V), inv_H=list(datum.inv_H), R=R)

    def mutated(**changed):
        return {**fields, **changed}

    def at(t):
        return mutated(R=R[:k] + [t] + R[k + 1:])

    yield "duplicate", at(other)
    yield "appended_duplicate", mutated(R=R + [R[k]])
    yield "short", mutated(R=R[:k] + R[k + 1:])
    for name, value in (("minus_one", -1), ("size", None)):
        for pos in range(4):
            t = list(R[k])
            t[pos] = (nv if pos in (0, 3) else nh) if value is None else value
            yield f"out_of_range_{name}_{pos}", at(tuple(t))
    yield "missing_companion", at((a, b, (c + 1) % nh, d))
    yield "degenerate", at((a, b, datum.inv_H[b], datum.inv_V[a]))
    yield "collision_ab", at((other[0], other[1], c, d))
    yield "collision_cd", at((a, b, other[2], other[3]))
    yield "collision_ac", at((other[0], b, other[2], d))
    yield "collision_bd", at((a, other[1], c, other[3]))
    for key, size in (("inv_V", nv), ("inv_H", nh)):
        inv = getattr(datum, key)
        i = rng.randrange(size)
        fixed = list(inv)
        fixed[i], fixed[inv[i]] = i, inv[i]
        yield f"fixed_point_{key}", mutated(**{key: fixed})
        cycle = list(inv)
        x, y = i, next(z for z in range(size) if z not in (i, inv[i]))
        cycle[x], cycle[y] = cycle[y], cycle[x]  # two 2-cycles become a 4-cycle
        yield f"non_involution_{key}", mutated(**{key: cycle})
        huge = list(inv)
        huge[i] = 2 ** 70
        yield f"huge_{key}", mutated(**{key: huge})
    yield "odd_V", mutated(V=datum.V + ["odd"], inv_V=datum.inv_V + [nv])
    yield "odd_H", mutated(H=datum.H[:-1], inv_H=datum.inv_H[:-1])


EQUIVALENCE_DATA = [("q3", 3, 1), ("q5", 5, 1), ("q9", 3, 2), ("random_6x6", 6, 6), ("random_4x8", 4, 8),
                    ("random_6x4", 6, 4)]


@pytest.mark.parametrize("name,x,y", EQUIVALENCE_DATA, ids=[name for name, _, _ in EQUIVALENCE_DATA])
def test_validation_matches_the_tuple_loop(name, x, y):
    rng = random.Random(name)
    if name.startswith("q"):
        datum = build_quaternionic_datum(make_field(x, y), 1, 2)
    else:
        datum = random_vh_datum(rng, x, y)
    report = validate_datum(datum)
    assert report.ok and report.checked == 2 + len(datum.R) + 4
    assert (report.violations, report.checked) == (loop_validate_datum(datum).violations,
                                                   loop_validate_datum(datum).checked)
    kinds = 0
    for _ in range(3):
        for kind, fields in _mutations(datum, rng):
            broken = _stand_in(**fields)
            got, want = validate_datum(broken), loop_validate_datum(broken)
            assert got.violations, kind
            assert (got.violations, got.checked) == (want.violations, want.checked), kind
            # construction and a replace refuse the same fields with the same report
            for make in (lambda: VHDatum(**fields), lambda: replace(datum, **fields)):
                with pytest.raises(InvalidDatum) as refused:
                    make()
                assert (refused.value.report.violations, refused.value.report.checked) == \
                    (got.violations, got.checked), kind
            kinds += 1
    assert kinds == 3 * 25


def test_repeated_labels_are_a_violation():
    datum = direct_product_datum(2, 2)
    for side in ("V", "H"):
        labels = list(getattr(datum, side))
        labels[1] = labels[0]
        fields = {**dict(V=datum.V, H=datum.H, inv_V=datum.inv_V, inv_H=datum.inv_H, R=datum.R), side: labels}
        report = _refused(**fields)
        assert report.violations == [f"{side} labels are not distinct: {labels[0]!r} repeats"]
        assert report.checked == 2


def test_verify_relations_catches_altered_tuple(f3, d12_q3):
    # replace the d-entry of the (1, 1+Z) tuple: 2Z -> 2, the misprint,
    # which breaks the axioms, so construction refuses it
    labels_v = {lbl: i for i, lbl in enumerate(d12_q3.V)}
    labels_h = {lbl: i for i, lbl in enumerate(d12_q3.H)}
    row = (labels_v["1"], labels_h["1+Z"])
    R = d12_q3.R.tolist()
    idx = next(i for i, t in enumerate(R) if (t[0], t[1]) == row)
    a, b, c, _ = R[idx]
    R[idx] = (a, b, c, labels_v["2"])
    with pytest.raises(InvalidDatum):
        VHDatum(
            V=d12_q3.V, H=d12_q3.H, inv_V=d12_q3.inv_V, inv_H=d12_q3.inv_H,
            R=R, field=d12_q3.field, tau=d12_q3.tau, sigma=d12_q3.sigma,
            V_elems=d12_q3.V_elems, H_elems=d12_q3.H_elems,
        )
    # two field values swapped: R keeps the axioms, the quaternion oracle fails it
    h_elems = list(d12_q3.H_elems)
    h_elems[0], h_elems[1] = h_elems[1], h_elems[0]
    report = verify_relations(replace(d12_q3, H_elems=h_elems))
    assert not report.ok
    assert any("square relation fails" in v for v in report.violations)


@pytest.mark.parametrize("params", [("f3", 1, 2), ("f5", 1, 2), ("f5", 2, 3)])
def test_property_one_companions_match_the_twist_formula(params, request):
    # the closure axiom must reproduce exactly what the formula produces for
    # the companion index pairs
    fixture, tau, sigma = params
    spec = request.getfixturevalue(fixture)
    datum = build_quaternionic_datum(spec, tau, sigma)
    rows = list(map(tuple, datum.R.tolist()))
    by_ab = {t[:2]: t for t in rows}
    iv, ih = datum.inv_V, datum.inv_H
    for a, b, c, d in rows:
        assert by_ab[(iv[a], c)] == (iv[a], c, b, iv[d])
        assert by_ab[(iv[d], ih[c])] == (iv[d], ih[c], ih[b], iv[a])
        assert by_ab[(d, ih[b])] == (d, ih[b], ih[c], a)


def test_sixteen_squares_close_up_over_four_relations(d12_q3):
    # with a = 1, b = Z, x = 1+Z, y = 2+Z (inverses by negation), the datum
    # is the closure of the four commutation-style squares
    # ax = x'b', ay = xa', by = y'a, bx' = yb'
    labeled = {
        (d12_q3.V[a], d12_q3.H[b], d12_q3.H[c], d12_q3.V[d])
        for a, b, c, d in d12_q3.R
    }
    four = [
        ("1", "1+Z", "2+2Z", "2Z"),
        ("1", "2+Z", "1+Z", "2"),
        ("Z", "2+Z", "1+2Z", "1"),
        ("Z", "2+2Z", "2+Z", "2Z"),
    ]
    assert all(t in labeled for t in four)
    inv_v = {d12_q3.V[i]: d12_q3.V[j] for i, j in enumerate(d12_q3.inv_V)}
    inv_h = {d12_q3.H[i]: d12_q3.H[j] for i, j in enumerate(d12_q3.inv_H)}
    closure = set()
    for a, b, c, d in four:
        closure |= {
            (a, b, c, d),
            (inv_v[a], c, b, inv_v[d]),
            (inv_v[d], inv_h[c], inv_h[b], inv_v[a]),
            (d, inv_h[b], inv_h[c], a),
        }
    assert closure == labeled


def test_direct_product_datum_validates():
    datum = direct_product_datum(2, 2)
    assert len(datum.R) == 16
    assert validate_datum(datum).ok


def test_wang_tiles_q3(d12_q3):
    # the tiles are the labelled rows of R: left a, top b, bottom c, right d
    tiles = [(d12_q3.V[a], d12_q3.H[b], d12_q3.H[c], d12_q3.V[d]) for a, b, c, d in d12_q3.R.tolist()]
    assert len(tiles) == 16
    # 4-way deterministic: any two adjacent side colors determine the tile
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3)):
        assert len({(t[i], t[j]) for t in tiles}) == len(tiles)
    # (2,2)-datum: every color shows up on each side position in 2d = 4 tiles
    for side, labels in ((0, d12_q3.V), (3, d12_q3.V), (1, d12_q3.H), (2, d12_q3.H)):
        assert Counter(t[side] for t in tiles) == dict.fromkeys(labels, 4)


def test_tiles_svg_is_deterministic(d12_q3):
    svg = tiles_to_svg(d12_q3)
    assert svg == tiles_to_svg(d12_q3)
    assert svg.count("<polygon") == 4 * 16
    assert svg.startswith("<svg")


def test_golden_file_round_trip():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        text = fh.read()
    datum = loads_datum(text)
    assert dumps_datum(datum) == text
    assert validate_datum(datum).ok
    assert verify_relations(datum).ok


def test_golden_file_matches_fresh_build(d12_q3):
    with open(GOLDEN, encoding="utf-8") as fh:
        assert dumps_datum(d12_q3) == fh.read()


def test_write_read_cycle(tmp_path, d12_q5):
    path = tmp_path / "d12_q5.json"
    write_datum(d12_q5, str(path))
    back = read_datum(str(path))
    assert back.R.tolist() == d12_q5.R.tolist()
    assert back.field == d12_q5.field
    assert [str(x) for x in back.H_elems] == [str(x) for x in d12_q5.H_elems]


def test_read_rejects_non_involutive_inv(d12_q3):
    data = datum_to_dict(d12_q3)
    data["inv_V"] = [0, 1, 2, 3]
    with pytest.raises(ValueError, match="validation|fixed point"):
        datum_from_dict(data)


def test_read_rejects_malformed_text():
    with pytest.raises(ValueError, match="malformed"):
        loads_datum("{not json")


def test_generic_datum_round_trip(tmp_path):
    datum = direct_product_datum(2, 2)
    path = tmp_path / "f2f2.json"
    write_datum(datum, str(path))
    back = read_datum(str(path))
    assert back.V == datum.V and back.R.tolist() == datum.R.tolist()
    assert not back.is_arithmetic()


def test_all_relations_certified_by_the_oracle(d12_q3):
    # spot-check the certification loop against direct products
    spec = d12_q3.field
    for a, b, c, d in d12_q3.R[:6]:
        lhs = QuatElem.one_plus_alpha_f(spec, d12_q3.V_elems[a]) * QuatElem.one_plus_alpha_f(spec, d12_q3.H_elems[b])
        rhs = QuatElem.one_plus_alpha_f(spec, d12_q3.H_elems[c]) * QuatElem.one_plus_alpha_f(spec, d12_q3.V_elems[d])
        assert proportional(lhs, rhs)


# ---------------------------------------------------------------------------
# the batched oracle against the element API

# every odd prime power q <= 31 as (p, e): the fields of the datum benchmark
FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
          (5, 2), (3, 3), (29, 1), (31, 1)]


def _places(q):
    return [(1, 2), (q - 1, 1)]


@cache
def _datum(p, e, tau, sigma):
    return build_quaternionic_datum(make_field(p, e), tau, sigma)


def _gen(spec, x):
    return QuatElem.one_plus_alpha_f(spec, x)


def scalar_verify_relations(datum):
    """One QuatElem product at a time: the reference for `verify_relations`."""
    spec = datum.field
    bad = []
    checked = 0
    for ia, ib, ic, idd in datum.R:
        checked += 1
        lhs = _gen(spec, datum.V_elems[ia]) * _gen(spec, datum.H_elems[ib])
        rhs = _gen(spec, datum.H_elems[ic]) * _gen(spec, datum.V_elems[idd])
        if not proportional(lhs, rhs):
            bad.append(
                f"square relation fails for ({datum.V[ia]}, {datum.H[ib]}, "
                f"{datum.H[ic]}, {datum.V[idd]}): lhs = {lhs}, rhs = {rhs}"
            )
    for xi in list(datum.V_elems) + list(datum.H_elems):
        checked += 1
        prod = _gen(spec, xi) * _gen(spec, -xi)
        if not prod.is_scalar():
            bad.append(f"inverse relation fails for {fq2_label(xi)}: {prod}")
    return DatumReport(bad, checked)


@pytest.mark.parametrize("p,e", FIELDS, ids=[f"q{p ** e}" for p, e in FIELDS])
def test_build_matches_the_scalar_zeta_loop(p, e):
    for tau, sigma in _places(p ** e):
        datum = _datum(p, e, tau, sigma)
        v_index = {x: i for i, x in enumerate(datum.V_elems)}
        h_index = {x: i for i, x in enumerate(datum.H_elems)}
        assert datum.R.tolist() == [
            [ia, ib, h_index[zeta(alpha, beta) * beta], v_index[zeta(beta, alpha) * alpha]]
            for ia, alpha in enumerate(datum.V_elems)
            for ib, beta in enumerate(datum.H_elems)
        ]
        assert datum.inv_V == [v_index[-x] for x in datum.V_elems]
        assert datum.inv_H == [h_index[-x] for x in datum.H_elems]


@pytest.mark.parametrize("p,e", FIELDS, ids=[f"q{p ** e}" for p, e in FIELDS])
def test_batched_verdicts_match_scalar_proportional(p, e):
    for tau, sigma in _places(p ** e):
        datum = _datum(p, e, tau, sigma)
        spec, n_h = datum.field, len(datum.H)
        # every relation, then every relation with gamma moved to the next H symbol
        rows = datum.R.tolist() + [(a, b, (c + 1) % n_h, d) for a, b, c, d in datum.R.tolist()]
        sides = (datum.V_elems, datum.H_elems, datum.H_elems, datum.V_elems)
        gens = [QuatBatch.generators(spec, spec.pair([side[row[i]] for row in rows]))
                for i, side in enumerate(sides)]
        verdicts = proportional_batch(gens[0] * gens[1], gens[2] * gens[3]).tolist()
        expected = [
            proportional(_gen(spec, datum.V_elems[a]) * _gen(spec, datum.H_elems[b]),
                         _gen(spec, datum.H_elems[c]) * _gen(spec, datum.V_elems[d]))
            for a, b, c, d in rows
        ]
        assert verdicts == expected
        assert all(expected[:len(datum.R)]) and not any(expected[len(datum.R):])
        assert verify_relations(datum).ok


@pytest.mark.parametrize("p,e,tau,sigma", [(3, 1, 1, 2), (5, 1, 2, 3), (3, 2, 1, 2), (7, 1, 6, 1)])
def test_violations_of_altered_relations_match_the_scalar_loop(p, e, tau, sigma):
    # field values swapped at random on each side: R keeps the axioms (an
    # altered R is refused when the datum is made), the relations fail
    datum = _datum(p, e, tau, sigma)
    rng = random.Random(p * 100 + tau)
    n_v, n_h = len(datum.V), len(datum.H)
    sides = {"V_elems": list(datum.V_elems), "H_elems": list(datum.H_elems)}
    for elems in sides.values():
        i, j = rng.sample(range(len(elems)), 2)
        elems[i], elems[j] = elems[j], elems[i]
    broken = replace(datum, **sides)
    report = verify_relations(broken)
    reference = scalar_verify_relations(broken)
    assert report.violations == reference.violations and report.violations
    assert report.checked == reference.checked == len(datum.R) + n_v + n_h
    assert verify_relations(datum).violations == [] and verify_relations(datum).checked == report.checked


def test_batched_zeta_keeps_the_preconditions(f3):
    one, zero, two = (np.array([x]) for x in (1, 0, 2))
    with pytest.raises(ValueError, match="nonzero"):
        _twisted_pairs(f3, (one, zero), (np.array([1, 0]), np.array([1, 0])))
    with pytest.raises(ValueError, match="nonzero"):
        _twisted_pairs(f3, (np.array([1, 0]), np.array([1, 0])), (one, zero))
    with pytest.raises(ValueError, match="N\\(alpha\\)"):
        _twisted_pairs(f3, (one, zero), (two, zero))  # both norm 1
    alpha, beta = f3.ext(1, 0), f3.ext(1, 1)
    gamma, delta = _twisted_pairs(f3, f3.pair([alpha, beta]), f3.pair([beta, alpha]))
    assert list(zip(*(c.tolist() for c in gamma))) == \
        [(z.nu, z.nv) for z in (zeta(alpha, beta) * beta, zeta(beta, alpha) * alpha)]
    assert list(zip(*(c.tolist() for c in delta))) == \
        [(z.nu, z.nv) for z in (zeta(beta, alpha) * alpha, zeta(alpha, beta) * beta)]
