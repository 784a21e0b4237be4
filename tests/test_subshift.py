"""Matrix subshifts: the datum shift, the two classical examples, pattern
counting against brute force, exact measures, correlations, and mixing
tables."""

import itertools
import warnings
from fractions import Fraction
from math import sqrt
from random import Random

import numpy as np
import pytest

from ramshift import mealy
from ramshift.graphs import _out_stars, _stars_correspond, level_graph, nb_arcs, nb_matrix, structure_predicates
from ramshift.spectral import SizeCapExceeded, eig_symmetric, matrix_power_int, second_modulus_directed, walks
from ramshift.subshift import (
    MatrixSubshift,
    RegularityReport,
    _product01,
    _shape,
    admissible_patterns,
    build_xd,
    chains,
    correlation,
    cylinder_measure,
    fill_rectangle,
    is_admissible,
    mixing_table,
    mixing_table_to_csv,
    regularity_report,
    transition_graph,
)
from ramshift.vhdatum import build_quaternionic_datum
from conftest import random_vh_datum
from reference import digraph_period, direct_product_datum, strip_adjacency, wang_shift

# the 2-regular but non-extendable pair of transition matrices
A4 = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]])
B4 = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 0]])


def test_xd_q3_regularity(xd_q3):
    report = regularity_report(xd_q3)
    assert xd_q3.s == 16
    assert report.degree == 3  # 2d - 1 with d = 2
    assert report.consistent and report.products_01 and report.commute_exactly
    assert report.uniquely_extendable
    ab = xd_q3.A @ xd_q3.B
    abt = xd_q3.A @ xd_q3.B.T
    assert set(np.unique(ab)) <= {0, 1} and set(np.unique(abt)) <= {0, 1}
    assert (ab == xd_q3.B @ xd_q3.A).all()
    assert (abt == xd_q3.B.T @ xd_q3.A).all()


def _matmul_report(shift):
    """The regularity report read off int64 `@` products."""
    a, b = shift.A, shift.B
    ab, ba, abt, bta = a @ b, b @ a, a @ b.T, b.T @ a
    consistent = bool(((ab > 0) == (ba > 0)).all() and ((abt > 0) == (bta > 0)).all())
    products_01 = bool((ab <= 1).all() and (abt <= 1).all())
    commute = bool((ab == ba).all() and (abt == bta).all())
    sums = [a.sum(axis=1), a.sum(axis=0), b.sum(axis=1), b.sum(axis=0)]
    degree = int(sums[0][0]) if all((x == sums[0][0]).all() for x in sums) else None
    return RegularityReport(shift.s, degree, consistent, products_01, commute,
                            consistent and products_01 and commute)


@pytest.mark.parametrize("name", ["d12_q3", "d12_q5", "d12_q9", "wang_q3", "non_extendable", "irregular"])
def test_regularity_products_match_int64_matmul(name, request, f9):
    if name == "non_extendable":
        shift = MatrixSubshift([str(i) for i in range(4)], A4, B4)
    elif name == "irregular":
        # rows of different weights, so the products pad the shorter rows
        rng = np.random.default_rng(7)
        a, b = (rng.random((9, 9)) < 0.4) | np.eye(9, dtype=bool), (rng.random((9, 9)) < 0.3) | np.eye(9, dtype=bool)
        shift = MatrixSubshift([str(i) for i in range(9)], a, b)
        assert shift.report.degree is None
    elif name == "d12_q9":
        shift = build_xd(build_quaternionic_datum(f9, 1, 2))
    else:
        shift = _reference_shift(name, request)
    a, b = shift.A, shift.B
    for x, y in ((a, b), (b, a), (a, b.T), (b.T, a)):
        assert (_product01(x, y) == x @ y).all()
    assert shift.report == _matmul_report(shift)


def test_regularity_report_runs_once_at_construction(d12_q3, monkeypatch):
    from ramshift import subshift

    shift = build_xd(d12_q3)
    assert shift.report == regularity_report(shift)
    calls = []
    monkeypatch.setattr(subshift, "regularity_report", lambda s: calls.append(s))
    tile = ((0,),)
    transition_graph(shift, "horizontal", 2)
    fill_rectangle(shift, (0,), (0,))
    cylinder_measure(shift, tile)
    correlation(shift, tile, tile, 3)
    assert calls == []
    MatrixSubshift(list(shift.symbols), shift.A, shift.B)
    assert len(calls) == 1


def test_matrix_subshift_needs_both_directions():
    with pytest.raises(TypeError):
        MatrixSubshift(list("ab"), np.ones((2, 2), dtype=int))


@pytest.mark.parametrize("datum", ["d12_q3", "d12_q5", "f2f2"])
def test_tile_shift_matrices_match_the_definition(datum, request):
    datum = direct_product_datum(2, 2) if datum == "f2f2" else request.getfixturevalue(datum)
    r, ih, iv = datum.R, datum.inv_H, datum.inv_V
    xd, wang = build_xd(datum), wang_shift(datum)
    for i, (a, b, c, d) in enumerate(r):
        for j, (a2, b2, c2, d2) in enumerate(r):
            assert wang.A[i, j] == (d == a2) and wang.B[i, j] == (b == c2)
            assert xd.A[i, j] == (d == a2 and c2 != ih[c])
            assert xd.B[i, j] == (b == c2 and a2 != iv[a])


def test_non_extendable_example():
    shift = MatrixSubshift([str(i) for i in range(4)], A4, B4)
    report = regularity_report(shift)
    assert report.degree == 2
    assert not report.consistent
    assert not report.uniquely_extendable
    assert set(np.unique(A4 @ B4)) == {0, 2}
    assert (B4 @ A4 == 1).all()
    assert (A4 @ B4.T == 1).all()


def test_non_extendable_witness_is_a_corner_not_a_rectangle():
    # local rectangle counts alone do not detect the failure: they agree
    # with s d^(m-1) d^(n-1) here; the obstruction is an admissible
    # up-then-right corner configuration with no lower-right completion
    shift = MatrixSubshift([str(i) for i in range(4)], A4, B4)
    assert len(admissible_patterns(shift, 2, 2)) == 4 * 2 * 2
    ab, ba = A4 @ B4, B4 @ A4
    stuck = [
        (i, l)
        for i in range(4)
        for l in range(4)
        if ba[i, l] > 0 and ab[i, l] == 0
    ]
    assert stuck  # extendability genuinely fails


@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_strip_graphs_need_a_positive_height(xd_q3, direction):
    for k in (0, -2):
        with pytest.raises(ValueError, match="need k >= 1"):
            xd_q3.strip_graph(direction, k)
        with pytest.raises(ValueError, match="need k >= 1"):
            transition_graph(xd_q3, direction, k)


def test_non_extendable_strip_graphs_are_primitive():
    shift = MatrixSubshift([str(i) for i in range(4)], A4, B4)
    for mat in (shift.A, shift.B):
        assert digraph_period(mat) == (True, 1)


def test_f2xf2_shifts():
    datum = direct_product_datum(2, 2)
    full = wang_shift(datum)
    rep_full = regularity_report(full)
    assert rep_full.degree == 4 and rep_full.uniquely_extendable
    sub = build_xd(datum)
    rep = regularity_report(sub)
    assert sub.s == 16 and rep.degree == 3 and rep.uniquely_extendable


def test_permutation_matrices_are_consistent():
    perm = np.roll(np.eye(4, dtype=int), 1, axis=1)
    shift = MatrixSubshift(list("abcd"), perm, perm)
    report = regularity_report(shift)
    assert report.degree == 1 and report.consistent and report.uniquely_extendable


def test_zero_line_rejected():
    bad = np.array([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="zero row"):
        MatrixSubshift(["a", "b"], bad, np.eye(2, dtype=int))


def test_transition_graph_k1(xd_q3):
    h1 = transition_graph(xd_q3, "horizontal", 1)
    assert len(h1.patterns) == 16
    assert (strip_adjacency(h1) == xd_q3.A).all()
    v1 = transition_graph(xd_q3, "vertical", 1)
    assert (strip_adjacency(v1) == xd_q3.B).all()


def test_transition_graph_counts(xd_q3):
    for k in (1, 2, 3):
        for direction in ("horizontal", "vertical"):
            g = transition_graph(xd_q3, direction, k)
            assert len(g.patterns) == 16 * 3 ** (k - 1)  # s d^(k-1)
            assert (strip_adjacency(g).sum(axis=1) == 3).all()
            assert (strip_adjacency(g).sum(axis=0) == 3).all()


def test_transition_graph_rejects_non_extendable_beyond_k1():
    shift = MatrixSubshift([str(i) for i in range(4)], A4, B4)
    assert len(transition_graph(shift, "horizontal", 1).patterns) == 4
    with pytest.raises(ValueError, match="unique extendability"):
        transition_graph(shift, "horizontal", 2)


# ---------------------------------------------------------------------------
# the candidate-product strip algorithm, kept as the reference


def reference_chains(mat, k):
    succ = [np.nonzero(mat[i])[0].tolist() for i in range(mat.shape[0])]
    words = [(i,) for i in range(mat.shape[0])]
    for _ in range(k - 1):
        words = [w + (j,) for w in words for j in succ[w[-1]]]
    return words


def _extend_strip(p, succ):
    """All symbol tuples q with along[p[r], q[r]] = 1 for every r."""
    out = [()]
    for sym in p:
        out = [q + (j,) for q in out for j in succ[sym]]
    return out


def reference_transition_graph(shift, direction, k):
    along, across = (shift.A, shift.B) if direction == "horizontal" else (shift.B, shift.A)
    patterns = reference_chains(across, k)
    adj = np.zeros((len(patterns),) * 2, dtype=np.int64)
    index = {p: i for i, p in enumerate(patterns)}
    succ = [np.nonzero(along[i])[0].tolist() for i in range(shift.s)]
    for i, p in enumerate(patterns):
        for q in _extend_strip(p, succ):
            if q in index:
                adj[i, index[q]] = 1
    return patterns, adj


def reference_admissible_patterns(shift, m, n):
    columns = reference_chains(shift.B, n)
    succ = [np.nonzero(shift.A[i])[0].tolist() for i in range(shift.s)]
    column_set = set(columns)
    patterns = [(c,) for c in columns]
    for _ in range(m - 1):
        patterns = [pat + (q,) for pat in patterns for q in _extend_strip(pat[-1], succ) if q in column_set]
    return patterns


def _reference_shift(name, request):
    if name == "wang_q3":
        return wang_shift(request.getfixturevalue("d12_q3"))
    if name == "f2f2":
        return build_xd(direct_product_datum(2, 2))
    return build_xd(request.getfixturevalue(name))


@pytest.mark.parametrize("name, k_max", [("d12_q3", 4), ("d12_q5", 3), ("wang_q3", 3), ("f2f2", 3)])
@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_strip_graphs_match_the_candidate_product_reference(name, k_max, direction, request):
    shift = _reference_shift(name, request)
    for k in range(1, k_max + 1):
        graph = transition_graph(shift, direction, k)
        patterns, adj = reference_transition_graph(shift, direction, k)
        assert graph.patterns == patterns == chains(shift.B if direction == "horizontal" else shift.A, k)
        assert (strip_adjacency(graph) == adj).all()


@pytest.mark.parametrize("name", ["xd_q3", "non_extendable"])
def test_admissible_patterns_match_the_grow_loop(name, request):
    shift = MatrixSubshift([str(i) for i in range(4)], A4, B4) if name == "non_extendable" \
        else request.getfixturevalue(name)
    for m in range(1, 9):
        for n in range(1, 8 // m + 1):
            assert admissible_patterns(shift, m, n) == reference_admissible_patterns(shift, m, n), (m, n)


def test_single_column_patterns_build_no_compatibility_matrix(xd_q3, monkeypatch):
    from ramshift import subshift

    def refuse(*args):
        raise AssertionError("one column needs no compatibility matrix")

    monkeypatch.setattr(subshift, "_strip_arcs", refuse)
    assert admissible_patterns(xd_q3, 1, 8) == [(c,) for c in chains(xd_q3.B, 8)]


def test_is_admissible_edge_shapes(xd_q3):
    col = chains(xd_q3.B, 2)[0]
    assert is_admissible(xd_q3, (col,))
    assert not is_admissible(xd_q3, (col, col[:1]))  # ragged
    assert not is_admissible(xd_q3, ())  # no columns
    assert not is_admissible(xd_q3, ((),)) and not is_admissible(xd_q3, ((), ()))  # a column with no cell


def test_is_admissible_is_false_exactly_where_shape_raises(xd_q3):
    col = chains(xd_q3.B, 2)[0]
    bad = next((a, b) for a in range(xd_q3.s) for b in range(xd_q3.s) if not xd_q3.B[a, b])
    patterns = {
        "no_cell": ((),), "no_cells": ((), ()), "ragged": (col, col[:1]), "bool": ((True,),),
        "negative": ((-1,),), "out_of_range": ((xd_q3.s,),), "admissible": (col,), "inadmissible": (bad,),
    }
    for name, pattern in patterns.items():
        try:
            _shape(xd_q3, pattern)
            shaped = True
        except ValueError:
            shaped = False
        assert shaped == (name in ("admissible", "inadmissible")), name
        assert is_admissible(xd_q3, pattern) == (name == "admissible"), name


def test_is_admissible_against_the_definition(xd_q3):
    # every 2x2 grid over the first four symbols and every admissible 2x3 one
    grids = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(4), repeat=4)]
    for pattern in grids + admissible_patterns(xd_q3, 2, 3):
        want = all(xd_q3.B[col[j], col[j + 1]] for col in pattern for j in range(len(col) - 1)) and all(
            xd_q3.A[left[j], right[j]] for left, right in zip(pattern, pattern[1:]) for j in range(len(left))
        )
        assert is_admissible(xd_q3, pattern) == want


def test_is_admissible_equals_the_grid_gather(xd_q3):
    # the neighbour pairs read one at a time against one gather per
    # direction over the whole grid, on random patterns of up to 3 x 3
    # cells: admissible ones, and the same with one cell changed
    rng = np.random.default_rng(0)
    pools = {(m, n): admissible_patterns(xd_q3, m, n) for m in (1, 2, 3) for n in (1, 2, 3)}
    agree = admissible = 0
    for _ in range(20000):
        m, n = rng.integers(1, 4, size=2)
        pool = pools[m, n]
        grid = np.array(pool[rng.integers(len(pool))])
        if rng.random() < 0.5:
            grid[rng.integers(m), rng.integers(n)] = rng.integers(xd_q3.s)
        want = bool(xd_q3.B[grid[:, :-1], grid[:, 1:]].all() and xd_q3.A[grid[:-1], grid[1:]].all())
        got = is_admissible(xd_q3, tuple(map(tuple, grid.tolist())))
        agree += got == want
        admissible += want
    assert agree == 20000
    assert 10000 < admissible < 20000  # both answers are exercised


def _strip_to_dart_maps(datum, shift, k):
    """The canonical bijections: a height-k column of the datum shift is a
    dart of B_k (left colors top-to-bottom, state = top color); a width-k
    row is a dart of A_k (bottom colors, state = inverse of the left
    color)."""
    def darts(auto):
        # (word, state) -> dart v * s + state, v the word's row in the action graph
        s = auto.n_states()
        words = mealy.action_graph(auto, k, reduced=True).words.tolist()
        return {(tuple(w), st): v * s + st for v, w in enumerate(words) for st in range(s)}

    automaton = mealy.from_datum(datum)
    b_darts, a_darts = darts(mealy.dual(automaton)), darts(automaton)

    def column_to_b_dart(col):
        tiles = [datum.R[s] for s in col]
        word = tuple(t[0] for t in reversed(tiles))
        return b_darts[(word, tiles[-1][1])]

    def row_to_a_dart(row):
        tiles = [datum.R[s] for s in row]
        word = tuple(t[2] for t in tiles)
        return a_darts[(word, datum.inv_V[tiles[0][0]])]

    return column_to_b_dart, row_to_a_dart


@pytest.mark.parametrize("k", [1, 2, 3])
def test_strip_graphs_are_nonbacktracking_dart_graphs(d12_q3, xd_q3, k):
    col_map, row_map = _strip_to_dart_maps(d12_q3, xd_q3, k)
    hk = transition_graph(xd_q3, "horizontal", k)
    perm = np.array([col_map(p) for p in hk.patterns])
    nb_b = nb_matrix(level_graph(d12_q3, "B", k))
    assert (strip_adjacency(hk) == nb_b[np.ix_(perm, perm)]).all()
    vk = transition_graph(xd_q3, "vertical", k)
    perm = np.array([row_map(p) for p in vk.patterns])
    nb_a = nb_matrix(level_graph(d12_q3, "A", k))
    assert (strip_adjacency(vk) == nb_a[np.ix_(perm, perm)]).all()


def test_frontier_strip_graphs_are_the_nonbacktracking_arcs(d12_q3, xd_q3):
    # height 5, above the old cap of 500 strips: the arcs of each strip graph
    # are the non-backtracking arcs of B_5 or A_5 under the strip-dart map,
    # compared as arc lists without a dense matrix
    col_map, row_map = _strip_to_dart_maps(d12_q3, xd_q3, 5)
    for direction, side, to_dart in (("horizontal", "B", col_map), ("vertical", "A", row_map)):
        graph = transition_graph(xd_q3, direction, 5)
        assert len(graph.patterns) == 16 * 3**4 and len(graph.tail) == 3 * len(graph.patterns)
        perm = np.array([to_dart(p) for p in graph.patterns])
        e, f, d = nb_arcs(level_graph(d12_q3, side, 5))
        assert d == 3
        strip_arcs = np.sort(perm[graph.tail] * len(perm) + perm[graph.head])
        assert (strip_arcs == np.sort(e * len(perm) + f)).all()


@pytest.mark.parametrize("fixture", ["xd_q3", "d12_q5"])
def test_three_way_extendability_agreement(fixture, request):
    # matrix criterion (0/1 products), exact commutation, and exhaustive
    # corner uniqueness must all agree
    obj = request.getfixturevalue(fixture)
    shift = obj if isinstance(obj, MatrixSubshift) else build_xd(obj)
    rep = regularity_report(shift)
    assert rep.products_01 and rep.commute_exactly and rep.uniquely_extendable
    for t00 in range(shift.s):
        for t10 in np.nonzero(shift.A[t00])[0]:
            for t01 in np.nonzero(shift.B[t00])[0]:
                count = int((shift.A[t01] & shift.B[t10]).sum())
                assert count == 1


def test_transition_graphs_form_covering_families(xd_q3):
    # dropping the outermost strip symbol is a covering H_(k+1) -> H_k: the
    # out-star and the in-star of every strip map onto those of its image
    def covers(big, small, keep):
        projection = np.array([small.index[pattern[keep]] for pattern in big.patterns])
        (tail, head), (low_tail, low_head) = (big.tail, big.head), (small.tail, small.head)
        return all(_stars_correspond(projection, *darts, _out_stars(*low, len(small.patterns)))
                   for darts, low in (((tail, head), (low_tail, low_head)), ((head, tail), (low_head, low_tail))))

    for direction in ("horizontal", "vertical"):
        big = transition_graph(xd_q3, direction, 3)
        small = transition_graph(xd_q3, direction, 2)
        assert covers(big, small, slice(None, -1))  # drop-last
        assert covers(big, small, slice(1, None))  # drop-first


def brute_force_pattern_count_2x2(shift):
    count = 0
    s = shift.s
    for t00, t01, t10, t11 in itertools.product(range(s), repeat=4):
        # columns (t00, t01) and (t10, t11), bottom-to-top
        if (
            shift.B[t00, t01]
            and shift.B[t10, t11]
            and shift.A[t00, t10]
            and shift.A[t01, t11]
        ):
            count += 1
    return count


def test_pattern_counts_match_formula(xd_q3):
    for m, n in [(1, 1), (2, 2), (2, 3), (3, 2)]:
        assert len(admissible_patterns(xd_q3, m, n)) == 16 * 3 ** (m - 1) * 3 ** (n - 1)


def test_pattern_count_2x2_against_brute_force(xd_q3):
    assert len(admissible_patterns(xd_q3, 2, 2)) == brute_force_pattern_count_2x2(xd_q3) == 144


def test_pattern_count_cap(xd_q3):
    with pytest.raises(SizeCapExceeded):
        admissible_patterns(xd_q3, 4, 4)


def test_zero_entropy_signature(xd_q3):
    import math

    rates = [
        math.log(len(admissible_patterns(xd_q3, n, n))) / n**2 for n in (1, 2, 3)
    ]
    assert rates[0] > rates[1] > rates[2]


def test_fill_rectangle_traces_of_length_one(xd_q3):
    assert fill_rectangle(xd_q3, (5,), (5,)) == ((5,),)


def test_fill_rectangle_3x3(xd_q3):
    h = (0,) + tuple()
    # pick one admissible pair of traces and check the completion
    h_chain = chains(xd_q3.A, 3)[0]
    v_chain = next(c for c in chains(xd_q3.B, 3) if c[0] == h_chain[0])
    pat = fill_rectangle(xd_q3, h_chain, v_chain)
    assert is_admissible(xd_q3, pat)
    assert tuple(col[0] for col in pat) == h_chain
    assert pat[0] == v_chain


def test_fill_rectangle_validations(xd_q3):
    with pytest.raises(ValueError, match="corner"):
        fill_rectangle(xd_q3, (0, 1), (1,))
    bad_h = next(
        (i, j) for i in range(16) for j in range(16) if not xd_q3.A[i, j]
    )
    with pytest.raises(ValueError, match="admissible horizontal"):
        fill_rectangle(xd_q3, bad_h, (bad_h[0],))


def test_every_corner_pair_has_exactly_one_completion(xd_q3):
    # 2x2: for every A-edge (t00, t10) and B-edge (t00, t01) there is exactly
    # one admissible fourth tile
    count = 0
    for t00 in range(16):
        for t10 in np.nonzero(xd_q3.A[t00])[0]:
            for t01 in np.nonzero(xd_q3.B[t00])[0]:
                cands = [
                    t11
                    for t11 in range(16)
                    if xd_q3.A[t01, t11] and xd_q3.B[t10, t11]
                ]
                assert len(cands) == 1
                count += 1
    assert count == 144


def test_cylinder_measures(xd_q3):
    pat = ((3,),)
    assert cylinder_measure(xd_q3, pat) == Fraction(1, 16)
    two_by_three = admissible_patterns(xd_q3, 2, 3)[0]
    assert cylinder_measure(xd_q3, two_by_three) == Fraction(1, 16 * 3 * 9)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bad = ((0,), (0,)) if not xd_q3.A[0, 0] else ((0,), (1,))
        mu = cylinder_measure(xd_q3, bad if not is_admissible(xd_q3, bad) else ((0, 0),))
    assert mu == 0
    assert any("measure zero" in str(w.message) for w in caught)
    for empty in ((), ((),), ((),) * 2, ((3,), ())):
        with pytest.raises(ValueError, match="at least one column"):
            cylinder_measure(xd_q3, empty)


def test_measures_sum_to_one(xd_q3):
    total = sum(
        cylinder_measure(xd_q3, p) for p in admissible_patterns(xd_q3, 2, 2)
    )
    assert total == 1


def test_extension_measure_consistency(xd_q3):
    # every admissible pattern splits its mass equally over its d one-step
    # extensions to the right
    for pat in admissible_patterns(xd_q3, 2, 1):
        mu = cylinder_measure(xd_q3, pat)
        exts = [
            pat + ((t,),)
            for t in range(16)
            if xd_q3.A[pat[-1][0], t]
        ]
        assert len(exts) == 3
        assert sum(cylinder_measure(xd_q3, e) for e in exts) == mu


def test_correlation_decays_within_envelope(xd_q3):
    theta2 = Fraction(1, 3)  # theta^2 for theta = 1/sqrt(3)
    tiles = [((t,),) for t in range(16)]
    devs = {}
    for n in range(2, 13):
        worst = max(
            correlation(xd_q3, c1, c2, n) for c1 in tiles for c2 in tiles
        )
        devs[n] = worst
    c_sq = devs[2] ** 2 / (4 * theta2**2)  # C fitted at n = 2
    for n, dev in devs.items():
        assert dev**2 <= c_sq * n**2 * theta2**n
    assert devs[12] < devs[2]


def test_correlation_against_full_enumeration(xd_q3):
    # independent oracle: the joint measure of two pinned columns is the sum
    # of cylinder measures over every admissible full-width pattern that
    # carries both, enumerated exhaustively
    for k in (1, 2):
        cols = chains(xd_q3.B, k)
        picks = [cols[0], cols[5], cols[11]]
        for n in (2, 3):
            width = n + 1
            everything = admissible_patterns(xd_q3, width, k)
            for c1 in picks:
                for c2 in picks:
                    joint = sum(
                        cylinder_measure(xd_q3, p)
                        for p in everything
                        if p[0] == c1 and p[n] == c2
                    )
                    product = cylinder_measure(xd_q3, (c1,)) * cylinder_measure(xd_q3, (c2,))
                    assert correlation(xd_q3, (c1,), (c2,), n) == abs(joint - product)


def test_correlation_zero_for_flat_transitions():
    # all-ones transitions: paths distribute perfectly, deviations vanish
    j3 = np.ones((3, 3), dtype=int)
    shift = MatrixSubshift(list("abc"), j3, j3)
    one_tile = ((0,),)
    for n in (2, 3, 5):
        assert correlation(shift, one_tile, one_tile, n) == 0
    # k = 1 only: the flat shift is not uniquely extendable
    oracle = _correlation_oracle(shift)
    patterns = admissible_patterns(shift, 1, 1) + admissible_patterns(shift, 2, 1)
    for n in (3, 5, 4):
        for p1 in patterns:
            for p2 in patterns:
                assert correlation(shift, p1, p2, n) == oracle(p1, p2, n) == 0


def test_correlation_validations(xd_q3):
    tile = ((0,),)
    with pytest.raises(ValueError, match="overlap"):
        correlation(xd_q3, tile, tile, 1)
    tall = ((0, 0),) if is_admissible(xd_q3, ((0, 0),)) else None
    with pytest.raises(ValueError, match="vertical extent"):
        correlation(xd_q3, tile, ((0, xd_q3.B[0].argmax()),), 3)
    for empty in ((), ((),), ((3,), ())):
        for p1, p2 in ((empty, tile), (tile, empty)):
            with pytest.raises(ValueError, match="at least one column"):
                correlation(xd_q3, p1, p2, 3)


@pytest.mark.parametrize("symbol", [99, -1, 16])
def test_patterns_with_symbols_outside_the_alphabet(xd_q3, symbol):
    assert xd_q3.s == 16
    bad = ((symbol,),)
    assert not is_admissible(xd_q3, bad)
    assert not is_admissible(xd_q3, ((0, symbol),))  # -1 must not wrap to 15
    with pytest.raises(ValueError, match=r"symbols must lie in 0\.\.15"):
        cylinder_measure(xd_q3, bad)
    tile = ((0,),)
    for p1, p2 in ((bad, tile), (tile, bad)):
        with pytest.raises(ValueError, match=r"symbols must lie in 0\.\.15"):
            correlation(xd_q3, p1, p2, 3)


@pytest.mark.parametrize("symbol", [1.5, "1", True, np.float64(2.0), None])
def test_patterns_with_symbols_that_are_not_integers(xd_q3, symbol):
    bad = ((symbol,),)
    assert not is_admissible(xd_q3, bad)
    assert not is_admissible(xd_q3, ((symbol, 2),))
    assert not is_admissible(xd_q3, ((0,), (symbol,)))
    for pattern in (bad, ((symbol, 2),)):
        with pytest.raises(ValueError, match="symbols must be integers"):
            cylinder_measure(xd_q3, pattern)
    tile = ((1,),)
    for p1, p2 in ((bad, tile), (tile, bad)):
        with pytest.raises(ValueError, match="symbols must be integers"):
            correlation(xd_q3, p1, p2, 3)


def test_numpy_integer_symbols_and_offsets_are_accepted(xd_q3):
    tile, np_tile = ((3,),), ((np.int64(3),),)
    assert is_admissible(xd_q3, np_tile)
    assert cylinder_measure(xd_q3, np_tile) == cylinder_measure(xd_q3, tile) == Fraction(1, 16)
    other = ((np.int32(7),),)
    assert correlation(xd_q3, np_tile, other, np.int64(3)) == correlation(xd_q3, tile, ((7,),), 3)
    assert type(xd_q3.strip_graph("horizontal", 1)._row_steps) is int


def test_ragged_patterns_are_refused(xd_q3):
    col = chains(xd_q3.B, 2)[0]
    ragged = (col, col[:1])
    assert not is_admissible(xd_q3, ragged)
    with pytest.raises(ValueError, match="same height"):
        cylinder_measure(xd_q3, ragged)
    for p1, p2 in ((ragged, (col,)), ((col,), ragged)):
        with pytest.raises(ValueError, match="same height"):
            correlation(xd_q3, p1, p2, 4)


@pytest.mark.parametrize("offset", [3.0, 2.5, "3", None, Fraction(3)])
def test_non_integer_offsets_are_refused_before_any_row_is_held(d12_q3, offset):
    shift = build_xd(d12_q3)
    tile = ((0,),)
    correlation(shift, tile, tile, 4)
    graph = shift.strip_graph("horizontal", 1)
    held, steps = dict(graph._rows), graph._row_steps
    with pytest.raises(ValueError, match="offset must be an integer"):
        correlation(shift, tile, tile, offset)
    assert graph._row_steps == steps == 4
    assert graph._rows.keys() == held.keys()


def _correlation_oracle(shift):
    """The Fraction definition from from-scratch strip graphs and their
    exact powers (one `matrix_power_int` per height and step count):
    joint / (s d^(W-1) d^(k-1)) against the product of the two cylinder
    measures, all read off the definition."""
    s, d = shift.s, shift.report.degree
    powers = {}

    def value(p1, p2, n):
        (m1, k), m2 = (len(p1), len(p1[0])), len(p2)
        if (k, n - m1) not in powers:
            graph = transition_graph(shift, "horizontal", k)
            powers[k, n - m1] = graph.patterns, matrix_power_int(strip_adjacency(graph), n - m1 + 1)
        patterns, power = powers[k, n - m1]
        paths = power[patterns.index(tuple(p1[-1]))][patterns.index(tuple(p2[0]))]
        joint = Fraction(paths, s * d ** (n + m2 - 1) * d ** (k - 1))
        mu1 = Fraction(1, s * d ** (m1 - 1) * d ** (k - 1))
        mu2 = Fraction(1, s * d ** (m2 - 1) * d ** (k - 1))
        return abs(joint - mu1 * mu2)

    return value


def test_held_rows_match_the_matrix_power_oracle(d12_q3):
    # offsets revisit 2 after 6 (the held rows were dropped) and end at 45,
    # where the walk has switched from int64 to Python ints (3^44 >= 2^63)
    shift = build_xd(d12_q3)
    oracle = _correlation_oracle(shift)
    tiles = [((t,),) for t in range(shift.s)]
    for n in (2, 6, 2, 3, 45):
        for c1 in tiles:
            for c2 in tiles:
                assert correlation(shift, c1, c2, n) == oracle(c1, c2, n)
    assert shift.strip_graph("horizontal", 1).power_row(0, 45).dtype == object
    assert 3**44 >= 2**63 > 3**39

    cols = chains(shift.B, 2)
    wide = admissible_patterns(shift, 2, 2)[::9]
    for n in (3, 4, 7):
        for c1 in cols[::5]:
            for c2 in cols[::7]:
                assert correlation(shift, (c1,), (c2,), n) == oracle((c1,), (c2,), n)
        for p1 in wide:
            for p2 in wide:
                assert correlation(shift, p1, p2, n) == oracle(p1, p2, n)


def test_held_rows_on_vertical_offsets_match_the_oracle(xd_q3):
    # vertical offsets through the transposed shift: rows of the original
    # become columns, and its vertical strip graph is the oracle's graph
    transposed = MatrixSubshift(xd_q3.symbols, xd_q3.B, xd_q3.A)
    oracle = _correlation_oracle(transposed)
    for k in (1, 2):
        rows = chains(xd_q3.A, k)
        for n in (2, 5, 3):
            for r1 in rows[::3]:
                for r2 in rows[::4]:
                    assert correlation(transposed, (r1,), (r2,), n) == oracle((r1,), (r2,), n)
    vertical = transition_graph(xd_q3, "vertical", 2)
    assert (strip_adjacency(transposed.strip_graph("horizontal", 2)) == strip_adjacency(vertical)).all()


def test_a_tile_sweep_walks_once_per_start_tile(d12_q3, monkeypatch):
    from ramshift import subshift

    shift = build_xd(d12_q3)
    tiles = [((t,),) for t in range(shift.s)]
    starts = []

    def counting(preds, start, n):
        starts.append((int(np.flatnonzero(start)[0]), n))
        return walks(preds, start, n)

    monkeypatch.setattr(subshift, "walks", counting)
    first = [correlation(shift, c1, c2, 3) for c1 in tiles for c2 in tiles]
    assert sorted(starts) == [(v, 3) for v in range(shift.s)]
    graph = shift.strip_graph("horizontal", 1)
    assert len(graph._rows) == shift.s

    starts.clear()
    [correlation(shift, c1, c2, 6) for c1 in tiles for c2 in tiles]
    assert len(starts) == shift.s and graph._row_steps == 6
    assert len(graph._rows) == shift.s  # the offset-3 rows were dropped
    starts.clear()
    assert [correlation(shift, c1, c2, 3) for c1 in tiles for c2 in tiles] == first
    assert len(starts) == shift.s

    row = graph.power_row(0, 3)
    assert graph.power_row(0, 3) is row
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 0


def test_mixing_tables_q3(d12_q3):
    for k in (1, 2):
        table = mixing_table(d12_q3, k, 20)
        assert table.d == 3
        assert table.all_ok
        assert table.dimension == 16 * 3 ** (k - 1)
    vertical = mixing_table(d12_q3, 1, 10, direction="vertical")
    assert vertical.all_ok


def test_mixing_table_q5(d12_q5):
    table = mixing_table(d12_q5, 1, 15)
    assert table.d == 5 and table.all_ok
    # C is fitted at n = 1 with theta = 1/sqrt(5)
    assert table.c_float == pytest.approx(float(table.rows[0].deviation) * sqrt(5))
    assert table.rows[1].envelope_float == pytest.approx(table.c_float * 2 / 5)


def test_strip_modulus_is_the_ihara_transfer_of_the_level():
    # a height-k strip is a dart of A_k (read vertical) or B_k (horizontal),
    # and the strip graph is their non-backtracking graph: on a connected,
    # non-bipartite level its modulus is max |mu| over mu^2 - lambda mu + q
    # = 0 for the level's nontrivial lambda; on a bipartite level it is q
    q, checked, bipartite = 5, 0, 0
    for seed in range(40):
        datum = random_vh_datum(Random(seed), 6, 6)
        shift = build_xd(datum)
        for k in (1, 2):
            for side, direction in (("A", "vertical"), ("B", "horizontal")):
                graph = level_graph(datum, side, k)
                structure = structure_predicates(graph)
                modulus = second_modulus_directed(strip_adjacency(shift.strip_graph(direction, k)))
                if structure.bipartite:
                    assert modulus == pytest.approx(q, abs=1e-9), (seed, side, k)
                    bipartite += 1
                elif structure.connected:
                    nontrivial = eig_symmetric(graph.adjacency())[1:]
                    ihara = max(sqrt(q) if lam * lam <= 4 * q else (abs(lam) + sqrt(lam * lam - 4 * q)) / 2
                                for lam in nontrivial)
                    assert modulus == pytest.approx(ihara, abs=1e-9), (seed, side, k)
                    checked += 1
    assert (checked, bipartite) == (116, 12)


def test_mixing_table_needs_r1(d12_q3):
    # the linear factor genuinely matters: the r = 0 envelope dev(n) <=
    # dev(1) theta^(n-1), exactly dev(n)^2 d^n <= dev(1)^2 d, fails somewhere
    table = mixing_table(d12_q3, 1, 20)
    dev1, d = table.rows[0].deviation, table.d
    assert table.all_ok
    assert any(row.deviation**2 * d**row.n > dev1**2 * d for row in table.rows)


def test_mixing_csv_format(d12_q3):
    table = mixing_table(d12_q3, 1, 6)
    csv = mixing_table_to_csv(table, header="demo")
    lines = csv.strip().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "n,deviation_num,deviation_den,deviation_float,envelope_float,ok"
    assert len(lines) == 8
    assert all(line.endswith(",ok") for line in lines[2:])


def test_mixing_table_cap(d12_q3):
    with pytest.raises(SizeCapExceeded):
        mixing_table(d12_q3, 7, 3)  # 8 * 11664^2 bytes > 256 MiB
    # 16 * 3^5 = 3888 strips, above the dense eigensolver's 2000: the table is exact
    table = mixing_table(d12_q3, 6, 2, direction="vertical")
    assert table.dimension == 3888 and table.all_ok


@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_chunked_walks_change_no_number(d12_q3, monkeypatch, direction):
    # the smallest byte bound that admits the 144 strips of height 3 walks
    # the identity in chunks of 3 rows; the table must not change
    from ramshift import spectral
    from test_spectral import deviation_from_powers

    whole = mixing_table(build_xd(d12_q3), 3, 6, direction=direction)
    shift = build_xd(d12_q3)
    m = len(shift.strip_graph(direction, 3).patterns)
    monkeypatch.setattr(spectral, "EXACT_BYTES", 8 * m * m)
    rows = []

    def counting(preds, start, n):
        rows.append(len(start))
        return walks(preds, start, n)

    monkeypatch.setattr(spectral, "walks", counting)
    chunked = mixing_table(shift, 3, 6, direction=direction)
    assert len(rows) >= 4 and sum(rows) == m
    assert chunked == whole
    adjacency = strip_adjacency(shift.strip_graph(direction, 3))
    assert [row.deviation for row in chunked.rows] == [deviation_from_powers(adjacency, n) for n in range(1, 7)]


def test_strip_graphs_are_built_once_per_direction_and_height(d12_q3, monkeypatch):
    from ramshift import subshift

    # a fresh shift: the session fixture may already hold strip graphs
    shift = build_xd(d12_q3)
    built = []

    def counting(*args):
        built.append(args[1:])
        return transition_graph(*args)

    monkeypatch.setattr(subshift, "transition_graph", counting)
    tiles = [((t,),) for t in range(shift.s)]
    held = {
        (c1, c2, n): correlation(shift, c1, c2, n)
        for n in range(2, 7) for c1 in tiles for c2 in tiles
    }
    table = mixing_table(shift, 1, 6)
    assert built == [("horizontal", 1)]
    mixing_table(shift, 1, 3, direction="vertical")
    mixing_table(shift, 2, 3, direction="vertical")
    assert built == [("horizontal", 1), ("vertical", 1), ("vertical", 2)]

    def fresh():
        return MatrixSubshift(shift.symbols, shift.A, shift.B)

    for (c1, c2, n), value in held.items():
        assert correlation(fresh(), c1, c2, n) == value
    assert mixing_table(fresh(), 1, 6) == table


def test_held_strip_graphs_are_read_only(xd_q3):
    graph = xd_q3.strip_graph("horizontal", 2)
    assert xd_q3.strip_graph("horizontal", 2) is graph
    assert graph.index is graph.index and graph.preds is graph.preds
    with pytest.raises(ValueError, match="read-only"):
        graph.preds[0, 0] = 0
    for array in (graph.tail, graph.head):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.fixture
def no_strip_graph(monkeypatch):
    from ramshift import subshift

    def refuse(*args):
        raise AssertionError("the strip graph must not be built above the cap")

    monkeypatch.setattr(subshift, "transition_graph", refuse)


@pytest.mark.parametrize("k", [7, 8, 40])
@pytest.mark.parametrize("direction", ["horizontal", "vertical"])
def test_mixing_counts_strips_before_building_the_strip_graph(d12_q3, no_strip_graph, k, direction):
    with pytest.raises(SizeCapExceeded, match="capped at 268435456 bytes"):
        mixing_table(d12_q3, k, 3, direction=direction)


def test_correlation_counts_strips_before_building_the_strip_graph(xd_q3, no_strip_graph):
    column = (chains(xd_q3.B, 7)[0],)  # 16 * 3^6 = 11664 strips of height 7
    with pytest.raises(SizeCapExceeded, match="capped at 268435456 bytes"):
        correlation(xd_q3, column, column, 3)
