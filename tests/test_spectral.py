"""Spectral verdicts: closed-form spectra as oracles, the Ramanujan check,
the Bass-Ihara transfer, and exact deviation norms."""

import json
import random
from fractions import Fraction
from itertools import islice, product
from math import cos, pi, sqrt

import numpy as np
import pytest

from ramshift import build_quaternionic_datum, make_field
from ramshift.cli import main
from ramshift.graphs import TowerLevel, UGraph, level_graph, level_size, level_tower, nb_matrix
from ramshift.spectral import (
    DENSE_EIG_LIMIT,
    EXACT_POWER_LIMIT,
    SizeCapExceeded,
    bass_ihara_pairs,
    cover_block,
    deviation_norm,
    deviation_table,
    eig_symmetric,
    matrix_power_int,
    nb_spectrum_direct,
    nb_transfer_report,
    ramanujan_check,
    second_modulus_directed,
    tower_spectra,
    walk_counts,
)
from conftest import letter_map, random_vh_datum
from test_graphs import complete_bipartite, cycle, petersen


def test_eig_symmetric_c5():
    eigs = eig_symmetric(cycle(5).adjacency())
    expected = sorted(
        [2.0] + [2 * cos(2 * pi / 5)] * 2 + [2 * cos(4 * pi / 5)] * 2, reverse=True
    )
    assert np.allclose(eigs, expected, atol=1e-10)


def test_eig_symmetric_all_ones():
    m = 6
    eigs = eig_symmetric(np.ones((m, m), dtype=int))
    assert np.allclose(eigs, [m] + [0.0] * (m - 1), atol=1e-10)


def test_eig_symmetric_petersen_against_char_poly():
    a = petersen().adjacency()
    eigs = eig_symmetric(a)
    # oracle: the characteristic polynomial (x-3)(x-1)^5(x+2)^4, checked by
    # exact integer determinants of xI - A at sample points
    def det_int(mat):
        mat = [[Fraction(x) for x in row] for row in mat.tolist()]
        n = len(mat)
        det = Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != col:
                mat[col], mat[piv] = mat[piv], mat[col]
                det = -det
            det *= mat[col][col]
            for r in range(col + 1, n):
                factor = mat[r][col] / mat[col][col]
                mat[r] = [mat[r][k] - factor * mat[col][k] for k in range(n)]
        return det

    for x in (-3, 0, 2, 5):
        char = det_int(x * np.eye(10, dtype=int) - a)
        assert char == (x - 3) * (x - 1) ** 5 * (x + 2) ** 4
    assert np.allclose(eigs, [3.0] + [1.0] * 5 + [-2.0] * 4, atol=1e-10)


def test_eig_symmetric_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eig_symmetric(np.array([[0, 1], [0, 0]]))


def test_trace_identities(d12_q3):
    a = level_graph(d12_q3, "A", 3).adjacency()
    eigs = eig_symmetric(a)
    assert abs(eigs.sum() - np.trace(a)) < 1e-8 * max(1, abs(np.trace(a)))
    assert abs((eigs**2).sum() - np.trace(a @ a)) < 1e-8 * np.trace(a @ a)


def test_ramanujan_check_c4():
    report = ramanujan_check(cycle(4))
    assert report.bipartite and report.ramanujan
    assert np.allclose(report.eigenvalues, [2, 0, 0, -2], atol=1e-10)


def test_ramanujan_check_k33():
    report = ramanujan_check(complete_bipartite(3, 3))
    assert report.bipartite and report.ramanujan
    assert report.second_modulus <= 1e-10
    assert report.bound == pytest.approx(2 * sqrt(2))


def test_ramanujan_check_level_graph(d12_q3):
    report = ramanujan_check(level_graph(d12_q3, "A", 2))
    assert report.ramanujan and not report.bipartite
    assert report.degree == 4 and report.n_vertices == 12
    assert report.margin > 0


def test_ramanujan_check_rejects_disconnected():
    two_triangles = UGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(ValueError, match="disconnected"):
        ramanujan_check(two_triangles)


def test_ramanujan_check_caps_before_any_work(monkeypatch):
    from ramshift import spectral

    def no_bfs(graph):
        raise AssertionError("structure_predicates must not run above the cap")

    monkeypatch.setattr(spectral, "structure_predicates", no_bfs)
    with pytest.raises(SizeCapExceeded, match="dense eigensolve"):
        ramanujan_check(cycle(spectral.DENSE_EIG_LIMIT + 1))


def test_ramanujan_check_rejects_irregular():
    path = UGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="regular graph"):
        ramanujan_check(path)


# q -> (p, e, the highest level under the dense cap)
TOWER_FIELDS = {3: (3, 1, 6), 5: (5, 1, 4), 7: (7, 1, 3), 9: (3, 2, 3), 13: (13, 1, 2)}


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("q", sorted(TOWER_FIELDS))
def test_tower_spectrum_equals_the_full_eigensolve(q, side):
    p, e, top = TOWER_FIELDS[q]
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    assert level_size(datum, side, top) <= DENSE_EIG_LIMIT < level_size(datum, side, top + 1)
    levels = list(islice(level_tower(datum, side), top + 1))  # the rose and levels 1..top
    spectra = list(tower_spectra(iter(levels)))
    assert len(spectra) == top
    for (lower, *_), (graph, parent, *_), (same, eigs, _) in zip(levels, levels[1:], spectra):
        assert same is graph
        block = cover_block(graph, lower, parent)
        assert block.shape == (graph.n_vertices() - lower.n_vertices(),) * 2
        assert (block == block.T).all()
        assert eigs[0] == q + 1  # the rose's, exactly
        assert (np.diff(eigs) <= 0).all()
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9


def test_tower_fibers_have_q_words_and_q_plus_one_over_the_rose(d12_q3):
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    assert levels[0][1] is None and levels[0][0].n_vertices() == 1
    assert [np.bincount(parent).tolist() for _, parent, *_ in levels[1:]] == [[4], [3] * 4, [3] * 12]
    for (lower, *_), (graph, parent, *_) in zip(levels[1:], levels[2:]):
        # the parent of a word is the word without its first letter
        assert [label.split(".", 1)[1] for label in graph.vertex_labels] == [
            lower.vertex_labels[v] for v in parent
        ]


def test_a_parent_that_is_no_covering_raises(d12_q3):
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    (lower, *_), (graph, parent, *_) = levels[2], levels[3]
    swapped = parent.copy()
    swapped[[0, -1]] = parent[[-1, 0]]
    assert swapped[0] != parent[0]  # two vertices of different fibers trade places
    with pytest.raises(ValueError, match="not a covering"):
        cover_block(graph, lower, swapped)
    with pytest.raises(ValueError, match="not a covering"):
        list(tower_spectra(iter(levels[:3] + [levels[3]._replace(parent=swapped)])))
    uneven = parent.copy()
    uneven[0] = parent[-1]
    with pytest.raises(ValueError, match="fibers differ"):
        cover_block(graph, lower, uneven)
    with pytest.raises(ValueError, match="into 0..11"):
        cover_block(graph, lower, parent + 1)


def _tower_against_whole_graphs(datum, side, top):
    """The tower's spectra of levels 1..top, each checked against the
    eigensolve of the whole adjacency; returns the solved block dimensions."""
    spectra = list(islice(tower_spectra(level_tower(datum, side)), top))
    for graph, eigs, _ in spectra:
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9
    return [blocks for _, _, blocks in spectra]


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("p, e, places, top", [(5, 1, (2, 4), 4), (3, 2, (2, 5), 3)], ids=["q5", "q9"])
def test_tower_spectrum_at_other_places(p, e, places, top, side):
    datum = build_quaternionic_datum(make_field(p, e), *places)
    assert len(_tower_against_whole_graphs(datum, side, top)) == top


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("q", sorted(TOWER_FIELDS))
def test_tower_splits_every_quaternionic_level_from_3_on(q, side):
    # the inversion and reversal split is what quarters the work; a broken
    # symmetry falls back to a coarser split without a sound, so this pins
    # the quarters of D = N_{n-2} (q - 1)^2 on every level n >= 3: the
    # P_L = (q + 1) q^(ceil(L/2) - 1) palindromic middles of length L keep
    # the q (q - 1) / 2 transpose-even or the (q - 1)(q - 2) / 2 odd
    # functions of their grid, which moves E = P_{n-2} (q - 1) between them
    p, e, top = TOWER_FIELDS[q]
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    blocks = [b for _, _, b in islice(tower_spectra(level_tower(datum, side)), top)]
    assert blocks[:2] == [(q,), ((q + 1) * q - (q + 1),)][:top]
    for n, solved in enumerate(blocks[2:], 3):
        d = level_size(datum, side, n - 2) * (q - 1) ** 2
        e = (q + 1) * q ** (-(-(n - 2) // 2) - 1) * (q - 1)
        assert solved == ((d + e) // 4, (d - e) // 4, (d - e) // 4, (d + e) // 4)


@pytest.mark.parametrize("side", ["A", "B"])
def test_a_datum_without_the_inversion_is_solved_in_reversal_halves(datum_without_inversion, side):
    # letter-wise inversion is no automorphism of this datum's levels 3 and
    # 4 (the fixture checks level 3 independently), but reversal is one of
    # every valid datum's levels, so the doubly-new blocks split in halves
    blocks = _tower_against_whole_graphs(datum_without_inversion, side, 4)
    assert blocks[2:] == [(48, 48), (240, 240)]  # N_{n-2} 4^2 / 2 for N_1 = 6, N_2 = 30


def test_a_drop_last_parent_that_is_no_covering_raises(d12_q3):
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    last = levels[3].last_parent
    swapped = last.copy()
    swapped[[0, -1]] = last[[-1, 0]]
    assert swapped[0] != last[0]  # two vertices of different fibers trade places
    with pytest.raises(ValueError, match="not a covering"):
        list(tower_spectra(iter(levels[:3] + [levels[3]._replace(last_parent=swapped)])))


def test_a_grid_that_is_not_a_product_raises(d12_q3):
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    # the drop-first parent passed as the drop-last one on level 3 alone:
    # both are coverings, but the two ways down to level 1 differ
    crossed = levels[:3] + [levels[3]._replace(last_parent=levels[3].parent)]
    with pytest.raises(ValueError, match="not a covering grid: the two ways down differ"):
        list(tower_spectra(iter(crossed)))
    # on levels 2 and 3 both: the square commutes, but the q words x.m.y
    # with one m.y share a (middle, left, right) cell
    doubled = levels[:2] + [level._replace(last_parent=level.parent) for level in levels[2:]]
    with pytest.raises(ValueError, match="not a covering grid: a cell does not hold one vertex"):
        list(tower_spectra(iter(doubled)))


def _level_4_with_broken(datum, *names):
    """The solved blocks of A_4, whose spectrum is checked against the whole
    eigensolve, from a tower whose level 4 has two entries of each named
    symmetry swapped."""
    levels = list(islice(level_tower(datum, "A"), 5))
    broken = {}
    for name in names:
        broken[name] = getattr(levels[4], name).copy()
        broken[name][[0, 1]] = broken[name][[1, 0]]
    (graph, eigs, blocks), = islice(tower_spectra(iter(levels[:4] + [levels[4]._replace(**broken)])), 3, 4)
    assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9
    return blocks


def test_a_broken_inversion_is_refused_and_the_spectrum_stays_exact(d12_q3):
    # reversal alone still splits the doubly-new block in halves
    whole = level_size(d12_q3, "A", 2) * 2 ** 2
    assert _level_4_with_broken(d12_q3, "inversion") == (whole // 2,) * 2


@pytest.mark.parametrize("broken, n_blocks", [(("reversal",), 2), (("inversion", "reversal"), 1)],
                         ids=["reversal", "both"])
def test_a_broken_reversal_is_refused_and_the_spectrum_stays_exact(d12_q3, broken, n_blocks):
    # inversion alone gives its halves, and with both broken the whole
    # doubly-new block is solved
    whole = level_size(d12_q3, "A", 2) * 2 ** 2
    assert _level_4_with_broken(d12_q3, *broken) == (whole // n_blocks,) * n_blocks


def test_a_malformed_reversal_is_refused_without_a_sound(d12_q3):
    # the wrong length, floats, the identity (it maps no drop-first fiber
    # onto a drop-last one) and inversion offered as reversal all leave
    # inversion's halves
    levels = list(islice(level_tower(d12_q3, "A"), 5))
    top = levels[4]
    n = top.graph.n_vertices()
    for reversal in (np.arange(n + 1), top.reversal.astype(float), np.arange(n), top.inversion):
        tower = levels[:4] + [top._replace(reversal=reversal)]
        (_, _, blocks), = islice(tower_spectra(iter(tower)), 3, 4)
        assert blocks == (level_size(d12_q3, "A", 2) * 2 ** 2 // 2,) * 2


def test_reversal_is_dropped_where_r_is_no_slot_transpose(d12_q3):
    # two words x.m and x'.m of level 3, for a palindromic m, trade places:
    # the drop-first fiber of m is reordered but its drop-last fiber is not,
    # so r = inversion . reversal no longer acts on the grids of m at level
    # 4 as the slot transpose, and only inversion's halves are solved
    levels = list(islice(level_tower(d12_q3, "A"), 5))
    three, four = levels[3], levels[4]
    m = next(v for v, label in enumerate(levels[2].graph.vertex_labels) if len(set(label.split("."))) == 1)
    swap = np.arange(three.graph.n_vertices())
    swap[np.flatnonzero(three.parent == m)[:2]] = np.flatnonzero(three.parent == m)[1::-1]
    g = three.graph
    three = TowerLevel(
        UGraph([g.vertex_labels[v] for v in swap], swap[g.origin], swap[g.terminus], g.inv, g.dart_labels),
        three.parent[swap], three.last_parent[swap], swap[three.inversion[swap]], swap[three.reversal[swap]],
    )
    four = four._replace(parent=swap[four.parent], last_parent=swap[four.last_parent])
    spectra = list(tower_spectra(iter(levels[:3] + [three, four])))
    assert [blocks for _, _, blocks in spectra[2:]] == [(6, 2, 2, 6), (24, 24)]
    for graph, eigs, _ in spectra:
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9


def test_tower_last_parents_and_inversions_follow_the_words(d12_q3):
    levels = list(islice(level_tower(d12_q3, "B"), 5))
    inverse = dict(zip(d12_q3.V, (d12_q3.V[i] for i in d12_q3.inv_V)))
    assert levels[1].last_parent.tolist() == [0] * 4
    for (lower, *_), (graph, _, last, inversion, _) in zip(levels[1:], levels[2:]):
        labels = [label.split(".") for label in graph.vertex_labels]
        assert [".".join(word[:-1]) for word in labels] == [lower.vertex_labels[v] for v in last]
        assert [".".join(map(inverse.get, word)) for word in labels] == [graph.vertex_labels[v] for v in inversion]


@pytest.mark.parametrize("side", ["A", "B"])
def test_tower_reversals_follow_the_words(d12_q3, side):
    for graph, *_, reversal in islice(level_tower(d12_q3, side), 1, 5):
        assert reversal.tolist() == letter_map(d12_q3, side, graph, reverse=True)


def test_reversal_is_an_automorphism_of_every_valid_datum():
    # a square read backwards is a square, so reversal maps the dart
    # w -> w' to the dart reversal(w') -> reversal(w) on every level of
    # every valid datum; letter-wise inversion fails on some of the same levels
    fails = {True: 0, False: 0}
    for (nv, nh), seed in product([(2, 4), (4, 4), (4, 6), (6, 4), (6, 6)], range(8)):
        datum = random_vh_datum(random.Random(seed), nv, nh)
        for side in "AB":
            for graph, *_ in islice(level_tower(datum, side), 1, 5):
                a = graph.adjacency()
                for reverse in fails:
                    perm = letter_map(datum, side, graph, reverse)
                    fails[reverse] += not (a[np.ix_(perm, perm)] == a).all()
    assert fails[True] == 0 and fails[False] > 0


def test_verify_ramanujan_level_does_not_depend_on_the_range(capsys):
    entries = {}
    for levels in ("4:4", "1:4"):
        assert main(["verify-ramanujan", "--levels", levels, "--no-timestamp"]) == 0
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        entries[levels] = [json.dumps(v, sort_keys=True) for v in verdicts if v["level"] == 4]
    assert len(entries["4:4"]) == 2
    assert entries["4:4"] == entries["1:4"]


@pytest.mark.parametrize("side", ["A", "B"])
def test_bass_ihara_transfer_of_the_tower_spectrum(d12_q3, side):
    # an independent check of the split: the dart spectrum, solved directly,
    # against the transfer of the merged tower spectrum
    for n, (graph, eigs, _) in zip(range(1, 5), tower_spectra(level_tower(d12_q3, side))):
        direct = nb_spectrum_direct(nb_matrix(graph))
        transfer = np.array([x for x, _ in bass_ihara_pairs(eigs, 3)])
        assert len(direct) == 4 * graph.n_vertices()
        assert max(np.abs(transfer - x).min() for x in direct) < 1e-6
        assert max(np.abs(direct - x).min() for x in transfer) < 1e-6


def test_bass_ihara_provenance():
    pairs = bass_ihara_pairs([4.0, 0.0], 3)
    assert [src for _, src in pairs] == [4.0, 4.0, 0.0, 0.0, None, None]
    assert {v for v, src in pairs if src == 4.0} == {3.0, 1.0}


def test_bass_ihara_values():
    got = [x for x, _ in bass_ihara_pairs([4.0], 3)]
    assert {round(x.real, 9) for x in got if abs(x.imag) < 1e-12} == {3.0, 1.0, -1.0}
    got0 = [x for x, _ in bass_ihara_pairs([0.0], 3)]
    roots = [x for x in got0 if abs(x.imag) > 1e-9]
    assert sorted(x.imag for x in roots) == pytest.approx([-sqrt(3), sqrt(3)])
    # conjugate roots multiply to d, so inside the Ramanujan window the
    # modulus is exactly sqrt(d)
    for lam in np.linspace(-2 * sqrt(3), 2 * sqrt(3), 7):
        pair = bass_ihara_pairs([lam], 3)[:2]
        for root, _ in pair:
            assert abs(root) == pytest.approx(sqrt(3), abs=1e-9)


def test_nb_spectrum_direct_counts_and_cap(d12_q3, monkeypatch):
    from ramshift import spectral

    dart = nb_matrix(level_graph(d12_q3, "A", 1))
    eigs = nb_spectrum_direct(dart)
    assert len(eigs) == 16
    monkeypatch.setattr(spectral, "DENSE_EIG_LIMIT", 4)
    with pytest.raises(SizeCapExceeded, match="bass_ihara"):
        nb_spectrum_direct(dart)


def test_nb_spectrum_c5_on_unit_circle():
    eigs = nb_spectrum_direct(nb_matrix(cycle(5)))
    assert np.allclose(np.abs(eigs), 1.0, atol=1e-10)


def test_transfer_report(d12_q3):
    for side in ("A", "B"):
        for n in (1, 2):
            report = nb_transfer_report(level_graph(d12_q3, side, n))
            assert report.agrees(1e-6)
            assert report.max_modulus_defect <= 1e-6


def test_second_modulus_directed():
    # all-ones d x d: A - (d/m) J = 0
    assert second_modulus_directed(np.ones((4, 4), dtype=int)) == 0.0
    # a directed cycle is a permutation matrix: nontrivial spectrum on the
    # unit circle, so the second modulus is exactly 1
    shift = np.roll(np.eye(5, dtype=int), 1, axis=1)
    assert second_modulus_directed(shift) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="regular"):
        second_modulus_directed(np.array([[1, 1], [1, 0]]))


def test_product_level_dart_graph_is_directed_ramanujan(f5):
    # the dart graph of a multi-level graph is the transition graph of the
    # three-place shift in that direction; it must meet lambda <= sqrt(q)
    from ramshift.graphs import product_level_graph

    graph = product_level_graph(f5, [1, 2, 3], 1, (1, 1))
    dart = nb_matrix(graph)
    lam = second_modulus_directed(dart.adjacency)
    assert lam == pytest.approx(sqrt(5), abs=1e-6)


def test_matrix_power_int():
    a = [[0, 1], [1, 1]]
    p10 = matrix_power_int(a, 10)
    assert p10 == [[34, 55], [55, 89]]  # Fibonacci
    fib = [0, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    # F(101) is past 2^63: the entries must stay exact Python ints
    assert matrix_power_int(a, 100) == [[fib[99], fib[100]], [fib[100], fib[101]]]
    assert matrix_power_int(a, 0) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        matrix_power_int(a, -1)


def deviation_from_powers(a, n: int) -> Fraction:
    """Reference deviation norm through the general matrix_power_int."""
    m = len(a)
    dn = int(np.asarray(a).sum(axis=1)[0]) ** n
    power = matrix_power_int(a, n)
    return Fraction(max(abs(x * m - dn) for row in power for x in row), m * dn)


def test_deviation_norm_basics():
    j3 = np.ones((3, 3), dtype=int)
    # n = 0: identity, deviation 1 - 1/m
    assert deviation_norm(j3, 0) == Fraction(2, 3)
    # complete-with-loops: J^n / d^n equals J / m exactly
    for n in (1, 2, 5):
        assert deviation_norm(j3, n) == 0


def test_deviation_norm_envelope(d12_q3):
    from ramshift.subshift import build_xd, transition_graph

    h1 = transition_graph(build_xd(d12_q3), "horizontal", 1).adjacency
    dev1 = deviation_norm(h1, 1)
    dev10 = deviation_norm(h1, 10)
    # exact comparison of dev(10) <= C * 10 * (1/sqrt(3))^10 with C fitted at
    # n=1: squared form dev10^2 * 3^10 <= dev1^2 * 3 * 100
    assert dev10**2 * 3**10 <= dev1**2 * 3 * 100
    table = deviation_table(h1, 10)
    assert table[0] == dev1 and table[9] == dev10


@pytest.mark.parametrize("datum, k", [("d12_q3", 2), ("d12_q5", 1)])
def test_deviation_table_matches_matrix_powers(datum, k, request):
    from ramshift.subshift import build_xd, transition_graph

    adj = transition_graph(build_xd(request.getfixturevalue(datum)), "horizontal", k).adjacency
    n_max = 8
    assert deviation_table(adj, n_max) == [deviation_from_powers(adj, n) for n in range(1, n_max + 1)]


def test_walk_counts_on_a_multigraph():
    # 3-regular with a double loop: A^n has (3^n + 1) / 2 on the diagonal
    # and (3^n - 1) / 2 off it, so the deviation is 1 / (2 * 3^n)
    a = np.array([[2, 1], [1, 2]])
    for n in range(6):
        assert deviation_norm(a, n) == deviation_from_powers(a, n) == Fraction(1, 2 * 3**n)
    rows = [row.tolist() for row in walk_counts(a, [1, 0], 5)]
    assert rows == [matrix_power_int(a, n)[0] for n in range(6)]


def test_walk_counts_refuses_a_non_integer_start():
    a = [[1, 1], [1, 1]]
    for start in ([0.5, 0.5], [1.0, 0.0], np.array([1, 0.5], dtype=object), ["1", "0"]):
        with pytest.raises(ValueError, match="integer start"):
            list(walk_counts(a, start, 2))
    for start in ([True, False], [1, 0], np.array([1, 0], dtype=object)):
        assert [row.tolist() for row in walk_counts(a, start, 2)] == [[1, 0], [1, 1], [2, 2]]


# two 2-regular matrices: a double loop, whose entries reach d^j exactly
# (2^63 at j = 63 does not fit int64), and a directed triangle with loops
TWO_REGULAR = [np.array([[2, 0], [0, 2]]), np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])]


@pytest.mark.parametrize("a", TWO_REGULAR, ids=["double-loop", "triangle"])
@pytest.mark.parametrize("big, last_int64", [(False, 62), (True, 23)])
def test_walk_counts_switch_to_python_ints_at_the_overflow_bound(a, big, last_int64):
    # block j is int64 exactly while max|start| 2^j < 2^63, and object after
    m = len(a)
    start = [0] * m
    start[0] = 1
    if big:
        start[0], start[-1] = -(2**40 - 5), 2**39 + 7  # max|start| = 2^40 - 5
    bound = max(map(abs, start))
    assert bound * 2**last_int64 < 2**63 <= bound * 2 ** (last_int64 + 1)
    blocks = list(walk_counts(a, start, 70))
    for j, block in enumerate(blocks):
        assert block.dtype == (np.int64 if j <= last_int64 else object)
        want = np.array(start, dtype=object) @ np.array(matrix_power_int(a, j), dtype=object)
        assert block.tolist() == want.tolist()


def test_deviation_table_crosses_the_int64_bound(d12_q3):
    # 3^39 < 2^63 < 3^40: the identity block steps in int64 through n = 39
    # and in Python ints from n = 40 on
    from ramshift.subshift import build_xd, transition_graph

    adj = transition_graph(build_xd(d12_q3), "horizontal", 1).adjacency
    assert 3**39 < 2**63 < 3**40
    blocks = list(walk_counts(adj, np.eye(len(adj), dtype=np.int64), 45))
    assert [block.dtype == object for block in blocks] == [n >= 40 for n in range(46)]
    assert deviation_table(adj, 45) == [deviation_from_powers(adj, n) for n in range(1, 46)]


def test_deviation_norm_caps_and_validation(monkeypatch):
    from ramshift import spectral

    monkeypatch.setattr(spectral, "EXACT_POWER_LIMIT", 3)
    with pytest.raises(SizeCapExceeded):
        deviation_norm(np.ones((4, 4), dtype=int), 2)
    monkeypatch.undo()
    with pytest.raises(SizeCapExceeded):
        deviation_table(np.ones((EXACT_POWER_LIMIT + 1,) * 2, dtype=int), 1)
    for bad in (np.array([[1, 1], [1, 0]]), np.array([[2, -1], [-1, 2]])):
        with pytest.raises(ValueError, match="regular"):
            deviation_norm(bad, 2)
        with pytest.raises(ValueError, match="regular"):
            deviation_table(bad, 2)
