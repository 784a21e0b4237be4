"""Spectral verdicts: closed-form spectra as oracles, the Ramanujan check,
the Bass-Ihara transfer, and exact deviation norms."""

import json
import random
from fractions import Fraction
from itertools import islice, permutations, product
from math import cos, pi, sqrt

import numpy as np
import pytest

from ramshift import build_quaternionic_datum, make_field, spectral
from ramshift.cli import main
from ramshift.ffield import torus_generator
from ramshift.graphs import (
    TowerLevel, UGraph, cover_fiber, dart_map, is_automorphism, level_graph, level_size, level_tower, nb_matrix,
    structure_predicates,
)
from ramshift.spectral import (
    DENSE_EIG_LIMIT,
    SizeCapExceeded,
    arc_predecessors,
    bass_ihara_pairs,
    check_exact_cap,
    deviation_table,
    eig_symmetric,
    matrix_power_int,
    max_min_dist,
    modulus_defect,
    nb_blocks,
    nb_spectrum,
    nb_spectrum_direct,
    nb_transfer_report,
    ramanujan_check,
    second_modulus_directed,
    tower_spectra,
    walks,
)
from ramshift.vhdatum import write_datum
from conftest import letter_map, random_vh_datum
from reference import from_edges, preds_of, strip_adjacency
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


def test_eig_symmetric_on_a_hermitian_circulant():
    # the circulant with first row c, c_(n-k) = conj(c_k), is Hermitian with
    # the eigenvalues sum_k c_k w^(jk), w = exp(2 pi i / n)
    n = 7
    c = np.array([2, 1 + 2j, 0.5j, 0, 0, -0.5j, 1 - 2j])
    a = c[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
    expected = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) @ c
    assert np.abs(expected.imag).max() < 1e-12
    assert np.abs(eig_symmetric(a) - np.sort(expected.real)[::-1]).max() < 1e-12
    # a matrix equal to its transpose but not to its conjugate transpose,
    # and one off by a single entry, are refused
    for bad in (a + 1j * np.eye(n), a + np.eye(n, k=1)):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_symmetric(bad)


@pytest.fixture
def blas_at_two():
    """The OpenBLAS thread-count getter of `spectral._blas_control`, with
    the count set to 2 (other than 1, whatever the environment chose) and
    put back after."""
    control = spectral._blas_control()
    if control is None:
        pytest.skip("no OpenBLAS thread control found in numpy's LAPACK module")
    get, put = control
    before = get()
    put(2)
    yield get
    put(before)


def test_one_blas_thread_scope_restores_the_count(blas_at_two):
    get = blas_at_two
    with spectral._one_blas_thread():
        assert get() == 1
    assert get() == 2
    with pytest.raises(ZeroDivisionError), spectral._one_blas_thread():
        assert get() == 1
        1 / 0
    assert get() == 2


def test_every_eigensolve_runs_on_one_blas_thread(blas_at_two, monkeypatch, d12_q3):
    get, seen = blas_at_two, []
    for name in ("eigh", "eigvals", "eigvalsh", "cholesky"):
        def solve(*args, _solve=getattr(np.linalg, name), _name=name):
            seen.append((_name, get()))
            return _solve(*args)
        monkeypatch.setattr(np.linalg, name, solve)
    graph = level_graph(d12_q3, "A", 2)
    eig_symmetric(graph.adjacency())
    nb_spectrum(graph)
    nb_spectrum_direct(nb_matrix(graph))
    second_modulus_directed(np.roll(np.eye(5, dtype=int), 1, axis=1))
    assert seen == [("eigh", 1)] + [("eigvals", 1)] * 3
    seen.clear()
    list(islice(tower_spectra(level_tower(d12_q3, "A")), 4))
    assert {name for name, _ in seen} == {"eigvalsh", "cholesky"}  # every level certified: no eigh
    assert {threads for _, threads in seen} == {1} and get() == 2
    seen.clear()
    list(islice(tower_spectra(level_tower(d12_q3, "A"), tol=-3.0), 1))  # a bound below 1 certifies no level
    assert {"eigvalsh", "eigh"} <= {name for name, _ in seen} and {threads for _, threads in seen} == {1}


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
    two_triangles = from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    # a verdict, not an error: 2-regular, so the bound 2 equals the degree
    # and the second eigenvalue 2 (the other triangle's) would pass it
    report = ramanujan_check(two_triangles)
    assert not report.ramanujan and not report.structure.connected
    assert report.second_modulus == pytest.approx(2) and report.bound == 2


def test_ramanujan_check_caps_before_any_work(monkeypatch):
    from ramshift import spectral

    def no_bfs(graph):
        raise AssertionError("structure_predicates must not run above the cap")

    monkeypatch.setattr(spectral, "structure_predicates", no_bfs)
    with pytest.raises(SizeCapExceeded, match="dense eigensolve"):
        ramanujan_check(cycle(spectral.DENSE_EIG_LIMIT + 1))


def test_ramanujan_check_rejects_irregular():
    path = from_edges(3, [(0, 1), (1, 2)])
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
    for n, (below, lower, (graph, *_), (same, eigs, blocks, _)) in enumerate(
            zip([None] + levels, levels, levels[1:], spectra), 1):
        assert same is graph
        # levels 1 and 2 solve the new block of the drop-first cover, later
        # ones the doubly-new block (eig_symmetric refuses an asymmetric one)
        new = graph.n_vertices() - lower.graph.n_vertices() if n < 3 else below.graph.n_vertices() * (q - 1) ** 2
        assert sum(blocks) == new
        assert eigs[0] == q + 1  # the rose's, exactly
        assert (np.diff(eigs) <= 0).all()
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9


def test_tower_fibers_have_q_words_and_q_plus_one_over_the_rose(d12_q3):
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    assert levels[0][1] is None and levels[0][0].n_vertices() == 1
    assert [np.bincount(parent).tolist() for _, parent, *_ in levels[1:]] == [[4], [3] * 4, [3] * 12]
    for (lower, *_), (graph, parent, *_) in zip(levels[1:], levels[2:]):
        # the parent of a word is the word without its first letter
        lower_labels = lower.vertex_labels
        assert [label.split(".", 1)[1] for label in graph.vertex_labels] == [
            lower_labels[v] for v in parent
        ]


def test_a_parent_that_is_no_covering_raises(d12_q3):
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    (lower, *_), (graph, parent, *_) = levels[2], levels[3]
    swapped = parent.copy()
    swapped[[0, -1]] = parent[[-1, 0]]
    assert swapped[0] != parent[0]  # two vertices of different fibers trade places
    with pytest.raises(ValueError, match="not a covering"):
        cover_fiber(graph, lower, swapped)
    with pytest.raises(ValueError, match="not a covering"):
        list(tower_spectra(iter(levels[:3] + [levels[3]._replace(parent=swapped)])))
    uneven = parent.copy()
    uneven[0] = parent[-1]
    with pytest.raises(ValueError, match="fibers differ"):
        cover_fiber(graph, lower, uneven)
    with pytest.raises(ValueError, match="into 0..11"):
        cover_fiber(graph, lower, parent + 1)
    # level 2 builds its new block on the fibers that this check counted
    two = levels[2].parent.copy()
    two[0] = two[-1]
    with pytest.raises(ValueError, match="fibers differ"):
        list(tower_spectra(iter(levels[:2] + [levels[2]._replace(parent=two)])))


def _tower_against_whole_graphs(datum, side, top):
    """The tower's spectra of levels 1..top, each checked against the
    eigensolve of the whole adjacency; returns the solved block dimensions."""
    spectra = list(islice(tower_spectra(level_tower(datum, side)), top))
    for graph, eigs, *_ in spectra:
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9
    return [spectrum.blocks for spectrum in spectra]


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("p, e, places, top", [(5, 1, (2, 4), 4), (3, 2, (2, 5), 3)], ids=["q5", "q9"])
def test_tower_spectrum_at_other_places(p, e, places, top, side):
    datum = build_quaternionic_datum(make_field(p, e), *places)
    assert len(_tower_against_whole_graphs(datum, side, top)) == top


def _klein_quarters(datum, q, side, n):
    """The Klein quarters of level n >= 3's doubly-new block
    D = N_{n-2} (q - 1)^2, in the order (+, +), (-, +), (+, -), (-, -) of
    (chi(iota), chi(rho)): the P_L = (q + 1) q^(ceil(L/2) - 1) palindromic
    middles of length L keep the q (q - 1) / 2 transpose-even or the
    (q - 1)(q - 2) / 2 odd functions of their grid, which moves
    E = P_{n-2} (q - 1) between them."""
    d = level_size(datum, side, n - 2) * (q - 1) ** 2
    e = (q + 1) * q ** (-(-(n - 2) // 2) - 1) * (q - 1)
    return (d + e) // 4, (d - e) // 4, (d - e) // 4, (d + e) // 4


def _torus_characters(datum, q, side, n):
    """The block dimension of each character chi of <u> x <rho> on level
    n >= 3, in the order j + (q + 1) b for chi(u) = exp(2 pi i j / (q + 1))
    and chi(rho) = (-1)^b: the middles of length L = n - 2 that are not
    palindromes form free orbits of 2 (q + 1), each with all (q - 1)^2
    functions of its grid, and the P_L palindromes orbits of q + 1, fixed
    by r = iota rho, which keep the even or odd functions as
    chi(r) = (-1)^j chi(rho) is 1 or -1."""
    length = n - 2
    palindromes = (q + 1) * q ** (-(-length // 2) - 1)
    free = (level_size(datum, side, length) - palindromes) // (2 * (q + 1))
    even, odd = q * (q - 1) // 2, (q - 1) * (q - 2) // 2
    return tuple(free * (q - 1) ** 2 + palindromes // (q + 1) * (even if (-1) ** (j + b) == 1 else odd)
                 for b in (0, 1) for j in range(q + 1))


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("q", sorted(TOWER_FIELDS))
def test_tower_splits_every_quaternionic_level_from_3_on(q, side):
    # the rotation and reversal split is what divides the work by 2 (q + 1);
    # a refused symmetry falls back to a coarser split without a sound, so
    # this pins the blocks of every character on every level: level 1 is
    # solved whole, level 2 in q + 1 blocks of q - 1 (one free orbit of
    # fibers), and from level 3 on `_torus_characters`
    p, e, top = TOWER_FIELDS[q]
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    blocks = [spectrum.blocks for spectrum in islice(tower_spectra(level_tower(datum, side)), top)]
    assert blocks[:2] == [(q,), (q - 1,) * (q + 1)][:top]
    for n, dims in enumerate(blocks[2:], 3):
        assert dims == _torus_characters(datum, q, side, n)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("q", sorted(TOWER_FIELDS))
def test_without_the_rotation_the_tower_keeps_the_klein_quarters(q, side):
    # a tower whose levels offer no rotation is split as before it: level 2
    # whole, the Klein quarters from level 3 on, and the same spectrum
    p, e, top = TOWER_FIELDS[q]
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    levels = list(islice(level_tower(datum, side), top + 1))
    spectra = list(tower_spectra(iter([level._replace(rotation=None) for level in levels])))
    assert [spectrum.blocks for spectrum in spectra[:2]] == [(q,), ((q + 1) * (q - 1),)][:top]
    for n, (graph, eigs, dims, _), (_, split, *_) in zip(range(1, top + 1), spectra, tower_spectra(iter(levels))):
        assert n < 3 or dims == _klein_quarters(datum, q, side, n)
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9
        assert np.abs(eigs - split).max() < 1e-9  # the split by the rotation has the same spectrum


# q -> (p, e, top): the levels checked at every place pair
PLACE_FIELDS = {3: (3, 1, 5), 5: (5, 1, 3), 7: (7, 1, 3), 9: (3, 2, 3)}


@pytest.mark.parametrize("q", sorted(PLACE_FIELDS))
def test_the_rotation_splits_the_tower_at_every_place_pair(q):
    # the benchmark draws its places at random: at every pair tau != sigma,
    # on both sides, the rotation is kept from level 2 on (q + 1 characters
    # there, 2 (q + 1) with reversal after it) and the spectrum is the whole
    # adjacency's
    p, e, top = PLACE_FIELDS[q]
    spec = make_field(p, e)
    for tau, sigma in permutations(range(1, q), 2):
        datum = build_quaternionic_datum(spec, tau, sigma)
        for side in "AB":
            for n, (graph, eigs, dims, _) in enumerate(islice(tower_spectra(level_tower(datum, side)), top), 1):
                assert len(dims) == (1, q + 1, 2 * (q + 1))[min(n, 3) - 1]
                assert np.abs(eigs - np.linalg.eigvalsh(graph.adjacency())[::-1]).max() < 1e-9


def _swaps(level, q):
    """For two vertices v and w of a level whose orbits under the group
    G = <u> x <rho> of its rotation and reversal are free and apart, the
    involutions that swap g v and g w for every g of G, and for every g of
    <u>: the first commutes with G, the second with <u> but not with rho."""
    u, rho, n = level.rotation, level.reversal, level.graph.n_vertices()
    group = spectral._elements([u, rho], (q + 1, 2), n)
    free = [x for x in range(n) if len(set(group[:, x])) == len(group)]
    v, w = free[0], next(x for x in free if x not in set(group[:, free[0]]))
    swaps = []
    for elements in (group, group[:q + 1]):  # the first q + 1 elements are <u>
        swap = np.arange(n)
        swap[elements[:, v]], swap[elements[:, w]] = elements[:, w], elements[:, v]
        swaps.append(swap)
    return swaps


def test_a_refused_rotation_leaves_the_klein_split(d12_q5):
    # maps offered as the rotation, each refused by one check, leave
    # exactly the blocks and the spectrum of the tower without a rotation,
    # and so do they for the dart blocks
    q, levels = 5, list(islice(level_tower(d12_q5, "A"), 5))
    *_, klein = tower_spectra(iter(levels[:4] + [levels[4]._replace(rotation=None)]))
    assert klein.blocks == _klein_quarters(d12_q5, q, "A", 4)
    for level in levels[3:]:
        u, iota, rho = level.rotation, level.inversion, level.reversal
        everywhere, only_u = _swaps(level, q)
        # u times the first swap commutes with iota and rho and has order
        # q + 1, but is no automorphism
        no_automorphism = u[everywhere]
        assert spectral._offered(no_automorphism, (iota, rho), q + 1, len(u))[0][1] == q + 1
        assert not is_automorphism(level.graph, no_automorphism)
        # u^2 is an automorphism, of order (q + 1) / 2
        wrong_order = u[u]
        assert is_automorphism(level.graph, wrong_order)
        assert not spectral._has_order(spectral._powers(wrong_order, q + 1))
        # u times the second swap commutes with iota and has order q + 1,
        # but does not commute with rho
        not_commuting = u[only_u]
        assert (not_commuting[iota] == iota[not_commuting]).all() and (not_commuting[rho] != rho[not_commuting]).any()
        assert [order for _, order in spectral._offered(not_commuting, (iota, rho), q + 1, len(u))] == [2, 2]
        # and maps that are no rotation at all: floats, the wrong length, the
        # identity (of order 1)
        malformed = (u.astype(float), u[:-1], np.arange(len(u)), None)
        for rotation in (no_automorphism, wrong_order, not_commuting, *malformed):
            if level is levels[3]:  # the 900 darts of A_3
                eigs, blocks = nb_spectrum(level.graph, (iota, rho), rotation)
                darts = nb_spectrum(level.graph, (iota, rho))
                assert blocks == darts[1] and np.array_equal(eigs, darts[0])
            else:
                *_, (_, eigs, blocks, _) = tower_spectra(iter(levels[:4] + [level._replace(rotation=rotation)]))
                assert blocks == klein.blocks and np.array_equal(eigs, klein.eigenvalues)


def test_a_map_is_kept_only_with_an_image_of_its_order_that_commutes():
    # a 4-cycle whose image on the points the split acts on has order 2
    # (a power acts trivially there) is refused; with an image of order 4
    # it is kept
    cycle4 = np.array([1, 2, 3, 0])
    assert spectral._symmetries([(cycle4, 4)], 4, lambda perm: np.array([1, 0])) == []
    assert [order for *_, order in spectral._symmetries([(cycle4, 4)], 4, lambda perm: perm)] == [4]
    # two commuting swaps whose images do not commute: the second is refused
    swaps = [(np.array([1, 0, 2, 3]), 2), (np.array([0, 1, 3, 2]), 2)]
    crossed = {1: np.array([1, 0, 2]), 0: np.array([0, 2, 1])}  # by perm[0]
    assert len(spectral._symmetries(swaps, 4, lambda perm: crossed[int(perm[0])])) == 1
    assert len(spectral._symmetries(swaps, 4, lambda perm: perm)) == 2


def test_a_broken_assembly_is_caught(d12_q3, monkeypatch):
    # an assembler that loses a column, or changes an entry, fails the
    # dimension count of the blocks (tower and darts) or the trace identity
    # of the darts
    levels = list(islice(level_tower(d12_q3, "A"), 4))
    one, three = levels[1], levels[3]
    assemble = spectral.dart_blocks

    def narrower(*args):
        return [block[1:, 1:] for block in assemble(*args)]

    monkeypatch.setattr(spectral, "dart_blocks", narrower)
    with pytest.raises(RuntimeError, match="character blocks add up to 2 dimensions, not 3"):
        list(islice(tower_spectra(level_tower(d12_q3, "A")), 1))  # level 1, solved whole
    with pytest.raises(RuntimeError, match="character blocks add up to 4 dimensions, not 8"):
        spectral._fiber_blocks(levels[2], 4, 3)  # level 2, split by the rotation
    with pytest.raises(RuntimeError, match="character blocks add up to 15 dimensions, not 16"):
        nb_blocks(one.graph)

    def shifted(*args):
        blocks = assemble(*args)
        blocks[0] = blocks[0] + np.eye(len(blocks[0]))
        return blocks

    monkeypatch.setattr(spectral, "dart_blocks", shifted)
    with pytest.raises(RuntimeError, match="trace identity"):
        nb_blocks(three.graph, (three.inversion, three.reversal), three.rotation)


def test_a_datum_without_a_field_is_split_as_before(datum_without_inversion):
    # no rotation is offered, so the blocks are the reversal halves they were
    for datum, expected in ((datum_without_inversion, [(48, 48), (240, 240)]),
                            (random_vh_datum(random.Random(3), 4, 4), None)):
        for side in "AB":
            levels = list(islice(level_tower(datum, side), 5))
            assert all(level.rotation is None for level in levels)
            spectra = list(tower_spectra(iter(levels)))
            assert expected is None or [spectrum.blocks for spectrum in spectra[2:]] == expected
            for graph, eigs, dims, _ in spectra:
                assert len(dims) <= 4
                assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9


def test_blocks_of_the_largest_levels_under_the_cap():
    # q = 9 A_3: 20 characters of 28 or 36 where the Klein quarters were
    # (180, 140, 140, 180); q = 5 A_4: 38 or 42 for (126, 114, 114, 126);
    # q = 13 A_2: 14 blocks of 12 for one of 168.  One block of each pair of
    # conjugate characters is solved, 12, 8 and 8 of them
    for (p, e, n), count, total, largest, solved in [((3, 2, 3), 20, 640, 36, 12), ((5, 1, 4), 12, 480, 42, 8),
                                                     ((13, 1, 2), 14, 168, 12, 8)]:
        datum = build_quaternionic_datum(make_field(p, e), 1, 2)
        for side in "AB":
            levels = list(islice(level_tower(datum, side), n + 1))
            *_, (graph, eigs, dims, _) = tower_spectra(iter(levels))
            assert (len(dims), sum(dims), max(dims)) == (count, total, largest)
            split = (spectral._fiber_blocks(levels[n], levels[n - 1].graph.n_vertices(), p ** e) if n == 2 else
                     spectral._grid_blocks(levels[n], levels[n - 1], levels[n - 2].graph.n_vertices()))
            assert len(split.blocks) == solved and split.dims == dims
            assert sum(len(b) * (1 + twin) for b, twin in zip(split.blocks, split.twins)) == total


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
    (graph, eigs, blocks, _), = islice(tower_spectra(iter(levels[:4] + [levels[4]._replace(**broken)])), 3, 4)
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
    # the wrong length, floats, the identity (it moves no middle) and the
    # other symmetry offered in its place are each refused, or add nothing,
    # for reversal and for inversion alike.  Without the rotation the other
    # one's halves are left (the other one offered twice makes r = iota rho
    # the identity, which fixes every grid but is not its slot transpose);
    # with it, iota = u^2 adds nothing, so a malformed reversal leaves the
    # four characters of <u> and a malformed inversion all eight of
    # <u> x <rho>
    levels = list(islice(level_tower(d12_q3, "A"), 5))
    n = levels[4].graph.n_vertices()
    whole = level_size(d12_q3, "A", 2) * 2 ** 2
    expected = {"reversal": (whole // 4,) * 4, "inversion": _torus_characters(d12_q3, 3, "A", 4)}
    for top in (levels[4], levels[4]._replace(rotation=None)):
        for name, other in (("reversal", "inversion"), ("inversion", "reversal")):
            for offered in (np.arange(n + 1), getattr(top, name).astype(float), np.arange(n), getattr(top, other)):
                tower = levels[:4] + [top._replace(**{name: offered})]
                (graph, eigs, blocks, _), = islice(tower_spectra(iter(tower)), 3, 4)
                assert blocks == ((whole // 2,) * 2 if top.rotation is None else expected[name])
                assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9


def test_reversal_is_dropped_where_r_is_no_slot_transpose(d12_q3):
    # two words x.m and x'.m of level 3, for a palindromic m, trade places:
    # the drop-first fiber of m is reordered but its drop-last fiber is not,
    # so r = inversion . reversal no longer acts on the grids of m at level
    # 4 as the slot transpose, and reversal is dropped: only the characters
    # of the rotation, which contains inversion, are solved
    levels = list(islice(level_tower(d12_q3, "A"), 5))
    three, four = levels[3], levels[4]
    m = next(v for v, label in enumerate(levels[2].graph.vertex_labels) if len(set(label.split("."))) == 1)
    swap = np.arange(three.graph.n_vertices())
    swap[np.flatnonzero(three.parent == m)[:2]] = np.flatnonzero(three.parent == m)[1::-1]
    g = three.graph
    labels = g.vertex_labels
    three = TowerLevel(
        UGraph([labels[v] for v in swap], swap[g.origin], swap[g.terminus], g.inv, g.dart_names.tolist()),
        three.parent[swap], three.last_parent[swap], swap[three.inversion[swap]], swap[three.reversal[swap]],
    )
    four = four._replace(parent=swap[four.parent], last_parent=swap[four.last_parent])
    spectra = list(tower_spectra(iter(levels[:3] + [three, four])))
    # level 3 offers no rotation here; level 4 keeps the rotation's characters
    assert [spectrum.blocks for spectrum in spectra[2:]] == [(6, 2, 2, 6), (12, 12, 12, 12)]
    for graph, eigs, *_ in spectra:
        assert np.abs(eigs - eig_symmetric(graph.adjacency())).max() < 1e-9


def test_tower_last_parents_and_inversions_follow_the_words(d12_q3):
    levels = list(islice(level_tower(d12_q3, "B"), 5))
    inverse = dict(zip(d12_q3.V, (d12_q3.V[i] for i in d12_q3.inv_V)))
    assert levels[1].last_parent.tolist() == [0] * 4
    for lower, level in zip(levels[1:], levels[2:]):
        graph = level.graph
        rendered, lower_rendered = graph.vertex_labels, lower.graph.vertex_labels
        labels = [label.split(".") for label in rendered]
        assert [".".join(word[:-1]) for word in labels] == [lower_rendered[v] for v in level.last_parent]
        assert [".".join(map(inverse.get, word)) for word in labels] == [rendered[v] for v in level.inversion]


@pytest.mark.parametrize("side", ["A", "B"])
def test_tower_reversals_follow_the_words(d12_q3, side):
    for level in islice(level_tower(d12_q3, side), 1, 5):
        assert level.reversal.tolist() == letter_map(d12_q3, side, level.graph, reverse=True)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("p, e", [(3, 1), (5, 1), (3, 2), (13, 1)])
def test_tower_rotations_follow_the_words(p, e, side):
    # every letter of the word multiplied by the torus generator u, which
    # has norm 1 and order q + 1 in F_q[Z]^x, computed here on elements
    spec = make_field(p, e)
    datum = build_quaternionic_datum(spec, 1, 2)
    u = spec.ext(*map(int, torus_generator(spec)))
    assert u.norm() == spec.one()
    powers = [u]
    while powers[-1] != spec.ext(1):
        powers.append(powers[-1] * u)
    assert len(powers) == spec.q + 1
    elems = datum.H_elems if side == "A" else datum.V_elems
    letters = datum.H if side == "A" else datum.V
    rotated = {letters[i]: letters[elems.index(u * x)] for i, x in enumerate(elems)}
    for level in islice(level_tower(datum, side), 1, 4):
        index = {label: v for v, label in enumerate(level.graph.vertex_labels)}
        words = (label.split(".") for label in level.graph.vertex_labels)
        assert level.rotation.tolist() == [index[".".join(map(rotated.get, word))] for word in words]



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


def test_a_certified_level_runs_no_search(monkeypatch, capsys):
    # the certificate proves every level connected and not bipartite, so no
    # breadth-first search runs; a level it leaves to float still runs one
    searched = []

    def search(graph):
        searched.append(graph.n_vertices())
        return structure_predicates(graph)

    monkeypatch.setattr(spectral, "structure_predicates", search)
    assert main(["verify-ramanujan", "--p", "3", "--levels", "1:4", "--no-timestamp"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["certificate"] for v in verdicts] == ["certified"] * 8 and searched == []
    # at tol 0 the boundary eigenvalues +-6 of q = 9 defeat the certificate
    assert main(["verify-ramanujan", "--p", "3", "--e", "2", "--levels", "1:3", "--tol", "0", "--no-timestamp"]) == 1
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [v["certificate"] for v in verdicts] == ["float"] * 6 and len(searched) == 6


def test_the_shift_keeps_a_margin_below_the_bound():
    # a diagonal block factorises exactly, so only the shift c decides: an
    # eigenvalue within c of beta, on either side of 0, is not certified,
    # and one 2c inside is; the uncertified block's spectrum is eig_symmetric's
    beta, error = 2 * sqrt(3) + 1e-8, 1e-12
    c = spectral._shift(3, np.array([beta]), beta, error)[0]
    assert 2 * error < c < 1e-10
    for sign, (inside, certified) in product((1, -1), ((c / 2, False), (2 * c, True))):
        block = np.diag([sign * (beta - inside), 1.0, 0.0])
        (eigs,), passed = spectral._block_spectra([block], beta, error)
        assert passed == certified and np.array_equal(np.sort(eigs), np.sort(np.diag(block)))


@pytest.mark.parametrize("q,side,n", [(3, "A", 6), (9, "B", 3)])
def test_stacked_solves_equal_one_call_per_block(q, side, n):
    # q = 3 A_6 holds the sweep's largest real blocks (57 rows), q = 9 B_3
    # its largest complex stack (4 blocks of 36); the shift stays far below
    # the default tol
    p, e, _ = TOWER_FIELDS[q]
    levels = list(islice(level_tower(build_quaternionic_datum(make_field(p, e), 1, 2), side), n + 1))
    split = spectral._grid_blocks(levels[n], levels[n - 1], levels[n - 2].graph.n_vertices())
    groups = {}
    for block in split.blocks:
        groups.setdefault((len(block), block.dtype), []).append(spectral._hermitian(block))
    assert max(map(len, groups.values())) >= 2
    for members in groups.values():
        stack = np.stack(members)
        assert np.array_equal(np.linalg.eigvalsh(stack), [np.linalg.eigvalsh(block) for block in members])
        shifted = 2 * sqrt(q) * np.eye(len(stack[0])) - stack
        assert np.array_equal(np.linalg.cholesky(shifted), [np.linalg.cholesky(block) for block in shifted])
        size = np.abs(stack).max(axis=(1, 2))
        assert (spectral._shift(len(stack[0]), size, 2 * sqrt(q) + 1e-8, split.error) < 1e-9).all()
    spectra, certified = spectral._block_spectra(split.blocks, 2 * sqrt(q) + 1e-8, split.error)
    assert certified
    for block, eigs in zip(split.blocks, spectra):
        assert np.array_equal(eigs, np.linalg.eigvalsh(spectral._hermitian(block))[::-1])
        assert np.abs(eigs - eig_symmetric(spectral._hermitian(block))).max() < 1e-13


def test_certified_levels_of_random_data_pass_the_dense_check():
    # negative controls: random VH-data make levels that violate the bound,
    # are bipartite or are disconnected; none of them is certified, each
    # keeps the verdict of the dense check, and every certified level passes it
    labels = {}
    for seed, side, n in product(range(40), "AB", (1, 2)):
        datum = random_vh_datum(random.Random(seed), 6, 6)
        graph, eigs, _, certified = list(islice(tower_spectra(level_tower(datum, side)), n))[-1]
        structure = structure_predicates(graph)
        if not structure.connected:
            assert not certified
            labels["disconnected"] = labels.get("disconnected", 0) + 1
            continue
        dense = ramanujan_check(graph)
        report = ramanujan_check(graph, eigenvalues=eigs, certified=certified)
        assert (report.ramanujan, report.bipartite) == (dense.ramanujan, dense.bipartite)
        assert report.certificate == ("certified" if certified else "float")
        if certified:
            assert dense.ramanujan and not dense.bipartite and dense.second_modulus <= dense.bound + 1e-8
        else:
            assert not dense.ramanujan or dense.bipartite
        key = "certified" if certified else "bipartite" if dense.bipartite else "violated"
        labels[key] = labels.get(key, 0) + 1
    assert labels == {"certified": 61, "violated": 55, "bipartite": 6, "disconnected": 38}


@pytest.mark.parametrize("seed,side,code,certificate", [
    (35, "A", 1, "float"), (3, "B", 1, "float"), (35, "B", 0, "certified"), (3, "A", 0, "certified"),
])
def test_verify_ramanujan_on_random_data_at_level_2(tmp_path, capsys, seed, side, code, certificate):
    # seed 35 A_2 (margin -0.0208) and seed 3 B_2 (margin -0.0869) violate the bound
    path = tmp_path / f"random_{seed}.json"
    write_datum(random_vh_datum(random.Random(seed), 6, 6), str(path))
    argv = ["verify-ramanujan", "--datum", str(path), "--levels", "2", "--side", side, "--no-timestamp"]
    assert main(argv) == code
    verdict, = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdict["certificate"] == certificate and verdict["ramanujan"] == (code == 0)


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
    for n, (graph, eigs, *_) in zip(range(1, 5), tower_spectra(level_tower(d12_q3, side))):
        direct = nb_spectrum_direct(nb_matrix(graph))
        transfer = bass_ihara_pairs(eigs, 3)
        assert len(direct) == 4 * graph.n_vertices()
        assert max(np.abs(transfer - x).min() for x in direct) < 1e-6
        assert max(np.abs(direct - x).min() for x in transfer) < 1e-6


def test_bass_ihara_values():
    # each eigenvalue's two roots in turn, then +-1
    assert bass_ihara_pairs([4.0, 0.0], 3).tolist() == [3, 1, 1j * sqrt(3), -1j * sqrt(3), 1, -1]
    got = bass_ihara_pairs([4.0], 3)
    assert {round(x.real, 9) for x in got if abs(x.imag) < 1e-12} == {3.0, 1.0, -1.0}
    got0 = bass_ihara_pairs([0.0], 3)
    roots = [x for x in got0 if abs(x.imag) > 1e-9]
    assert sorted(x.imag for x in roots) == pytest.approx([-sqrt(3), sqrt(3)])
    # conjugate roots multiply to d, so inside the Ramanujan window the
    # modulus is exactly sqrt(d)
    for lam in np.linspace(-2 * sqrt(3), 2 * sqrt(3), 7):
        pair = bass_ihara_pairs([lam], 3)[:2]
        for root in pair:
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


def test_grid_blocks_share_their_group_pairs_bit_for_bit(d12_q3, f9, monkeypatch):
    # the characters of one assembly share one grouping of the darts into
    # pairs of orbits; assembled one character at a time, each finding its
    # own, every block is the same to the bit
    towers = [list(islice(level_tower(datum, side), top))
              for datum, top in ((d12_q3, 7), (build_quaternionic_datum(f9, 1, 2), 4)) for side in "AB"]

    def grid_blocks():
        return [spectral._grid_blocks(level, lower, below.graph.n_vertices())
                for tower in towers for below, lower, level in zip(tower[1:], tower[2:], tower[3:])]

    shared = grid_blocks()
    assemble = spectral.dart_blocks

    def one_at_a_time(origin, terminus, group, slot, basis, weights, keep):
        return [assemble(origin, terminus, group, slot, basis, row[None], keep)[0] for row in weights]

    monkeypatch.setattr(spectral, "dart_blocks", one_at_a_time)
    alone = grid_blocks()
    assert len(shared) == 10
    for ours, theirs in zip(shared, alone):
        assert ours.dims == theirs.dims and ours.twins == theirs.twins
        assert all(np.array_equal(a, b) for a, b in zip(ours.blocks, theirs.blocks))


def _matched_distance(xs, ys) -> float:
    """The largest distance in a one-to-one matching of two equally long
    multisets of complex values, each x taking its nearest y not yet taken."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    assert len(xs) == len(ys)
    taken, worst = np.zeros(len(ys), dtype=bool), 0.0
    for x in xs:
        dist = np.where(taken, np.inf, np.abs(ys - x))
        j = int(np.argmin(dist))
        taken[j], worst = True, max(worst, float(dist[j]))
    return worst


def _whole_dart_spectrum(graph):
    return np.linalg.eigvals(nb_matrix(graph).astype(np.float64))


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("p,e,top,tol", [(3, 1, 4, 1e-9), (5, 1, 3, 1e-9), (7, 1, 2, 1e-9), (3, 2, 2, 1e-6)],
                         ids=["q3", "q5", "q7", "q9"])
def test_split_dart_spectrum_matches_the_whole(p, e, top, tol, side):
    # q = 9 has eigenvalues +-2 sqrt(q), whose dart eigenvalues +-sqrt(q)
    # sit in 2 x 2 Jordan blocks, so both solves move them by ~sqrt(eps)
    # the rotation u and reversal, lifted to the darts, give 2 (q + 1)
    # characters, and q + 1 on level 1, where reversal is inversion = u^((q + 1) / 2)
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    q = p ** e
    for n, level in enumerate(islice(level_tower(datum, side), 1, top + 1), 1):
        eigs, blocks = nb_spectrum(level.graph, (level.inversion, level.reversal), level.rotation)
        assert len(blocks) == (q + 1) * (1 if n == 1 else 2) and sum(blocks) == level.graph.n_darts()
        assert _matched_distance(eigs, _whole_dart_spectrum(level.graph)) <= tol


@pytest.mark.parametrize("p,e,n,blocks,solved", [(3, 1, 4, (54,) * 8, 6), (3, 2, 1, (10,) * 10, 6)],
                         ids=["q3_A4", "q9_A1"])
def test_dart_block_dimensions(p, e, n, blocks, solved):
    # the 432 darts of q = 3 A_4 in 8 characters of <u> x <rho>, where the
    # Klein quarters were 108 each; on level 1 reversal is inversion, which
    # is in <u>, so the 100 darts of q = 9 A_1 split by the 10 of <u> alone;
    # of each pair of conjugate characters one block is assembled
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    level = next(islice(level_tower(datum, "A"), n, None))
    split = nb_blocks(level.graph, (level.inversion, level.reversal), level.rotation)
    assert split.dims == blocks
    assert len(split.blocks) == solved and len(split.blocks) + sum(split.twins) == len(blocks)
    assert nb_blocks(level.graph, (level.inversion, level.reversal)).dims == ((108,) * 4 if n == 4 else (50, 50))


def _reflection(n, shift=0):
    return (shift - np.arange(n)) % n


@pytest.mark.parametrize("symmetries,blocks", [
    pytest.param([None], (16,), id="none"),
    pytest.param([_reflection(8)], (8, 8), id="reflection"),
    pytest.param([(np.arange(8) + 1) % 8, _reflection(8)], (8, 8), id="rotation_is_no_involution"),
    pytest.param([np.array([2, 1, 0, 3, 4, 5, 6, 7]), _reflection(8)], (8, 8), id="swap_is_no_automorphism"),
    pytest.param([_reflection(8), _reflection(8, 1)], (8, 8), id="reflections_do_not_commute"),
    pytest.param([_reflection(8).astype(float)], (16,), id="float_map"),
    pytest.param([np.arange(7)], (16,), id="wrong_length"),
])
def test_a_refused_dart_symmetry_only_coarsens_the_split(symmetries, blocks):
    graph = cycle(8)
    eigs, got = nb_spectrum(graph, symmetries)
    assert got == blocks
    assert _matched_distance(eigs, _whole_dart_spectrum(graph)) <= 1e-12


def test_refused_level_symmetries_leave_the_dart_spectrum(d12_q3):
    level = next(islice(level_tower(d12_q3, "A"), 3, None))
    n = level.graph.n_vertices()
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]  # an involution, but no automorphism
    whole = _whole_dart_spectrum(level.graph)
    # r = inversion . reversal with inversion generates the same group, its
    # characters in another order
    for symmetries, blocks in [((swap, level.reversal), (72, 72)), ((level.inversion, swap), (72, 72)),
                               ((level.inversion[level.reversal], level.inversion), (42, 30, 42, 30)),
                               ((), (144,))]:
        eigs, got = nb_spectrum(level.graph, symmetries)
        assert got == blocks
        assert _matched_distance(eigs, whole) <= 1e-9


@pytest.mark.parametrize("symmetries, blocks", [
    pytest.param([np.array([0])], (0,), id="identity"),
    pytest.param([np.array([0.0]), np.arange(2), np.array([1]), None], (0,), id="refused"),
])
def test_a_graph_without_darts_splits_into_empty_blocks(symmetries, blocks):
    # the identity is no involution and adds nothing to the group
    point = UGraph(["a"], [], [], [], [])
    assert nb_blocks(point, symmetries).dims == blocks
    assert nb_spectrum(point, symmetries)[1] == blocks


def test_darts_a_symmetry_fixes_keep_only_its_even_characters():
    # swapping 0 and 1 in K4 fixes the darts 2 -> 3 and 3 -> 2, which the
    # odd character has no vector for
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    eigs, blocks = nb_spectrum(k4, [np.array([1, 0, 2, 3])])
    assert blocks == (7, 5)
    assert _matched_distance(eigs, _whole_dart_spectrum(k4)) <= 1e-12


def _split_spectrum(split):
    """The ascending eigenvalues of a split symmetric matrix, each twin's
    counted twice."""
    solved = [np.linalg.eigvalsh(spectral._hermitian(block)) for block in split.blocks]
    return np.sort(np.concatenate([*solved, *(eigs for eigs, twin in zip(solved, split.twins) if twin)]))


def _owners(members, n):
    """(owner, slot) of n points from each owner's points, in slot order."""
    owner, slot = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    for o, points in enumerate(members):
        owner[list(points)], slot[list(points)] = o, np.arange(len(points))
    return owner, slot


def test_an_element_that_fixes_an_owner_pointwise_keeps_its_trivial_characters():
    # the reflection v -> -v of C_10 fixes the owner {0, 5} and both its
    # slots, and swaps {1, 2} with {9, 8} and {3, 4} with {7, 6}: the orbit
    # of {0, 5} keeps both columns for the trivial character and none for
    # the sign, so the split is the 6 cosines and 4 sines of C_10
    graph = cycle(10)
    owner, slot = _owners([(0, 5), (1, 2), (9, 8), (3, 4), (7, 6)], 10)
    kept = [(-np.arange(10) % 10, np.array([0, 2, 1, 4, 3]), 2)]
    split = spectral._character_blocks(graph.origin, graph.terminus, owner, 5, slot, np.eye(2), kept)
    assert split.dims == (6, 4)
    assert np.abs(_split_spectrum(split) - np.linalg.eigvalsh(graph.adjacency())).max() < 1e-12


def test_the_trivial_group_assembles_the_bits_of_the_group_of_order_one(d12_q3):
    # with no map kept, the whole block is one unit-weight assembly; the
    # general path, handed the identity as a map of order 1, gives the same bits
    level = list(islice(level_tower(d12_q3, "A"), 3))[2]
    graph, parent = level.graph, level.parent
    identity = [(np.arange(graph.n_vertices()), np.arange(4), 1)]
    args = graph.origin, graph.terminus, parent, 4, spectral._fiber_slots(parent, 3), spectral._helmert(3)
    whole, general = spectral._character_blocks(*args, []), spectral._character_blocks(*args, identity)
    assert whole.dims == general.dims == (8,) and whole.twins == general.twins == (False,)
    assert whole.blocks[0].tobytes() == general.blocks[0].tobytes() and whole.error == general.error


def test_an_element_that_is_neither_identity_nor_transpose_on_an_owner_is_dropped():
    # the prism C_8 x K_2, with two owners of four vertices per layer read
    # as 2 x 2 grids: the layer swap moves every owner; the reflection
    # v -> -v in both layers fixes each and sends slot 1 of {0, 1, 4, 7} to
    # slot 3, neither the identity nor the transpose 1 <-> 2, so it is
    # dropped and the layer swap splits alone
    graph = from_edges(16, [(v + 8 * a, (v + 1) % 8 + 8 * a) for a in (0, 1) for v in range(8)]
                              + [(v, v + 8) for v in range(8)])
    owner, slot = _owners([(0, 1, 4, 7), (2, 3, 5, 6), (8, 9, 12, 15), (10, 11, 13, 14)], 16)
    h = 1 / sqrt(2)  # columns e_0, e_3, (e_1 + e_2) h, which the transpose fixes, and (e_1 - e_2) h
    basis = np.array([[1, 0, 0, 0], [0, 0, h, h], [0, 0, h, -h], [0, 1, 0, 0]])
    swap, reflection = (np.arange(16) + 8) % 16, -np.arange(16) % 8 + np.arange(16) // 8 * 8
    kept = [(swap, np.array([2, 3, 0, 1]), 2), (reflection, np.arange(4), 2)]
    split = spectral._character_blocks(graph.origin, graph.terminus, owner, 4, slot, basis, kept,
                                       slot % 2 * 2 + slot // 2, 3)
    assert split.dims == (8, 8)
    assert np.abs(_split_spectrum(split) - np.linalg.eigvalsh(graph.adjacency())).max() < 1e-12


def test_dart_blocks_on_loops_and_multiple_edges():
    # two loops at 0 and a double edge 0 = 1 with a loop at 1: the dart
    # maps pair darts by their place among those between the same ends
    graph = from_edges(2, [(0, 0), (0, 1), (0, 1), (1, 1), (0, 0), (1, 1)])
    eigs, blocks = nb_spectrum(graph, [np.array([1, 0])])
    assert blocks == (6, 6)
    assert _matched_distance(eigs, _whole_dart_spectrum(graph)) <= 1e-9


@pytest.mark.parametrize("crossed", [False, True], ids=["paired", "crossed"])
def test_a_dart_map_must_commute_with_dart_inversion(crossed):
    # a triple edge 0 = 1, its darts paired by inversion in place or by a
    # 3-cycle: the swap of its ends goes to the dart map that sends each
    # edge to the edge of the same rank, so it commutes with dart inversion
    # either way, and both split
    inv = np.array([4, 5, 3, 2, 0, 1]) if crossed else np.array([3, 4, 5, 0, 1, 2])
    graph = UGraph(["0", "1"], [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], inv, list("abcdef"))
    sigma = dart_map(graph, np.array([1, 0]))
    assert (sigma[graph.inv] == graph.inv[sigma]).all() and (sigma[sigma] == np.arange(6)).all()
    eigs, got = nb_spectrum(graph, [np.array([1, 0])])
    assert got == (3, 3)
    assert _matched_distance(eigs, _whole_dart_spectrum(graph)) <= 1e-12


def _max_min_dist_loop(xs, ys):
    # the per-value loop that max_min_dist replaced
    return max(float(np.abs(ys - x).min()) for x in xs)


def _modulus_defect_loop(direct, d):
    # the per-value loop that modulus_defect replaced
    defect = 0.0
    for x in direct:
        mod = abs(x)
        if abs(mod - d) <= 1e-6:
            continue
        defect = max(defect, min(abs(mod - 1.0), abs(mod - sqrt(d))))
    return defect


def test_spectrum_distances_equal_the_per_value_loops(d12_q3):
    rng = np.random.default_rng(21)
    cases = []
    for size in (1, 7, 300, 1297, 2600):
        xs = rng.normal(size=size) * 2 + 1j * rng.normal(size=size)
        cases.append((xs, rng.normal(size=size + 3) * 2 + 1j * rng.normal(size=size + 3)))
        cases.append((xs.real.copy(), xs[::-1].copy()))
    level = next(islice(level_tower(d12_q3, "A"), 4, None))
    direct, _ = nb_spectrum(level.graph, (level.inversion, level.reversal))
    transfer = bass_ihara_pairs(eig_symmetric(level.graph.adjacency()), 3)
    cases += [(direct, transfer), (transfer, direct)]
    for xs, ys in cases:
        assert max_min_dist(xs, ys) == _max_min_dist_loop(xs, ys)
        assert modulus_defect(xs, 3) == _modulus_defect_loop(xs, 3)
    # values within 1e-6 of d in modulus are the Perron values and left out
    perron = np.array([3.0, -3.0 + 1e-7j, 1.5, 2.0j])
    assert modulus_defect(perron, 3) == _modulus_defect_loop(perron, 3) == 2 - sqrt(3)


def _bass_ihara_loop(spectrum, d):
    # the per-value loop that bass_ihara_pairs replaced, without its tags
    values = []
    for lam in spectrum:
        lam = complex(lam).real
        root = np.sqrt(complex(lam * lam - 4 * d))
        values += [(lam + root) / 2, (lam - root) / 2]
    return np.array(values + [1.0 + 0j, -1.0 + 0j])


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_bass_ihara_pairs_equal_the_per_value_loop(p, e):
    # bit for bit, on the level spectra both sides to level 3 and on the
    # Ramanujan window's edges, a signed zero among them
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    spectra = [(eigs, p**e) for side in "AB" for _, eigs, *_ in islice(tower_spectra(level_tower(datum, side)), 3)]
    spectra += [(np.array([4.0, 0.0, -0.0, 2 * sqrt(3), -2 * sqrt(3)]), 3), (np.linspace(-7, 7, 101), 5)]
    for eigs, d in spectra:
        got, want = bass_ihara_pairs(eigs, d), _bass_ihara_loop(eigs, d)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_transfer_report_of_a_level_keeps_its_figures(d12_q3):
    level = next(islice(level_tower(d12_q3, "B"), 3, None))
    split = nb_transfer_report(level.graph, (level.inversion, level.reversal))
    whole = nb_transfer_report(level.graph)
    assert split.blocks == (42, 30, 30, 42) and whole.blocks == (144,)
    assert split.n_darts == whole.n_darts == 144 and split.d == whole.d == 3
    assert split.agrees(1e-12) and whole.agrees(1e-12)
    assert split.max_modulus_defect < 1e-12 and whole.max_modulus_defect < 1e-12


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
    lam = second_modulus_directed(nb_matrix(graph))
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
    # complete-with-loops: J^n / d^n equals J / m exactly
    assert deviation_table(preds_of(np.ones((3, 3), dtype=int)), 5) == [0] * 5


def test_deviation_norm_envelope(d12_q3):
    from ramshift.subshift import build_xd, transition_graph

    table = deviation_table(transition_graph(build_xd(d12_q3), "horizontal", 1).preds, 10)
    dev1, dev10 = table[0], table[9]
    # exact comparison of dev(10) <= C * 10 * (1/sqrt(3))^10 with C fitted at
    # n=1: squared form dev10^2 * 3^10 <= dev1^2 * 3 * 100
    assert dev10**2 * 3**10 <= dev1**2 * 3 * 100


@pytest.mark.parametrize("datum, k", [("d12_q3", 2), ("d12_q5", 1)])
def test_deviation_table_matches_matrix_powers(datum, k, request):
    from ramshift.subshift import build_xd, transition_graph

    graph = transition_graph(build_xd(request.getfixturevalue(datum)), "horizontal", k)
    adj, n_max = strip_adjacency(graph), 8
    assert deviation_table(graph.preds, n_max) == [deviation_from_powers(adj, n) for n in range(1, n_max + 1)]


def test_walk_counts_on_a_multigraph():
    # 3-regular with a double loop: A^n has (3^n + 1) / 2 on the diagonal
    # and (3^n - 1) / 2 off it, so the deviation is 1 / (2 * 3^n)
    a = np.array([[2, 1], [1, 2]])
    want = [Fraction(1, 2 * 3**n) for n in range(6)]
    assert [deviation_from_powers(a, n) for n in range(6)] == want
    assert deviation_table(preds_of(a), 5) == want[1:]
    rows = [row.tolist() for row in walks(preds_of(a), [1, 0], 5)]
    assert rows == [matrix_power_int(a, n)[0] for n in range(6)]


def test_walk_counts_refuses_a_non_integer_start():
    preds = preds_of([[1, 1], [1, 1]])
    for start in ([0.5, 0.5], [1.0, 0.0], np.array([1, 0.5], dtype=object), ["1", "0"]):
        with pytest.raises(ValueError, match="integer start"):
            list(walks(preds, start, 2))
    for start in ([True, False], [1, 0], np.array([1, 0], dtype=object)):
        assert [row.tolist() for row in walks(preds, start, 2)] == [[1, 0], [1, 1], [2, 2]]


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
    blocks = list(walks(preds_of(a), start, 70))
    for j, block in enumerate(blocks):
        assert block.dtype == (np.int64 if j <= last_int64 else object)
        want = np.array(start, dtype=object) @ np.array(matrix_power_int(a, j), dtype=object)
        assert block.tolist() == want.tolist()


def test_deviation_table_crosses_the_int64_bound(d12_q3):
    # 3^39 < 2^63 < 3^40: the identity block steps in int64 through n = 39
    # and in Python ints from n = 40 on
    from ramshift.subshift import build_xd, transition_graph

    graph = transition_graph(build_xd(d12_q3), "horizontal", 1)
    adj = strip_adjacency(graph)
    assert 3**39 < 2**63 < 3**40
    blocks = list(walks(graph.preds, np.eye(len(adj), dtype=np.int64), 45))
    assert [block.dtype == object for block in blocks] == [n >= 40 for n in range(46)]
    assert deviation_table(graph.preds, 45) == [deviation_from_powers(adj, n) for n in range(1, 46)]


def test_chunked_deviation_table_crosses_the_int64_bound(d12_q3, monkeypatch):
    # the smallest byte bound that admits the 16 tiles walks one row a
    # chunk, so every chunk switches from int64 to Python ints at n = 40
    from ramshift import spectral
    from ramshift.subshift import build_xd, transition_graph

    graph = transition_graph(build_xd(d12_q3), "horizontal", 1)
    adj = strip_adjacency(graph)
    m = len(adj)
    monkeypatch.setattr(spectral, "EXACT_BYTES", 8 * m * m)
    chunks = []
    walks = spectral.walks

    def recording(preds, start, n):
        chunks.append([])
        for block in walks(preds, start, n):
            chunks[-1].append(block.dtype == object)
            yield block

    monkeypatch.setattr(spectral, "walks", recording)
    assert deviation_table(graph.preds, 45) == [deviation_from_powers(adj, n) for n in range(1, 46)]
    assert len(chunks) == m
    assert all(dtypes == [n >= 40 for n in range(46)] for dtypes in chunks)


def test_deviation_norm_caps_and_validation(monkeypatch):
    from ramshift import spectral

    # m^2 int64 entries and one row's (1, m, d) gather must fit the bound
    check_exact_cap(5792)
    check_exact_cap(5792, 5792)
    for m, d in ((5793, 0), (2, 2**24 + 1)):
        with pytest.raises(SizeCapExceeded, match=f"capped at {spectral.EXACT_BYTES} bytes"):
            check_exact_cap(m, d)
    monkeypatch.setattr(spectral, "EXACT_BYTES", 8 * 3 * 3)
    with pytest.raises(SizeCapExceeded):
        arc_predecessors(np.arange(4).repeat(4), np.tile(np.arange(4), 4), 4)
    assert deviation_table(preds_of(np.ones((3, 3), dtype=int)), 2) == [0, 0]
    monkeypatch.undo()
    with pytest.raises(ValueError, match="regular"):
        preds_of(np.array([[1, 1], [1, 0]]))
    # a dense 0/1 matrix is no predecessor array: its entries name 0 and 1 only
    with pytest.raises(ValueError, match="predecessor array"):
        deviation_table(np.ones((3, 3), dtype=int), 2)
