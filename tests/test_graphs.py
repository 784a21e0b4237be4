"""Dart graphs, level graphs, coverings, and structure predicates.
Small classical graphs (cycles, K33, Petersen) are built here as oracles."""

import numpy as np
import pytest

from ramshift import graphs, mealy
from ramshift.graphs import (
    UGraph,
    covering_check,
    digraph_period,
    level_digraph,
    level_graph,
    nb_matrix,
    product_level_graph,
    structure_predicates,
    ugraph_from_json,
    ugraph_to_dot,
    ugraph_to_json,
)


def cycle(n):
    return UGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return UGraph.from_edges(10, edges)


def complete_bipartite(a, b):
    return UGraph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_dart_involution_validation():
    with pytest.raises(ValueError, match="involution"):
        UGraph(["v"], [(0, 0, "e")], [0])


def test_ugraph_checks_vertices_and_dart_endpoints():
    with pytest.raises(ValueError, match="at least one vertex"):
        UGraph([], [], [])
    with pytest.raises(ValueError, match="outside"):
        UGraph(["a", "b"], [(0, 5, "g"), (5, 0, "g'")], [1, 0])
    with pytest.raises(ValueError, match="outside"):
        UGraph(["a", "b"], [(0, -1, "g"), (-1, 0, "g'")], [1, 0])
    with pytest.raises(ValueError, match="dart inversion"):
        UGraph(["a", "b"], [(0, 1, "g"), (1, 0, "g'")], [1])
    with pytest.raises(ValueError, match="dart inversion"):
        UGraph(["a", "b"], [(0, 1, "g"), (1, 0, "g'")], [1, 2])


def test_level_graph_sides_are_a_and_b(d12_q3):
    with pytest.raises(ValueError, match="side"):
        level_digraph(d12_q3, "V-action", 1)


def test_adjacency_conventions():
    loop = UGraph.from_edges(1, [(0, 0), (0, 0)])
    a = loop.adjacency()
    assert a[0, 0] == 4  # each loop contributes two
    assert loop.regular_degree() == 4
    c5 = cycle(5)
    assert (c5.adjacency() == c5.adjacency().T).all()
    assert c5.regular_degree() == 2


def test_nb_matrix_on_c5():
    dart = nb_matrix(cycle(5))
    assert dart.n_darts() == 10
    assert dart.degree == 1
    # two disjoint directed 5-cycles: the square of the matrix is a
    # permutation matrix as well
    assert (dart.adjacency.sum(axis=0) == 1).all()
    assert (dart.adjacency.sum(axis=1) == 1).all()


def test_nb_matrix_requires_regularity():
    path = UGraph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="regular"):
        nb_matrix(path)


def test_dart_count_formula(d12_q3):
    for n in (1, 2, 3):
        g = level_graph(d12_q3, "A", n)
        assert g.n_darts() == 4 * g.n_vertices()  # (d+1) |V|
        dart = nb_matrix(g)
        assert dart.degree == 3
        assert (dart.adjacency.sum(axis=1) == 3).all()


def test_level_graph_counts(d12_q3):
    for n in range(1, 6):
        for side in ("A", "B"):
            g = level_graph(d12_q3, side, n)
            assert g.n_vertices() == 4 * 3 ** (n - 1)
            assert g.regular_degree() == 4


def test_level_graph_a1_is_h(d12_q3):
    g = level_graph(d12_q3, "A", 1)
    assert g.vertex_labels == d12_q3.H
    gb = level_graph(d12_q3, "B", 1)
    assert gb.vertex_labels == d12_q3.V


def test_level_graph_rejects_level_zero(d12_q3):
    with pytest.raises(ValueError, match="level"):
        level_graph(d12_q3, "A", 0)
    with pytest.raises(ValueError, match="side"):
        level_graph(d12_q3, "C", 1)


def test_level_graph_connectivity(d12_q3):
    g = level_graph(d12_q3, "A", 4)
    assert g.n_vertices() == 108
    report = structure_predicates(g)
    assert report.connected and not report.bipartite and report.aperiodic


def test_structure_predicates_on_classics():
    c6 = structure_predicates(cycle(6))
    assert c6.connected and c6.bipartite and not c6.aperiodic
    assert c6.regular_degree == 2
    pet = structure_predicates(petersen())
    assert pet.connected and not pet.bipartite and pet.regular_degree == 3
    two = structure_predicates(UGraph.from_edges(4, [(0, 1), (2, 3)]))
    assert not two.connected and two.n_components == 2


def test_digraph_period():
    # directed 4-cycle: strongly connected, period 4
    shift = np.roll(np.eye(4, dtype=int), 1, axis=1)
    assert digraph_period(shift) == (True, 4)
    # NB graph of C5 is two disjoint directed cycles
    assert digraph_period(nb_matrix(cycle(5)).adjacency)[0] is False
    # reuse a tiny complete-ish graph: K4 (3-regular, non-bipartite)
    k4 = UGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert digraph_period(nb_matrix(k4).adjacency) == (True, 1)


@pytest.mark.parametrize("projection", ["drop-last", "drop-first"])
@pytest.mark.parametrize("reduced", [False, True])
def test_covering_checks(d12_q3, projection, reduced):
    m = mealy.from_datum(d12_q3)
    for n in (1, 2, 3):
        big = mealy.action_graph(m, n + 1, reduced=reduced)
        small = mealy.action_graph(m, n, reduced=reduced)
        assert covering_check(big, small, projection)


def test_covering_check_detects_retargeted_edge(d12_q3):
    m = mealy.from_datum(d12_q3)
    big = mealy.action_graph(m, 2)
    small = mealy.action_graph(m, 1)
    src, dst, st = big.edges[0]
    big.edges[0] = (src, (dst + 1) % big.n_vertices(), st)
    assert not covering_check(big, small, "drop-last")


def test_covering_check_rejects_bad_projection(d12_q3):
    m = mealy.from_datum(d12_q3)
    g = mealy.action_graph(m, 1)
    with pytest.raises(ValueError, match="projection"):
        covering_check(g, g, "sideways")


def test_product_level_graph_shapes(f5):
    g = product_level_graph(f5, [1, 2, 3], 1, (1, 1))
    assert g.n_vertices() == 36
    assert g.regular_degree() == 6
    assert structure_predicates(g).connected
    single = product_level_graph(f5, [1, 2, 3], 1, (0, 0))
    assert single.n_vertices() == 1
    assert single.regular_degree() == 6  # loops carry the full degree


def test_product_level_graph_validation(f5):
    with pytest.raises(ValueError, match="distinct"):
        product_level_graph(f5, [1, 1, 2], 1, (1, 1))
    with pytest.raises(ValueError, match="belong"):
        product_level_graph(f5, [2, 3], 1, (1,))
    with pytest.raises(ValueError, match="one level per sigma"):
        product_level_graph(f5, [1, 2, 3], 1, (1,))


@pytest.mark.parametrize("p,e", [(7, 1), (3, 2)])
def test_level_graphs_for_larger_fields(p, e):
    # q = 9 is the boundary case: the level graphs carry nontrivial
    # eigenvalues of modulus exactly 2 sqrt(q)
    from ramshift.ffield import make_field
    from ramshift.spectral import ramanujan_check
    from ramshift.vhdatum import build_quaternionic_datum

    spec = make_field(p, e)
    datum = build_quaternionic_datum(spec, 1, 2)
    for side in ("A", "B"):
        for n in (1, 2):
            g = level_graph(datum, side, n)
            assert g.n_vertices() == (spec.q + 1) * spec.q ** (n - 1)
            shape = structure_predicates(g)
            assert shape.connected and not shape.bipartite
            verdict = ramanujan_check(g, tol=1e-8)
            assert verdict.ramanujan
            assert verdict.margin >= -1e-8


def test_exports_round_trip(d12_q3):
    g = level_graph(d12_q3, "A", 2)
    text = ugraph_to_json(g)
    back = ugraph_from_json(text)
    assert (back.adjacency() == g.adjacency()).all()
    dot = ugraph_to_dot(g)
    assert dot.count(" -- ") == g.n_darts() // 2
    assert dot.startswith("graph")


def test_reduced_subgraph_matches_level_digraph(d12_q3):
    # the undirected gluing keeps one dart per directed edge
    g = level_digraph(d12_q3, "B", 2)
    u = level_graph(d12_q3, "B", 2)
    assert u.n_darts() == len(g.edges)


def test_level_size_counts_without_building(d12_q3, d12_q5):
    from ramshift.graphs import level_graph, level_size
    from ramshift.vhdatum import direct_product_datum

    for datum, levels in ((d12_q3, (1, 2, 3, 4)), (d12_q5, (1, 2)), (direct_product_datum(2, 3), (1, 2, 3))):
        for side in ("A", "B"):
            for n in levels:
                assert level_size(datum, side, n) == level_graph(datum, side, n).n_vertices()
    with pytest.raises(ValueError, match="n = 1"):
        level_size(d12_q3, "A", 0)
