"""Dart graphs, level graphs, coverings, and structure predicates.
Small classical graphs (cycles, K33, Petersen) are built here as oracles."""

from collections import deque
from itertools import islice

import numpy as np
import pytest

from ramshift import graphs, mealy
from ramshift.graphs import (
    UGraph,
    cover_fiber,
    digraph_period,
    level_graph,
    level_tower,
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
        UGraph(["v"], [0], [0], [0], ["e"])


def test_ugraph_checks_vertices_and_dart_endpoints():
    with pytest.raises(ValueError, match="at least one vertex"):
        UGraph([], [], [], [], [])
    with pytest.raises(ValueError, match="outside"):
        UGraph(["a", "b"], [0, 5], [5, 0], [1, 0], ["g", "g'"])
    with pytest.raises(ValueError, match="outside"):
        UGraph(["a", "b"], [0, -1], [-1, 0], [1, 0], ["g", "g'"])
    with pytest.raises(ValueError, match="dart inversion"):
        UGraph(["a", "b"], [0, 1], [1, 0], [1], ["g", "g'"])
    with pytest.raises(ValueError, match="dart inversion"):
        UGraph(["a", "b"], [0, 1], [1, 0], [1, 2], ["g", "g'"])
    with pytest.raises(ValueError, match="one entry per dart"):
        UGraph(["a", "b"], [0, 1], [1], [1, 0], ["g", "g'"])
    with pytest.raises(ValueError, match="one entry per dart"):
        UGraph(["a", "b"], [0, 1], [1, 0], [1, 0], ["g"])


def test_ugraph_labels_must_be_strings():
    # a graph the writer would write but its own reader would refuse
    with pytest.raises(ValueError, match="labels must be strings"):
        UGraph.from_edges(2, [(0, 1)], labels=[1, 2])
    with pytest.raises(ValueError, match="labels must be strings"):
        UGraph(["a", "b"], [0, 1], [1, 0], [1, 0], ["g", None])
    with pytest.raises(ValueError, match="labels must be strings"):
        UGraph(["a", b"b"], [0, 1], [1, 0], [1, 0], ["g", "g'"])
    assert UGraph.from_edges(2, [(0, 1)], labels=["1", "2"]).vertex_labels == ["1", "2"]


def test_ugraph_vertex_labels_must_be_distinct():
    # DOT would merge the two "a" vertices and the reader would refuse the file
    with pytest.raises(ValueError, match="vertex labels must be distinct"):
        UGraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "a", "b"])
    g = UGraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    assert ugraph_from_json(ugraph_to_json(g)).vertex_labels == ["a", "b", "c"]


def test_ugraph_checks_that_inverse_darts_reverse_their_ends():
    with pytest.raises(ValueError, match="inverse dart must reverse"):
        UGraph(["a", "b"], [0, 0], [1, 1], [1, 0], ["g", "g'"])
    with pytest.raises(ValueError, match="inverse dart must reverse"):
        UGraph(["a", "b", "c"], [0, 1], [1, 2], [1, 0], ["g", "g'"])


def test_ugraph_darts_are_read_only_copies_with_their_out_stars_sorted_once(monkeypatch):
    # the caller's int64 arrays stay writable; the graph's cannot change,
    # so the out-stars it sorted once are the ones every check reads
    origin = np.array([0, 1, 1, 2, 2, 0], dtype=np.int64)  # a triangle, as UGraph.from_edges numbers it
    terminus, inv = np.array([1, 0, 2, 1, 0, 2], dtype=np.int64), np.array([1, 0, 3, 2, 5, 4], dtype=np.int64)
    graph = UGraph(["a", "b", "c"], origin, terminus, inv, list("uvwxyz"))
    assert origin.flags.writeable and inv.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        graph.origin[0] = 1
    sorts = []
    original = graphs._out_stars
    monkeypatch.setattr(graphs, "_out_stars", lambda *args: sorts.append(args) or original(*args))
    heads, degree = graph.out_stars
    assert heads.tolist() == [1, 2, 0, 2, 0, 1] and degree.tolist() == [2, 2, 2]
    assert not heads.flags.writeable and not degree.flags.writeable
    rotation = np.array([1, 2, 0])
    assert graphs.is_automorphism(graph, rotation) and graphs.is_automorphism(graph, rotation[rotation])
    assert cover_fiber(graph, graph, rotation) == 1
    assert len(sorts) == 1


def test_level_graph_sides_are_a_and_b(d12_q3, monkeypatch):
    with pytest.raises(ValueError, match="side"):
        level_graph(d12_q3, "V-action", 1)

    def no_automaton(datum):
        raise AssertionError("the side must be checked before the automaton is built")

    monkeypatch.setattr(graphs, "from_datum", no_automaton)
    with pytest.raises(ValueError, match="side"):
        level_graph(d12_q3, "C", 1)


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
    # 0 -> 1 <-> 2: every vertex is reached from 0, but 0 from no other
    assert digraph_period(np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]])) == (False, 0)
    assert digraph_period(np.array([[1]])) == (True, 1) and digraph_period(np.array([[0]])) == (True, 0)
    # reuse a tiny complete-ish graph: K4 (3-regular, non-bipartite)
    k4 = UGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert digraph_period(nb_matrix(k4).adjacency) == (True, 1)


def random_multigraph(rng, sizes):
    """One component per size, on shuffled vertices: a random spanning tree
    plus random extra edges, which in about half the components respect the
    tree's 2-colouring and otherwise may be loops or close odd cycles."""
    n = sum(sizes)
    order, edges, start = rng.permutation(n), [], 0
    for size in sizes:
        members, start = order[start:start + size], start + size
        colour = np.zeros(size, dtype=int)
        for i in range(1, size):
            j = rng.integers(i)
            colour[i] = 1 - colour[j]
            edges.append((members[i], members[j]))
        two_sided = rng.random() < 0.5
        for _ in range(rng.integers(4)):
            i, j = rng.integers(size, size=2)
            if not two_sided or colour[i] != colour[j]:
                edges.append((members[i], members[j]))
    return UGraph.from_edges(n, edges)


def nullity(m):
    return len(m) - np.linalg.matrix_rank(m)


def test_structure_predicates_match_the_laplacians():
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(60):
        g = random_multigraph(rng, rng.integers(1, 8, size=rng.integers(1, 4)))
        a = g.adjacency()
        degree = np.diag(a.sum(axis=1))
        report = structure_predicates(g)
        assert report.n_components == nullity(degree - a)
        assert report.bipartite == (nullity(degree + a) == nullity(degree - a))
        assert report.aperiodic == (report.connected and not report.bipartite)
        seen.add((report.n_components, report.bipartite))
    assert seen == {(k, b) for k in (1, 2, 3) for b in (False, True)}


def test_structure_predicates_on_loops_and_isolated_vertices():
    lone = structure_predicates(UGraph.from_edges(3, [(1, 1), (0, 2)]))
    assert lone.n_components == 2 and not lone.bipartite
    bare = structure_predicates(UGraph.from_edges(3, [(0, 2)]))
    assert bare.n_components == 2 and bare.bipartite


def _reference_depths(n, tail, head):
    """Breadth-first depths by a queue, vertex by vertex: vertices with no
    dart to another vertex are roots at depth 0, then every unreached vertex
    in order starts a search."""
    out = [[] for _ in range(n)]
    for u, v in zip(tail.tolist(), head.tolist()):
        out[u].append(v)
    depth = [0 if all(v == u for v in out[u]) else -1 for u in range(n)]
    roots = depth.count(0)
    for root in range(n):
        if depth[root] < 0:
            depth[root], roots, queue = 0, roots + 1, deque([root])
            while queue:
                u = queue.popleft()
                for v in out[u]:
                    if depth[v] < 0:
                        depth[v] = depth[u] + 1
                        queue.append(v)
    return depth, roots


def test_bfs_depths_match_a_queue_search():
    # long paths hand the search over to plain Python in the middle of a
    # search, and a hub after a path brings a large frontier after that
    rng = np.random.default_rng(22)
    for trial in range(12):
        edges, start = [], 0
        for _ in range(rng.integers(1, 5)):
            kind, size = rng.integers(3), int(rng.integers(2, 300))
            if kind == 0:  # a path ending in a hub with many leaves
                edges += [(start + i, start + i + 1) for i in range(size - 1)]
                edges += [(start + size - 1, start + size + i) for i in range(size)]
                size *= 2
            elif kind == 1:  # many small components
                edges += [(start + i, start + i + 1) for i in range(0, size - 1, 2)]
            else:  # a dense random component
                edges += [(start + int(i), start + int(j)) for i, j in rng.integers(size, size=(3 * size, 2))]
            start += size
        perm = rng.permutation(start)
        ends = perm[np.array(edges)]
        tail, head = np.concatenate([ends[:, 0], ends[:, 1]]), np.concatenate([ends[:, 1], ends[:, 0]])
        for t, h in ((tail, head), (tail[::2], head[::2])):  # undirected, and the directed half
            depth, roots = graphs._bfs_depths(start, t, h)
            assert (depth.tolist(), roots) == _reference_depths(start, t, h)


@pytest.mark.parametrize("shape", ["cycle", "path", "disjoint_edges"])
def test_structure_of_long_and_scattered_graphs(shape):
    n = 20000 if shape != "disjoint_edges" else 4000
    edges = {"cycle": [(i, (i + 1) % n) for i in range(n)], "path": [(i, i + 1) for i in range(n - 1)],
             "disjoint_edges": [(2 * i, 2 * i + 1) for i in range(n // 2)]}[shape]
    report = structure_predicates(UGraph.from_edges(n, edges))
    assert report.n_components == (2000 if shape == "disjoint_edges" else 1)
    assert report.bipartite and not report.aperiodic
    # the same shapes directed, on 3000 vertices as a dense matrix
    m = 3000
    a = np.zeros((m, m), dtype=bool)
    if shape == "disjoint_edges":
        a[np.arange(0, m, 2), np.arange(1, m, 2)] = a[np.arange(1, m, 2), np.arange(0, m, 2)] = True
    else:
        a[np.arange(m - 1), np.arange(1, m)] = True
        a[m - 1, 0] = shape == "cycle"
    assert digraph_period(a) == {"cycle": (True, m), "path": (False, 0), "disjoint_edges": (False, 0)}[shape]
    odd = UGraph.from_edges(n + 1, [*edges, (n, n - 1), (n, 0)] if shape != "disjoint_edges" else [*edges, (n, n)])
    assert not structure_predicates(odd).bipartite


def test_digraph_period_matches_the_walk_traces():
    from ramshift.spectral import predecessors, walks

    rng = np.random.default_rng(20)
    seen = set()
    for _ in range(40):
        # 2-regular: each component is p classes of s vertices, and two
        # random bijections send each class onto the next
        blocks = []
        for _ in range(rng.integers(1, 4)):
            p, size = rng.integers(1, 4), rng.integers(1, 4)
            shift = np.roll(np.eye(p, dtype=np.int64), 1, axis=1)
            blocks.append(sum(np.kron(shift, np.eye(size, dtype=np.int64)[rng.permutation(size)]) for _ in range(2)))
        n = sum(map(len, blocks))
        a = np.zeros((n, n), dtype=np.int64)
        start = np.cumsum([0] + [len(b) for b in blocks])
        for lo, b in zip(start, blocks):
            a[lo:lo + len(b), lo:lo + len(b)] = b
        perm = rng.permutation(n)
        a = a[np.ix_(perm, perm)]
        powers = list(walks(predecessors(a), np.eye(n, dtype=np.int64), 2 * n))
        strongly = bool((sum(powers[:n]) > 0).all())
        period = np.gcd.reduce([k for k in range(1, 2 * n + 1) if np.trace(powers[k]) > 0])
        expected = (strongly, int(period) if strongly else 0)
        assert digraph_period(a) == expected
        assert digraph_period(a > 0) == expected
        seen.add(expected)
    assert {(True, 1), (True, 2), (True, 3), (False, 0)} <= seen


# the parent array of each projection on `level_tower`'s levels
PARENTS = {"drop-first": "parent", "drop-last": "last_parent"}


@pytest.mark.parametrize("projection", ["drop-last", "drop-first"])
@pytest.mark.parametrize("side", ["A", "B"])
def test_covering_checks(d12_q3, side, projection):
    # every level covers the one below by both projections, with fibers of
    # q + 1 words over the rose and of q words after it
    levels = list(islice(level_tower(d12_q3, side), 6))
    for lower, level in zip(levels, levels[1:]):
        f = cover_fiber(level.graph, lower.graph, getattr(level, PARENTS[projection]))
        assert f == (4 if lower.graph.n_vertices() == 1 else 3)


def _retargeted(graph, e1, e2):
    """The graph with the termini of darts e1 and e2 swapped, and the
    origins of their inverses with them: a valid graph of the same degrees."""
    terminus, origin = graph.terminus.copy(), graph.origin.copy()
    terminus[[e1, e2]] = terminus[[e2, e1]]
    origin[graph.inv[[e1, e2]]] = terminus[[e1, e2]]
    return UGraph(graph.vertex_labels, origin, terminus, graph.inv, graph.dart_labels)


def test_covering_check_detects_retargeted_edge(d12_q3):
    # two edges whose far ends lie over different vertices trade those ends:
    # every degree is kept, but two out-stars no longer map onto their
    # images', for either projection
    lower, level = islice(level_tower(d12_q3, "A"), 1, 3)
    graph = level.graph
    for parent in (level.parent, level.last_parent):
        e1 = 0
        e2 = int(np.flatnonzero((parent[graph.terminus] != parent[graph.terminus[e1]])
                                & (graph.origin != graph.origin[e1]) & (graph.inv != e1))[0])
        assert cover_fiber(graph, lower.graph, parent) == 3
        with pytest.raises(ValueError, match="an out-star does not map onto its image's"):
            cover_fiber(_retargeted(graph, e1, e2), lower.graph, parent)


def test_covering_check_compares_in_stars(d12_q3):
    # cover_fiber compares out-stars only: on an undirected graph the
    # in-star of a vertex is the inverses of its out-star, so the in-stars
    # map onto their images' as well
    levels = list(islice(level_tower(d12_q3, "B"), 5))
    for lower, level in zip(levels, levels[1:]):
        for parent in (level.parent, level.last_parent):
            cover_fiber(level.graph, lower.graph, parent)
            g, low = level.graph, lower.graph
            stars = graphs._out_stars(low.terminus, low.origin, low.n_vertices())
            assert graphs._stars_correspond(parent, g.terminus, g.origin, stars)


def test_covering_check_needs_every_projected_word(d12_q3):
    # every vertex must map to a vertex of the level below, and every vertex
    # below must be reached by as many as the others
    lower, level = islice(level_tower(d12_q3, "A"), 2, 4)
    graph, parent = level.graph, level.parent
    for outside in (parent + 1, parent - 1):
        with pytest.raises(ValueError, match="into 0..11"):
            cover_fiber(graph, lower.graph, outside)
    missed = parent.copy()
    missed[parent == 0] = 1  # no word projects to vertex 0
    with pytest.raises(ValueError, match="fibers differ"):
        cover_fiber(graph, lower.graph, missed)


@pytest.mark.parametrize("projection", ["drop-last", "drop-first"])
def test_covering_between_lifted_levels_q3(d12_q3, projection):
    *_, (lower, *_), level = islice(level_tower(d12_q3, "A"), 9)
    assert cover_fiber(level.graph, lower, getattr(level, PARENTS[projection])) == 3


def test_covering_check_rejects_bad_projection(d12_q3):
    # a parent array of the wrong length is no projection of the vertices
    lower, level = islice(level_tower(d12_q3, "A"), 1, 3)
    for parent in (level.parent[:-1], np.append(level.parent, 0), level.parent.reshape(4, 3)):
        with pytest.raises(ValueError, match="parent must map the 12 vertices"):
            cover_fiber(level.graph, lower.graph, parent)


def test_product_level_graph_shapes(f5):
    g = product_level_graph(f5, [1, 2, 3], 1, (1, 1))
    assert g.n_vertices() == 36
    assert g.regular_degree() == 6
    assert structure_predicates(g).connected
    single = product_level_graph(f5, [1, 2, 3], 1, (0, 0))
    assert single.n_vertices() == 1
    assert single.regular_degree() == 6  # loops carry the full degree


@pytest.mark.parametrize(
    "s0,tau,levels",
    [([1, 2, 3], 1, (1, 0)), ([1, 2, 3], 1, (0, 2)), ([1, 2, 3], 2, (2, 1)), ([1, 2, 3, 4], 1, (1, 0, 1))],
    ids=["levels_1_0", "levels_0_2", "tau_2", "four_places"],
)
def test_product_darts_equal_product_act(f5, s0, tau, levels):
    from itertools import product

    from ramshift.vhdatum import build_quaternionic_datum

    g = product_level_graph(f5, s0, tau, levels)
    datums = [build_quaternionic_datum(f5, tau, sigma) for sigma in s0 if sigma != tau]
    automata = [mealy.from_datum(d) for d in datums]
    words = [mealy.reduced_words(lv, len(d.H), d.inv_H) for lv, d in zip(levels, datums)]
    vertices = list(product(*words))  # the first component is the most significant
    index = {v: i for i, v in enumerate(vertices)}
    s = automata[0].n_states()
    assert g.n_darts() == len(vertices) * s
    for i, v in enumerate(vertices):
        assert g.vertex_labels[i] == "|".join(mealy.word_label(w, d.H) for w, d in zip(v, datums))
        for a in range(s):
            out, _ = mealy.product_act(datums, a, v)
            e = i * s + a
            assert (g.origin[e], g.terminus[e], g.dart_labels[e]) == (i, index[out], automata[0].states[a])


def test_level_digraph_is_the_reference_action_graph(d12_q3):
    # side A acts with the datum automaton on H-words, side B with its dual
    # on V-words; the undirected gluing keeps one dart per directed edge
    m = mealy.from_datum(d12_q3)
    for side, auto in (("A", m), ("B", mealy.dual(m))):
        for n in (1, 2, 3):
            g, ref = level_graph(d12_q3, side, n), mealy.action_graph(auto, n, reduced=True)
            assert g.terminus.tolist() == ref.dst.ravel().tolist()
            assert g.vertex_labels == mealy.word_labels(ref.words, auto.alphabet)
            assert g.dart_labels == auto.states * len(ref.words)
            assert g.inv.tolist() == (ref.dst * auto.n_states() + auto.inv_states).ravel().tolist()


def _loop_adjacency(g):
    a = np.zeros((g.n_vertices(), g.n_vertices()), dtype=np.int64)
    for o, t in zip(g.origin, g.terminus):
        a[o, t] += 1
    return a


def _loop_nb_matrix(g):
    h = np.zeros((g.n_darts(), g.n_darts()), dtype=np.int64)
    for e, t in enumerate(g.terminus):
        for f, o in enumerate(g.origin):
            if o == t and f != g.inv[e]:
                h[e, f] = 1
    return h


def test_array_consumers_match_the_dart_loops(d12_q3):
    # a multigraph with a double edge, two loops and an isolated vertex
    multi = UGraph.from_edges(4, [(0, 1), (0, 1), (1, 1), (2, 2), (0, 2)])
    for g in (multi, cycle(5), petersen(), level_graph(d12_q3, "A", 2), level_graph(d12_q3, "B", 3)):
        adjacency = g.adjacency()
        assert adjacency.dtype == np.int64
        assert (adjacency == _loop_adjacency(g)).all()
        degrees = [sum(o == v for o in g.origin) for v in range(g.n_vertices())]
        assert g.regular_degree() == (degrees[0] if len(set(degrees)) == 1 else None)
        if g.regular_degree() is not None:
            assert (nb_matrix(g).adjacency == _loop_nb_matrix(g)).all()
    report = structure_predicates(multi)
    assert (report.n_components, report.bipartite, report.regular_degree) == (2, False, None)


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


def test_exports_round_trip(d12_q3, f5):
    # the JSON file keeps every dart of a level graph, a product level, and
    # a multigraph with a double edge, two loops and an isolated vertex
    level = level_graph(d12_q3, "A", 2)
    multi = UGraph.from_edges(4, [(0, 1), (0, 1), (1, 1), (2, 2), (0, 2)])
    for g in (level, product_level_graph(f5, [1, 2, 3], 1, (2, 1)), multi):
        back = ugraph_from_json(ugraph_to_json(g))
        assert (back.adjacency() == g.adjacency()).all()
        for name in ("origin", "terminus", "inv"):
            got, want = getattr(back, name), getattr(g, name)
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
        assert back.dart_labels == g.dart_labels
        assert back.vertex_labels == g.vertex_labels
    dot = ugraph_to_dot(level)
    assert dot.count(" -- ") == level.n_darts() // 2
    assert dot.startswith("graph")


def test_reduced_subgraph_matches_level_digraph(d12_q3):
    # the undirected gluing keeps one dart per directed edge
    g = mealy.action_graph(mealy.dual(mealy.from_datum(d12_q3)), 2, reduced=True)
    u = level_graph(d12_q3, "B", 2)
    assert (u.n_vertices(), u.n_darts()) == (len(g.words), g.dst.size)


def test_level_size_counts_without_building(d12_q3, d12_q5):
    from ramshift.graphs import level_graph, level_size
    from ramshift.vhdatum import direct_product_datum

    for datum, levels in ((d12_q3, (1, 2, 3, 4)), (d12_q5, (1, 2)), (direct_product_datum(2, 3), (1, 2, 3))):
        for side in ("A", "B"):
            for n in levels:
                assert level_size(datum, side, n) == level_graph(datum, side, n).n_vertices()
    with pytest.raises(ValueError, match="n = 1"):
        level_size(d12_q3, "A", 0)
    with pytest.raises(ValueError, match="side"):
        level_size(d12_q3, "C", 3)
