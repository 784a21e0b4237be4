"""Undirected multigraphs with formal edge inverses (darts), level graphs of
a VH-datum, their multi-dimensional product versions, non-backtracking dart
graphs, covering-map verification, and structural predicates.

A dart is a directed half of an undirected edge; dart inversion is a
fixed-point-free involution pairing (v --g--> u) with (u --g^-1--> v).
A loop contributes two mutually inverse darts at the same vertex and hence
two to the degree.  Multi-edges and loops are kept with multiplicities
everywhere; nothing is simplified.  Darts stay int arrays (origin, terminus,
inverse) from the lift to the files: the JSON writer formats the arrays
themselves, and the DOT writer gathers its edge lines from them.

Level graphs: A_n is the action graph of the datum automaton on reduced
words of length n over H (one dart per V-state), glued into an undirected
graph via the state involution; B_n is the same for the dual automaton on
reduced words over V.  Both are built by the array lift `mealy.lift_arrays`,
and product levels thread the state through one lift per component.
Coverings between levels are checked on the lift's form, `mealy.LevelArrays`,
and, for `level_tower`'s levels with their drop-first and drop-last parent
arrays, on the graphs' darts (`cover_fiber`).
Dart v * s + a leaves vertex v with state a, and its inverse is dart
dst * s + a^-1.  Vertices carry canonical integer ids coming from the
lexicographic enumeration of reduced words, so adjacency matrices are
reproducible across runs.  Both traversals, `structure_predicates` and
`digraph_period`, run one breadth-first search, a whole frontier per step.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ffield import FieldSpec
from .mealy import LevelArrays, Mealy, dual, from_datum, lift_arrays, lift_levels, word_labels
from .vhdatum import VHDatum, atomic_write, build_quaternionic_datum, dot_escaped, json_text


@dataclass(eq=False)
class UGraph:
    """Undirected multigraph on int dart arrays: dart e runs from origin[e]
    to terminus[e] with label dart_labels[e], and inv[e] is its inverse.
    Construction converts the index arrays to int64 once and checks them,
    so every consumer may index with them freely, and checks that every
    label is a str and that vertex labels are distinct (DOT names vertices
    by label), so every file written can be read back."""

    vertex_labels: list[str]
    origin: np.ndarray
    terminus: np.ndarray
    inv: np.ndarray
    dart_labels: list[str]

    def __post_init__(self):
        n = len(self.vertex_labels)
        if n == 0:
            raise ValueError("a graph needs at least one vertex")
        if set(map(type, itertools.chain(self.vertex_labels, self.dart_labels))) - {str}:
            raise ValueError("vertex and dart labels must be strings")
        if len(set(self.vertex_labels)) != n:
            raise ValueError("vertex labels must be distinct")
        # an index beyond int64 raises OverflowError in these conversions;
        # ugraph_from_json reports it as a malformed file
        o, t, inv = (np.asarray(x, dtype=np.int64) for x in (self.origin, self.terminus, self.inv))
        m = len(o)
        if len(t) != m or len(self.dart_labels) != m:
            raise ValueError("origin, terminus and dart_labels must have one entry per dart")
        if len(inv) != m or ((inv < 0) | (inv >= m)).any():
            raise ValueError(f"dart inversion must give one dart in 0..{m - 1} per dart")
        outside = np.flatnonzero((o < 0) | (o >= n) | (t < 0) | (t >= n))
        if outside.size:
            raise ValueError(f"dart {outside[0]} has an endpoint outside 0..{n - 1}")
        e = np.arange(m)
        if (inv == e).any() or (inv[inv] != e).any():
            raise ValueError("dart inversion must be a fixed-point-free involution")
        # for an involution, o[inv] == t also gives t[inv] == o
        if (o[inv] != t).any():
            raise ValueError("inverse dart must reverse origin and terminus")
        self.origin, self.terminus, self.inv = o, t, inv

    def n_vertices(self) -> int:
        return len(self.vertex_labels)

    def n_darts(self) -> int:
        return len(self.origin)

    def adjacency(self) -> np.ndarray:
        """Symmetric integer adjacency; each dart adds one, so a loop
        contributes two to its diagonal entry."""
        n = self.n_vertices()
        a = np.zeros((n, n), dtype=np.int64)
        np.add.at(a, (self.origin, self.terminus), 1)
        return a

    def regular_degree(self) -> int | None:
        degrees = np.bincount(self.origin, minlength=self.n_vertices())
        d = int(degrees[0])
        return d if bool((degrees == d).all()) else None

    @staticmethod
    def from_edges(n_vertices: int, edges: list[tuple[int, int]], labels: list[str] | None = None) -> "UGraph":
        """Build from an undirected edge list (loops allowed): edge k = (u, v)
        gives dart 2k from u to v, labelled ek, and its inverse 2k + 1."""
        if labels is None:
            labels = [str(i) for i in range(n_vertices)]
        ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
        names = [f"e{k}{tick}" for k in range(len(ends)) for tick in ("", "'")]
        return UGraph(labels, ends.ravel(), ends[:, ::-1].ravel(), np.arange(2 * len(ends)) ^ 1, names)

    def __repr__(self) -> str:
        return f"UGraph({self.n_vertices()} vertices, {self.n_darts() // 2} edges)"


@dataclass
class DartGraph:
    """The non-backtracking dart graph of an undirected regular graph:
    H[e, f] = 1 iff t(e) = o(f) and f != e^-1."""

    adjacency: np.ndarray
    degree: int  # = d, one less than the base regularity

    def n_darts(self) -> int:
        return self.adjacency.shape[0]

    def __repr__(self) -> str:
        return f"DartGraph({self.n_darts()} darts, {self.degree}-regular)"


def nb_matrix(graph: UGraph) -> DartGraph:
    """Non-backtracking (Bass-Hashimoto) matrix on the darts of a regular
    graph; rows and columns each sum to d for a (d+1)-regular base."""
    deg = graph.regular_degree()
    if deg is None:
        raise ValueError("non-backtracking matrix needs a regular graph")
    n = graph.n_darts()
    h = np.zeros((n, n), dtype=np.int64)
    # row v holds the deg darts leaving v
    by_origin = np.argsort(graph.origin).reshape(graph.n_vertices(), deg)
    e = np.repeat(np.arange(n), deg)
    f = by_origin[graph.terminus].ravel()
    keep = f != graph.inv[e]
    h[e[keep], f[keep]] = 1
    # rows and columns sum to deg - 1 because UGraph checked the pairing
    return DartGraph(h, deg - 1)


# ---------------------------------------------------------------------------
# level graphs


def _check_level(side: str, n: int) -> None:
    if n < 1:
        raise ValueError("levels start at n = 1; the rose is handled by lifting")
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' (V-action) or 'B' (H-action)")


def level_size(datum: VHDatum, side: str, n: int) -> int:
    """Vertices of A_n or B_n without building it: the reduced words of
    length n over s symbols with a fixed-point-free involution number
    s (s - 1)^(n-1), which is (q+1) q^(n-1) for a quaternionic datum."""
    _check_level(side, n)
    s = len(datum.H if side == "A" else datum.V)
    return s * (s - 1) ** (n - 1)


def _lifted_graph(automata: list[Mealy], lifts: list[LevelArrays]) -> UGraph:
    """The one builder of A_n, B_n and product levels, from one lift per
    automaton.  Vertices are tuples of reduced words, one per automaton,
    indexed in mixed radix with the first component most significant
    (itertools.product order).  Dart v * s + a threads state a through the
    components' lifts in order, the end state of each transduction
    starting the next (`mealy.product_act`); its inverse is dart
    dst * s + a^-1, which UGraph's check confirms."""
    s = automata[0].n_states()
    total = int(np.prod([len(lift.words) for lift in lifts]))
    vertex = np.arange(total)[:, None]
    state = np.broadcast_to(np.arange(s), (total, s))
    dst = np.zeros((total, s), dtype=np.intp)
    stride = total
    for lift in lifts:
        size = len(lift.words)
        stride //= size
        component = vertex // stride % size
        dst += lift.dst[component, state] * stride
        state = lift.end[component, state]
    labels = itertools.product(*(word_labels(lift.words, auto.alphabet) for lift, auto in zip(lifts, automata)))
    origin = np.repeat(np.arange(total), s)
    inv = (dst * s + np.asarray(automata[0].inv_states)).ravel()
    return UGraph(list(map("|".join, labels)), origin, dst.ravel(), inv, automata[0].states * total)


def _side_automaton(datum: VHDatum, side: str) -> Mealy:
    return from_datum(datum) if side == "A" else dual(from_datum(datum))


def level_graph(datum: VHDatum, side: str, n: int) -> UGraph:
    """The undirected level graph A_n or B_n; (q+1)-regular with
    (q+1) q^(n-1) vertices for a quaternionic datum (every vertex keeps one
    dart per state, since the lift drops none)."""
    _check_level(side, n)
    auto = _side_automaton(datum, side)
    return _lifted_graph([auto], [lift_arrays(auto, n)])


class TowerLevel(NamedTuple):
    """A level of a covering tower with its maps: `parent` and `last_parent`
    send each vertex to one of the level below (None for the rose), and
    `inversion` and `reversal` are vertex permutations offered as
    automorphisms, or None.  Consumers check every map before they use it."""

    graph: UGraph
    parent: np.ndarray | None
    last_parent: np.ndarray | None
    inversion: np.ndarray | None
    reversal: np.ndarray | None = None


def level_tower(datum: VHDatum, side: str) -> Iterator[TowerLevel]:
    """The rose, then A_1, A_2, ... (B_n for side "B") from one lift, each
    level with four maps: parent[v] (the lift's) and last_parent[v] are the
    vertices of the level below under v, its word without the first and
    without the last letter, inversion[v] is its word with every letter
    inverted, and reversal[v] its word reversed with every letter inverted.
    The last three follow the lift, which places x.v by its first letter x
    and its parent v: x.v -> x.last_parent(v), x.v -> x^-1 . inversion(v)
    and u.y -> y^-1 . reversal(u) for u = last_parent(u.y).  The rose is one
    vertex with a loop dart per state.  Both projections have fibers of q
    words, and q + 1 at level 1, for a quaternionic datum, and from level 3
    on their fibers are the rows and columns of a q x q grid of words x.m.y
    per middle word m.  Reversal is an automorphism of every level of every
    valid datum: a square a.b = c.d read backwards, d^-1 . c^-1 =
    b^-1 . a^-1, is again one, so the dart w -> w' maps to the dart
    reversal(w') -> reversal(w).  Letter-wise inversion is an automorphism
    of every quaternionic level tried, but not of every level of a generic
    datum."""
    _check_level(side, 1)
    auto = _side_automaton(datum, side)
    inv_letter = np.asarray(auto.inv_alphabet)
    lifts = lift_levels(auto)
    yield TowerLevel(_lifted_graph([auto], [next(lifts)]), None, None, None)
    size, inversion, reversal, below = 1, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), None
    for lift in lifts:
        first, parent = lift.words[:, 0], lift.parent
        index = np.empty(len(inv_letter) * size, dtype=np.intp)  # x * size + v -> the word x.v
        index[first * size + parent] = np.arange(len(parent))
        inversion = index[inv_letter[first] * size + inversion[parent]]
        # x.v drops its last letter to x.u, for u the last_parent of v
        last = np.zeros_like(parent) if below is None else below[0][first * below[1] + last[parent]]
        reversal = index[inv_letter[lift.words[:, -1]] * size + reversal[last]]
        yield TowerLevel(_lifted_graph([auto], [lift]), parent, last, inversion, reversal)
        below, size = (index, size), len(parent)


def product_level_graph(spec: FieldSpec, s0: list, tau, levels: tuple[int, ...]) -> UGraph:
    """Undirected multi-dimensional level graph for the diagonal action;
    (q+1)-regular.  Vertices are tuples of reduced words, one per sigma in
    s0 minus tau with lengths given by `levels`; each V-generator acts on
    the components in order."""
    tau = spec.elem(tau)
    s0_elems = [spec.elem(s) for s in s0]
    if len({x.encoding() for x in s0_elems}) != len(s0_elems):
        raise ValueError("s0 entries must be pairwise distinct")
    if any(x.is_zero() for x in s0_elems):
        raise ValueError("s0 entries must be nonzero")
    if tau not in s0_elems:
        raise ValueError("tau must belong to s0")
    if len(s0_elems) < 2:
        raise ValueError("need at least two places in s0")
    sigmas = [x for x in s0_elems if x != tau]
    if len(levels) != len(sigmas):
        raise ValueError(f"need one level per sigma ({len(sigmas)}), got {len(levels)}")
    if any(lv < 0 for lv in levels):
        raise ValueError("levels must be nonnegative")

    automata = [from_datum(build_quaternionic_datum(spec, tau, sigma)) for sigma in sigmas]
    return _lifted_graph(automata, [lift_arrays(auto, lv) for auto, lv in zip(automata, levels)])


# ---------------------------------------------------------------------------
# covering checks


def covering_check(big: LevelArrays, small: LevelArrays, projection: str) -> bool:
    """Is the word projection a covering map big -> small?

    `projection` is "drop-last" (remove the rightmost letter) or
    "drop-first".  Every projected word must be a vertex of `small`, and
    the map must send the out-star and the in-star of every vertex
    bijectively onto those of its image (state labels are not required to
    be preserved: dropping the first letter conjugates the acting state).
    Words are matched by their mixed-radix value, which must fit in int64.
    """
    if projection == "drop-last":
        projected = big.words[:, :-1]
    elif projection == "drop-first":
        projected = big.words[:, 1:]
    else:
        raise ValueError("projection must be 'drop-last' or 'drop-first'")
    length = small.words.shape[1]
    if projected.shape[1] != length:
        return False
    radix = 1 + max(int(big.words.max(initial=0)), int(small.words.max(initial=0)))
    if radix ** length >= 2**63:
        raise ValueError(f"words of length {length} over {radix} letters overflow an int64 key")
    place = radix ** np.arange(length - 1, -1, -1, dtype=np.int64)
    keys, wanted = (words.astype(np.int64) @ place for words in (small.words, projected))
    order = np.argsort(keys)
    pmap = order[np.minimum(np.searchsorted(keys[order], wanted), len(keys) - 1)]
    if (keys[pmap] != wanted).any():
        return False  # a projected word is not a vertex of small
    big_src, small_src = (np.repeat(np.arange(len(g.dst)), g.dst.shape[1]) for g in (big, small))
    out_stars = (big_src, big.dst.ravel(), small_src, small.dst.ravel())
    in_stars = (big.dst.ravel(), big_src, small.dst.ravel(), small_src)
    return all(_stars_correspond(pmap, len(small.dst), *darts) for darts in (out_stars, in_stars))


def cover_fiber(graph: UGraph, lower: UGraph, parent: np.ndarray) -> int:
    """The fiber size f of `parent` as a covering map graph -> lower with
    equal fibers, so that A P = P A_lower for the 0/1 matrix P of parent:
    every fiber has f vertices, and the out-star of every vertex maps onto
    the out-star of its image (the check `covering_check` makes; for an
    undirected graph the in-stars follow).  Raises ValueError otherwise."""
    n_low = lower.n_vertices()
    parent = np.asarray(parent)
    if parent.shape != (graph.n_vertices(),) or parent.min() < 0 or parent.max() >= n_low:
        raise ValueError(f"parent must map the {graph.n_vertices()} vertices into 0..{n_low - 1}")
    fibers = np.bincount(parent, minlength=n_low)
    if (fibers != fibers[0]).any():
        raise ValueError("parent is not a covering map: its fibers differ in size")
    if not _stars_correspond(parent, n_low, graph.origin, graph.terminus, lower.origin, lower.terminus):
        raise ValueError("parent is not a covering map: an out-star does not map onto its image's")
    return int(fibers[0])


def is_automorphism(graph: UGraph, perm: np.ndarray) -> bool:
    """Is perm a permutation of the vertices that maps the darts onto the
    darts: the heads of the darts at each v, mapped by perm, the heads of
    those at perm[v] (as multisets)?"""
    n = graph.n_vertices()
    perm = np.asarray(perm)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        return False
    return _stars_correspond(perm, n, graph.origin, graph.terminus, graph.origin, graph.terminus)


def _stars_correspond(pmap, n_small, big_tail, big_head, small_tail, small_head) -> bool:
    """Does pmap send the multiset of heads of the darts at each big vertex
    onto that at its image?  Each side becomes one array of heads sorted by
    the int64 key tail * n_small + head, a row per vertex, and the row of
    pmap[v] is gathered for each v.  Keys stay below
    max(len(pmap), n_small) * n_small, under 2^63 for fewer than 3e9
    vertices a side."""
    big_deg = np.bincount(big_tail, minlength=len(pmap))
    small_deg = np.bincount(small_tail, minlength=n_small)
    if (big_deg != small_deg[pmap]).any():
        return False
    big_rows = np.sort(big_tail * n_small + pmap[big_head]) % n_small
    small_rows = np.sort(small_tail * n_small + small_head) % n_small
    start = np.cumsum(small_deg) - small_deg
    offset = np.arange(len(big_rows)) - np.repeat(np.cumsum(big_deg) - big_deg, big_deg)
    return bool((big_rows == small_rows[np.repeat(start[pmap], big_deg) + offset]).all())


# ---------------------------------------------------------------------------
# structure predicates


@dataclass
class StructureReport:
    connected: bool
    n_components: int
    bipartite: bool
    aperiodic: bool
    regular_degree: int | None


def _bfs_depths(n: int, tail: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first depths over the darts tail -> head, one frontier at a
    time from a root, restarted from the first unreached vertex until every
    vertex is reached; returns the depths and the number of roots.  A
    vertex with no dart to another vertex is a root at depth 0 from the
    start (in an undirected graph it is a component by itself), which
    spares a restart per vertex of the all-loop levels of a direct product."""
    heads, degree = head[np.argsort(tail, kind="stable")], np.bincount(tail, minlength=n)
    first = np.cumsum(degree) - degree  # the first of each vertex's darts in heads
    alone = np.bincount(tail[tail != head], minlength=n) == 0
    depth = np.where(alone, 0, -1)
    roots, root, slot = int(alone.sum()), 0, np.empty(n, dtype=np.intp)
    while (pending := np.flatnonzero(depth[root:] < 0)).size:
        root += int(pending[0])
        depth[root], roots = 0, roots + 1
        frontier, level = np.array([root]), 0
        while frontier.size:
            counts, level = degree[frontier], level + 1
            darts = np.arange(counts.sum()) + np.repeat(first[frontier] - np.cumsum(counts) + counts, counts)
            reached = heads[darts]
            reached = reached[depth[reached] < 0]
            slot[reached] = np.arange(len(reached))  # one of the writes to each vertex wins
            frontier = reached[slot[reached] == np.arange(len(reached))]
            depth[frontier] = level
    return depth, roots


def structure_predicates(graph: UGraph) -> StructureReport:
    """Components are the roots of one breadth-first search, and the graph
    is bipartite iff no dart joins two depths of equal parity (a loop or any
    odd closed walk makes one).  As a shift, a connected undirected graph
    has period 2 when bipartite and 1 otherwise, so aperiodic = connected
    and non-bipartite."""
    depth, components = _bfs_depths(graph.n_vertices(), graph.origin, graph.terminus)
    parity = depth % 2
    bipartite = not (parity[graph.origin] == parity[graph.terminus]).any()
    connected = components == 1
    return StructureReport(
        connected=connected,
        n_components=components,
        bipartite=bipartite,
        aperiodic=connected and not bipartite,
        regular_degree=graph.regular_degree(),
    )


def digraph_period(adjacency: np.ndarray) -> tuple[bool, int]:
    """(strongly_connected, period) for a directed graph given by its
    adjacency matrix.  It is strongly connected iff the searches along and
    against the arcs each reach every vertex from vertex 0 alone; the
    period is then the gcd of |d(u) + 1 - d(v)| over the arcs u -> v, for
    d the depth along the arcs."""
    a = np.asarray(adjacency)
    tail, head = np.nonzero(a)
    depth, roots = _bfs_depths(len(a), tail, head)
    if roots != 1 or _bfs_depths(len(a), head, tail)[1] != 1:
        return False, 0
    return True, int(np.gcd.reduce(np.abs(depth[tail] + 1 - depth[head])))


# ---------------------------------------------------------------------------
# export


def ugraph_to_dot(graph: UGraph, header: str | None = None) -> str:
    """Undirected DOT; each dart pair collapses to one edge labeled g/g^-1.
    Every label is escaped once, and the edges are gathered from the dart
    arrays."""
    lines = [f"// {header}"] if header else []
    names = np.array([dot_escaped(name) for name in graph.vertex_labels], dtype=object)
    escaped = {label: dot_escaped(label) for label in dict.fromkeys(graph.dart_labels)}
    labels = np.array(list(map(escaped.__getitem__, graph.dart_labels)), dtype=object)
    e = np.flatnonzero(np.arange(graph.n_darts()) < graph.inv)
    f = graph.inv[e]
    ends = (x.tolist() for x in (names[graph.origin[e]], names[graph.terminus[e]], labels[e], labels[f]))
    lines.append("graph level_graph {")
    lines += [f'  "{name}";' for name in names.tolist()]
    lines += [f'  "{a}" -- "{b}" [label="{g}/{h}"];' for a, b, g, h in zip(*ends)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def ugraph_to_json_dict(graph: UGraph) -> dict:
    """The graph file's payload for `json_text`, as arrays: `darts` is a
    record array of (origin, terminus, label) rows, `inv` is the graph's own
    array and `adjacency_coo` the (K, 3) array of (i, j, multiplicity) rows."""
    n = graph.n_vertices()
    # one key per (origin, terminus); np.unique returns them in (i, j) order
    keys, mult = np.unique(graph.origin * n + graph.terminus, return_counts=True)
    # np.zeros, not np.empty: with an object field np.empty took ten times as
    # long on the 35k darts of A_8
    record = [("origin", np.int64), ("terminus", np.int64), ("label", object)]
    darts = np.zeros(graph.n_darts(), dtype=record)
    darts["origin"], darts["terminus"], darts["label"] = graph.origin, graph.terminus, graph.dart_labels
    return {
        "vertices": list(graph.vertex_labels),
        "darts": darts,
        "inv": graph.inv,
        "adjacency_coo": np.column_stack([keys // n, keys % n, mult]),
    }


def ugraph_to_json(graph: UGraph) -> str:
    return json_text(ugraph_to_json_dict(graph)) + "\n"


def ugraph_from_json(text: str) -> UGraph:
    """Read a graph file.  Nothing is coerced: every dart must be an
    [origin, terminus, label] row and every index a JSON integer, and
    `UGraph` then requires string labels, distinct vertex labels (DOT names
    vertices by label) and a valid dart pairing."""
    try:
        data = json.loads(text)
        vertices, darts, inv = data["vertices"], data["darts"], data["inv"]
        if not (type(vertices) is type(darts) is type(inv) is list):
            raise ValueError("vertices, darts and inv must be lists")
        if any(type(row) is not list or len(row) != 3 for row in darts):
            raise ValueError("every dart must be an [origin, terminus, label] row")
        origin, terminus, labels = ([row[k] for row in darts] for k in range(3))
        if any(type(i) is not int for i in itertools.chain(origin, terminus, inv)):
            raise ValueError("dart endpoints and inv entries must be integers")
        graph = UGraph(vertices, origin, terminus, inv, labels)
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed graph file: {exc!r}") from exc
    return graph


def write_ugraph(graph: UGraph, path: str, fmt: str = "json", header: str | None = None) -> None:
    if fmt == "json":
        atomic_write(path, ugraph_to_json(graph))
    elif fmt == "dot":
        atomic_write(path, ugraph_to_dot(graph, header=header))
    else:
        raise ValueError("format must be 'json' or 'dot'")
