"""Undirected multigraphs with formal edge inverses (darts), level graphs of
a VH-datum, their multi-dimensional product versions, non-backtracking arcs
(and their dense 0/1 array, the tests' reference), covering-map
verification, and structural predicates.

A dart is a directed half of an undirected edge; dart inversion is a
fixed-point-free involution pairing (v --g--> u) with (u --g^-1--> v).
A loop contributes two mutually inverse darts at the same vertex and hence
two to the degree.  Multi-edges and loops are kept with multiplicities
everywhere; nothing is simplified.  Darts stay int arrays (origin, terminus,
inverse) from the lift to the files: the JSON writer formats the arrays
themselves, and the DOT writer gathers its edge lines from them.  Labels
stay codes the same way (`vhdatum.Labels`): a level graph's vertex is its
lift's word, a row of letter codes into the automaton's alphabet, and its
dart e is state e mod s.  Only a writer renders them: the JSON writer
gathers each name's encoded bytes by code, block by block, and hands the
pieces of the text to the file unjoined, and the DOT writer escapes each
name once.  No verdict renders or checks a label.

Level graphs: A_n is the action graph of the datum automaton on reduced
words of length n over H (one dart per V-state), glued into an undirected
graph via the state involution; B_n is the same for the dual automaton on
reduced words over V.  Both are built by the array lift `mealy.lift_arrays`,
and product levels thread the state through one lift per component.
Coverings between levels are checked on the graphs' darts, for
`level_tower`'s levels with their drop-first and drop-last parent arrays
(`cover_fiber`).
Dart v * s + a leaves vertex v with state a, and its inverse is dart
dst * s + a^-1.  Vertices carry canonical integer ids coming from the
lexicographic enumeration of reduced words, so adjacency matrices are
reproducible across runs.  The one traversal, `structure_predicates`, runs
one breadth-first search, a whole frontier per step, restarted at the first
unreached vertex.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ffield import FieldSpec, SizeCapExceeded, torus_generator
from .mealy import LevelArrays, Mealy, dual, from_datum, lift_arrays, lift_levels
from .vhdatum import Labels, Rows, VHDatum, build_quaternionic_datum, dot_escaped


class UGraph:
    """Undirected multigraph on int dart arrays: dart e runs from origin[e]
    to terminus[e] with label dart_labels[e], and inv[e] is its inverse.
    Construction copies the index arrays to read-only int64 arrays once and
    checks them, so every consumer may index with them freely and a graph's
    darts never change.

    Labels have one form, `vhdatum.Labels`: codes into tables of names,
    rendered only when read (`vertex_labels`) or written.
    Labels given as lists of strings are coded and checked once, here: each
    must be a str, and vertex labels distinct (DOT names vertices by label).
    Labels given as codes, a level graph's words and states, are checked
    by `check_labels` when a writer first renders them, and never on a
    verdict's path; so every file written can be read back."""

    def __init__(self, vertex_labels: list[str] | Labels, origin, terminus, inv, dart_labels: list[str] | Labels):
        n = len(vertex_labels)
        if n == 0:
            raise ValueError("a graph needs at least one vertex")
        self._labels_checked = not isinstance(vertex_labels, Labels) and not isinstance(dart_labels, Labels)
        if not isinstance(vertex_labels, Labels):
            _check_strings(vertex_labels)
            vertex_labels = Labels.of(vertex_labels)
            if len(vertex_labels.parts[0][1]) != n:
                raise ValueError("vertex labels must be distinct")
        if not isinstance(dart_labels, Labels):
            _check_strings(dart_labels)
            dart_labels = Labels.of(dart_labels)
        self.vertex_names, self.dart_names = vertex_labels, dart_labels
        # an index beyond int64 raises OverflowError in these conversions;
        # ugraph_from_json reports it as a malformed file.  They copy, so a
        # caller's own array is never frozen
        o, t, inv = (np.array(x, dtype=np.int64) for x in (origin, terminus, inv))
        m = len(o)
        if len(t) != m or len(dart_labels) != m:
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
        for x in (o, t, inv):
            x.setflags(write=False)
        self.origin, self.terminus, self.inv = o, t, inv

    @property
    def vertex_labels(self) -> list[str]:
        """Every vertex label as a str.  Each read renders them all, so a
        caller that indexes them holds the list."""
        return self.vertex_names.tolist()

    def check_labels(self) -> None:
        """Raise ValueError unless the labels can be written and read back:
        every name a str, and the vertex labels distinct.  They are when
        `Labels.unambiguous` holds, as the code rows are distinct (the
        lift's index numbers distinct words); otherwise the rendered labels
        are compared.  Checked once per graph, when a writer first asks."""
        if self._labels_checked:
            return
        for _, names in self.vertex_names.parts + self.dart_names.parts:
            _check_strings(names)
        if not self.vertex_names.unambiguous() and len(set(self.vertex_labels)) != self.n_vertices():
            raise ValueError("vertex labels must be distinct")
        self._labels_checked = True

    @cached_property
    def out_stars(self) -> tuple[np.ndarray, np.ndarray]:
        """`_out_stars` of the darts, read-only, computed once when first
        read: the covering and automorphism checks gather the image side's
        rows from it."""
        stars = _out_stars(self.origin, self.terminus, self.n_vertices())
        for x in stars:
            x.setflags(write=False)
        return stars

    def n_vertices(self) -> int:
        return len(self.vertex_names)

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

    def __repr__(self) -> str:
        return f"UGraph({self.n_vertices()} vertices, {self.n_darts() // 2} edges)"


def _check_strings(labels) -> None:
    if set(map(type, labels)) - {str}:
        raise ValueError("vertex and dart labels must be strings")


def nb_arcs(graph: UGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """The arcs e -> f of the non-backtracking (Bass-Hashimoto) matrix of a
    (d+1)-regular graph, t(e) = o(f) and f != e^-1, as two dart arrays
    ordered by e, with d; every dart has d arcs out and d arcs in because
    UGraph checked the pairing."""
    deg = graph.regular_degree()
    if deg is None:
        raise ValueError("non-backtracking matrix needs a regular graph")
    # row v holds the deg darts leaving v
    by_origin = np.argsort(graph.origin).reshape(graph.n_vertices(), deg)
    e = np.repeat(np.arange(graph.n_darts()), deg)
    f = by_origin[graph.terminus].ravel()
    keep = f != graph.inv[e]
    return e[keep], f[keep], deg - 1


def nb_matrix(graph: UGraph) -> np.ndarray:
    """The non-backtracking (Bass-Hashimoto) matrix of a (d+1)-regular
    graph as a dense int64 0/1 array on its darts, H[e, f] = 1 iff
    t(e) = o(f) and f != e^-1; each row and column sums to d.

    No command reads it: `spectral.nb_blocks` sums its blocks from
    `nb_arcs`.  It stays as the dense reference the tests compare the blocks
    with, and because `benchmarks/tracing.TARGETS` wraps it by name, so
    deleting it breaks
    `benchmarks/test_benchmark.py::test_traced_pass_accounts_for_its_wall_time`."""
    e, f, _ = nb_arcs(graph)
    n = graph.n_darts()
    h = np.zeros((n, n), dtype=np.int64)
    h[e, f] = 1
    return h


def dart_map(graph: UGraph, perm: np.ndarray) -> np.ndarray:
    """The dart permutation that a vertex automorphism perm induces, one
    that commutes with dart inversion: an edge is a dart with its inverse,
    and the k-th edge between u and v, in the order of their lesser darts,
    goes to the k-th edge between perm[u] and perm[v], each dart to the
    dart of that edge from the image of its origin (for a loop, the lesser
    dart to the lesser dart).  The maps of commuting automorphisms commute,
    and the map of perm^k is the k-th power of perm's.  perm must pass
    `is_automorphism`, so that u and v have as many edges between them as
    their images."""
    n, m = graph.n_vertices(), graph.n_darts()
    o, t, inv, perm = graph.origin, graph.terminus, graph.inv, np.asarray(perm)
    first = np.flatnonzero(np.arange(m) < inv)  # the lesser dart of each edge, ascending
    ends = np.minimum(o, t) * n + np.maximum(o, t)  # the two ends of a dart's edge, unordered
    order = np.argsort(ends[first], kind="stable")
    ordered = ends[first][order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(ordered, ordered)
    moved = (np.minimum(perm[o], perm[t]) * n + np.maximum(perm[o], perm[t]))[first]
    lesser = first[order[np.searchsorted(ordered, moved) + rank]][np.searchsorted(first, np.minimum(np.arange(m), inv))]
    forward = np.where(o == t, np.arange(m) < inv, o[lesser] == perm[o])
    return np.where(forward, lesser, inv[lesser])


# ---------------------------------------------------------------------------
# level graphs

# the most darts `level_graph` and `product_level_graph` build; a `graph`
# or `product-graph` file near it peaks at 0.5-1.3 GB (README, CLI section)
MAX_DARTS = 2**22


def _check_darts(letters: list[int], levels: list[int], n_states: int) -> None:
    """Refuse a graph of more than MAX_DARTS darts, counted in closed form:
    one dart per state at each vertex, a tuple of reduced words, one per
    component, of s (s - 1)^(n - 1) words of length n >= 1 over s letters
    and one of length 0.  A length past 64 is counted as 64, which already
    passes the bound unless s = 2, where every length has 2 words."""
    darts = n_states
    for s, n in zip(letters, levels):
        darts *= s * (s - 1) ** (min(n, 64) - 1) if n else 1
    if darts > MAX_DARTS:
        raise SizeCapExceeded(f"graphs capped at {MAX_DARTS} darts")


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
    words = Labels((lift.words, auto.alphabet) for lift, auto in zip(lifts, automata))
    states = Labels([(np.tile(np.arange(s), total)[:, None], automata[0].states)])  # dart e is state e mod s
    origin = np.repeat(np.arange(total), s)
    inv = (dst * s + np.asarray(automata[0].inv_states)).ravel()
    return UGraph(words, origin, dst.ravel(), inv, states)


def _side_automaton(datum: VHDatum, side: str) -> Mealy:
    return from_datum(datum) if side == "A" else dual(from_datum(datum))


def level_graph(datum: VHDatum, side: str, n: int) -> UGraph:
    """The undirected level graph A_n or B_n; (q+1)-regular with
    (q+1) q^(n-1) vertices for a quaternionic datum (every vertex keeps one
    dart per state, since the lift drops none)."""
    _check_level(side, n)
    auto = _side_automaton(datum, side)
    _check_darts([auto.n_letters()], [n], auto.n_states())
    return _lifted_graph([auto], [lift_arrays(auto, n)])


class TowerLevel(NamedTuple):
    """A level of a covering tower with its maps: `parent` and `last_parent`
    send each vertex to one of the level below (None for the rose), and
    `inversion`, `reversal` and `rotation` are vertex permutations offered
    as automorphisms, or None.  Consumers check every map before they use
    it."""

    graph: UGraph
    parent: np.ndarray | None
    last_parent: np.ndarray | None
    inversion: np.ndarray | None
    reversal: np.ndarray | None = None
    rotation: np.ndarray | None = None


def _rotation_letters(datum: VHDatum, side: str) -> np.ndarray | None:
    """The letter map x -> u x of the side's alphabet (H for side A, V for
    side B), for the generator u of the norm-one torus that
    `ffield.torus_generator` picks, found by the letters' F_q[Z]
    encodings; None for a datum without a field, or if u x is no letter."""
    if not datum.is_arithmetic():
        return None
    spec = datum.field
    letters = spec.pair(datum.H_elems if side == "A" else datum.V_elems)
    image = spec.pair_mul(torus_generator(spec), letters)
    index = np.full(spec.q * spec.q, -1, dtype=np.intp)
    index[letters[0] + spec.q * letters[1]] = np.arange(len(letters[0]))
    rotated = index[image[0] + spec.q * image[1]]
    return None if (rotated < 0).any() else rotated


def level_tower(datum: VHDatum, side: str) -> Iterator[TowerLevel]:
    """The rose, then A_1, A_2, ... (B_n for side "B") from one lift, each
    level with five maps: parent[v] (the lift's) and last_parent[v] are the
    vertices of the level below under v, its word without the first and
    without the last letter, inversion[v] is its word with every letter
    inverted, reversal[v] its word reversed with every letter inverted, and
    rotation[v] its word with every letter multiplied by the generator u of
    the norm-one torus (None for a datum without a field).  The last four
    follow the lift, which places x.v by its first letter x and its parent
    v: x.v -> x.last_parent(v), x.v -> x^-1 . inversion(v),
    u.y -> y^-1 . reversal(u) for u = last_parent(u.y), and
    x.v -> ux . rotation(v).  The rose is one vertex with a loop dart per
    state.  Both projections have fibers of q words, and q + 1 at level 1,
    for a quaternionic datum, and from level 3 on their fibers are the rows
    and columns of a q x q grid of words x.m.y per middle word m.

    Reversal is an automorphism of every level of every valid datum: a
    square a.b = c.d read backwards, d^-1 . c^-1 = b^-1 . a^-1, is again
    one, so the dart w -> w' maps to the dart reversal(w') -> reversal(w).
    Letter-wise inversion is an automorphism of every quaternionic level
    tried, but not of every level of a generic datum.  The rotation comes
    from the datum automorphism that multiplies both norm fibers V and H
    by u: the twist zeta_alpha(beta) depends only on alpha / beta, so the
    relations are kept.  It is one (q + 1)-cycle on the letters, and its
    (q + 1) / 2-th power is negation, the inversion; it commutes with the
    reversal.  It is computed here, on the tower's path, and never when a
    datum is built."""
    _check_level(side, 1)
    auto = _side_automaton(datum, side)
    inv_letter = np.asarray(auto.inv_alphabet)
    rot_letter = _rotation_letters(datum, side)
    lifts = lift_levels(auto)
    yield TowerLevel(_lifted_graph([auto], [next(lifts)]), None, None, None)
    size, inversion, reversal, below = 1, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), None
    rotation = None if rot_letter is None else np.zeros(1, dtype=np.intp)
    for lift in lifts:
        first, parent = lift.words[:, 0], lift.parent
        index = np.empty(len(inv_letter) * size, dtype=np.intp)  # x * size + v -> the word x.v
        index[first * size + parent] = np.arange(len(parent))
        inversion = index[inv_letter[first] * size + inversion[parent]]
        # x.v drops its last letter to x.u, for u the last_parent of v
        last = np.zeros_like(parent) if below is None else below[0][first * below[1] + last[parent]]
        reversal = index[inv_letter[lift.words[:, -1]] * size + reversal[last]]
        rotation = None if rotation is None else index[rot_letter[first] * size + rotation[parent]]
        yield TowerLevel(_lifted_graph([auto], [lift]), parent, last, inversion, reversal, rotation)
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
    # every norm fiber of F_q[Z] has q + 1 elements: the states and each alphabet
    _check_darts([spec.q + 1] * len(levels), levels, spec.q + 1)

    automata = [from_datum(build_quaternionic_datum(spec, tau, sigma)) for sigma in sigmas]
    return _lifted_graph(automata, [lift_arrays(auto, lv) for auto, lv in zip(automata, levels)])


# ---------------------------------------------------------------------------
# covering checks


def cover_fiber(graph: UGraph, lower: UGraph, parent: np.ndarray) -> int:
    """The fiber size f of `parent` as a covering map graph -> lower with
    equal fibers, so that A P = P A_lower for the 0/1 matrix P of parent:
    every fiber has f vertices, and the out-star of every vertex maps onto
    the out-star of its image (for an undirected graph the in-stars
    follow, as the in-star of a vertex is the inverses of its out-star).
    Raises ValueError otherwise."""
    n_low = lower.n_vertices()
    parent = np.asarray(parent)
    if parent.shape != (graph.n_vertices(),) or parent.min() < 0 or parent.max() >= n_low:
        raise ValueError(f"parent must map the {graph.n_vertices()} vertices into 0..{n_low - 1}")
    fibers = np.bincount(parent, minlength=n_low)
    if (fibers != fibers[0]).any():
        raise ValueError("parent is not a covering map: its fibers differ in size")
    if not _stars_correspond(parent, graph.origin, graph.terminus, lower.out_stars):
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
    return _stars_correspond(perm, graph.origin, graph.terminus, graph.out_stars)


def _out_stars(tail: np.ndarray, head: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(heads, degree) of the arcs tail[e] -> head[e] on n vertices: the
    heads of the arcs at each vertex, sorted by the int64 key
    tail * n + head, one vertex's row after another, and each vertex's
    out-degree, the length of its row."""
    return np.sort(tail * n + head) % n, np.bincount(tail, minlength=n)


def _stars_correspond(pmap: np.ndarray, tail: np.ndarray, head: np.ndarray, stars) -> bool:
    """Does pmap send the multiset of heads of the arcs tail -> head at
    each vertex onto that at its image, whose `_out_stars` are stars?  The
    mapped heads become rows like those, and the image's row of
    pmap[v] is gathered for each v.  Keys stay below
    max(len(pmap), n) * n for the image's n vertices, under 2^63 for fewer
    than 3e9 vertices a side."""
    heads, degree = stars
    n = len(degree)
    mapped_deg = np.bincount(tail, minlength=len(pmap))
    if (mapped_deg != degree[pmap]).any():
        return False
    rows = np.sort(tail * n + pmap[head]) % n
    start = np.cumsum(degree) - degree
    offset = np.arange(len(rows)) - np.repeat(np.cumsum(mapped_deg) - mapped_deg, mapped_deg)
    return bool((rows == heads[np.repeat(start[pmap], mapped_deg) + offset]).all())


# ---------------------------------------------------------------------------
# structure predicates


@dataclass
class StructureReport:
    connected: bool
    bipartite: bool
    regular_degree: int | None


def _bfs_depths(n: int, tail: np.ndarray, head: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first depths over the darts tail -> head, a whole frontier
    per step from a root, restarted at the first unreached vertex until
    every vertex is reached; returns the depths and the number of roots.
    Each step and each restart pays numpy's call overhead, so a long cycle
    or many small components cost more than their size: no command builds
    either."""
    heads, degree = head[np.argsort(tail, kind="stable")], np.bincount(tail, minlength=n)
    first = np.cumsum(degree) - degree  # the first of each vertex's darts in heads
    depth, roots, root, slot = np.full(n, -1), 0, 0, np.empty(n, dtype=np.intp)
    while root < n:
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
        unreached = np.flatnonzero(depth[root:] < 0)
        root += int(unreached[0]) if unreached.size else n
    return depth, roots


def structure_predicates(graph: UGraph) -> StructureReport:
    """The graph is connected iff one breadth-first search needs one root,
    and bipartite iff no dart joins two depths of equal parity (a loop or
    any odd closed walk makes one)."""
    depth, roots = _bfs_depths(graph.n_vertices(), graph.origin, graph.terminus)
    parity = depth % 2
    return StructureReport(
        connected=roots == 1,
        bipartite=not (parity[graph.origin] == parity[graph.terminus]).any(),
        regular_degree=graph.regular_degree(),
    )


# ---------------------------------------------------------------------------
# export


def ugraph_to_dot(graph: UGraph, header: str | None = None) -> str:
    """Undirected DOT; each dart pair collapses to one edge labeled g/g^-1.
    The names are rendered from the graph's codes with every table name
    escaped once, and the edges are gathered from the dart arrays."""
    graph.check_labels()
    lines = [f"// {header}"] if header else []
    names = np.array(graph.vertex_names.tolist(dot_escaped), dtype=object)
    labels = np.array(graph.dart_names.tolist(dot_escaped), dtype=object)
    e = np.flatnonzero(np.arange(graph.n_darts()) < graph.inv)
    f = graph.inv[e]
    ends = (x.tolist() for x in (names[graph.origin[e]], names[graph.terminus[e]], labels[e], labels[f]))
    lines.append("graph level_graph {")
    lines += [f'  "{name}";' for name in names.tolist()]
    lines += [f'  "{a}" -- "{b}" [label="{g}/{h}"];' for a, b, g, h in zip(*ends)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def ugraph_to_json_dict(graph: UGraph) -> dict:
    """The graph file's payload for `json_pieces`, from the graph's own
    arrays and label codes: `vertices` is the vertex `Labels`, `darts` the
    `Rows` of (origin, terminus, label), `inv` the graph's array and
    `adjacency_coo` the (K, 3) array of (i, j, multiplicity) rows.  The
    labels are checked here, before anything is written."""
    graph.check_labels()
    n = graph.n_vertices()
    # one key per (origin, terminus); np.unique returns them in (i, j) order
    keys, mult = np.unique(graph.origin * n + graph.terminus, return_counts=True)
    return {
        "vertices": graph.vertex_names,
        "darts": Rows(graph.origin, graph.terminus, graph.dart_names),
        "inv": graph.inv,
        "adjacency_coo": np.column_stack([keys // n, keys % n, mult]),
    }


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
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed graph file: {exc!r}") from exc
    return graph
