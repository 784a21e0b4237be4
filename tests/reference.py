"""Reference code for the tests: claims of the paper and element-wise
forms of the package's array code that no command, demo or benchmark
calls, so the package does not carry them, and then the small views the
tests read from package objects."""

from __future__ import annotations

import contextlib
import io

import numpy as np

from ramshift.cli import main
from ramshift.ffield import FieldSpec, Fq2Elem, FqElem
from ramshift.graphs import UGraph, _bfs_depths, ugraph_to_json_dict
from ramshift.mealy import Mealy, dual, from_datum
from ramshift.quaternion import QuatElem, p_add, p_conj, p_mul, p_shift
from ramshift.spectral import arc_predecessors
from ramshift.subshift import MatrixSubshift, TransitionGraph, tile_label
from ramshift.vhdatum import VHDatum, json_pieces


def zeta(alpha: Fq2Elem, beta: Fq2Elem) -> Fq2Elem:
    """The twist zeta_alpha(beta) = (1 + alpha/beta) / (1 + conj(alpha)/conj(beta)).

    Requires beta nonzero and N(alpha) != N(beta), which guarantees
    alpha != -beta so numerator and denominator are both nonzero.  The
    result always has norm 1.
    """
    if beta.is_zero():
        raise ValueError("zeta twist needs beta nonzero")
    if alpha.norm() == beta.norm():
        raise ValueError("zeta twist needs N(alpha) != N(beta)")
    one = beta.spec.ext(1, 0)
    return (one + alpha / beta) / (one + alpha.conj() / beta.conj())


def reduced_norm(g: QuatElem) -> tuple[FqElem, ...]:
    """Nrd(u + xF) = N(u) - t N(x) as a polynomial in t over F_q.

    N is the F_q[Z] norm pushed through the polynomial arithmetic, i.e.
    N(u)(t) = u(t) * conj(u)(t).  The result always has zero Z-part, which
    is asserted, and the F_q coefficients are returned.
    """
    nu = p_mul(g.u, p_conj(g.u))
    nx = p_mul(g.x, p_conj(g.x))
    nrd = p_add(nu, tuple(-c for c in p_shift(nx)))
    for coeff in nrd:
        if not coeff.v.is_zero():
            raise RuntimeError("reduced norm left the base field")  # impossible
    return tuple(coeff.u for coeff in nrd)


def direct_product_datum(m: int = 2, n: int = 2) -> VHDatum:
    """The (m,n)-datum of a direct product of free groups F_m x F_n.

    All relations are commutations a*x = x*a, so R consists of the tuples
    (a, x, x, a).  Symbols are a1, a1', ... on the V side and x1, x1', ...
    on the H side, with ' marking inverses.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")

    def side(prefix, count):
        labels, inv = [], []
        for i in range(count):
            labels += [f"{prefix}{i + 1}", f"{prefix}{i + 1}'"]
            inv += [2 * i + 1, 2 * i]
        return labels, inv

    v_labels, inv_v = side("a", m)
    h_labels, inv_h = side("x", n)
    tuples = [(a, b, b, a) for a in range(2 * m) for b in range(2 * n)]
    return VHDatum(V=v_labels, H=h_labels, inv_V=inv_v, inv_H=inv_h, R=tuples)


def compose(m1: Mealy, m2: Mealy) -> Mealy:
    """Serial composition: input goes through m2 first, its output through m1.

    States are pairs (a1, a2), at index a1 * |m2 states| + a2, with
        delta((a1,a2), x) = (delta1(a1, out2(a2,x)), delta2(a2, x)),
        out((a1,a2), x)   = out1(a1, out2(a2,x)).
    Acting from (a1, a2) equals acting with a2 then a1.
    """
    if m1.alphabet != m2.alphabet:
        raise ValueError("composition needs identical alphabets")
    n2 = m2.n_states()
    shape = (m1.n_states() * n2, m1.n_letters())
    # with shared states, the inverse of "a2 then a1" is "a1^-1 then a2^-1"
    shared = m1.states == m2.states and m1.inv_states is not None and np.array_equal(m1.inv_states, m2.inv_states)
    # [a1, a2, x]: m1 reads the letter y = out2(a2, x)
    return Mealy(
        states=[f"({s1},{s2})" for s1 in m1.states for s2 in m2.states],
        alphabet=list(m1.alphabet),
        delta=(m1.delta[:, m2.out] * n2 + m2.delta).reshape(shape),
        out=m1.out[:, m2.out].reshape(shape),
        inv_states=(m1.inv_states * n2 + m1.inv_states[:, None]).ravel() if shared else None,
        inv_alphabet=m1.inv_alphabet,
    )


def iterate(m: Mealy, n: int) -> Mealy:
    """n-fold composition of m with itself (n >= 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    result = m
    for _ in range(n - 1):
        result = compose(result, m)
    return result


def dual_negation_check(d_ts: VHDatum, d_st: VHDatum) -> bool:
    """Does xi -> -xi define an automaton isomorphism from the dual of
    M(d_ts) onto M(d_st)?

    For quaternionic datums this holds with d_st built from the swapped
    places (sigma, tau): inverting each square relation (1+a F)(1+b F) =
    (1+c F)(1+d F) yields (1-b F)(1-a F) = (1-d F)(1-c F), and uniqueness of
    normal forms identifies the negated tuple inside the swapped datum.
    Only this explicit map is checked; no isomorphism search is performed.
    """
    if not (d_ts.is_arithmetic() and d_st.is_arithmetic()):
        raise ValueError("negation check needs arithmetic datums")
    dm = dual(from_datum(d_ts))
    m2 = from_datum(d_st)
    try:
        v_index = {x: i for i, x in enumerate(d_st.V_elems)}
        h_index = {x: i for i, x in enumerate(d_st.H_elems)}
        phi_states = np.array([v_index[-x] for x in d_ts.H_elems], dtype=np.intp)
        phi_letters = np.array([h_index[-x] for x in d_ts.V_elems], dtype=np.intp)
    except KeyError:
        return False  # fibers do not match up
    mapped = np.ix_(phi_states, phi_letters)
    return bool((m2.delta[mapped] == phi_states[dm.delta]).all() and (m2.out[mapped] == phi_letters[dm.out]).all())


def word_labels(words: np.ndarray, alphabet: list[str]) -> list[str]:
    """`mealy.word_label` of every row of an (N, n) letter array: the
    string reference for the labels a graph file renders from codes."""
    if not words.shape[1]:
        return ["e"] * len(words)
    return list(map(".".join, np.array(alphabet, dtype=object)[words].tolist()))


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


def wang_shift(datum: VHDatum) -> MatrixSubshift:
    """The full tiling shift of the datum's Wang tileset: colors must
    match, and backtracking (consecutive inverse colors), which
    `subshift.build_xd` forbids, is allowed."""
    # row t, column t': A needs d = a', B needs b = c'
    a, b, c, d = datum.R.T
    return MatrixSubshift([tile_label(datum, t) for t in datum.R.tolist()],
                          d[:, None] == a[None, :], b[:, None] == c[None, :])


def ext_elements(spec: FieldSpec) -> list[Fq2Elem]:
    """All of F_q[Z] in canonical order (u varies fastest)."""
    return [spec.ext(n % spec.q, n // spec.q) for n in range(spec.q * spec.q)]


def strip_adjacency(graph: TransitionGraph) -> np.ndarray:
    """The (m, m) int64 0/1 matrix of a strip graph's arcs."""
    m = len(graph.patterns)
    adjacency = np.zeros((m, m), dtype=np.int64)
    adjacency[graph.tail, graph.head] = 1
    return adjacency


def preds_of(a) -> np.ndarray:
    """`spectral.arc_predecessors` of a nonnegative integer matrix A, with
    A[i, j] arcs from i to j."""
    a = np.asarray(a)
    tail, head = np.nonzero(a)
    return arc_predecessors(np.repeat(tail, a[tail, head]), np.repeat(head, a[tail, head]), len(a))


def from_edges(n_vertices: int, edges: list[tuple[int, int]], labels: list[str] | None = None) -> UGraph:
    """Build from an undirected edge list (loops allowed): edge k = (u, v)
    gives dart 2k from u to v, labelled ek, and its inverse 2k + 1."""
    if labels is None:
        labels = [str(i) for i in range(n_vertices)]
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    names = [f"e{k}{tick}" for k in range(len(ends)) for tick in ("", "'")]
    return UGraph(labels, ends.ravel(), ends[:, ::-1].ravel(), np.arange(2 * len(ends)) ^ 1, names)


def json_text(payload) -> str:
    """`json_pieces`, bytes joined, read as the ASCII text they are."""
    return b"".join(json_pieces(payload)).decode("ascii")


def cli_stdout(argv: list[str]) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one in-process CLI run, on a stdout
    that is a UTF-8 text layer over a byte stream, as a real one is."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue()


def graph_file(graph: UGraph) -> str:
    """The text of a graph file as `ramshift graph --format json` writes it,
    without the config that the command adds."""
    return json_text(ugraph_to_json_dict(graph)) + "\n"
