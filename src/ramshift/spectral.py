"""Eigenvalue computation and spectral verdicts: Ramanujan checks, the
Bass-Ihara transfer to non-backtracking spectra, second-largest modulus for
directed regular graphs, and exact walk counts and deviation norms for
mixing tables.

Tolerance policy: which eigenvalues are trivial is decided exactly, from the
graph's structure, never from the float spectrum: d+1 is the first
eigenvalue of a connected graph and -(d+1) the last of a bipartite one.
The tolerance (default 1e-8) enters one comparison only, second <= bound +
tol, and every Ramanujan verdict also reports the margin 2 sqrt(d) -
max|lambda_nontrivial| so borderline cases stay visible.

Covering tower: each level graph covers the one below by the drop-first
map, so its spectrum is the lower level's together with that of the new
block, A on the functions that sum to zero on every fiber.  It also covers
it by the drop-last map, and from level 3 on the two covers meet exactly
in the pullbacks from two levels down, so the new spectrum is the previous
level's new spectrum together with that of the doubly-new block: A on the
functions with zero row and column sums in each middle word's grid of
words x.m.y (dimension N_{n-2} (q - 1)^2).  Letter-wise inversion and
reversal (reverse the word, invert every letter) commute with A where they
are verified automorphisms, and that block splits into four, one per
character of the Klein group they generate; a symmetry that fails a check
only coarsens the split.  `tower_spectra` starts at the rose, whose one
eigenvalue d+1 is exact, checks both coverings and the grid, and
eigensolves only the new blocks of levels 1 and 2 and the doubly-new
blocks after them (all assembled from the darts by `dart_blocks` and
symmetrised exactly) with the same symmetry, residual and trace checks.
A graph with no known cover is solved whole.

Exact paths: `walk_counts` is the one exact kernel.  It advances a block of
integer row vectors through x -> x A by predecessor gathers, one sum of d
entries per column of a d-regular matrix.  Every entry of x A^j, and every
partial sum that forms it, is bounded by max|x| d^j, so the block steps in
int64 while that bound is below 2^63 and in Python integers (numpy object
arrays) from the first step that could pass it.  Deviation norms and
cylinder correlations are exact rationals with no floating error.  All
eigensolvers are dense and deterministic; resource caps reject instances
beyond desk scale.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import sqrt
from typing import NamedTuple

import numpy as np

from .ffield import SizeCapExceeded
from .graphs import (
    DartGraph, StructureReport, TowerLevel, UGraph, cover_fiber, is_automorphism, nb_matrix, structure_predicates,
)

DENSE_EIG_LIMIT = 2000
EXACT_POWER_LIMIT = 500
EIG_RESIDUAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# symmetric spectra


def check_dense_cap(n_vertices: int) -> None:
    """Refuse a dense eigensolve of more than DENSE_EIG_LIMIT vertices."""
    if n_vertices > DENSE_EIG_LIMIT:
        raise SizeCapExceeded(f"dense eigensolve capped at {DENSE_EIG_LIMIT} vertices")


def eig_symmetric(a: np.ndarray) -> np.ndarray:
    """Full spectrum of a symmetric real matrix, sorted descending.

    The matrix must equal its transpose exactly.  Every (lambda, v) pair is
    recomputed against A v = lambda v and must satisfy the residual bound
    EIG_RESIDUAL_TOL * ||A||_max * dim; the trace identity is checked as
    well.  Ordering is deterministic.
    """
    a = np.asarray(a)
    if a.shape[0] != a.shape[1] or not (a == a.T).all():
        raise ValueError("eig_symmetric needs a symmetric matrix")
    dense = a.astype(np.float64)
    eigs, vecs = np.linalg.eigh(dense)
    scale = max(1.0, float(np.abs(a).max(initial=0)) * a.shape[0])
    residual = np.abs(dense @ vecs - vecs * eigs).max(initial=0)
    if residual > EIG_RESIDUAL_TOL * scale:
        raise RuntimeError(f"eigensolver residual {residual:.3e} above bound")
    if abs(eigs.sum() - np.trace(a)) > EIG_RESIDUAL_TOL * scale:
        raise RuntimeError("eigensolver failed the trace identity")
    return eigs[::-1]


def _helmert(f: int) -> np.ndarray:
    """The f x (f - 1) Helmert block: orthonormal columns orthogonal to the
    constant vector.  Column k - 1 is (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1))
    with k ones."""
    k = np.arange(1, f)
    i = np.arange(f)[:, None]
    return np.where(i < k, 1.0, np.where(i == k, -k, 0.0)) / np.sqrt(k * (k + 1))


def _fiber_slots(proj: np.ndarray, f: int) -> np.ndarray:
    """Each vertex's place 0..f-1 in its fiber of proj, whose fibers all
    have f vertices."""
    slot = np.empty(len(proj), dtype=np.intp)
    slot[np.argsort(proj, kind="stable")] = np.arange(len(proj)) % f
    return slot


def dart_blocks(origin: np.ndarray, terminus: np.ndarray, group: np.ndarray, slot: np.ndarray, basis: np.ndarray,
                weights: np.ndarray | None = None, width: np.ndarray | None = None) -> list[np.ndarray]:
    """The one block assembler of the covering tower: Q^T A_w Q for each
    row w of weights (one unweighted block when weights is None), where A_w
    counts the dart origin[e] -> terminus[e] with weight w[e] and Q has the
    columns (g, k) for k < width[g] (every column of basis when width is
    None), column (g, k) being basis[slot[v], k] on every vertex v of group
    g.  It is summed from the darts, never from a dense N x N matrix: the
    darts between each pair of groups (a, b) are counted by their origin's
    and terminus' slots into C, for every row at once, and give the block
    B^T C B; the columns beyond a group's width are dropped last.  Each
    block is (M + M^T) / 2, exactly symmetric."""
    weights = np.ones((1, len(origin))) if weights is None else weights
    (g, k), rows = basis.shape, len(weights)
    n_groups = int(group.max()) + 1
    pairs, pair = np.unique(group[origin] * n_groups + group[terminus], return_inverse=True)
    cell = (np.arange(rows)[:, None] * len(pairs) + pair) * g * g + slot[origin] * g + slot[terminus]
    counts = np.bincount(cell.ravel(), weights=weights.ravel(), minlength=rows * len(pairs) * g * g)
    projected = basis.T @ counts.reshape(rows, len(pairs), g, g) @ basis
    block = np.zeros((rows, n_groups, k, n_groups, k))
    block[:, pairs // n_groups, :, pairs % n_groups, :] = projected.transpose(1, 0, 2, 3)
    block = block.reshape(rows, n_groups * k, n_groups * k)
    if width is not None and (width < k).any():
        keep = (np.arange(k) < width[:, None]).ravel()
        block = block[:, keep][:, :, keep]
    return list((block + block.transpose(0, 2, 1)) / 2)


def cover_block(graph: UGraph, lower: UGraph, parent: np.ndarray) -> np.ndarray:
    """The new block M = Q^T A Q of a covering graph -> lower, of dimension
    N - N_lower.  The functions that sum to zero on every fiber of parent
    form an invariant subspace of A (its complement, the pullbacks from
    lower, is one because A P = P A_lower), so the spectrum of A is that of
    lower together with that of M.  Q has one Helmert block per fiber, and
    `dart_blocks` assembles M.  `graphs.cover_fiber` first checks that
    parent is a covering with equal fibers and raises ValueError when it
    is not."""
    parent = np.asarray(parent)
    f = cover_fiber(graph, lower, parent)
    return dart_blocks(graph.origin, graph.terminus, parent, _fiber_slots(parent, f), _helmert(f))[0]


def _induced(perm: np.ndarray, proj: np.ndarray, size: int, target: np.ndarray | None = None) -> np.ndarray | None:
    """The map m -> target[perm[v]] for any v with proj[v] = m (target is
    proj unless given), on a surjective proj onto 0..size-1, or None when it
    depends on v."""
    target = proj if target is None else target
    image = np.empty(size, dtype=np.intp)
    image[proj] = target[perm]
    return image if (image[proj] == target[perm]).all() else None


def _grid_basis(f: int) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrised Helmert basis of the functions with zero row and
    column sums on an f x f grid of slots left * f + right: the f (f - 1) / 2
    columns H_k (x) H_l + H_l (x) H_k for k <= l (over 2 when k = l, else
    over sqrt 2), which the slot transpose fixes, and the (f - 1)(f - 2) / 2
    columns (H_k (x) H_l - H_l (x) H_k) / sqrt 2 for k < l, which it
    negates.  Together they span what kron(H, H) spans."""
    h = _helmert(f)
    pair = np.kron(h, h)  # column k (f - 1) + l is H_k (x) H_l
    k, l = np.divmod(np.arange((f - 1) ** 2), f - 1)
    swapped = pair[:, l * (f - 1) + k]
    upper = k <= l
    even = (pair + swapped)[:, upper] / np.where(k == l, 2.0, sqrt(2))[upper]
    return even, (pair - swapped)[:, k < l] / sqrt(2)


def _grid_blocks(level: TowerLevel, lower: TowerLevel, n_middles: int) -> list[np.ndarray]:
    """The doubly-new block of a tower level n >= 3, whole or split by the
    characters of the group that inversion and reversal generate.

    Each vertex is x.m.y for a middle m at level n - 2, reached both ways
    round the square parent / last_parent.  Its left slot is the place of
    x.m in its drop-first fiber at level n - 1, its right slot the place of
    m.y in its drop-last fiber, and every (middle, left, right) cell must
    hold exactly one vertex: each middle owns an f x f grid whose columns
    are the drop-first fibers and whose rows the drop-last fibers at level
    n.  The pullbacks of both projections meet exactly in those from level
    n - 2 (a function constant on the rows and columns of a grid is
    constant on it), so A on the functions with zero row and column sums in
    every grid, with the basis `_grid_basis` per middle, carries the
    spectrum of level n beyond spec A_{n-1} and the new block of level
    n - 1.  A broken grid raises ValueError.

    `_grid_symmetries` keeps those of inversion iota and reversal rho that
    are automorphisms mapping grids to grids.  The block commutes with the
    group G they generate, at most the Klein group {1, iota, rho, iota rho},
    and splits into one block per character chi of G: four in the order
    (+, +), (-, +), (+, -), (-, -) of (chi(iota), chi(rho)), two halves for
    one symmetry, or the whole block for none.  Each is assembled from
    the darts that leave one representative grid per orbit of middles: a
    vertex g u, for u in a representative grid, takes the slot of u, and a
    dart counts chi(g) for its terminus' g times sqrt(|orbit of its origin|
    / |orbit of its terminus|), the ratio of the two normalisations.  A
    middle that r = iota rho fixes (a palindromic one) has an orbit of two,
    and since r acts on its grid as the slot transpose, its grid keeps only
    the basis columns of parity chi(r)."""
    graph, parent, last = level.graph, level.parent, level.last_parent
    middle = lower.parent[last]
    if (middle != lower.last_parent[parent]).any():
        raise ValueError("parent and last_parent are not a covering grid: the two ways down differ")
    n_lower = lower.graph.n_vertices()
    f = n_lower // n_middles
    cell = (middle * f + _fiber_slots(lower.parent, f)[last]) * f + _fiber_slots(lower.last_parent, f)[parent]
    if graph.n_vertices() != n_middles * f * f or (np.bincount(cell, minlength=n_middles * f * f) != 1).any():
        raise ValueError("parent and last_parent are not a covering grid: a cell does not hold one vertex")
    slot = cell % (f * f)
    # the group the symmetries generate: element e is the product of the
    # symmetries i with bit i of e set, and character c negates those of
    # the bits of c, so chi_c(e) = (-1)^|c & e|
    vertex_maps, middle_maps = np.arange(len(slot))[None], np.arange(n_middles)[None]
    for perm, moved in _grid_symmetries(level, middle, slot, f, n_lower, n_middles):
        vertex_maps = np.vstack([vertex_maps, vertex_maps[:, perm]])
        middle_maps = np.vstack([middle_maps, middle_maps[:, moved]])
    n = len(middle_maps)
    characters = np.array([[(-1.0) ** bin(c & e).count("1") for e in range(n)] for c in range(n)])
    rep = middle_maps.min(axis=0)  # the least middle of each orbit represents it
    to_rep = np.argmax(middle_maps == rep, axis=0)[middle]  # per vertex, an element taking it to a representative
    size = n // (middle_maps == np.arange(n_middles)).sum(axis=0)  # orbit sizes
    chosen = rep == np.arange(n_middles)
    group = (np.cumsum(chosen) - 1)[rep[middle]]
    slot = slot[vertex_maps[to_rep, np.arange(len(slot))]]
    # only the darts that leave a representative grid are counted
    darts = np.flatnonzero(chosen[middle[graph.origin]])
    origin, terminus = graph.origin[darts], graph.terminus[darts]
    weights = np.sqrt(size[middle[origin]] / size[middle[terminus]]) * characters[:, to_rep[terminus]]
    even, odd = _grid_basis(f)
    # element n - 1 is the product of all symmetries, r when there are two:
    # the characters even on it keep the even columns on a grid r fixes,
    # the others the odd ones, so those come first in the basis
    blocks = [None] * n
    for kept, other, parity in ((even, odd, 1.0), (odd, even, -1.0)):
        these = np.flatnonzero(characters[:, -1] == parity)
        if these.size:
            width = np.where(size[chosen] < n, kept.shape[1], kept.shape[1] + other.shape[1])
            basis = np.hstack([kept, other])[:, :width.max()]
            for c, block in zip(these, dart_blocks(origin, terminus, group, slot, basis, weights[these], width)):
                blocks[c] = block
    return blocks


def _grid_symmetries(level: TowerLevel, middle: np.ndarray, slot: np.ndarray, f: int,
                     n_lower: int, n_middles: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(vertex map, middle map) of each of level.inversion and
    level.reversal that `_grid_symmetry` accepts.  When both are accepted
    they must also commute, and r = inversion . reversal must act as the
    slot transpose on the grid of every middle it fixes; else reversal is
    dropped."""
    iota = _grid_symmetry(level, level.inversion, False, middle, n_lower, n_middles)
    rho = _grid_symmetry(level, level.reversal, True, middle, n_lower, n_middles)
    if iota is not None and rho is not None:
        r = iota[0][rho[0]]
        fixed = (iota[1][rho[1]] == np.arange(n_middles))[middle]
        transposed = slot % f * f + slot // f
        if (r != rho[0][iota[0]]).any() or (slot[r][fixed] != transposed[fixed]).any():
            rho = None
    return [symmetry for symmetry in (iota, rho) if symmetry is not None]


def _grid_symmetry(level: TowerLevel, perm: np.ndarray | None, swaps: bool, middle: np.ndarray,
                   n_lower: int, n_middles: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(perm, the map it induces on the middles) when perm is an involutive
    automorphism of the graph that maps the fibers of parent and of
    last_parent to fibers of the same projection (of the other one when
    swaps) and moves every middle; else None."""
    graph = level.graph
    n = graph.n_vertices()
    if perm is None:
        return None
    perm = np.asarray(perm)
    if perm.shape != (n,) or perm.dtype.kind not in "iu" or perm.min() < 0 or perm.max() >= n:
        return None
    if (perm[perm] != np.arange(n)).any():  # an involution
        return None
    projections = (level.parent, level.last_parent)
    targets = projections[::-1] if swaps else projections
    if any(_induced(perm, proj, n_lower, target) is None for proj, target in zip(projections, targets)):
        return None
    moved = _induced(perm, middle, n_middles)
    if moved is None or (moved == np.arange(n_middles)).any() or not is_automorphism(graph, perm):
        return None
    return perm, moved


class TowerSpectrum(NamedTuple):
    graph: UGraph
    eigenvalues: np.ndarray  # descending
    blocks: tuple[int, ...]  # the dimensions of the blocks eigensolved for this level


def tower_spectra(levels: Iterator[TowerLevel]) -> Iterator[TowerSpectrum]:
    """(graph, spectrum, solved block dimensions) for every level after the
    first of a covering tower, such as `graphs.level_tower`: the rose, then
    each level with its drop-first and drop-last parents into the one
    before and an optional inversion and reversal.  Both parents are checked as
    coverings with equal fibers (`graphs.cover_fiber`) on every level.

    The rose, one vertex with k loop darts, contributes the trivial
    eigenvalue k exactly.  Levels 1 and 2 eigensolve the new block of the
    drop-first cover (`cover_block`, dimension N_n - N_{n-1}).  From level
    3 on, spec A_n is spec A_{n-1}, the previous level's new spectrum and
    the spectrum of the doubly-new block (`_grid_blocks`, dimension
    N_{n-2} (f - 1)^2 for fibers of f), which alone is solved: in four
    blocks when the inversion and the reversal both check out, in two
    halves when one does, whole otherwise.  Every block goes through
    `eig_symmetric`'s checks.  Spectra are descending, and each level is
    capped like a dense eigensolve of its vertices."""
    lower = next(levels)
    if lower.graph.n_vertices() != 1:
        raise ValueError("a covering tower starts at a one-vertex rose")
    eigs, new = np.array([float(lower.graph.n_darts())]), np.empty(0)
    below = None  # the graph two levels down
    for n, level in enumerate(levels, 1):
        graph = level.graph
        check_dense_cap(graph.n_vertices())
        for proj in (level.parent, level.last_parent):
            cover_fiber(graph, lower.graph, proj)
        if n < 3:  # the new spectrum is the new block's alone
            blocks, new = [cover_block(graph, lower.graph, level.parent)], np.empty(0)
        else:
            blocks = _grid_blocks(level, lower, below.n_vertices())
        new = np.concatenate([new, *(eig_symmetric(block) for block in blocks)])
        eigs = np.sort(np.concatenate([eigs, new]))[::-1]
        yield TowerSpectrum(graph, eigs, tuple(len(block) for block in blocks))
        below, lower = lower.graph, level


@dataclass
class SpectralReport:
    degree: int                 # d + 1 for undirected reports
    n_vertices: int
    eigenvalues: np.ndarray     # sorted descending
    second_modulus: float       # max |lambda| over the nontrivial spectrum
    bound: float                # 2 sqrt(d)
    margin: float               # bound - second_modulus
    ramanujan: bool
    bipartite: bool             # structure.bipartite: -(d+1) is the last eigenvalue
    structure: StructureReport

    def __repr__(self) -> str:
        verdict = "ramanujan" if self.ramanujan else "NOT ramanujan"
        return (
            f"SpectralReport({self.degree}-regular, {self.n_vertices} vertices, "
            f"max nontrivial |l| = {self.second_modulus:.6f} vs {self.bound:.6f}, {verdict})"
        )


def ramanujan_check(graph: UGraph, tol: float = 1e-8, eigenvalues: np.ndarray | None = None) -> SpectralReport:
    """Is a connected (d+1)-regular graph Ramanujan: every eigenvalue either
    +-(d+1) or of modulus at most 2 sqrt(d) (within tol)?

    The size cap is checked before any work; connectivity, regularity and
    bipartiteness come exactly from one `structure_predicates` pass, and
    they place the trivial eigenvalues in the descending spectrum: d+1 is
    simple and first because the graph is connected, and -(d+1) is last
    exactly when it is bipartite.  The nontrivial spectrum is the slice
    between them, and tol enters only the verdict second <= bound + tol.

    The spectrum is `eig_symmetric` of the adjacency, unless the graph is a
    level of a covering tower whose descending spectrum `tower_spectra` has
    already merged from its new blocks: then that is `eigenvalues`, and
    its first entry is the rose's exact d+1.
    """
    check_dense_cap(graph.n_vertices())
    structure = structure_predicates(graph)
    if not structure.connected:
        raise ValueError(f"graph is disconnected ({structure.n_components} components)")
    if structure.regular_degree is None:
        raise ValueError("ramanujan_check needs a regular graph")
    k = structure.regular_degree  # k = d + 1
    eigs = eig_symmetric(graph.adjacency()) if eigenvalues is None else eigenvalues
    if len(eigs) != graph.n_vertices():
        raise ValueError(f"{len(eigs)} eigenvalues given for {graph.n_vertices()} vertices")
    second = max(np.abs(nontrivial_spectrum(eigs, structure.bipartite)), default=0.0)
    bound = 2.0 * sqrt(k - 1)
    return SpectralReport(
        degree=k,
        n_vertices=graph.n_vertices(),
        eigenvalues=eigs,
        second_modulus=second,
        bound=bound,
        margin=bound - second,
        ramanujan=bool(second <= bound + tol),
        bipartite=structure.bipartite,
        structure=structure,
    )


def nontrivial_spectrum(eigs: np.ndarray, bipartite: bool) -> np.ndarray:
    """The descending spectrum of a connected regular graph without its
    trivial eigenvalues: the first, and the last when it is bipartite."""
    return eigs[1:len(eigs) - bipartite]


# ---------------------------------------------------------------------------
# Bass-Ihara transfer


def bass_ihara_pairs(spectrum, d: int) -> list[tuple[complex, float | None]]:
    """Transfer a base spectrum to the non-backtracking spectrum: each
    lambda contributes both roots of x^2 - lambda x + d, tagged with their
    source eigenvalue; the trailing +-1 carry source None.  This is a set
    description; multiplicities are not tracked."""
    if d < 1:
        raise ValueError("need d >= 1")
    pairs: list[tuple[complex, float | None]] = []
    for lam in spectrum:
        lam = complex(lam).real
        root = np.sqrt(complex(lam * lam - 4 * d))
        pairs.append(((lam + root) / 2, lam))
        pairs.append(((lam - root) / 2, lam))
    pairs.append((1.0 + 0j, None))
    pairs.append((-1.0 + 0j, None))
    return pairs


def check_dart_cap(n_darts: int) -> None:
    """Refuse a direct dart spectrum of more than DENSE_EIG_LIMIT darts."""
    if n_darts > DENSE_EIG_LIMIT:
        raise SizeCapExceeded(
            f"direct dart spectrum capped at {DENSE_EIG_LIMIT}; use bass_ihara_pairs instead"
        )


def nb_spectrum_direct(h: DartGraph) -> np.ndarray:
    """Dense nonsymmetric eigensolve of a dart adjacency; eigenvalues may be
    complex.  Only for small instances; above DENSE_EIG_LIMIT use bass_ihara_pairs."""
    check_dart_cap(h.n_darts())
    return np.linalg.eigvals(h.adjacency.astype(np.float64))


@dataclass
class TransferReport:
    n_darts: int
    d: int
    max_dist_direct_to_transfer: float
    max_dist_transfer_to_direct: float
    max_modulus_defect: float  # nontrivial moduli vs {1, sqrt(d)}

    def agrees(self, tol: float = 1e-6) -> bool:
        return (
            self.max_dist_direct_to_transfer <= tol
            and self.max_dist_transfer_to_direct <= tol
        )


def nb_transfer_report(graph: UGraph) -> TransferReport:
    """Compare the directly computed dart spectrum of a regular graph with
    the Bass-Ihara transfer of its adjacency spectrum (set inclusion both
    ways), and measure how far nontrivial dart moduli sit from {1, sqrt(d)}.
    The dart count is checked against the cap before the dense dart matrix
    is built."""
    check_dart_cap(graph.n_darts())
    dart = nb_matrix(graph)
    d = dart.degree
    direct = nb_spectrum_direct(dart)
    transfer = np.array([value for value, _ in bass_ihara_pairs(eig_symmetric(graph.adjacency()), d)])

    def max_min_dist(xs, ys):
        return max(float(np.abs(ys - x).min()) for x in xs)

    defect = 0.0
    for x in direct:
        mod = abs(x)
        if abs(mod - d) <= 1e-6:
            continue  # Perron value d (and -d for bipartite graphs)
        defect = max(defect, min(abs(mod - 1.0), abs(mod - sqrt(d))))
    return TransferReport(
        n_darts=dart.n_darts(),
        d=d,
        max_dist_direct_to_transfer=max_min_dist(direct, transfer),
        max_dist_transfer_to_direct=max_min_dist(transfer, direct),
        max_modulus_defect=defect,
    )


# ---------------------------------------------------------------------------
# directed spectra


def second_modulus_directed(a: np.ndarray) -> float:
    """lambda(A) for a d-regular directed 0/1 matrix: the spectral radius of
    A - (d/m) J.  The directed Ramanujan criterion is lambda(A) <= sqrt(d)."""
    a = np.asarray(a)
    m = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    check_dense_cap(m)
    rows = a.sum(axis=1)
    cols = a.sum(axis=0)
    d = int(rows[0])
    if not ((rows == d).all() and (cols == d).all()):
        raise ValueError("matrix must be d-regular (equal row and column sums)")
    centered = a.astype(np.float64) - (d / m) * np.ones((m, m))
    return float(np.abs(np.linalg.eigvals(centered)).max())


# ---------------------------------------------------------------------------
# exact walk counts and deviation norms


def check_exact_cap(m: int) -> None:
    """Refuse exact walk counts in a dimension above EXACT_POWER_LIMIT."""
    if m > EXACT_POWER_LIMIT:
        raise SizeCapExceeded(f"exact matrix powers capped at dimension {EXACT_POWER_LIMIT}")


def predecessors(a) -> np.ndarray:
    """The (m, d) predecessor array of a d-regular nonnegative integer
    matrix A of dimension m <= EXACT_POWER_LIMIT: row j lists each i,
    repeated A[i, j] times (multigraphs work)."""
    mat = np.asarray(a)
    m = mat.shape[0]
    check_exact_cap(m)
    rows = mat.sum(axis=1)
    cols = mat.sum(axis=0)
    d = int(rows[0])
    if mat.shape != (m, m) or (mat < 0).any() or not ((rows == d).all() and (cols == d).all()):
        raise ValueError("exact walk counts need a d-regular nonnegative matrix")
    return np.repeat(np.tile(np.arange(m), m), mat.T.ravel()).reshape(m, d)


def walk_counts(a, start, n: int):
    """Yield start, start A, start A^2, ..., start A^n exactly, for a
    d-regular nonnegative integer matrix A of dimension m <= EXACT_POWER_LIMIT.

    `start` is a length-m integer vector or a (rows, m) block; a start that
    is not integer (floats included) is refused, not truncated.  One step
    is a gather and a sum over the `predecessors` array: rows m d additions
    instead of rows m^2 multiplications.  Block j is int64 while
    max|start| d^j < 2^63: a column of A sums d predecessor entries, each at
    most max|start| d^(j-1) in modulus, so every entry and every partial sum
    stays within the bound.  From the first step that could pass it, the
    block holds Python ints in a numpy object array.  Both dtypes step
    through the same gather-sum."""
    return walks(predecessors(a), start, n)


def walks(preds: np.ndarray, start, n: int):
    """`walk_counts` on a `predecessors` array that is already built."""
    if n < 0:
        raise ValueError("need n >= 0")
    block = np.asarray(start)
    if block.dtype.kind not in "biu" and not (
        block.dtype == object and all(isinstance(x, (int, np.integer)) for x in block.flat)
    ):
        raise ValueError("exact walk counts need an integer start")
    bound = max(-int(block.min()), int(block.max())) if block.size else 0
    block = block.astype(np.int64) if bound < 2**63 else np.frompyfunc(int, 1, 1)(block)
    d = preds.shape[1]
    yield block
    for j in range(1, n + 1):
        if block.dtype != object and bound * d**j >= 2**63:
            block = block.astype(object)
        block = block[..., preds].sum(axis=-1)
        yield block


def matrix_power_int(a, n: int) -> list[list[int]]:
    """A^n over the integers (exact), for any square integer matrix."""
    if n < 0:
        raise ValueError("need n >= 0")
    return np.linalg.matrix_power(np.asarray(a).astype(object), n).tolist()


def _identity_walks(a, n: int):
    return walk_counts(a, np.eye(len(a), dtype=np.int64), n)


def _deviation(power) -> Fraction:
    # every row of A^n sums to d^n, and |x/d^n - 1/m| = |x m - d^n| / (m d^n)
    # is largest at the largest or the smallest entry; all in Python ints,
    # since an int64 block bounds its entries, not m times them
    m = power.shape[0]
    dn = sum(power[0].tolist())
    return Fraction(max(int(power.max()) * m - dn, dn - int(power.min()) * m), m * dn)


def deviation_norm(a, n: int) -> Fraction:
    """max_ij | A^n_ij / d^n - 1/m | as an exact rational, for a d-regular
    nonnegative integer matrix A of dimension m.

    This is the sup-norm distance between the n-step normalized transition
    matrix and the flat matrix J/m, the quantity controlling correlation
    decay of the associated vertex shift."""
    return _deviation(deque(_identity_walks(a, n), maxlen=1).pop())


def deviation_table(a, n_max: int) -> list[Fraction]:
    """deviation_norm for n = 1..n_max, sharing the iterated powers."""
    return [_deviation(power) for power in islice(_identity_walks(a, n_max), 1, None)]


# ---------------------------------------------------------------------------
# report formatting


def spectral_report_to_csv(report: SpectralReport) -> str:
    """CSV spectrum dump: index, re, im, modulus, classification.  Row 0
    (d+1) is trivial, and so is the last row (-(d+1)) of a bipartite graph."""
    lines = ["index,re,im,modulus,classification"]
    last = len(report.eigenvalues) - 1
    for i, lam in enumerate(report.eigenvalues):
        lam = float(lam)
        cls = "trivial" if i == 0 or (report.bipartite and i == last) else "nontrivial"
        lines.append(f"{i},{lam!r},0.0,{abs(lam)!r},{cls}")
    return "\n".join(lines) + "\n"


def spectral_report_to_dict(report: SpectralReport) -> dict:
    return {
        "degree": report.degree,
        "n_vertices": report.n_vertices,
        "second_modulus": report.second_modulus,
        "bound": report.bound,
        "margin": report.margin,
        "ramanujan": report.ramanujan,
        "bipartite": report.bipartite,
    }
