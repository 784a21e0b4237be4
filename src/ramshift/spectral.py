"""Eigenvalue computation and spectral verdicts: Ramanujan checks, the
Bass-Ihara transfer to non-backtracking spectra, second-largest modulus for
directed regular graphs, and exact walk counts and deviation norms for
mixing tables.

Tolerance policy: which eigenvalues are trivial is decided exactly, from the
graph's structure, never from the float spectrum: d+1 is the first
eigenvalue of a connected graph and -(d+1) the last of a bipartite one.
The tolerance (default 1e-8) enters the bound beta = 2 sqrt(d) + tol: a
level of a covering tower is "certified" when a proof, below, places every
eigenvalue but the rose's d+1 in [-beta, beta]; any other verdict is
"float", the comparison second <= bound + tol.  Every Ramanujan verdict
also reports the margin 2 sqrt(d) - max|lambda_nontrivial| so borderline
cases stay visible.

Covering tower: each level graph covers the one below by the drop-first
map, so its spectrum is the lower level's together with that of the new
block, A on the functions that sum to zero on every fiber.  It also covers
it by the drop-last map, and from level 3 on the two covers meet exactly
in the pullbacks from two levels down, so the new spectrum is the previous
level's new spectrum together with that of the doubly-new block: A on the
functions with zero row and column sums in each middle word's grid of
words x.m.y (dimension N_{n-2} (q - 1)^2).  `tower_spectra` starts at the
rose, whose one eigenvalue d+1 is exact, checks both coverings and the
grid, and solves only the new blocks of levels 1 and 2 and the doubly-new
blocks after them (`_block_spectra`).  A graph with no known cover is
solved whole by `eig_symmetric`, whose residual and trace checks guard a
float verdict.

Certificate: every eigenvalue of a Hermitian block H lies in [-beta, beta]
exactly when beta I - H and beta I + H are positive semidefinite, and a
float Cholesky factorisation that succeeds proves that.  Rump
("Verification of positive definiteness", BIT 46, 2006) bounds its
backward error: if the factorisation of an n x n Hermitian G runs to the
end, then lambda_min(G) >= -gamma/(1 - gamma) tr(G), with gamma_j = j eps /
(1 - j eps) and eps = 2^-52, here with j = 2n + 4 where Rump has n + 1,
which also covers complex arithmetic and the rounded diagonal of G =
fl(s I -+ H~).  The block is not H but its float assembly H~ (`dart_blocks`
with the Helmert, grid and character bases), and a priori, as in Higham
("Accuracy and Stability of Numerical Algorithms", ch. 3), ||H - H~||_2 <=
2 gamma_(k + 2g + 16) g k sqrt(s): each count sums at most the k arcs that
leave a point, B^T C B sums 2g products for a basis B of g rows, the basis
entries and weights carry at most 16 roundings, |B| <= 1 with ||B||_F^2 <=
g, the rows and columns of the weighted counts sum to at most k sqrt(s) for
a largest stabiliser of order s, and the 2 covers the real and imaginary
parts and the Hermitian part taken.  So with m = max|H~_ij| the shift

    c = 2 (gamma_(2n+4) / (1 - gamma_(2n+4)) n (beta + m) + ||H - H~||_2 bound),

the 2 covering the rounding of beta and of beta - c, makes a successful
factorisation of both fl((beta - c) I -+ H~) a proof.  At the sizes under
the dense cap c is at most 5.2e-10 (q = 11, level 3, with g = 121 slots),
far below the default tol, at which every level under the cap of the data
with places (1, 2) over the odd prime powers q from 3 to 31 is certified.  Where beta < d + 1, that is tol < (sqrt(d) - 1)^2,
a certified level is also connected (d+1 is simple) and not bipartite
(-(d+1) is no eigenvalue), so `ramanujan_check` runs no search on it.  A
block that fails, at a boundary eigenvalue (q = 9 at tol 0) or on a level
that is bipartite or not Ramanujan, is solved again by `eig_symmetric`,
and its level is float.

Character split: the rotation u (multiply every letter by a generator of
the norm-one torus, of order q + 1), letter-wise inversion
iota = u^((q+1)/2) and reversal rho (reverse the word, invert every
letter), where they check out, generate a finite abelian group that
commutes with A and, lifted to the darts, with the non-backtracking matrix
H: <u> x <rho>, of order 2 (q + 1), on a quaternionic level, and at most
the Klein group {1, iota, rho, iota rho} without the rotation.  Both
matrices split into one block per character of that group (Serre, Linear
Representations of Finite Groups, 2.6) by one function,
`_character_blocks`, whose owners are fibers, middle words' grids or
darts: `_symmetries` keeps the offered maps of the right order that
commute with those kept before, add to their group and pass the caller's
own test, so a refused map only coarsens the split; `_orbits` builds the
group, its complex characters and its orbits; one stabiliser rule (an
element that fixes an owner acts on its slots as the identity or the
transpose) says which columns an orbit keeps; and `dart_blocks`, the one
assembler, sums every block from the arcs that leave a representative,
never from a dense matrix, complex weights as two real counts.  One block
of each pair of conjugate characters is assembled and solved (`Split`):
the tower's Hermitian blocks give the same eigenvalues twice, the dart
blocks conjugate ones.  Every split is checked by its dimension count, the
dart blocks also by a trace identity.

Bass-Ihara: `nb_transfer_report` compares the dart spectrum, solved
directly and blockwise as above, with the quadratic transfer of the
adjacency spectrum.  `bass-ihara` on q = 3 `A_4` (432 darts) solves six
blocks of 54 for its eight characters.

Exact paths: `walks` is the one exact kernel, and the (m, d) predecessor
array of a graph's arcs (`arc_predecessors`) the one way into it.  It
advances a block of integer row vectors through x -> x A by predecessor
gathers, one sum of d entries per column of a d-regular matrix; no dense
matrix is on the path.  `matrix_power_int`, dense powers in Python ints,
is not on it either: it stays as the tests' reference for `walks`.
Every entry of x A^j, and every partial sum that forms it, is bounded by
max|x| d^j, so the block steps in int64 while that bound is below 2^63 and
in Python integers (numpy object arrays) from the first step that could
pass it.  `deviation_table` walks the identity in row chunks and keeps only
each step's largest and smallest entry.  One byte bound, EXACT_BYTES,
decides what is walked: the m^2 int64 entries a graph's held power rows can
reach must fit in it (`check_exact_cap`), and a chunk has as many rows as
make one step's (rows, m, d) gathered entries a sixteenth of it, at 8 bytes
an entry, an int64 or a pointer to a Python int alike.  Deviation norms
and cylinder correlations are exact rationals with no floating error.

Threads: all eigensolvers are dense and deterministic, and every LAPACK
call, eigvalsh, Cholesky and eig_symmetric's residual product among them,
runs on one OpenBLAS thread
(`_one_blas_thread`, which restores the count after each solve), so no
digit of a spectrum depends on OPENBLAS_NUM_THREADS.  The blocks solved
under the dense cap have at most a few hundred rows, where a second thread
saves little wall time and doubles the CPU.  At the frontier it would
save more: on a 2-vCPU host two threads ran eigh on random Hermitian
matrices 1.3 times faster at 512 rows real and 1.6 times complex, and 1.5
and 1.8 times at the sizes of the q = 3 `A_9` blocks (1,485 rows real,
1,431 complex).  That wall time is given up; more cores are better spent
on independent blocks at once.  Resource caps reject instances beyond
desk scale.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm, prod, sqrt
from typing import NamedTuple

import numpy as np

from .ffield import SizeCapExceeded
from .graphs import (
    StructureReport, TowerLevel, UGraph, cover_fiber, dart_map, is_automorphism, nb_arcs,
    structure_predicates,
)

DENSE_EIG_LIMIT = 2000
EXACT_BYTES = 256 * 2**20
EIG_RESIDUAL_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# symmetric spectra


@cache
def _blas_control():
    """(get, set) of the thread count of the OpenBLAS that numpy's LAPACK
    module links, found by name in that module's symbols (a numpy wheel's
    own scipy-openblas, or a system OpenBLAS), or None."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the count before
    it, also when the body raises (the module docstring says why); nothing
    where no control is found.  The count is the process's: solves in two
    threads at once could restore each other's, and the package starts no
    thread."""
    control = _blas_control()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def check_dense_cap(n_vertices: int) -> None:
    """Refuse a dense eigensolve of more than DENSE_EIG_LIMIT vertices."""
    if n_vertices > DENSE_EIG_LIMIT:
        raise SizeCapExceeded(f"dense eigensolve capped at {DENSE_EIG_LIMIT} vertices")


def eig_symmetric(a: np.ndarray) -> np.ndarray:
    """Full spectrum of a real symmetric or complex Hermitian matrix,
    sorted descending.

    The matrix must equal its conjugate transpose exactly.  Every
    (lambda, v) pair is recomputed against A v = lambda v and must satisfy
    the residual bound EIG_RESIDUAL_TOL * ||A||_max * dim; the trace
    identity is checked as well.  Ordering is deterministic.
    """
    a = np.asarray(a)
    hermitian = a.dtype.kind == "c"
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not (a == (a.T.conj() if hermitian else a.T)).all():
        raise ValueError("eig_symmetric needs a symmetric or Hermitian matrix")
    dense = a.astype(np.complex128 if hermitian else np.float64, copy=False)
    with _one_blas_thread():
        eigs, vecs = np.linalg.eigh(dense)
        residual = np.abs(dense @ vecs - vecs * eigs).max(initial=0)
    scale = max(1.0, float(np.abs(a).max(initial=0)) * a.shape[0])
    if residual > EIG_RESIDUAL_TOL * scale:
        raise RuntimeError(f"eigensolver residual {residual:.3e} above bound")
    if abs(eigs.sum() - np.trace(a).real) > EIG_RESIDUAL_TOL * scale:
        raise RuntimeError("eigensolver failed the trace identity")
    return eigs[::-1]


@cache
def _helmert(f: int) -> np.ndarray:
    """The f x (f - 1) Helmert block: orthonormal columns orthogonal to the
    constant vector.  Column k - 1 is (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1))
    with k ones.  Read-only, as it is cached."""
    k = np.arange(1, f)
    i = np.arange(f)[:, None]
    h = np.where(i < k, 1.0, np.where(i == k, -k, 0.0)) / np.sqrt(k * (k + 1))
    h.setflags(write=False)
    return h


def _fiber_slots(proj: np.ndarray, f: int) -> np.ndarray:
    """Each vertex's place 0..f-1 in its fiber of proj, whose fibers all
    have f vertices."""
    slot = np.empty(len(proj), dtype=np.intp)
    slot[np.argsort(proj, kind="stable")] = np.arange(len(proj)) % f
    return slot


def dart_blocks(origin: np.ndarray, terminus: np.ndarray, group: np.ndarray, slot: np.ndarray, basis: np.ndarray,
                weights: np.ndarray, keep: np.ndarray | None = None) -> list[np.ndarray]:
    """The one block assembler: Q^T A_w Q for each row w of weights, where
    A_w counts the dart origin[e] -> terminus[e] with weight w[e] and Q has
    the columns (g, k), column (g, k) being basis[slot[v], k] on every
    vertex v of group g.  keep, one boolean mask over those columns for
    every block, keeps only the columns it marks.  It is summed from the
    darts, never from a dense N x N matrix: the darts between each pair of
    groups (a, b) are counted by their origin's and terminus' slots into C,
    for every row at once, and give the block B^T C B.  Complex weights are
    summed as two real counts, real and imaginary parts; a row whose
    weights are all real gives a real block."""
    (g, k), rows = basis.shape, len(weights)
    n_groups = int(group.max(initial=-1)) + 1
    pairs, pair = np.unique(group[origin] * n_groups + group[terminus], return_inverse=True)
    # the real parts of every row, then the imaginary parts of a complex one
    parts = np.concatenate([weights.real, weights.imag]) if weights.dtype.kind == "c" else weights
    cell = ((np.arange(len(parts))[:, None] * len(pairs) + pair) * g * g + slot[origin] * g + slot[terminus]).ravel()
    counts = np.bincount(cell, weights=parts.ravel(), minlength=len(parts) * len(pairs) * g * g)
    projected = basis.T @ counts.reshape(len(parts), len(pairs), g, g) @ basis
    if len(parts) > rows:
        projected = projected[:rows] + 1j * projected[rows:]
    block = np.zeros((rows, n_groups, k, n_groups, k), dtype=projected.dtype)
    block[:, pairs // n_groups, :, pairs % n_groups, :] = projected.transpose(1, 0, 2, 3)
    block = block.reshape(rows, n_groups * k, n_groups * k)
    if keep is not None:
        cols = np.flatnonzero(keep)
        block = block[:, cols][:, :, cols]
    return [b.real if real else b for b, real in zip(block, (weights.imag == 0).all(axis=1))]


def _hermitian(block: np.ndarray) -> np.ndarray:
    """(M + M^H) / 2, exactly Hermitian, for a matrix or a stack of them."""
    transposed = block.swapaxes(-1, -2)
    return (block + (transposed.conj() if block.dtype.kind == "c" else transposed)) / 2


def _powers(perm: np.ndarray, order: int) -> np.ndarray:
    """perm^0, perm^1, ..., perm^order as the rows of one array."""
    powers = np.empty((order + 1, len(perm)), dtype=np.intp)
    powers[0] = np.arange(len(perm))
    for k in range(order):
        powers[k + 1] = perm[powers[k]]
    return powers


def _has_order(powers: np.ndarray) -> bool:
    """Is the map whose `_powers` these are of exactly the order len - 1?"""
    identity = (powers == powers[0]).all(axis=1)
    return bool(identity[-1] and not identity[1:-1].any())


def _symmetries(offered, n: int, accept) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(map, image, order) for each (map, order) of offered, in order, that
    is an integer array of n entries in 0..n-1 of exactly that order,
    commutes with every map kept before it and passes the caller's own test
    accept, which returns the map it induces on the points the split acts
    on (fibers, middles or darts) or None; the image must have the same
    order and commute with the images kept before.  The kept maps generate
    a direct product of cyclic groups, so a map with a power in the group
    of those kept before, itself included, is passed over: letter
    inversion, for one, is the rotation's (q + 1) / 2-th power and adds
    nothing to it.  Every map left out only coarsens a split."""
    kept, elements = [], np.arange(n)[None]
    for perm, order in offered:
        perm = _vertex_map(perm, n)
        if perm is None:
            continue
        powers = _powers(perm, order)
        if not _has_order(powers) or any((perm[other] != other[perm]).any() for other, _, _ in kept):
            continue
        group = set(map(np.ndarray.tobytes, elements))
        if any(power.tobytes() in group for power in powers[1:-1]):
            continue
        image = accept(perm)
        if image is None or not _has_order(_powers(image, order)) or any(
                (image[other] != other[image]).any() for _, other, _ in kept):
            continue
        kept.append((perm, image, order))
        elements = powers[:-1][:, elements].reshape(-1, n)
    return kept


def _vertex_map(perm, n: int) -> np.ndarray | None:
    """perm as an integer array of n entries in 0..n-1, or None if it is
    none."""
    perm = np.asarray(perm)  # None becomes a 0-d array of the wrong shape
    if perm.shape != (n,) or perm.dtype.kind not in "iu" or not ((0 <= perm) & (perm < n)).all():
        return None
    return perm


def _offered(rotation, involutions, degree: int | None, n: int) -> list[tuple[object, int]]:
    """The maps offered to a split of a graph of n vertices, as (map,
    order): the rotation first, of the order of the graph's regular degree
    (q + 1 on a quaternionic level, where the torus acts simply
    transitively on each norm fiber), then the involutions.  The rotation
    is left out on an irregular graph and where it fails to commute with
    one of the involutions, which would make the group non-abelian; the
    split then falls back on the involutions alone."""
    rotation = None if degree is None else _vertex_map(rotation, n)
    for perm in (_vertex_map(perm, n) for perm in involutions):
        if rotation is not None and perm is not None and (rotation[perm] != perm[rotation]).any():
            rotation = None
    return ([] if rotation is None else [(rotation, degree)]) + [(perm, 2) for perm in involutions]


class _Group(NamedTuple):
    """A finite abelian group acting on the points 0..size-1, with its
    characters.  Element e and character c are mixed-radix numbers over the
    generators' orders, the first generator least significant: element e
    is the product of g_i^(a_i) for the digits a_i of e, and character c,
    with digits j_i, takes the value exp(2 pi i sum_i a_i j_i / n_i) on it."""

    characters: np.ndarray  # (|G|, |G|): characters[c, e], real when every generator is an involution
    negated: np.ndarray     # the index with every digit negated: each element's inverse, each character's conjugate
    rep: np.ndarray         # the least point of each point's orbit, which represents it
    home: np.ndarray        # an element that carries each point to its representative
    stabiliser: np.ndarray  # (|G|, size): does element e fix point x


def _elements(generators, orders, size: int) -> np.ndarray:
    """The maps of all elements of the group that commuting generators of
    the given orders generate as a direct product, in `_Group`'s order."""
    maps = np.arange(size)[None]
    for perm, order in zip(generators, orders):
        maps = _powers(perm, order - 1)[:, maps].reshape(-1, size)
    return maps


@cache
def _character_table(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(characters, negated) of `_Group` for a direct product of cyclic
    groups of the given orders, read-only.  Character values are exact at
    multiples of a quarter turn, so the characters of involutions are
    exactly +-1."""
    size = prod(orders)
    digits, rest = [], np.arange(size)
    for order in orders:
        rest, digit = np.divmod(rest, order)
        digits.append(digit)
    digits = np.array(digits, dtype=np.intp).reshape(len(orders), size)
    place = np.cumprod((1,) + orders, dtype=np.intp)[:-1, None]
    period = lcm(*orders)
    scale = np.array([period // order for order in orders], dtype=np.intp)
    phase = (digits.T * scale) @ digits % period  # phase[c, e] = sum_i j_i a_i period / n_i
    if period <= 2:
        roots = np.array([1.0, -1.0])[:period]
    else:
        turn = np.arange(period)
        roots = np.exp(2j * np.pi * turn / period)
        quarter = 4 * turn % period == 0
        roots[quarter] = np.array([1, 1j, -1, -1j])[4 * turn[quarter] // period]
    negated = (-digits % np.array(orders, dtype=np.intp).reshape(-1, 1) * place).sum(axis=0)
    table = roots[phase], negated
    for array in table:
        array.setflags(write=False)
    return table


def _orbits(generators, orders: tuple[int, ...], size: int) -> _Group:
    """The `_Group` that commuting generators of the given orders, acting on
    0..size-1 (maybe not faithfully), generate as a direct product."""
    maps = _elements(generators, orders, size)
    rep = maps.min(axis=0)
    return _Group(*_character_table(orders), rep, np.argmax(maps == rep, axis=0), maps == np.arange(size))


def _induced(perm: np.ndarray, proj: np.ndarray, size: int, target: np.ndarray | None = None) -> np.ndarray | None:
    """The map m -> target[perm[v]] for any v with proj[v] = m (target is
    proj unless given), on a surjective proj onto 0..size-1, or None when it
    depends on v."""
    target = proj if target is None else target
    image = np.empty(size, dtype=np.intp)
    image[proj] = target[perm]
    return image if (image[proj] == target[perm]).all() else None


@cache
def _grid_basis(f: int) -> tuple[np.ndarray, int]:
    """The symmetrised Helmert basis of the functions with zero row and
    column sums on an f x f grid of slots left * f + right: the f (f - 1) / 2
    columns H_k (x) H_l + H_l (x) H_k for k <= l (over 2 when k = l, else
    over sqrt 2), which the slot transpose fixes, and the (f - 1)(f - 2) / 2
    columns (H_k (x) H_l - H_l (x) H_k) / sqrt 2 for k < l, which it
    negates.  Together they span what kron(H, H) spans.  Returns both side
    by side, read-only as it is cached, and the number of even columns."""
    h = _helmert(f)
    pair = np.kron(h, h)  # column k (f - 1) + l is H_k (x) H_l
    k, l = np.divmod(np.arange((f - 1) ** 2), f - 1)
    swapped = pair[:, l * (f - 1) + k]
    upper = k <= l
    even = (pair + swapped)[:, upper] / np.where(k == l, 2.0, sqrt(2))[upper]
    basis = np.hstack([even, (pair - swapped)[:, k < l] / sqrt(2)])
    basis.setflags(write=False)
    return basis, even.shape[1]


class Split(NamedTuple):
    """A matrix that commutes with a finite abelian group, split into one
    block per character.  Only one block of each pair of complex conjugate
    characters is assembled: the other is its complex conjugate, with the
    same eigenvalues for a Hermitian matrix and the conjugate ones in
    general."""

    blocks: list[np.ndarray]  # one per self-conjugate character or conjugate pair, in character order
    twins: tuple[bool, ...]   # per block: does it stand for a second, conjugate character too
    dims: tuple[int, ...]     # the block dimension of every character, the conjugates included
    error: float              # a priori bound on the spectral norm of each block's assembly error


def _gamma(j: int) -> float:
    """Higham's gamma_j = j u / (1 - j u), here with u the machine epsilon
    2^-52, twice the unit roundoff."""
    return j * _EPS / (1 - j * _EPS)


def _split(blocks: list[np.ndarray], solved: np.ndarray, negated: np.ndarray, total: int, error: float) -> Split:
    """The `Split` of the blocks of the characters solved, those of `_Group`
    index at most their conjugate's, each assembled within error.  The
    dimensions of all the characters' blocks, the conjugates' included, must
    add up to total, the dimension of the matrix split; else RuntimeError."""
    dims = np.array([len(block) for block in blocks], dtype=np.intp)
    position = np.searchsorted(solved, np.minimum(np.arange(len(negated)), negated))
    split = Split(blocks, tuple((negated[solved] != solved).tolist()), tuple(dims[position].tolist()), error)
    if sum(split.dims) != total:
        raise RuntimeError(f"the character blocks add up to {sum(split.dims)} dimensions, not {total}")
    return split


def _character_blocks(origin: np.ndarray, terminus: np.ndarray, owner: np.ndarray, n_owners: int, slot: np.ndarray,
                      basis: np.ndarray, kept: list, transposed: np.ndarray | None = None, n_even: int = 0) -> Split:
    """The matrix that counts the arcs origin[e] -> terminus[e], on the
    functions that lie, on the points of each owner (one point per slot),
    in the span of the columns of basis read at the slots, split by the
    characters chi of the group G that the kept `_symmetries` generate,
    each a (map of the points, map of the owners, order).  Owners are
    fibers or middle words' grids, or darts with the basis [[1]].

    Each block is assembled from the arcs that leave one representative
    owner per orbit (`_orbits`): a point g u, for u of a representative,
    takes the slot of u, and an arc counts chi(g) for its terminus' g times
    sqrt(|orbit of its origin| / |orbit of its terminus|).  The stabiliser
    rule: an element s that fixes a representative acts on its slots as
    the identity or, where transposed (each point's transposed slot) is
    given, as the transpose, of sign +1 on the first n_even columns and -1
    on the others; the orbit keeps column k for chi when chi(s) is 1 for
    every identity s and sign k for every transposing s.  Where an element
    acts otherwise, the last kept map is dropped.  Characters that keep the
    same columns share one assembly, and one block is assembled per
    conjugate pair of characters (`Split`), checked by `_split`.  With no
    map kept, the whole matrix is one block, assembled with unit weights."""
    n, width = len(owner), basis.shape[1]
    if not kept:
        trivial = np.zeros(1, dtype=np.intp)  # the one character, its own conjugate
        blocks = dart_blocks(origin, terminus, owner, slot, basis, np.ones((1, len(origin))))
        return _split(blocks, trivial, trivial, n_owners * width, _assembly_error(origin, basis, 1))
    while True:
        orders = tuple(order for *_, order in kept)
        group = _orbits([image for _, image, _ in kept], orders, n_owners)
        point = _elements([perm for perm, _, _ in kept], orders, n)
        solved = np.flatnonzero(np.arange(len(point)) <= group.negated)
        characters = group.characters[solved]
        chosen = group.rep == np.arange(n_owners)
        fixing = group.stabiliser.sum(axis=0)  # per owner, the elements that fix it, 1 among them
        stabilised = chosen & (fixing > 1)
        if not stabilised.any():
            break
        fixed, points = np.flatnonzero(stabilised), np.flatnonzero(stabilised[owner])
        points = points[np.argsort(owner[points], kind="stable")].reshape(len(fixed), -1)  # a row per fixed one
        moved, stabiliser = slot[point[:, points]], group.stabiliser[:, fixed]
        identity = (moved == slot[points]).all(axis=2)
        transposing = ~identity & (False if transposed is None else (moved == transposed[points]).all(axis=2))
        if (identity | transposing | ~stabiliser).all():
            wanted = np.where(transposing[:, :, None], np.where(np.arange(width) < n_even, 1, -1), 1)
            keep = ((characters[:, :, None, None] == wanted) | ~stabiliser[:, :, None]).all(axis=1)
            break
        kept = kept[:-1]
    home = group.home[owner]
    slot = slot[point[home, np.arange(n)]]  # the slot of the point's image in a representative
    leaving = np.flatnonzero(chosen[owner[origin]])
    origin, terminus = origin[leaving], terminus[leaving]
    size = len(point) // fixing  # orbit sizes
    weights = np.sqrt(size[owner[origin]] / size[owner[terminus]]) * characters[:, group.negated[home[terminus]]]
    rank = np.cumsum(chosen) - 1  # each representative's orbit
    orbit = rank[group.rep[owner]]
    if not stabilised.any():  # every orbit keeps every column for every character
        blocks = dart_blocks(origin, terminus, orbit, slot, basis, weights)
    else:
        pattern, todo, blocks = keep.reshape(len(solved), -1), np.ones(len(solved), dtype=bool), [None] * len(solved)
        while todo.any():
            these = np.flatnonzero(todo & (pattern == pattern[np.argmax(todo)]).all(axis=1))
            todo[these] = False
            mask = np.ones((np.count_nonzero(chosen), width), dtype=bool)
            mask[rank[fixed]] = keep[these[0]]
            used = mask.any(axis=0)
            built = dart_blocks(origin, terminus, orbit, slot, basis[:, used], weights[these], mask[:, used].ravel())
            for c, block in zip(these, built):
                blocks[c] = block
    error = _assembly_error(origin, basis, int(fixing.max(initial=1)))
    return _split(blocks, solved, group.negated, n_owners * width, error)


def _assembly_error(origin: np.ndarray, basis: np.ndarray, stabiliser: int) -> float:
    """The a priori bound 2 gamma_(k + 2 g + 16) g k sqrt(s) on the spectral
    norm of the error of a block that `dart_blocks` assembles from arcs
    leaving origin, at most k from a point, with a basis of g rows, where s
    is the largest stabiliser of an owner (the module docstring derives it)."""
    g = basis.shape[0]
    k = int(np.bincount(origin).max(initial=0))
    return 2 * _gamma(k + 2 * g + 16) * g * k * sqrt(stabiliser)


def _moves_owners(graph: UGraph, ways: tuple[np.ndarray, ...], n_lower: int, owner: np.ndarray, n_owners: int):
    """The caller's test of `_symmetries` on a tower level: is perm an
    automorphism that sends the fibers of each projection in ways (into
    the n_lower vertices below) onto fibers of one of them, and the owners
    (fibers or middles) of the vertices onto owners, moving every one?
    Returns the map it induces on the owners, or None."""
    def accept(perm: np.ndarray) -> np.ndarray | None:
        if any(all(_induced(perm, proj, n_lower, target) is None for target in ways) for proj in ways):
            return None
        moved = _induced(perm, owner, n_owners)
        if moved is None or (moved == np.arange(n_owners)).any() or not is_automorphism(graph, perm):
            return None
        return moved

    return accept


def _fiber_blocks(level: TowerLevel, n_lower: int, f: int) -> Split:
    """The new block of the drop-first cover of a tower level: A on the
    functions that sum to zero on every fiber of parent, one Helmert block
    per fiber of f vertices, split by the rotation where `_symmetries`
    keeps it as an automorphism that sends fibers onto fibers and moves
    every fiber.  On level 2 the q + 1 fibers over A_1 form one free orbit
    of the rotation; level 1 has one fiber, which it fixes, and stays
    whole."""
    graph, parent, n = level.graph, level.parent, level.graph.n_vertices()
    accept = _moves_owners(graph, (parent,), n_lower, parent, n_lower)
    kept = _symmetries(_offered(level.rotation, (), graph.regular_degree(), n), n, accept)
    return _character_blocks(graph.origin, graph.terminus, parent, n_lower, _fiber_slots(parent, f), _helmert(f), kept)


def _grid_blocks(level: TowerLevel, lower: TowerLevel, n_middles: int) -> Split:
    """The doubly-new block of a tower level n >= 3, whole or split by the
    characters of the group that the rotation, inversion and reversal
    generate.

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

    `_symmetries` keeps those of the offered maps (`_offered`: the rotation
    u, then inversion iota and reversal rho) that are automorphisms
    sending the fibers of each projection onto fibers of one of them (so
    grids to grids) and moving every middle.  On a quaternionic level that
    is u, of order q + 1, and rho: iota = u^((q + 1) / 2) adds nothing.
    Only r = iota rho fixes middles, the palindromic ones, and acts on
    their grids as the slot transpose (`_character_blocks`).  The block
    splits into one block per character chi of G = <u> x <rho>, with
    chi(r) = (-1)^j chi(rho) for chi(u) = exp(2 pi i j / (q + 1)): 2 (q + 1)
    blocks of about D / (2 (q + 1)), one solved per conjugate pair.  With
    the rotation refused, G is at most the Klein group {1, iota, rho, r}:
    four blocks in the order (+, +), (-, +), (+, -), (-, -) of (chi(iota),
    chi(rho)), two halves for one symmetry, or the whole block for none."""
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
    offered = _offered(level.rotation, (level.inversion, level.reversal), graph.regular_degree(), len(slot))
    kept = _symmetries(offered, len(slot), _moves_owners(graph, (parent, last), n_lower, middle, n_middles))
    basis, n_even = _grid_basis(f)
    return _character_blocks(graph.origin, graph.terminus, middle, n_middles, slot, basis, kept,
                             slot % f * f + slot // f, n_even)


class TowerSpectrum(NamedTuple):
    graph: UGraph
    eigenvalues: np.ndarray  # descending
    blocks: tuple[int, ...]  # this level's block dimension per character (`Split.dims`), conjugates included
    certified: bool          # every eigenvalue but the rose's is proved within the bound plus tol, here and below


def _shift(n: int, size: np.ndarray, beta: float, error: float) -> np.ndarray:
    """The shift c of a certificate for blocks of n rows whose largest
    entries are size, assembled within error (module docstring)."""
    gamma = _gamma(2 * n + 4)
    return 2 * (gamma / (1 - gamma) * n * (beta + size) + error)


def _factorises(shifted: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per block H of the stack, does a float Cholesky factorisation of
    shifted I - H and of shifted I + H succeed?  All of them are factorised
    in one call, and block by block only when that fails."""
    m, n = len(stack), stack.shape[-1]
    both = np.concatenate([-stack, stack]).reshape(2 * m, n * n)
    both[:, ::n + 1] += np.concatenate([shifted, shifted])[:, None]  # the diagonals
    try:
        np.linalg.cholesky(both.reshape(2 * m, n, n))
    except np.linalg.LinAlgError:
        if m == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_factorises(shifted[i:i + 1], stack[i:i + 1]) for i in range(m)])
    return np.ones(m, dtype=bool)


def _block_spectra(blocks: list[np.ndarray], beta: float, error: float) -> tuple[list[np.ndarray], bool]:
    """The descending spectrum of the Hermitian part of each block,
    assembled within error, and whether every block is certified to have
    its spectrum in [-beta, beta].

    Blocks of one dimension and dtype are solved as one stack: one
    `eigvalsh`, each block's eigenvalues checked by the trace identity, and
    the Cholesky factorisations of (beta - c) I -+ H (module docstring).
    A block that is not certified is solved again by `eig_symmetric`, with
    its residual and trace checks, and its spectrum is that one."""
    spectra, certified, groups = [None] * len(blocks), True, {}
    for i, block in enumerate(blocks):
        groups.setdefault((len(block), block.dtype), []).append(i)
    with _one_blas_thread():
        for (n, _), members in groups.items():
            stack = _hermitian(np.stack([blocks[i] for i in members]))
            eigs = np.linalg.eigvalsh(stack)  # ascending
            flat = stack.reshape(len(members), n * n)
            size = np.abs(flat).max(axis=1, initial=0)
            if (np.abs(eigs.sum(axis=1) - flat[:, ::n + 1].sum(axis=1).real)
                    > EIG_RESIDUAL_TOL * np.maximum(1.0, size * n)).any():
                raise RuntimeError("eigensolver failed the trace identity")
            passed = _factorises(beta - _shift(n, size, beta, error), stack)
            for i, values, ok, block in zip(members, eigs, passed, stack):
                spectra[i] = values[::-1] if ok else eig_symmetric(block)
            certified = certified and bool(passed.all())
    return spectra, certified


def tower_spectra(levels: Iterator[TowerLevel], tol: float = 1e-8) -> Iterator[TowerSpectrum]:
    """(graph, spectrum, block dimensions, certified) for every level after
    the first of a covering tower, such as `graphs.level_tower`: the rose,
    then each level with its drop-first and drop-last parents into the one
    before and an optional inversion, reversal and rotation.  Both parents
    are checked as coverings with equal fibers (`graphs.cover_fiber`) on
    every level.

    The rose, one vertex with k loop darts, contributes the trivial
    eigenvalue k exactly.  Levels 1 and 2 eigensolve the new block of the
    drop-first cover, M = Q^T A Q of dimension N_n - N_{n-1}, for Q with
    one Helmert block per fiber of the size that the covering check
    counted: whole on level 1, and on level 2 split by the rotation where
    it checks out (`_fiber_blocks`).  From level 3 on, spec A_n is
    spec A_{n-1}, the previous level's new spectrum and the spectrum of the
    doubly-new block (`_grid_blocks`, dimension N_{n-2} (f - 1)^2 for
    fibers of f), which alone is solved: in one block per character of the
    group that the rotation and reversal generate, of about
    D / (2 (q + 1)), when they check out, else in the Klein quarters,
    halves or whole.  One block of each pair of conjugate characters is
    eigensolved, and its eigenvalues count for both.  Every solved block
    goes through `_block_spectra` with beta = 2 sqrt(k - 1) + tol: a level
    is certified when every block solved on it and on the levels below it
    is.  Spectra are descending, and each level is capped like a dense
    eigensolve of its vertices."""
    lower = next(levels)
    if lower.graph.n_vertices() != 1:
        raise ValueError("a covering tower starts at a one-vertex rose")
    k = lower.graph.n_darts()
    eigs, new, certified = np.array([float(k)]), np.empty(0), True
    beta = 2.0 * sqrt(max(k - 1, 0)) + tol
    below = None  # the graph two levels down
    for n, level in enumerate(levels, 1):
        graph = level.graph
        check_dense_cap(graph.n_vertices())
        f = cover_fiber(graph, lower.graph, level.parent)
        cover_fiber(graph, lower.graph, level.last_parent)
        if n < 3:  # the new spectrum is the new block's alone
            split, new = _fiber_blocks(level, lower.graph.n_vertices(), f), np.empty(0)
        else:
            split = _grid_blocks(level, lower, below.n_vertices())
        solved, passed = _block_spectra(split.blocks, beta, split.error)
        certified = certified and passed
        new = np.concatenate([new, *solved, *(eig for eig, twin in zip(solved, split.twins) if twin)])
        eigs = np.sort(np.concatenate([eigs, new]))[::-1]
        yield TowerSpectrum(graph, eigs, split.dims, certified)
        below, lower = lower.graph, level


@dataclass
class SpectralReport:
    degree: int                 # d + 1 for undirected reports
    n_vertices: int
    eigenvalues: np.ndarray     # sorted descending
    second_modulus: float       # max |lambda| over the nontrivial spectrum
    bound: float                # 2 sqrt(d)
    margin: float               # bound - second_modulus
    ramanujan: bool             # structure.connected and second_modulus <= bound + tol
    bipartite: bool             # structure.bipartite: -(d+1) is the last eigenvalue
    structure: StructureReport
    certificate: str = "float"  # "certified" (`tower_spectra` proved it) or "float" (second <= bound + tol)

    def __repr__(self) -> str:
        verdict = "ramanujan" if self.ramanujan else "NOT ramanujan"
        return (
            f"SpectralReport({self.degree}-regular, {self.n_vertices} vertices, "
            f"max nontrivial |l| = {self.second_modulus:.6f} vs {self.bound:.6f}, {verdict})"
        )


def ramanujan_check(graph: UGraph, tol: float = 1e-8, eigenvalues: np.ndarray | None = None,
                    certified: bool = False) -> SpectralReport:
    """Is a (d+1)-regular graph Ramanujan: connected, and every eigenvalue
    either +-(d+1) or of modulus at most 2 sqrt(d) (within tol)?

    The size cap is checked before any work; connectivity, regularity and
    bipartiteness come exactly from one `structure_predicates` pass, and
    they place the trivial eigenvalues in the descending spectrum: d+1 is
    first, and simple when the graph is connected, and -(d+1) is last
    exactly when it is bipartite.  The nontrivial spectrum is the slice
    between them, and tol enters only the verdict connected and second <=
    bound + tol.  A disconnected graph is no Ramanujan graph: its verdict
    fails, even at d = 1, where the bound 2 equals the degree, so two
    disjoint cycles would otherwise pass.

    The spectrum is `eig_symmetric` of the adjacency, unless the graph is a
    level of a covering tower whose descending spectrum `tower_spectra` has
    already merged from its new blocks: then that is `eigenvalues`, and
    its first entry is the rose's exact d+1.  When `tower_spectra` also
    certified the level at this tol, the verdict is labelled "certified"
    (its nontrivial eigenvalues are proved within bound + tol), and where
    beta = 2 sqrt(d) + tol < d + 1 the structure is read from the
    certificate instead of a search: every eigenvalue but the rose's lies
    in [-beta, beta], so d+1 is simple (the graph is connected) and -(d+1)
    is none (it is not bipartite).
    """
    check_dense_cap(graph.n_vertices())
    k = graph.regular_degree() if certified else None
    if k is not None and k >= 1 and 2.0 * sqrt(k - 1) + tol < k:
        structure = StructureReport(connected=True, bipartite=False, regular_degree=k)
    else:
        structure = structure_predicates(graph)
    if structure.regular_degree is None:
        raise ValueError("ramanujan_check needs a regular graph")
    k = structure.regular_degree  # k = d + 1
    if k < 1:
        raise ValueError(f"ramanujan_check needs a regular degree of at least 1, not {k}")
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
        ramanujan=bool(structure.connected and second <= bound + tol),
        bipartite=structure.bipartite,
        structure=structure,
        certificate="certified" if certified else "float",
    )


def nontrivial_spectrum(eigs: np.ndarray, bipartite: bool) -> np.ndarray:
    """The descending spectrum of a connected regular graph without its
    trivial eigenvalues: the first, and the last when it is bipartite."""
    return eigs[1:len(eigs) - bipartite]


# ---------------------------------------------------------------------------
# Bass-Ihara transfer


def bass_ihara_pairs(spectrum, d: int) -> np.ndarray:
    """Transfer a base spectrum to the non-backtracking spectrum: each
    lambda contributes both roots of x^2 - lambda x + d, in turn, and the
    trailing +-1 close the array.  This is a set description;
    multiplicities are not tracked."""
    if d < 1:
        raise ValueError("need d >= 1")
    lam = np.asarray(spectrum).real.astype(np.float64)
    root = np.sqrt((lam * lam - 4 * d).astype(complex))
    out = np.empty(2 * len(lam) + 2, dtype=complex)
    out[0:-2:2], out[1:-2:2], out[-2:] = (lam + root) / 2, (lam - root) / 2, (1, -1)
    return out


def check_dart_cap(n_darts: int) -> None:
    """Refuse a direct dart spectrum of more than DENSE_EIG_LIMIT darts."""
    if n_darts > DENSE_EIG_LIMIT:
        raise SizeCapExceeded(
            f"direct dart spectrum capped at {DENSE_EIG_LIMIT}; use bass_ihara_pairs instead"
        )


def nb_spectrum_direct(h: np.ndarray) -> np.ndarray:
    """Dense nonsymmetric eigensolve of a dart adjacency h, the array
    `graphs.nb_matrix` returns; eigenvalues may be complex.  Only for small
    instances; above DENSE_EIG_LIMIT darts use bass_ihara_pairs.

    No command reads it.  It stays as the tests' reference for `nb_spectrum`,
    and `benchmarks/tracing.TARGETS` wraps it by name (deleting it fails
    `benchmarks/test_benchmark.py::test_traced_pass_accounts_for_its_wall_time`)."""
    check_dart_cap(len(h))
    with _one_blas_thread():
        return np.linalg.eigvals(h.astype(np.float64))


def nb_blocks(graph: UGraph, symmetries=(), rotation=None) -> Split:
    """The non-backtracking matrix H of a regular graph, split into one
    block per character chi of the group G generated by the dart maps
    (`graphs.dart_map`) of the vertex permutations offered (`_offered`: the
    rotation, of the order of the degree, then the involutions in
    symmetries) that `_symmetries` keeps as automorphisms, in the order of
    `_orbits`' characters: the whole H as one block when none is kept.  On
    a quaternionic level that is the group of the rotation and the
    reversal, of order 2 (q + 1), and at most the Klein group of inversion
    and reversal without the rotation.

    H commutes with G, so the image V_chi of the projector sum_g chi(g) P_g
    is invariant (Serre, Linear Representations of Finite Groups, 2.6),
    and spec H is the union of the spectra of H on the V_chi.  The split is
    `_character_blocks` over the arcs, each dart its own owner with one
    slot and the basis [[1]]: a dart that an element fixes keeps its one
    column for the characters with chi = 1 on its stabiliser, the
    stabiliser rule for an element that acts as the identity, and the
    blocks are similar to those of the projection formula by the diagonal
    of orbit sizes.  The block dimensions of all the characters must add
    up to the number of darts, and the trace of each solved block must be
    (1 / |G|) sum_g chi(g) times the number of arcs e -> g e, which counts
    over all the arcs; else RuntimeError."""
    e, f, d = nb_arcs(graph)

    def lifts(perm: np.ndarray) -> np.ndarray | None:
        return dart_map(graph, perm) if is_automorphism(graph, perm) else None

    vertices, darts = graph.n_vertices(), graph.n_darts()
    sigmas = [(sigma, sigma, order) for _, sigma, order in
              _symmetries(_offered(rotation, symmetries, d + 1, vertices), vertices, lifts)]
    split = _character_blocks(e, f, np.arange(darts), darts, np.zeros(darts, dtype=np.intp), np.ones((1, 1)), sigmas)
    orders = tuple(order for *_, order in sigmas)
    characters, negated = _character_table(orders)
    maps = _elements([sigma for sigma, *_ in sigmas], orders, darts)
    expected = characters[np.arange(len(maps)) <= negated] @ (maps[:, e] == f).sum(axis=1) / len(maps)
    if any(abs(np.trace(block) - trace) > 1e-9 * max(1.0, darts) for block, trace in zip(split.blocks, expected)):
        raise RuntimeError("a character block failed its trace identity")
    return split


def nb_spectrum(graph: UGraph, symmetries=(), rotation=None) -> tuple[np.ndarray, tuple[int, ...]]:
    """The non-backtracking spectrum of a regular graph of at most
    DENSE_EIG_LIMIT darts, solved block by block (`nb_blocks`), and the
    block dimension of every character.  Each solved block's eigenvalues
    must sum to its trace; those of a block that stands for a conjugate
    pair of characters count again, conjugated, for the other."""
    check_dart_cap(graph.n_darts())
    split = nb_blocks(graph, symmetries, rotation)
    with _one_blas_thread():
        spectra = [np.linalg.eigvals(block) for block in split.blocks]
    for block, eigs in zip(split.blocks, spectra):
        scale = max(1.0, float(np.abs(block).max(initial=0)) * len(block))
        if abs(eigs.sum() - np.trace(block)) > EIG_RESIDUAL_TOL * scale:
            raise RuntimeError("eigensolver failed the trace identity")
    twins = [eigs.conj() for eigs, twin in zip(spectra, split.twins) if twin]
    return np.concatenate([np.empty(0, dtype=complex), *spectra, *twins]), split.dims


_BROADCAST_CELLS = 1 << 17  # entries of one block of pairwise distances


def max_min_dist(xs: np.ndarray, ys: np.ndarray) -> float:
    """max over x in xs of min over y in ys of |y - x|, over pairwise
    distances in row blocks of at most _BROADCAST_CELLS entries."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    step = max(1, _BROADCAST_CELLS // max(1, len(ys)))
    return max(float(np.abs(ys - xs[i:i + step, None]).min(axis=1).max()) for i in range(0, len(xs), step))


def modulus_defect(direct: np.ndarray, d: int) -> float:
    """How far the moduli of a dart spectrum sit from {1, sqrt(d)}, leaving
    out those within 1e-6 of d (the Perron value d, and -d for a bipartite
    graph).  The moduli are hypot(re, im), as the scalar abs computes
    them (numpy's vectorised complex abs may differ in the last bit)."""
    direct = np.asarray(direct)
    mod = np.hypot(direct.real, direct.imag)
    defect = np.minimum(np.abs(mod - 1.0), np.abs(mod - sqrt(d)))
    return float(defect[~(np.abs(mod - d) <= 1e-6)].max(initial=0.0))


@dataclass
class TransferReport:
    n_darts: int
    d: int
    max_dist_direct_to_transfer: float
    max_dist_transfer_to_direct: float
    max_modulus_defect: float  # nontrivial moduli vs {1, sqrt(d)}
    blocks: tuple[int, ...]  # the dart block dimension of every character, conjugates included

    def agrees(self, tol: float = 1e-6) -> bool:
        return (
            self.max_dist_direct_to_transfer <= tol
            and self.max_dist_transfer_to_direct <= tol
        )


def nb_transfer_report(graph: UGraph, symmetries=(), rotation=None) -> TransferReport:
    """Compare the directly computed dart spectrum of a regular graph with
    the Bass-Ihara transfer of its adjacency spectrum (set inclusion both
    ways), and measure how far nontrivial dart moduli sit from {1, sqrt(d)}.
    The dart spectrum is `nb_spectrum`'s, split by the vertex symmetries
    given (a level's inversion and reversal, and its rotation), which
    checks the dart count against the cap before anything is built."""
    direct, blocks = nb_spectrum(graph, symmetries, rotation)
    d = graph.regular_degree() - 1
    transfer = bass_ihara_pairs(eig_symmetric(graph.adjacency()), d)
    return TransferReport(
        n_darts=graph.n_darts(),
        d=d,
        max_dist_direct_to_transfer=max_min_dist(direct, transfer),
        max_dist_transfer_to_direct=max_min_dist(transfer, direct),
        max_modulus_defect=modulus_defect(direct, d),
        blocks=blocks,
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
    with _one_blas_thread():
        return float(np.abs(np.linalg.eigvals(centered)).max())


# ---------------------------------------------------------------------------
# exact walks and deviation tables


def check_exact_cap(m: int, d: int = 0) -> None:
    """Refuse exact walks on m vertices of in-degree d unless m^2 int64
    entries (the most a graph's held power rows reach) and one row's
    (1, m, d) gather fit in EXACT_BYTES.  A graph of 0/1 arcs has d <= m,
    so for it m alone decides."""
    if 8 * m * max(m, d) > EXACT_BYTES:
        raise SizeCapExceeded(f"exact walk counts capped at {EXACT_BYTES} bytes")


def arc_predecessors(tail: np.ndarray, head: np.ndarray, m: int) -> np.ndarray:
    """The (m, d) predecessor array of the arcs tail -> head of a d-regular
    graph on m vertices, d >= 1: row j lists the tail of every arc into j,
    in increasing order, once per arc (multigraphs work)."""
    out_deg = np.bincount(tail, minlength=m)
    in_deg = np.bincount(head, minlength=m)
    if m == 0 or not (out_deg[0] > 0 and (out_deg == out_deg[0]).all() and (in_deg == out_deg[0]).all()):
        raise ValueError("exact walk counts need a d-regular nonnegative matrix, d >= 1")
    d = int(out_deg[0])
    check_exact_cap(m, d)
    return tail[np.lexsort((tail, head))].reshape(m, d)


def walks(preds: np.ndarray, start, n: int):
    """Yield start, start A, ..., start A^n exactly for the graph of the
    (m, d) predecessor array `preds`.

    `start` is a length-m integer vector or a (rows, m) block; a start that
    is not integer (floats included) is refused, not truncated.  One step
    gathers the block at each column of `preds` and adds the d gathers:
    rows m d additions instead of rows m^2 multiplications.  Block j is
    int64 while max|start| d^j < 2^63: a column of A sums d predecessor
    entries, each at most max|start| d^(j-1) in modulus, so every entry and
    every partial sum stays within the bound.  From the first step that could pass it, the
    block holds Python ints in a numpy object array.  Both dtypes step
    through the same gather-sum."""
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
        step = block[..., preds[:, 0]]
        for column in preds.T[1:]:
            step += block[..., column]
        block = step
        yield block


def matrix_power_int(a, n: int) -> list[list[int]]:
    """A^n over the integers (exact), for any square integer matrix.

    No command reads it.  It stays as the tests' reference for `walks`,
    and `benchmarks/tracing.TARGETS` wraps it by name (deleting it fails
    `benchmarks/test_benchmark.py::test_traced_pass_accounts_for_its_wall_time`)."""
    if n < 0:
        raise ValueError("need n >= 0")
    return np.linalg.matrix_power(np.asarray(a).astype(object), n).tolist()


def deviation_table(preds: np.ndarray, n_max: int) -> list[Fraction]:
    """max_ij | A^n_ij / d^n - 1/m | for n = 1..n_max, as exact rationals,
    for the (m, d) predecessor array of a d-regular graph
    (`arc_predecessors`): the sup-norm distance between the n-step
    normalized transition matrix and the flat matrix J/m, which controls
    the correlation decay of the vertex shift.  The identity is walked in
    row chunks whose steps gather (rows, m, d) entries, a sixteenth of
    EXACT_BYTES, and only each step's largest and smallest entry is kept.
    An array in which some vertex is not a predecessor d times, a dense
    adjacency for one, is refused."""
    m, d = np.shape(preds)
    tallies = np.bincount(np.ravel(preds), minlength=m)
    if len(tallies) != m or (tallies != d).any():
        raise ValueError("deviation_table needs the (m, d) predecessor array of a d-regular graph")
    rows = max(1, EXACT_BYTES // (16 * 8 * m * d))
    top, low = [0] * (n_max + 1), [d**n for n in range(n_max + 1)]
    for first in range(0, m, rows):
        chunk = np.arange(first, min(first + rows, m))
        start = np.zeros((len(chunk), m), dtype=np.int64)
        start[np.arange(len(chunk)), chunk] = 1
        for n, block in enumerate(walks(preds, start, n_max)):
            top[n] = max(top[n], int(block.max()))
            low[n] = min(low[n], int(block.min()))
    # every row of A^n sums to d^n, and |x/d^n - 1/m| = |x m - d^n| / (m d^n)
    # is largest at the largest or the smallest entry; all in Python ints,
    # since an int64 block bounds its entries, not m times them
    return [Fraction(max(t * m - d**n, d**n - lo * m), m * d**n) for n, (t, lo) in enumerate(zip(top, low))][1:]


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
        "certificate": report.certificate,
    }
