"""Matrix subshifts in two dimensions: regularity and consistency
checks, unique extendability, transition graphs, pattern enumeration, the
nearest-neighbor shift of a VH-datum, exact cylinder measures, and
correlation-decay tables.

Pattern conventions
-------------------
A pattern of shape (m, n) is stored column-major: a tuple of m columns, each
column a tuple of n symbol indices read bottom to top.  The anchor is the
lower-left cell; the horizontal shift moves content toward negative x, so
"D at offset n" means D's support starts n cells to the right of C's anchor.
A pattern is admissible when every horizontal nearest-neighbor pair (s, s')
has A[s, s'] = 1 and every vertical pair (stacked upward) has B[s, s'] = 1.

The shift of a datum
--------------------
For a datum D the alphabet is the relation set R (one symbol per tile) and

    A[t, t'] = 1  iff  d = a' and c' != c^-1   (t' to the right of t)
    B[t, t'] = 1  iff  b = c' and a' != a^-1   (t' above t)

which forbids consecutive mutually inverse side colors.  For a (d,d)-datum
this shift is (2d-1)-regular and uniquely extendable.  Dropping the two
non-backtracking clauses gives the full Wang shift of the tileset.

Strips are the words of one matrix (`chains`).  Strip q may follow strip p
when the other matrix allows p[r] -> q[r] on every row r.  `_strip_arcs`
builds those pairs as arc arrays, one row at a time from the arcs of the
strips one row lower, never as a strips-by-strips matrix; they are the
strip transition graph, and the (m, n) patterns are its length-m words over
the height-n columns.
"""

from __future__ import annotations

import operator
import sys
import warnings
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import sqrt

import numpy as np

from .spectral import (
    SizeCapExceeded,
    arc_predecessors,
    check_exact_cap,
    deviation_table,
    walks,
)
from .vhdatum import VHDatum

Pattern = tuple[tuple[int, ...], ...]  # columns, bottom-to-top within a column


@dataclass
class MatrixSubshift:
    """A pair of 0/1 transition matrices over a common alphabet; A rules
    horizontal transitions, B vertical ones.

    The matrices are checked and the regularity report is computed once,
    here; every consumer reads `report`, so the matrices must not be
    changed after construction.  For the same reason the shift holds each
    strip graph it is asked for, once per (direction, k): `strip_graph`
    checks the strip count against the exact byte bound, builds the graph
    with `transition_graph` and keeps it, with its pattern index,
    predecessor array and held power rows once they are first read.  The
    graph depends on A, B, the direction and k alone, and its arcs are
    read-only, so every later request gets the graph a fresh build would
    give.  Each held graph of dimension m keeps at most one m x m power
    (see `TransitionGraph.power_row`), so the rows `correlation` reads cost
    at most m^2 entries per strip graph, and `spectral.EXACT_BYTES` admits
    only an m whose m^2 int64 entries fit in it."""

    symbols: list[str]
    A: np.ndarray
    B: np.ndarray
    report: RegularityReport = field(init=False, repr=False, compare=False)
    _strips: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.int64)
        self.B = np.asarray(self.B, dtype=np.int64)
        s = len(self.symbols)
        for name, mat in (("A", self.A), ("B", self.B)):
            if mat.shape != (s, s):
                raise ValueError(f"{name} must be {s}x{s}")
            if not ((mat == 0) | (mat == 1)).all():
                raise ValueError(f"{name} must be a 0/1 matrix")
            if (mat.sum(axis=1) == 0).any() or (mat.sum(axis=0) == 0).any():
                raise ValueError(f"{name} has a zero row or column")
        self.report = regularity_report(self)

    @property
    def s(self) -> int:
        return len(self.symbols)

    def strip_graph(self, direction: str, k: int) -> TransitionGraph:
        """The height-k strip graph in `direction`, built on the first
        request only; see the class docstring."""
        key = (direction, k)
        if key not in self._strips:
            _check_strip_dimension(self, direction, k)
            self._strips[key] = transition_graph(self, direction, k)
        return self._strips[key]

    def __repr__(self) -> str:
        return f"MatrixSubshift({self.s} symbols, Z^2)"


def tile_label(datum: VHDatum, t: tuple[int, int, int, int]) -> str:
    a, b, c, d = t
    return f"({datum.V[a]}|{datum.H[b]}|{datum.H[c]}|{datum.V[d]})"


def build_xd(datum: VHDatum) -> MatrixSubshift:
    """The nearest-neighbor shift of a datum over the tile alphabet R,
    with backtracking (consecutive inverse colors) forbidden."""
    # row t, column t': A needs d = a' and c' != c^-1, B needs b = c' and a' != a^-1
    a, b, c, d = datum.R.T
    a_mat = (d[:, None] == a[None, :]) & (c[None, :] != np.array(datum.inv_H)[c][:, None])
    b_mat = (b[:, None] == c[None, :]) & (a[None, :] != np.array(datum.inv_V)[a][:, None])
    return MatrixSubshift([tile_label(datum, t) for t in datum.R.tolist()], a_mat, b_mat)


# ---------------------------------------------------------------------------
# regularity / consistency / extendability


@dataclass
class RegularityReport:
    n_symbols: int
    degree: int | None          # common row/column sum of A and B, if any
    consistent: bool            # supp(AB) = supp(BA) and supp(AB^T) = supp(B^T A)
    products_01: bool           # AB and AB^T have entries in {0, 1}
    commute_exactly: bool       # AB = BA and AB^T = B^T A as matrices
    uniquely_extendable: bool

    def __repr__(self) -> str:
        return (
            f"RegularityReport(degree={self.degree}, consistent={self.consistent}, "
            f"uniquely_extendable={self.uniquely_extendable})"
        )


def regularity_report(shift: MatrixSubshift) -> RegularityReport:
    """Row/column regularity plus the consistency and unique-extendability
    matrix criteria.  Consistency (positive commutation with B and B^T) is
    equivalent to extendability of the shift; 0/1 products pin it down to
    unique extendability, in which case the products commute exactly."""
    a, b = shift.A, shift.B
    degree = None
    sums = [a.sum(axis=1), a.sum(axis=0), b.sum(axis=1), b.sum(axis=0)]
    if all((s == sums[0][0]).all() for s in sums):
        degree = int(sums[0][0])
    ab, ba = _product01(a, b), _product01(b, a)
    abt, bta = _product01(a, b.T), _product01(b.T, a)
    consistent = bool(((ab > 0) == (ba > 0)).all() and ((abt > 0) == (bta > 0)).all())
    products_01 = bool((ab <= 1).all() and (abt <= 1).all())
    commute = bool((ab == ba).all() and (abt == bta).all())
    return RegularityReport(
        n_symbols=shift.s,
        degree=degree,
        consistent=consistent,
        products_01=products_01,
        commute_exactly=commute,
        uniquely_extendable=consistent and products_01 and commute,
    )


def _product01(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for 0/1 matrices without int64 `@`, which has no BLAS: row i
    sums the rows of y at row i's nonzeros, in one gather from y with a
    zero row appended to pad the shorter rows.  An entry sums at most
    x.shape[1] ones, so the smallest unsigned dtype holding that number
    holds every entry."""
    rows, cols = np.nonzero(x)
    width = np.bincount(rows, minlength=len(x))
    picks = np.full((len(x), width.max(initial=0)), len(y))
    picks[rows, np.arange(len(rows)) - np.repeat(np.cumsum(width) - width, width)] = cols
    dtype = np.min_scalar_type(x.shape[1])
    padded = np.vstack([y, np.zeros(y.shape[1], dtype=y.dtype)]).astype(dtype)
    return padded[picks].sum(axis=1, dtype=dtype)


# ---------------------------------------------------------------------------
# chains, patterns, transition graphs


def chains(mat: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """Admissible words of length k for one transition matrix, in
    lexicographic order."""
    if k < 1:
        raise ValueError("need k >= 1")
    words = np.arange(len(mat))[:, None]
    for _ in range(k - 1):
        # row-major nonzeros keep the words in lexicographic order
        prefix, last = np.nonzero(mat[words[:, -1]])
        words = np.column_stack([words[prefix], last])
    return list(map(tuple, words.tolist()))


def _strip_arcs(along: np.ndarray, across: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, tail, head): the length-k words of `across` in the order of
    `chains`, as a (N, k) array, and the arcs tail -> head between them,
    sorted, where along[p[r], q[r]] = 1 on every row r (strip q may follow
    strip p).  Each row is added to the arcs of the strips one row lower:
    (p, x) -> (q, y) is an arc when p -> q is and along[x, y] = 1, so the
    work is a few gathers of (arcs, s) booleans per row, never N^2."""
    along, across = np.asarray(along, dtype=bool), np.asarray(across, dtype=bool)
    rank = np.cumsum(across, axis=1) - 1  # rank[a, x]: x among a's successors
    words = np.arange(len(across))[:, None]
    tail, head = np.nonzero(along)
    for _ in range(k - 1):
        last = words[:, -1]
        succ = across[last]
        # the extensions of word w are numbered from first[w] on, as `chains` orders them
        n_ext = succ.sum(axis=1)
        first = np.cumsum(n_ext) - n_ext
        arc, x = np.nonzero(succ[tail])
        ext, y = np.nonzero(succ[head[arc]] & along[x])
        p, q, x = tail[arc[ext]], head[arc[ext]], x[ext]
        tail, head = first[p] + rank[last[p], x], first[q] + rank[last[q], y]
        prefix, sym = np.nonzero(succ)
        words = np.column_stack([words[prefix], sym])
    order = np.lexsort((head, tail))
    return words, tail[order], head[order]


def _strip_matrices(shift: MatrixSubshift, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """(along, across) for strips moving in `direction`: strips are words of
    `across`, and neighbors are related row by row through `along`."""
    if direction == "horizontal":
        return shift.A, shift.B
    if direction == "vertical":
        return shift.B, shift.A
    raise ValueError("direction must be 'horizontal' or 'vertical'")


def _check_strip_dimension(shift: MatrixSubshift, direction: str, k: int) -> None:
    """Refuse a height-k strip graph above the exact byte bound before it
    is built (`check_exact_cap`; a strip graph's degree is at most s, and s
    is at most its strip count).  The strips are the length-k words of
    `across`; their number never falls as k grows (no row is zero), so the
    count stops at the first length past the bound."""
    across = _strip_matrices(shift, direction)[1]
    ends = np.ones(len(across), dtype=np.int64)  # words ending in each symbol
    for _ in range(k - 1):
        check_exact_cap(int(ends.sum()))
        ends = ends @ across
    check_exact_cap(int(ends.sum()))


@dataclass
class TransitionGraph:
    """Directed transition graph on strip patterns: for direction
    "horizontal" the vertices are height-k columns and an edge means the
    right neighbor is admissible; for "vertical" the vertices are width-k
    rows and an edge means the upper neighbor is admissible.

    The graph is its arcs tail -> head, read-only arrays sorted by
    (tail, head), so the pattern index and the predecessor array derived
    from them are computed once, when first read; no dense m x m matrix is
    ever built.  The rows of one power of the transition matrix are held as
    well (`power_row`): at most m rows of m exact entries, for the last
    step count asked."""

    direction: str
    k: int
    patterns: list[tuple[int, ...]]
    tail: np.ndarray
    head: np.ndarray
    _rows: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _row_steps: int | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.tail.setflags(write=False)
        self.head.setflags(write=False)

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {p: i for i, p in enumerate(self.patterns)}

    @cached_property
    def preds(self) -> np.ndarray:
        """`spectral.arc_predecessors` of the arcs, for exact walks."""
        preds = arc_predecessors(self.tail, self.head, len(self.patterns))
        preds.setflags(write=False)
        return preds

    def power_row(self, v: int, j: int) -> np.ndarray:
        """Row v of A^j, exact: walked once by `walks` from e_v and held,
        read-only, while j is the step count asked last.  A new j drops the
        held rows, so the graph never holds more than one m x m power."""
        j = operator.index(j)
        if j != self._row_steps:
            self._rows, self._row_steps = {}, j
        row = self._rows.get(v)
        if row is None:
            start = np.zeros(len(self.patterns), dtype=np.int64)
            start[v] = 1
            row = deque(walks(self.preds, start, j), maxlen=1).pop()
            row.setflags(write=False)
            self._rows[v] = row
        return row

    def __repr__(self) -> str:
        return f"TransitionGraph({self.direction}, k={self.k}, {len(self.patterns)} vertices)"


def transition_graph(shift: MatrixSubshift, direction: str, k: int) -> TransitionGraph:
    """Strip transition graph of a uniquely extendable shift.

    For non-extendable shifts locally admissible strips need not occur in
    any configuration, so k >= 2 is rejected there; k = 1 is always the
    symbol graph (A or B itself)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if k >= 2 and not shift.report.uniquely_extendable:
        raise ValueError("strip transition graphs beyond k = 1 need unique extendability")
    words, tail, head = _strip_arcs(*_strip_matrices(shift, direction), k)
    return TransitionGraph(direction, k, list(map(tuple, words.tolist())), tail, head)


def admissible_patterns(shift: MatrixSubshift, m: int, n: int) -> list[Pattern]:
    """Explicitly enumerate all admissible (m, n) patterns (m columns of
    height n): the length-m words of the column compatibility matrix.
    Exhaustive; capped at m*n <= 12 cells.  A regular uniquely extendable
    shift has s * d^(m-1) * d^(n-1) of them."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if m * n > 12:
        raise SizeCapExceeded("exhaustive pattern enumeration capped at 12 cells")
    if m == 1:
        return list(zip(chains(shift.B, n)))
    words, tail, head = _strip_arcs(shift.A, shift.B, n)
    follows = np.zeros((len(words),) * 2, dtype=bool)
    follows[tail, head] = True
    columns = np.fromiter(map(tuple, words.tolist()), dtype=object, count=len(words))
    return list(map(tuple, columns[chains(follows, m)]))


def _is_int(x) -> bool:
    """An integer symbol: a Python or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_admissible(shift: MatrixSubshift, pattern: Pattern) -> bool:
    """True for a pattern that `_shape` accepts whose neighbours are all allowed."""
    try:
        _shape(shift, pattern)
    except ValueError:
        return False
    return _neighbours_allowed(shift, pattern)


def _neighbours_allowed(shift: MatrixSubshift, pattern: Pattern) -> bool:
    """The neighbour rule of `is_admissible` on a pattern whose shape and
    symbols are already checked."""
    # pattern[x][y], y upward: B joins a column's neighbours, A a row's
    above, beside = shift.B.item, shift.A.item
    left = None
    for col in pattern:
        for y in range(1, len(col)):
            if not above(col[y - 1], col[y]):
                return False
        if left is not None:
            for a, b in zip(left, col):
                if not beside(a, b):
                    return False
        left = col
    return True


# ---------------------------------------------------------------------------
# unique reconstruction from traces


def fill_rectangle(shift: MatrixSubshift, h_trace: tuple[int, ...], v_trace: tuple[int, ...]) -> Pattern:
    """The unique admissible rectangle with the given bottom row (h_trace,
    an A-chain) and left column (v_trace, a B-chain) sharing the corner
    symbol.  Completion proceeds corner by corner; every step is forced for
    a uniquely extendable shift, and any ambiguity is reported as an
    internal inconsistency."""
    if not shift.report.uniquely_extendable:
        raise ValueError("fill_rectangle needs a uniquely extendable shift")
    if not h_trace or not v_trace:
        raise ValueError("traces must be nonempty")
    if h_trace[0] != v_trace[0]:
        raise ValueError("traces must share the corner symbol")
    if not is_admissible(shift, tuple((t,) for t in h_trace)):
        raise ValueError("h_trace is not an admissible horizontal word")
    if not is_admissible(shift, (tuple(v_trace),)):
        raise ValueError("v_trace is not an admissible vertical word")

    m, n = len(h_trace), len(v_trace)
    grid = np.empty((m, n), dtype=np.intp)
    grid[0] = v_trace
    grid[:, 0] = h_trace
    for i in range(1, m):
        for j in range(1, n):
            cands = np.flatnonzero(shift.A[grid[i - 1, j]] & shift.B[grid[i, j - 1]])
            if len(cands) != 1:
                raise RuntimeError(
                    f"internal inconsistency: corner ({i},{j}) has {len(cands)} completions"
                )
            grid[i, j] = cands[0]
    pattern = tuple(map(tuple, grid.tolist()))
    if not is_admissible(shift, pattern):
        raise RuntimeError("internal inconsistency: completed rectangle is inadmissible")
    return pattern


# ---------------------------------------------------------------------------
# measures and correlations


def _shape(shift: MatrixSubshift, pattern: Pattern) -> tuple[int, int]:
    """(columns, height) of a rectangular pattern with at least one cell in
    every column and every symbol an integer in the alphabet 0..s-1.  The
    first fault in that order is named, and the cells are walked once: a
    symbol that is no integer (a bool, a float, `np.bool_`) is named
    wherever it lies, before any symbol outside the alphabet."""
    if not pattern or not all(map(len, pattern)):
        raise ValueError("a pattern needs at least one column and a cell in every column")
    height = len(pattern[0])
    if any(len(col) != height for col in pattern):
        raise ValueError("pattern columns must all have the same height")
    s, outside = shift.s, False
    for col in pattern:
        for x in col:
            if not (type(x) is int or _is_int(x)):
                raise ValueError("pattern symbols must be integers")
            if not 0 <= x < s:
                outside = True
    if outside:
        raise ValueError(f"pattern symbols must lie in 0..{s - 1}")
    return len(pattern), height


def _measured_shape(shift: MatrixSubshift, pattern: Pattern) -> tuple[int, int, bool]:
    """`_shape` and admissibility of a pattern, checked once; an
    inadmissible pattern is warned about, since its measure is zero."""
    m, n = _shape(shift, pattern)
    admissible = _neighbours_allowed(shift, pattern)
    if not admissible:
        warnings.warn("inadmissible pattern has measure zero")
    return m, n, admissible


def _degree(shift: MatrixSubshift) -> int:
    d = shift.report.degree
    if d is None:
        raise ValueError("measure machinery needs a d-regular shift")
    return d


def cylinder_measure(shift: MatrixSubshift, pattern: Pattern) -> Fraction:
    """mu of the cylinder of an (m, n) pattern, its lower-left cell at the
    origin: 1 / (s d^(m-1) d^(n-1)) when the pattern is
    admissible, 0 (with a warning) otherwise.  Under mu all admissible
    one-step extensions of a rectangle are equally likely."""
    d = _degree(shift)
    m, n, admissible = _measured_shape(shift, pattern)
    if not admissible:
        return Fraction(0)
    return Fraction(1, shift.s * d ** (m - 1) * d ** (n - 1))


def correlation(shift: MatrixSubshift, p1: Pattern, p2: Pattern, n: int) -> Fraction:
    """Exact deviation | mu(C1 and shifted C2) - mu(C1) mu(C2) | for the
    cylinders C1, C2 of patterns p1, p2 at a horizontal offset n (C2's
    support starts n cells right of C1's anchor).

    Both patterns must have the same height k, and the integer n must
    exceed the width m1 of C1 so the supports do not touch.  The joint
    measure is computed from first principles: completions of the gap are
    counted as paths in the height-k strip graph, read from row v of its
    (n - m1 + 1)-th power (`TransitionGraph.power_row`, exact walk counts
    from e_v), and each full (n + m2, k) rectangle carries
    1 / (s d^(n+m2-1) d^(k-1)).  The held graph keeps the rows of the last
    offset asked, so a sweep over start columns at one offset walks each
    start once; at most m^2 entries are held for an m-strip graph.  The
    result is formed over the common denominator s^2 d^E in integers.  For
    vertical offsets pass the transposed shift `MatrixSubshift(symbols, B,
    A)`, with the patterns transposed to match.
    """
    d = _degree(shift)
    m1, k, ok1 = _measured_shape(shift, p1)
    m2, k2, ok2 = _measured_shape(shift, p2)
    if k2 != k:
        raise ValueError("patterns must be padded to a common vertical extent")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"offset must be an integer, not {n!r}") from None
    if n <= m1:
        raise ValueError(f"offset {n} overlaps the first pattern (width {m1})")
    if not (ok1 and ok2):
        return Fraction(0)
    graph = shift.strip_graph("horizontal", k)
    row = graph.power_row(graph.index[tuple(p1[-1])], n - m1 + 1)
    n_paths = int(row[graph.index[tuple(p2[0])]])
    # joint = n_paths / (s d^e_joint), product = 1 / (s^2 d^e_product)
    e_joint, e_product = n + m2 + k - 2, m1 + m2 + 2 * k - 4
    e = max(e_joint, e_product)
    s = shift.s
    return Fraction(abs(n_paths * s * d ** (e - e_joint) - d ** (e - e_product)), s * s * d**e)


# ---------------------------------------------------------------------------
# mixing tables


@dataclass
class MixingRow:
    n: int
    deviation: Fraction
    deviation_float: float
    envelope_float: float
    ok: bool


@dataclass
class CorrelationTable:
    """Deviation norms of a strip transition matrix against the envelope
    C * n * (1/sqrt(d))^n with C fitted at the first tabulated n.  All
    comparisons are exact (squared rational inequalities); the floats are
    for display only."""

    rows: list[MixingRow]
    d: int
    k: int
    dimension: int
    direction: str
    c_float: float

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def __repr__(self) -> str:
        state = "ok" if self.all_ok else "VIOLATED"
        return (
            f"CorrelationTable({self.direction} k={self.k}, d={self.d}, "
            f"n<=({self.rows[-1].n}), envelope {state})"
        )


def _envelope_ok(dev: Fraction, n: int, dev0: Fraction, d: int) -> bool:
    # dev(n) <= C n theta^n with theta = 1/sqrt(d) and C = dev0 / theta,
    # compared exactly via squares: dev^2 d^n <= dev0^2 d n^2, in integers
    # once both sides are multiplied by the squared denominators
    lhs = (dev.numerator * dev0.denominator) ** 2 * d**n
    rhs = (dev0.numerator * dev.denominator) ** 2 * d * n**2
    return lhs <= rhs


def mixing_table(
    datum_or_shift, k: int, n_max: int, direction: str = "horizontal"
) -> CorrelationTable:
    """Tabulate exact deviation norms of the height-k strip transition
    matrix for n = 1..n_max and check the n * (1/sqrt(d))^n envelope.

    Accepts a datum (its nearest-neighbor shift is built) or a
    MatrixSubshift.  The strip graph is walked exactly, from its
    predecessor array (`spectral.deviation_table`); no float eigensolve
    runs.  A table that could not be printed is refused before the walk
    (SizeCapExceeded): one whose largest unreduced denominator, m d^n_max
    for m strips, has more digits than Python converts an int to a str
    with (`sys.get_int_max_str_digits`).
    """
    if isinstance(datum_or_shift, MatrixSubshift):
        shift = datum_or_shift
    else:
        shift = build_xd(datum_or_shift)
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    graph = shift.strip_graph(direction, k)
    d = graph.preds.shape[1]
    # 0, no limit, also where Python (before 3.10.7) has none
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # d^n_max >= 2^(4 limit) > 10^limit spares the power's computation
    if limit and d > 1 and (n_max >= 4 * limit or len(graph.patterns) * d**n_max >= 10**limit):
        raise SizeCapExceeded(f"mixing tables capped at denominators of {limit} digits, "
                              f"the most Python prints; n = {n_max} exceeds it")
    devs = deviation_table(graph.preds, n_max)
    dev0, theta = devs[0], 1.0 / sqrt(d)
    c_float = float(dev0) / theta
    rows = [
        MixingRow(
            n=n,
            deviation=dev,
            deviation_float=float(dev),
            envelope_float=c_float * n * theta**n,
            ok=_envelope_ok(dev, n, dev0, d),
        )
        for n, dev in enumerate(devs, start=1)
    ]
    return CorrelationTable(
        rows=rows,
        d=d,
        k=k,
        dimension=len(graph.patterns),
        direction=direction,
        c_float=c_float,
    )


def mixing_table_to_csv(table: CorrelationTable, header: str | None = None) -> str:
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("n,deviation_num,deviation_den,deviation_float,envelope_float,ok")
    for row in table.rows:
        lines.append(
            f"{row.n},{row.deviation.numerator},{row.deviation.denominator},"
            f"{row.deviation_float!r},{row.envelope_float!r},{'ok' if row.ok else 'VIOLATION'}"
        )
    return "\n".join(lines) + "\n"
