"""VH-data: relation sets over two alphabets with fixed-point-free
involutions, their validation, the quaternionic construction, the SVG of
their Wang tiles, and the canonical JSON file format.

A VH-datum D = (V, H, R) consists of symbol lists V (size 2m) and H (size
2n) of distinct labels, involutions a -> a^-1 on each, and a set R of
quadruples (a, b, c, d) in V x H x H x V subject to:

  (1) closure: (a,b,c,d) in R forces (a^-1,c,b,d^-1), (d^-1,c^-1,b^-1,a^-1)
      and (d,b^-1,c^-1,a) into R;
  (2) non-degeneracy: (a,b,b^-1,a^-1) never lies in R;
  (3) the four projections of R to V x H / H x V pairs ((a,b), (c,d),
      (a,c), (b,d)) are bijections, so |R| = |V| * |H|.

A datum holds R in one form: a read-only (|R|, 4) int64 array of index
rows.  A datum is checked once, when it is made, and trusted after (see
`VHDatum`).  Each row is a unit square Wang tile with side colors a (left),
b (top), c (bottom), d (right); property (3) makes the tileset 4-way
deterministic, and `tiles_to_svg` draws the rows themselves.

The quaternionic datum D_{tau,sigma} has V and H the norm fibers of
tau^-1 and sigma^-1 in F_q[Z], negation as the involutions, and

    R = { (alpha, beta, zeta_alpha(beta)*beta, zeta_beta(alpha)*alpha) }

with the unit-norm twist zeta_a(b) = (1 + a/b) / (1 + conj(a)/conj(b)).
Every tuple is certified against the quaternion identity
(1 + alpha F)(1 + beta F) ~ (1 + gamma F)(1 + delta F) by `verify_relations`.
Both steps run on whole fibers at once: the build computes every gamma and
delta as pairs of int arrays (`ffield.Pair`) and finds them in the fibers
through an encoding-to-index array, and the certification decides all
relations with one `QuatBatch` product and proportionality test.
`QuatElem` and `proportional` remain the element-level reference, and the
element-wise twist, once `zeta`, is the tests' reference for the build.

`validate_datum` is array passes too: it decides the axioms on the four
index columns `R.T`, and renders a violation only from a failing row.

A datum file of a field datum stores each coefficient as an integer in
0..p-1, and on reading its V and H must be the norm fibers of its places.
Each list of a file (R, V, H) is checked as a whole, by type and length
per nesting level; only a malformed list is walked entry by entry, to
name its first bad entry.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from dataclasses import dataclass, field as _field
from itertools import chain, product
from json.encoder import encode_basestring_ascii

import numpy as np

from .ffield import FieldSpec, FqElem, Fq2Elem, Pair, fq2_label, fq2_labels, make_field, norm_fiber
from .quaternion import QuatBatch, QuatElem, proportional_batch


# ---------------------------------------------------------------------------
# datum type


@dataclass(eq=False)
class VHDatum:
    """A VH-datum: side alphabets V and H (distinct labels on each side)
    with their involutions, and the relation tuples R = {(a, b, c, d)}.

    Construction copies R to a read-only (|R|, 4) int64 array, one index
    row per tuple, so `len(R)`, `R[r]` and `for a, b, c, d in R` read the
    tuples and `R.T` gives the four columns as views.  An R that is ragged,
    not 4 wide, or holds anything but integers within int64 is refused
    there (ValueError or TypeError; `datum_from_dict` reports the
    TypeError as a malformed file).  Construction then runs `validate_datum`
    and raises `InvalidDatum` on a datum that fails it, so a datum, built,
    read or `dataclasses.replace`d, is valid, and nothing checks it again."""

    V: list[str]
    H: list[str]
    inv_V: list[int]
    inv_H: list[int]
    R: np.ndarray  # (|R|, 4) int64 rows (a, b, c, d), read-only
    # arithmetic tag, present for quaternionic datums
    field: FieldSpec | None = None
    tau: FqElem | None = None
    sigma: FqElem | None = None
    V_elems: list[Fq2Elem] | None = _field(default=None, repr=False)
    H_elems: list[Fq2Elem] | None = _field(default=None, repr=False)

    def __post_init__(self):
        # np.array copies, so a caller's own array is never frozen; an int
        # beyond int64 leaves an object array
        try:
            rows = np.array(self.R) if len(self.R) else np.zeros((0, 4), dtype=np.int64)
        except ValueError:  # ragged
            rows = None
        if rows is None or rows.shape[1:] != (4,):
            raise ValueError("R entries must be 4-tuples")
        if not np.can_cast(rows.dtype, np.int64):
            raise TypeError(f"R entries must be integers within int64, got {rows.dtype} entries")
        self.R = rows.astype(np.int64, copy=False)
        self.R.setflags(write=False)
        if not (report := validate_datum(self)).ok:
            raise InvalidDatum(report)

    def is_arithmetic(self) -> bool:
        return self.field is not None

    def __repr__(self) -> str:
        tag = ""
        if self.is_arithmetic():
            tag = f", q={self.field.q}, tau={self.tau}, sigma={self.sigma}"
        return f"VHDatum(|V|={len(self.V)}, |H|={len(self.H)}, |R|={len(self.R)}{tag})"


@dataclass
class DatumReport:
    """Validation outcome; `violations` lists every failed check."""

    violations: list[str]
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        state = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"DatumReport({state}, checked={self.checked})"


class InvalidDatum(ValueError):
    """Raised by a `VHDatum` that fails `validate_datum`; `report` holds every violation."""

    def __init__(self, report: DatumReport):
        super().__init__(f"invalid datum: {report.violations[0]}")
        self.report = report


# ---------------------------------------------------------------------------
# quaternionic construction


def _twisted_pairs(spec: FieldSpec, alpha: Pair, beta: Pair) -> tuple[Pair, Pair]:
    """gamma = zeta_alpha(beta) beta and delta = zeta_beta(alpha) alpha
    elementwise over pairs of arrays (the operands broadcast), with the
    preconditions of both twists checked on every element.

    With s = alpha + beta, zeta_alpha(beta) = (s / beta) / (conj(s) / conj(beta)),
    so gamma = s conj(beta) / conj(s) = s^2 conj(beta) / N(s), and by
    symmetry delta = s^2 conj(alpha) / N(s): both share s^2 / N(s).  s is
    nonzero because N(alpha) != N(beta)."""
    norm_a, norm_b = spec.pair_norm(alpha), spec.pair_norm(beta)
    if not (norm_a.all() and norm_b.all()):
        raise ValueError("zeta twist needs alpha and beta nonzero")
    if (norm_a == norm_b).any():
        raise ValueError("zeta twist needs N(alpha) != N(beta)")
    s = spec.pair_add(alpha, beta)
    square = spec.pair_mul(s, s)
    t = spec.arrays
    scale = t.inv[spec.pair_norm(s)]
    ratio = (t.mul[square[0], scale], t.mul[square[1], scale])
    return spec.pair_mul(ratio, spec.pair_conj(beta)), spec.pair_mul(ratio, spec.pair_conj(alpha))


def build_quaternionic_datum(spec: FieldSpec, tau, sigma) -> VHDatum:
    """The datum D_{tau,sigma}: V, H the norm fibers of tau^-1 and sigma^-1,
    negation involutions, and R generated by the zeta twist.

    tau and sigma must be distinct nonzero elements of F_q (ints accepted
    via the canonical encoding).  gamma = zeta_alpha(beta) beta and
    delta = zeta_beta(alpha) alpha are computed for every (alpha, beta) at
    once, by the shared closed form of `_twisted_pairs`, and found in the
    fibers by their F_q[Z] encodings.
    """
    tau = spec.elem(tau)
    sigma = spec.elem(sigma)
    if tau.is_zero() or sigma.is_zero():
        raise ValueError("tau and sigma must be nonzero")
    if tau == sigma:
        raise ValueError("tau and sigma must be distinct")

    v_elems = norm_fiber(spec, tau.inverse())
    h_elems = norm_fiber(spec, sigma.inverse())
    q = spec.q
    v, h = spec.pair(v_elems), spec.pair(h_elems)

    def indices(elems: list[Fq2Elem], values: Pair) -> np.ndarray:
        # the position in `elems` of every value, by its encoding nu + q nv
        index = np.full(q * q, -1, dtype=np.intp)
        index[[x.encoding() for x in elems]] = np.arange(len(elems))
        found = index[values[0] + q * values[1]]
        if (found < 0).any():
            raise RuntimeError("a zeta twist left its norm fiber")  # would signal a field bug
        return found.ravel()

    # alpha runs over the rows and beta over the columns, so R is in (ia, ib) order
    alpha = (v[0][:, None], v[1][:, None])
    beta = (h[0][None, :], h[1][None, :])
    gamma, delta = _twisted_pairs(spec, alpha, beta)
    ia, ib = np.divmod(np.arange(len(v_elems) * len(h_elems)), len(h_elems))

    return VHDatum(
        V=fq2_labels(v_elems),
        H=fq2_labels(h_elems),
        inv_V=indices(v_elems, spec.pair_neg(v)).tolist(),
        inv_H=indices(h_elems, spec.pair_neg(h)).tolist(),
        R=np.stack([ia, ib, indices(h_elems, gamma), indices(v_elems, delta)], axis=1),
        field=spec,
        tau=tau,
        sigma=sigma,
        V_elems=v_elems,
        H_elems=h_elems,
    )


# ---------------------------------------------------------------------------
# validation


# Pair keys read off the columns [a, b, c, d, a', b', c', d'] of R (' the
# inverse letter): keys 0-3 are first * |H| + second, the (a, b) of the
# tuple and of its companions (a', c, b, d'), (d', c', b', a') and
# (d, b', c', a); keys 4-7 are first * |V| + second, their (c, d).
_FIRST = np.array([0, 4, 7, 3, 2, 1, 5, 6])
_SECOND = np.array([1, 2, 6, 5, 3, 7, 4, 0])
_SIDES = np.array([0, 1, 1, 0])[:, None]  # the alphabet of each tuple position: 0 = V, 1 = H
_PROJECTIONS = (("(a,b)", 0, 1), ("(c,d)", 2, 3), ("(a,c)", 0, 2), ("(b,d)", 1, 3))


def validate_datum(datum: VHDatum) -> DatumReport:
    """Check the involution axioms, nonempty sides of even size with
    distinct labels, and datum properties (1)-(3).

    R is decided by whole-array passes over its four index columns: the
    range by one maximum; the (a, b) projection by one `bincount` of its
    pair keys; the three companions of every tuple by gathering through the
    (a, b) -> row index; degeneracy by one comparison.  Once (a, b) is a
    bijection and every companion is present, the other three projections
    are bijections too: each companion map is an involution of R, and it
    carries the (a, b) projection to (a', c), (d', c') or (d, b').  Only a
    datum that fails there is looked at further: its collisions by sorting
    each projection's keys, and, when two tuples share (a, b), its
    duplicates and companions through a set of the tuples.  Violations are
    collected into the report rather than raised, so a broken datum can be
    inspected, and each is rendered from its failing row only.  They come
    in this order: the involutions, even and nonempty sides, and labels
    (any of these ends the check); duplicate tuples, or the first tuple out
    of range (which ends it); per tuple in R order, its missing companions
    and its degeneracy; |R|; per projection, its collisions in R order.
    """
    bad: list[str] = []
    nv, nh = len(datum.V), len(datum.H)
    for name, size, inv in (("inv_V", nv, datum.inv_V), ("inv_H", nh, datum.inv_H)):
        if len(inv) != size or sorted(inv) != list(range(size)):
            bad.append(f"{name} is not a permutation of 0..{size - 1}")
            continue
        for i, j in enumerate(inv):
            if j == i:
                bad.append(f"{name} has fixed point at index {i}")
            elif inv[j] != i:
                bad.append(f"{name} is not an involution at index {i}")
    if nv % 2 or nh % 2:
        bad.append("V and H must have even size")
    if not (nv and nh):
        bad.append("V and H must be nonempty")
    for name, labels in (("V", datum.V), ("H", datum.H)):
        if len(set(labels)) != len(labels):
            seen: set = set()
            repeated = next(x for x in labels if x in seen or seen.add(x))
            bad.append(f"{name} labels are not distinct: {repeated!r} repeats")
    if bad:
        return DatumReport(bad, 2)

    R = datum.R
    n = len(R)
    cols = R.T
    # a negative index is above every bound as an unsigned int
    outside = np.flatnonzero((R.view(np.uint64) >= np.array([nv, nh, nh, nv], dtype=np.uint64)).any(axis=1))
    if outside.size:
        if len(np.unique(R, axis=0)) != n:
            bad.append("R contains duplicate tuples")
        bad.append(f"tuple {tuple(R[outside[0]].tolist())} has out-of-range indices")
        return DatumReport(bad, 2)

    # each letter's inverse, looked up in its own alphabet's row
    width = max(nv, nh)
    inverse = np.array([[*datum.inv_V, *[0] * (width - nv)], [*datum.inv_H, *[0] * (width - nh)]])
    full = np.concatenate([cols, inverse[_SIDES, cols]])
    keys = full.take(_FIRST, axis=0)
    keys[:4] *= nh
    keys[4:] *= nv
    keys += full.take(_SECOND, axis=0)
    # (c, d) = (b', a'): the tuple is degenerate
    degenerate = keys[4] == keys[6]
    if n == nv * nh and np.count_nonzero(np.bincount(keys[0])) == n:
        # (a, b) -> row is a bijection: a tuple lies in R iff it is the row of its (a, b)
        missing = keys[4][keys[0].argsort()[keys[1:4]]] != keys[5:]
    else:
        # two tuples share (a, b), or |R| != |V||H|: property (3) fails
        rset = set(map(tuple, R.tolist()))
        if len(rset) != n:
            bad.append("R contains duplicate tuples")
        companions = full[[4, 2, 1, 7, 7, 6, 5, 4, 3, 5, 6, 0]].reshape(3, 4, n).transpose(0, 2, 1)
        missing = ~np.fromiter(map(rset.__contains__, map(tuple, companions.reshape(-1, 4).tolist())),
                               dtype=bool, count=3 * n).reshape(3, n)
    if not (np.count_nonzero(missing) or np.count_nonzero(degenerate) or n != nv * nh):
        return DatumReport(bad, 2 + n + 4)

    def label(a, b, c, d):
        return f"({datum.V[a]}, {datum.H[b]}, {datum.H[c]}, {datum.V[d]})"

    # property (1): the three companion tuples; property (2): degeneracy
    for r in np.flatnonzero(missing.any(axis=0) | degenerate).tolist():
        a, b, c, d, ia, ib, ic, id_ = full[:, r].tolist()
        t = label(a, b, c, d)
        for comp, miss in zip(((ia, c, b, id_), (id_, ic, ib, ia), (d, ib, ic, a)), missing[:, r].tolist()):
            if miss:
                bad.append(f"property (1): companion {label(*comp)} of {t} missing")
        if degenerate[r]:
            bad.append(f"property (2): degenerate tuple {t}")

    # property (3): the four projections are bijections
    if n != nv * nh:
        bad.append(f"|R| = {n} but |V||H| = {nv * nh}")
    for name, i, j in _PROJECTIONS:
        later, earlier = _collisions(cols[i] * (nh if j in (1, 2) else nv) + cols[j])
        for r, s in zip(later.tolist(), earlier.tolist()):
            bad.append(f"property (3): projection {name} collides on "
                       f"{label(*R[r].tolist())} and {label(*R[s].tolist())}")
    return DatumReport(bad, 2 + n + 4)


def _collisions(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows whose key an earlier row holds, in order, each with the
    latest such earlier row."""
    order = np.argsort(key, kind="stable")
    same = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    later, earlier = order[same + 1], order[same]
    first = np.argsort(later)
    return later[first], earlier[first]


def verify_relations(datum: VHDatum) -> DatumReport:
    """Certify an arithmetic datum against the quaternion algebra.

    For every (alpha, beta, gamma, delta) in R the products
    (1 + alpha F)(1 + beta F) and (1 + gamma F)(1 + delta F) must be
    proportional, and for every fiber element xi the product
    (1 + xi F)(1 - xi F) must be a scalar.  All three families are one
    `QuatBatch` product, rows (alpha, beta), then (gamma, delta), then
    (xi, -xi), decided by one proportionality and one scalar test; only a
    failing row is multiplied out again as `QuatElem`s, to name it in its
    violation.
    """
    if not datum.is_arithmetic():
        raise ValueError("verify_relations needs a datum with field values")
    spec = datum.field
    bad: list[str] = []
    gen = lambda x: QuatElem.one_plus_alpha_f(spec, x)
    v, h = spec.pair(datum.V_elems), spec.pair(datum.H_elems)
    a, b, c, d = datum.R.T
    n = len(datum.R)
    xi = (np.concatenate([v[0], h[0]]), np.concatenate([v[1], h[1]]))
    minus_xi = spec.pair_neg(xi)
    left = tuple(np.concatenate([v[k][a], h[k][c], xi[k]]) for k in (0, 1))
    right = tuple(np.concatenate([h[k][b], v[k][d], minus_xi[k]]) for k in (0, 1))
    products = QuatBatch.generators(spec, left) * QuatBatch.generators(spec, right)
    square = proportional_batch(products.rows(slice(0, n)), products.rows(slice(n, 2 * n)))
    for r in np.flatnonzero(~square).tolist():
        ia, ib, ic, idd = datum.R[r].tolist()
        lhs = gen(datum.V_elems[ia]) * gen(datum.H_elems[ib])
        rhs = gen(datum.H_elems[ic]) * gen(datum.V_elems[idd])
        bad.append(
            f"square relation fails for ({datum.V[ia]}, {datum.H[ib]}, "
            f"{datum.H[ic]}, {datum.V[idd]}): lhs = {lhs}, rhs = {rhs}"
        )
    xis = list(datum.V_elems) + list(datum.H_elems)
    inverse = products.rows(slice(2 * n, None)).is_scalar()
    for r in np.flatnonzero(~inverse).tolist():
        bad.append(f"inverse relation fails for {fq2_label(xis[r])}: {gen(xis[r]) * gen(-xis[r])}")
    return DatumReport(bad, n + len(xis))


# ---------------------------------------------------------------------------
# Wang tiles


def tiles_to_svg(datum: VHDatum, header: str | None = None) -> str:
    """Deterministic SVG of the datum's Wang tiles, one per row (a, b, c, d)
    of R in R order: 100x100 squares with the labels of a (left), b (top),
    c (bottom) and d (right), four tiles per row."""
    size, pad, per_row = 100, 20, 4
    rows = (len(datum.R) + per_row - 1) // per_row
    width = per_row * (size + pad) + pad
    height = rows * (size + pad) + pad
    colors = {}
    palette = [
        "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
        "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
    ]

    def color_for(label):
        if label not in colors:
            colors[label] = palette[len(colors) % len(palette)]
        return colors[label]

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    if header:
        out.append(f"<!-- {header} -->")
    for idx, (a, b, c, d) in enumerate(datum.R.tolist()):
        left, top, bottom, right = datum.V[a], datum.H[b], datum.H[c], datum.V[d]
        x0 = pad + (idx % per_row) * (size + pad)
        y0 = pad + (idx // per_row) * (size + pad)
        cx, cy = x0 + size / 2, y0 + size / 2
        # four triangles: left, top, bottom, right
        tri = (
            (left, f"{x0},{y0} {x0},{y0 + size} {cx},{cy}"),
            (top, f"{x0},{y0} {x0 + size},{y0} {cx},{cy}"),
            (bottom, f"{x0},{y0 + size} {x0 + size},{y0 + size} {cx},{cy}"),
            (right, f"{x0 + size},{y0} {x0 + size},{y0 + size} {cx},{cy}"),
        )
        for label, points in tri:
            out.append(
                f'<polygon points="{points}" fill="{color_for(label)}" stroke="black" stroke-width="0.5"/>'
            )
        style = 'font-size="11" font-family="monospace" text-anchor="middle"'
        out.append(f'<text x="{x0 + 13}" y="{cy + 4}" {style}>{left}</text>')
        out.append(f'<text x="{cx}" y="{y0 + 14}" {style}>{top}</text>')
        out.append(f'<text x="{cx}" y="{y0 + size - 6}" {style}>{bottom}</text>')
        out.append(f'<text x="{x0 + size - 13}" y="{cy + 4}" {style}>{right}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# file format


def atomic_write(path: str, pieces: list[bytes]) -> None:
    """Write the bytes `pieces`, never joined, to `path` through a temp file
    of this process and thread beside it and a rename; a failed write (a
    piece that is not bytes, a full disk) leaves no temp file.  An OSError
    names `path`, never the temp file."""
    tmp = f"{path}.{os.getpid()}.{threading.get_native_id()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def dot_escaped(label: str) -> str:
    """`label` inside a DOT quoted ID: backslash and double quote escaped."""
    return label.replace("\\", "\\\\").replace('"', '\\"')


class Labels:
    """Strings held as codes into tables of names, and rendered only when
    read.

    Each part is an (N, n) int array of code rows with the table of names
    that its codes index.  A row stands for its n names joined by "." ("e"
    for n = 0), and label i joins one row of every part by "|", the parts
    indexed in mixed radix from i with the first most significant
    (itertools.product order).  So a level graph's vertex labels are its
    lift's words over the automaton's alphabet, one part per lift, and
    strings given one by one are one part of one code each (`Labels.of`).
    Nothing is checked here: `unambiguous` and `tolist` let a writer decide
    whether the labels can be read back."""

    def __init__(self, parts):
        self.parts = tuple((codes, tuple(names)) for codes, names in parts)
        self.size = math.prod(len(codes) for codes, _ in self.parts)

    @classmethod
    def of(cls, strings: list) -> "Labels":
        """The labels `strings`, coded into the table of their distinct
        values in the order they first appear; raises TypeError for an
        unhashable entry."""
        table = dict.fromkeys(strings)
        for k, s in enumerate(table):
            table[s] = k
        codes = np.fromiter(map(table.__getitem__, strings), np.intp, len(strings))
        return cls([(codes[:, None], table)])

    def __len__(self) -> int:
        return self.size

    def unambiguous(self) -> bool:
        """Do distinct code rows give distinct labels?  They do when every
        table's names are distinct and hold no separator that the rows and
        parts put between them: "." where a row has two codes or more, "|"
        where there are two parts or more."""
        seps = {"|"} if len(self.parts) > 1 else set()
        if any(codes.shape[1] > 1 for codes, _ in self.parts):
            seps.add(".")
        return all(len(set(names)) == len(names) and not any(c in name for name in names for c in seps)
                   for _, names in self.parts)

    def tolist(self, escape=None) -> list:
        """Every label as a str, with `escape` applied to each name first
        (`dot_escaped`, which commutes with joining by "." and "|")."""
        words = []
        for codes, names in self.parts:
            table = np.array([escape(x) for x in names] if escape else names, dtype=object)
            if not codes.shape[1]:
                words.append(["e"] * len(codes))
            elif codes.shape[1] == 1:
                words.append(table[codes[:, 0]].tolist())
            else:
                words.append(list(map(".".join, table[codes].tolist())))
        return words[0] if len(words) == 1 else list(map("|".join, product(*words)))


class Rows:
    """A list of rows given by its columns, int arrays or `Labels` of one
    length: `json_pieces` writes the rows straight from the columns."""

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def tolist(self) -> list:
        return [list(row) for row in zip(*(column.tolist() for column in self.columns))]


def json_pieces(payload) -> list[bytes]:
    """The indented JSON text of every report and graph file as ASCII
    bytes, in pieces that a writer hands on without joining them: byte for
    byte `json.dumps(payload, sort_keys=True, indent=1, default=str)` with
    every numpy array, `Labels` and `Rows` in `payload` first replaced by
    its `tolist()`.

    The json module drops to its pure-Python encoder whenever an indent is
    given.  Here dicts with str keys are walked by hand, and a scalar or an
    empty list or dict, whose text no indent changes, is one C-encoder
    call.  A 1-D or 2-D int array, `Labels` of strs, or `Rows` of such
    columns is rendered as bytes by `_array_pieces`, a block of rows at a
    time.  Anything else is the stdlib text re-indented by its depth.  The
    re-indenting replace is safe because an ASCII-encoded JSON string never
    holds a raw newline.  No level copies the text of the values inside it.
    """
    pieces: list[bytes] = []
    _write(payload, "\n", pieces)
    return pieces


# exact types whose text no indent changes, written without the indenting
# pure-Python encoder
_PLAIN = {int, str, float, bool, type(None)}
_ROWS = {np.ndarray, Labels, Rows}  # types written by `_array_pieces` when their columns allow


def _write(value, nl: str, out: list[bytes]) -> None:
    """Append the pieces of `value`'s text, whose line breaks are `nl`
    (newline + its depth), to `out`."""
    inner = nl + " "
    if type(value) is dict and value and {type(k) for k in value} == {str}:
        opening = "{"
        for k in sorted(value):
            out.append((opening + inner + encode_basestring_ascii(k) + ": ").encode())
            _write(value[k], inner, out)
            opening = ","
        out.append((nl + "}").encode())
    elif type(value) in _ROWS and (pieces := _array_pieces(value, nl)) is not None:
        out += pieces
    elif type(value) in _PLAIN or type(value) in (list, dict) and not value:
        out.append(json.dumps(value).encode())
    else:
        out.append(json.dumps(value, sort_keys=True, indent=1, default=_listed_or_str).replace("\n", nl).encode())


def _listed_or_str(value):
    return value.tolist() if isinstance(value, (np.ndarray, Labels, Rows)) else str(value)


# bytes of padded row text rendered at a time: about 2^14 rows of a graph
# file's darts, so the temporaries of a block stay in cache whatever the
# array's length or the length of its longest label
_BLOCK_BYTES = 1 << 19


def _columns(value) -> tuple[list, bool] | None:
    """(columns, flat) of a value `_array_pieces` may render: one column
    for a flat array or `Labels`, and a column per array column or per
    `Rows` column for rows; None for any other array."""
    if type(value) is Labels:
        return [value], True
    if type(value) is Rows:
        return list(value.columns), False
    if value.ndim == 1:
        return [value], True
    if value.ndim == 2 and value.shape[1]:
        return list(value.T), False
    return None


def _array_pieces(value, nl: str) -> list[bytes] | None:
    """The ASCII text of a flat int array or `Labels` of strs, or of the rows
    of a 2-D int array or of `Rows` of such columns, in pieces; None otherwise.

    Each block of rows is one `uint8` matrix, a padded row of text per row:
    copies of one template row that holds the separators, then each int
    column written over it as digits and each label column as its encoded
    names gathered by code, with NUL bytes as padding.  Dropping the NULs
    leaves the text, since ASCII-encoded JSON never holds a raw NUL."""
    split = _columns(value)
    if split is None:
        return None
    columns, flat = split
    if not len(value):
        return [b"[]"]
    rendered = [_column_parts(column) for column in columns]
    if None in rendered:
        return None
    inner = nl + " "
    deeper = inner + " "
    # every row starts with ",": the first one's is turned into "["
    head, sep, tail = ("," + inner, "", "") if flat else ("," + inner + "[" + deeper, "," + deeper, inner + "]")
    row = [head]
    for column in rendered:
        row += [*column, sep]
    row[-1] = tail
    # the separators, with NULs under the columns
    template = np.frombuffer("".join(p if type(p) is str else "\0" * len(p) for p in row).encode("ascii"), np.uint8)
    fills, start = [], 0  # each column renderer with its place in the row
    for part in row:
        if type(part) is not str:
            fills.append((part, slice(start, start + len(part))))
        start += len(part)
    rows = max(1, _BLOCK_BYTES // len(template))
    pieces = []
    for lo in range(0, len(value), rows):
        block = slice(lo, min(lo + rows, len(value)))
        buf = np.empty((block.stop - lo, len(template)), np.uint8)
        buf[:] = template
        for part, place in fills:
            part.fill(buf[:, place], block)
        if not lo:
            buf[0, 0] = ord("[")
        pieces.append(bytes(buf).replace(b"\0", b""))
    pieces.append((nl + "]").encode())
    return pieces


def _column_parts(column) -> list | None:
    """The parts of one column's text in a row, fixed strs and renderers:
    the digits of an int array whose entries lie in [0, 2^32), or the
    quotes, separators and names of `Labels` of strs; None for any other
    column (a negative or larger int among them: no written file holds
    one, since every index stays below `graphs.MAX_DARTS`)."""
    if type(column) is np.ndarray:
        if column.ndim != 1 or column.dtype.kind not in "iu":
            return None
        low, high = int(column.min()), int(column.max())
        return [_IntColumn(column, high)] if 0 <= low and high < 2**32 else None
    parts: list = ['"']
    stride = len(column)
    for codes, names in column.parts:
        if any(type(s) is not str for s in names):
            return None
        stride //= len(codes)
        parts += [_WordColumn(codes, names, stride) if codes.shape[1] else "e", "|"]
    parts[-1] = '"'
    return parts


class _IntColumn:
    """An int column of entries in [0, 2^32) as right-aligned decimal
    digits, with NULs for leading zeros; `high` is its largest entry."""

    def __init__(self, column: np.ndarray, high: int):
        self.column = column
        self.digits = len(str(high))

    def __len__(self) -> int:
        return self.digits

    def fill(self, out: np.ndarray, block: slice) -> None:
        x = self.column[block].astype(np.uint32)
        for k in range(self.digits - 1, -1, -1):
            q = x // 10
            digit = x - q * 10
            digit += ord("0")
            if k < self.digits - 1:
                digit *= x != 0  # a leading zero: the value has no digit here
            out[:, k] = digit
            x = q


class _WordColumn:
    """One part of a label column: each row of codes as its names' JSON
    text joined by ".", gathered from a table that encodes each name once,
    NUL-padded, with a "." after it.  Label i reads row i // stride of the
    part's codes, modulo their number."""

    def __init__(self, codes: np.ndarray, names: tuple, stride: int):
        encoded = np.array([encode_basestring_ascii(s)[1:-1].encode("ascii") for s in names])
        self.table = np.empty((len(names), encoded.itemsize + 1), np.uint8)
        self.table[:, :-1] = encoded.view(np.uint8).reshape(len(names), encoded.itemsize)
        self.table[:, -1] = ord(".")
        self.codes, self.stride = codes, stride

    def __len__(self) -> int:
        return self.codes.shape[1] * self.table.shape[1] - 1

    def fill(self, out: np.ndarray, block: slice) -> None:
        if self.stride == 1 and len(self.codes) >= block.stop:
            rows = self.codes[block]
        else:
            rows = self.codes[np.arange(block.start, block.stop) // self.stride % len(self.codes)]
        # each row's last "." is the one column dropped
        out[...] = self.table[rows].reshape(len(rows), -1)[:, :-1]


def datum_to_dict(datum: VHDatum) -> dict:
    out: dict = {
        "inv_V": list(datum.inv_V),
        "inv_H": list(datum.inv_H),
        "R": datum.R.tolist(),
    }
    if datum.is_arithmetic():
        spec = datum.field
        out["field"] = {
            "p": spec.p,
            "e": spec.e,
            "modulus": list(spec.modulus),
            "c": list(spec.c),
        }
        out["tau"] = list(datum.tau.coeffs)
        out["sigma"] = list(datum.sigma.coeffs)
        out["V"] = [[list(x.u.coeffs), list(x.v.coeffs)] for x in datum.V_elems]
        out["H"] = [[list(x.u.coeffs), list(x.v.coeffs)] for x in datum.H_elems]
    else:
        out["V"] = list(datum.V)
        out["H"] = list(datum.H)
    return out


def dumps_datum(datum: VHDatum) -> str:
    """Canonical text: sorted top-level keys one per line, values compact,
    so files are diffable and round trips are byte-identical."""
    data = datum_to_dict(datum)
    lines = ["{"]
    keys = sorted(data)
    for i, key in enumerate(keys):
        comma = "," if i + 1 < len(keys) else ""
        value = json.dumps(data[key], sort_keys=True, separators=(",", ":"))
        lines.append(f'"{key}":{value}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _listed(kind: type, value, what: str) -> list:
    """`value` itself when it is a list of exactly `kind` (int or str): a
    float, a bool or a string is never truncated or coerced into an int."""
    if type(value) is not list or any(type(x) is not kind for x in value):
        raise TypeError(f"{what} must be a list of {kind.__name__}, got {value!r}")
    return value


def _field_from_dict(f: dict, n_v: int, n_h: int, n_r: int) -> FieldSpec:
    """The field of a datum file, rebuilt with `make_field`; the file's
    modulus and non-square must be the ones `make_field` picks.

    A quaternionic datum over F_q has q + 1 symbols a side and (q + 1)^2
    tuples, so the sizes are checked before any field table (q^2 entries)
    is built: a table is never larger than the file."""
    p, e = _listed(int, [f["p"], f["e"]], "field p and e")
    if not (n_v == n_h and n_r == n_v * n_h and 1 <= e <= n_v.bit_length() and p ** e == n_v - 1):
        raise ValueError(
            f"field p={p}, e={e} does not fit |V| = {n_v}, |H| = {n_h}, |R| = {n_r}; "
            "a datum over F_q has |V| = |H| = q + 1 and |R| = (q + 1)^2"
        )
    spec = make_field(p, e)
    modulus, c = tuple(_listed(int, f["modulus"], "field modulus")), tuple(_listed(int, f["c"], "field c"))
    if (modulus, c) != (spec.modulus, spec.c):
        raise ValueError(
            f"field modulus {list(modulus)} and non-square {list(c)} differ from "
            f"the canonical {list(spec.modulus)} and {list(spec.c)} of F_{spec.q}"
        )
    return spec


def _coefficients(spec: FieldSpec, value, what: str) -> list[int]:
    """`value` itself when it is the coefficient list of an element of
    F_q: e JSON integers in 0..p-1.  Nothing is reduced mod p."""
    coeffs = _listed(int, value, what)
    if len(coeffs) != spec.e or not all(0 <= x < spec.p for x in coeffs):
        raise TypeError(f"{what} must be {spec.e} integer(s) in 0..{spec.p - 1}, got {value!r}")
    return coeffs


def _nested_ints(value, *lengths) -> list | None:
    """The leaves of `value`, flattened, when it is lists nested to the
    given lengths (None: any length) with exact ints as leaves; None for any
    other shape or leaf.  Each level is one pass over a whole list."""
    level = [value]
    for length in lengths:
        if set(map(type, level)) - {list} or length is not None and set(map(len, level)) - {length}:
            return None
        level = list(chain.from_iterable(level))
    return None if set(map(type, level)) - {int} else level


def _side_elements(spec: FieldSpec, entries, key: str) -> list[Fq2Elem]:
    """The F_q[Z] elements of a file's V or H: pairs [u, v] of coefficient
    lists.  A well-formed side is checked and encoded as whole lists; any
    other is walked entry by entry, to name its first bad entry."""
    digits = _nested_ints(entries, None, 2, spec.e)
    if digits is not None and (not digits or 0 <= min(digits) and max(digits) < spec.p):
        codes = np.array(digits, dtype=np.intp).reshape(-1, 2, spec.e) @ spec.p ** np.arange(spec.e)
        return [Fq2Elem(spec, nu, nv) for nu, nv in codes.tolist()]
    elems = []
    for entry in _listed(list, entries, key):
        if len(entry) != 2:
            raise TypeError(f"{key} entries must be pairs [u, v] of coefficient lists, got {entry!r}")
        u, v = (_coefficients(spec, c, f"{key} coefficients") for c in entry)
        elems.append(spec.ext(u, v))
    return elems


def _check_places(spec: FieldSpec, tau: FqElem, sigma: FqElem,
                  v_elems: list[Fq2Elem], h_elems: list[Fq2Elem]) -> None:
    """A file's V and H must be the norm fibers of tau^-1 and sigma^-1 for
    distinct nonzero places.  With |V| = |H| = q + 1 (checked with the
    field), distinct elements of the right norm are the whole fiber; the
    datum's construction decides that they are distinct, as its labels."""
    if tau.is_zero() or sigma.is_zero() or tau == sigma:
        raise ValueError(f"datum file places tau = {tau} and sigma = {sigma} must be nonzero and distinct")
    for key, name, place, elems in (("V", "tau", tau, v_elems), ("H", "sigma", sigma, h_elems)):
        target = place.inverse()
        off = np.flatnonzero(spec.pair_norm(spec.pair(elems)) != target.n)
        if off.size:
            x = elems[off[0]]
            raise ValueError(f"datum file {key}[{off[0]}] = {x} has norm {x.norm()}, not {name}^-1 = {target}")


def datum_from_dict(data: dict) -> VHDatum:
    """Read a datum file's dict.  Nothing is coerced: every index, field
    parameter and coefficient must be a JSON integer, each coefficient in
    0..p-1, and the labels of a datum without a field must be strings.  A
    field datum's V and H must be the norm fibers of its places."""
    try:
        inv_v = _listed(int, data["inv_V"], "inv_V")
        inv_h = _listed(int, data["inv_H"], "inv_H")
        rows = data["R"]
        if _nested_ints(rows, None, 4) is None:  # names the first entry that is no list of ints
            rows = [_listed(int, t, "an R entry") for t in rows]
        if "field" in data:
            spec = _field_from_dict(data["field"], len(data["V"]), len(data["H"]), len(rows))
            v_elems, h_elems = (_side_elements(spec, data[key], key) for key in ("V", "H"))
            tau, sigma = (spec.elem(_coefficients(spec, data[key], key)) for key in ("tau", "sigma"))
            _check_places(spec, tau, sigma, v_elems, h_elems)
            datum = VHDatum(
                V=fq2_labels(v_elems),
                H=fq2_labels(h_elems),
                inv_V=inv_v,
                inv_H=inv_h,
                R=rows,
                field=spec,
                tau=tau,
                sigma=sigma,
                V_elems=v_elems,
                H_elems=h_elems,
            )
        else:
            datum = VHDatum(
                V=_listed(str, data["V"], "V"),
                H=_listed(str, data["H"], "H"),
                inv_V=inv_v,
                inv_H=inv_h,
                R=rows,
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed datum file: {exc!r}") from exc
    except InvalidDatum as exc:
        raise ValueError(f"datum file fails validation: {exc.report.violations[0]}") from exc
    return datum


def loads_datum(text: str) -> VHDatum:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed datum file: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # lists nested deeper than the decoder recurses
        raise ValueError(f"malformed datum file: {exc!r}") from exc
    return datum_from_dict(data)


def write_datum(datum: VHDatum, path: str) -> None:
    atomic_write(path, [dumps_datum(datum).encode()])


def read_datum(path: str) -> VHDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_datum(fh.read())
