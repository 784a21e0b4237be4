"""VH-data: relation sets over two alphabets with fixed-point-free
involutions, their validation, the quaternionic construction, Wang-tile
export, and the canonical JSON file format.

A VH-datum D = (V, H, R) consists of symbol lists V (size 2m) and H (size
2n), involutions a -> a^-1 on each, and a set R of quadruples
(a, b, c, d) in V x H x H x V subject to:

  (1) closure: (a,b,c,d) in R forces (a^-1,c,b,d^-1), (d^-1,c^-1,b^-1,a^-1)
      and (d,b^-1,c^-1,a) into R;
  (2) non-degeneracy: (a,b,b^-1,a^-1) never lies in R;
  (3) the four projections of R to V x H / H x V pairs ((a,b), (c,d),
      (a,c), (b,d)) are bijections, so |R| = |V| * |H|.

Each quadruple is a unit square tile with side colors a (left), b (top),
c (bottom), d (right); property (3) makes the tileset 4-way deterministic.

The quaternionic datum D_{tau,sigma} has V and H the norm fibers of
tau^-1 and sigma^-1 in F_q[Z], negation as the involutions, and

    R = { (alpha, beta, zeta_alpha(beta)*beta, zeta_beta(alpha)*alpha) }

with the unit-norm twist zeta_a(b) = (1 + a/b) / (1 + conj(a)/conj(b)).
Every tuple is certified against the quaternion identity
(1 + alpha F)(1 + beta F) ~ (1 + gamma F)(1 + delta F) by `verify_relations`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as _field
from json.encoder import encode_basestring_ascii

from .ffield import FieldSpec, FqElem, Fq2Elem, fq2_label, make_field, norm_fiber
from .quaternion import QuatElem, proportional


# ---------------------------------------------------------------------------
# datum type


@dataclass
class VHDatum:
    """A VH-datum: side alphabets V and H with their involutions, and the
    relation tuples R = {(a, b, c, d)}.

    `validate_datum` runs where a datum enters the library:
    `build_quaternionic_datum` checks what it builds, `datum_from_dict`
    (and so `read_datum`) checks what it reads, and `mealy.from_datum`
    checks every datum it turns into an automaton; `direct_product_datum`
    is valid by construction.  Consumers downstream of those (`build_xd`,
    `build_wang_shift`, `wang_tiles`) trust the datum they are given."""

    V: list[str]
    H: list[str]
    inv_V: list[int]
    inv_H: list[int]
    R: list[tuple[int, int, int, int]]
    # arithmetic tag, present for quaternionic datums
    field: FieldSpec | None = None
    tau: FqElem | None = None
    sigma: FqElem | None = None
    V_elems: list[Fq2Elem] | None = _field(default=None, repr=False)
    H_elems: list[Fq2Elem] | None = _field(default=None, repr=False)

    def is_arithmetic(self) -> bool:
        return self.field is not None

    def tuple_by_ab(self) -> dict[tuple[int, int], tuple[int, int, int, int]]:
        return {(a, b): t for t in self.R for a, b in [(t[0], t[1])]}

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


# ---------------------------------------------------------------------------
# quaternionic construction


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


def build_quaternionic_datum(spec: FieldSpec, tau, sigma) -> VHDatum:
    """The datum D_{tau,sigma}: V, H the norm fibers of tau^-1 and sigma^-1,
    negation involutions, and R generated by the zeta twist.

    tau and sigma must be distinct nonzero elements of F_q (ints accepted
    via the canonical encoding).  The result passes `validate_datum`.
    """
    tau = spec.elem(tau)
    sigma = spec.elem(sigma)
    if tau.is_zero() or sigma.is_zero():
        raise ValueError("tau and sigma must be nonzero")
    if tau == sigma:
        raise ValueError("tau and sigma must be distinct")

    v_elems = norm_fiber(spec, tau.inverse())
    h_elems = norm_fiber(spec, sigma.inverse())
    v_index = {x: i for i, x in enumerate(v_elems)}
    h_index = {x: i for i, x in enumerate(h_elems)}
    inv_v = [v_index[-x] for x in v_elems]
    inv_h = [h_index[-x] for x in h_elems]

    tuples = []
    for ia, alpha in enumerate(v_elems):
        for ib, beta in enumerate(h_elems):
            gamma = zeta(alpha, beta) * beta
            delta = zeta(beta, alpha) * alpha
            tuples.append((ia, ib, h_index[gamma], v_index[delta]))

    datum = VHDatum(
        V=[fq2_label(x) for x in v_elems],
        H=[fq2_label(x) for x in h_elems],
        inv_V=inv_v,
        inv_H=inv_h,
        R=tuples,
        field=spec,
        tau=tau,
        sigma=sigma,
        V_elems=v_elems,
        H_elems=h_elems,
    )
    report = validate_datum(datum)
    if not report.ok:
        raise RuntimeError(f"constructed datum is invalid: {report.violations[:3]}")
    return datum


# ---------------------------------------------------------------------------
# validation


def validate_datum(datum: VHDatum) -> DatumReport:
    """Check the involution axioms and datum properties (1)-(3).

    Violations are collected into the report rather than raised, so a
    broken datum can be inspected.
    """
    bad: list[str] = []
    checked = 0
    nv, nh = len(datum.V), len(datum.H)

    def tup_label(t):
        a, b, c, d = t
        return f"({datum.V[a]}, {datum.H[b]}, {datum.H[c]}, {datum.V[d]})"

    for name, size, inv in (("inv_V", nv, datum.inv_V), ("inv_H", nh, datum.inv_H)):
        checked += 1
        if len(inv) != size or sorted(inv) != list(range(size)):
            bad.append(f"{name} is not a permutation of 0..{size - 1}")
            continue
        for i, j in enumerate(inv):
            if j == i:
                bad.append(f"{name} has fixed point at index {i}")
            if inv[j] != i:
                bad.append(f"{name} is not an involution at index {i}")
    if nv % 2 or nh % 2:
        bad.append("V and H must have even size")
    if bad:
        return DatumReport(bad, checked)

    rset = set(datum.R)
    if len(rset) != len(datum.R):
        bad.append("R contains duplicate tuples")
    for t in datum.R:
        a, b, c, d = t
        if not (0 <= a < nv and 0 <= d < nv and 0 <= b < nh and 0 <= c < nh):
            bad.append(f"tuple {t} has out-of-range indices")
            return DatumReport(bad, checked)

    ia, ih = datum.inv_V, datum.inv_H
    for t in datum.R:
        a, b, c, d = t
        checked += 1
        # property (1): the three companion tuples
        for comp in ((ia[a], c, b, ia[d]), (ia[d], ih[c], ih[b], ia[a]), (d, ih[b], ih[c], a)):
            if comp not in rset:
                bad.append(f"property (1): companion {tup_label(comp)} of {tup_label(t)} missing")
        # property (2)
        if c == ih[b] and d == ia[a]:
            bad.append(f"property (2): degenerate tuple {tup_label(t)}")

    # property (3): the four projections are bijections
    if len(datum.R) != nv * nh:
        bad.append(f"|R| = {len(datum.R)} but |V||H| = {nv * nh}")
    for name, proj in (
        ("(a,b)", lambda t: (t[0], t[1])),
        ("(c,d)", lambda t: (t[2], t[3])),
        ("(a,c)", lambda t: (t[0], t[2])),
        ("(b,d)", lambda t: (t[1], t[3])),
    ):
        checked += 1
        seen: dict[tuple[int, int], tuple] = {}
        for t in datum.R:
            key = proj(t)
            if key in seen:
                bad.append(f"property (3): projection {name} collides on {tup_label(t)} and {tup_label(seen[key])}")
            seen[key] = t

    return DatumReport(bad, checked)


def verify_relations(datum: VHDatum) -> DatumReport:
    """Certify an arithmetic datum against the quaternion algebra.

    For every (alpha, beta, gamma, delta) in R the products
    (1 + alpha F)(1 + beta F) and (1 + gamma F)(1 + delta F) must be
    proportional, and for every fiber element xi the product
    (1 + xi F)(1 - xi F) must be a scalar.
    """
    if not datum.is_arithmetic():
        raise ValueError("verify_relations needs a datum with field values")
    spec = datum.field
    bad: list[str] = []
    checked = 0
    gen = lambda x: QuatElem.one_plus_alpha_f(spec, x)

    for ia, ib, ic, idd in datum.R:
        checked += 1
        lhs = gen(datum.V_elems[ia]) * gen(datum.H_elems[ib])
        rhs = gen(datum.H_elems[ic]) * gen(datum.V_elems[idd])
        if not proportional(lhs, rhs):
            bad.append(
                f"square relation fails for ({datum.V[ia]}, {datum.H[ib]}, "
                f"{datum.H[ic]}, {datum.V[idd]}): lhs = {lhs}, rhs = {rhs}"
            )
    for xi in list(datum.V_elems) + list(datum.H_elems):
        checked += 1
        prod = gen(xi) * gen(-xi)
        if not prod.is_scalar():
            bad.append(f"inverse relation fails for {fq2_label(xi)}: {prod}")
    return DatumReport(bad, checked)


# ---------------------------------------------------------------------------
# generic datums


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


# ---------------------------------------------------------------------------
# Wang tiles


@dataclass(frozen=True)
class WangTile:
    left: str
    top: str
    bottom: str
    right: str


@dataclass
class WangTileSet:
    tiles: list[WangTile]

    def four_way_deterministic(self) -> bool:
        """Any two adjacent side colors determine the tile uniquely."""
        for keys in (
            lambda t: (t.left, t.top),
            lambda t: (t.bottom, t.right),
            lambda t: (t.left, t.bottom),
            lambda t: (t.top, t.right),
        ):
            seen = set()
            for t in self.tiles:
                k = keys(t)
                if k in seen:
                    return False
                seen.add(k)
        return True

    def side_color_counts(self) -> dict[str, dict[str, int]]:
        counts: dict[str, dict[str, int]] = {s: {} for s in ("left", "top", "bottom", "right")}
        for t in self.tiles:
            for side in counts:
                color = getattr(t, side)
                counts[side][color] = counts[side].get(color, 0) + 1
        return counts


def wang_tiles(datum: VHDatum) -> WangTileSet:
    """One tile per relation tuple: left a, top b, bottom c, right d."""
    tiles = [
        WangTile(left=datum.V[a], top=datum.H[b], bottom=datum.H[c], right=datum.V[d])
        for a, b, c, d in datum.R
    ]
    return WangTileSet(tiles)


def tiles_to_svg(ts: WangTileSet, header: str | None = None) -> str:
    """Deterministic SVG: 100x100 squares with the four side labels, four
    tiles per row."""
    size, pad, per_row = 100, 20, 4
    rows = (len(ts.tiles) + per_row - 1) // per_row
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
    for idx, t in enumerate(ts.tiles):
        x0 = pad + (idx % per_row) * (size + pad)
        y0 = pad + (idx // per_row) * (size + pad)
        cx, cy = x0 + size / 2, y0 + size / 2
        # four triangles: left, top, bottom, right
        tri = (
            (t.left, f"{x0},{y0} {x0},{y0 + size} {cx},{cy}"),
            (t.top, f"{x0},{y0} {x0 + size},{y0} {cx},{cy}"),
            (t.bottom, f"{x0},{y0 + size} {x0 + size},{y0 + size} {cx},{cy}"),
            (t.right, f"{x0 + size},{y0} {x0 + size},{y0 + size} {cx},{cy}"),
        )
        for label, points in tri:
            out.append(
                f'<polygon points="{points}" fill="{color_for(label)}" stroke="black" stroke-width="0.5"/>'
            )
        style = 'font-size="11" font-family="monospace" text-anchor="middle"'
        out.append(f'<text x="{x0 + 13}" y="{cy + 4}" {style}>{t.left}</text>')
        out.append(f'<text x="{cx}" y="{y0 + 14}" {style}>{t.top}</text>')
        out.append(f'<text x="{cx}" y="{y0 + size - 6}" {style}>{t.bottom}</text>')
        out.append(f'<text x="{x0 + size - 13}" y="{cy + 4}" {style}>{t.right}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def export_tiles(ts: WangTileSet, path: str, header: str | None = None) -> None:
    """Write the tileset SVG atomically (temp file + rename)."""
    atomic_write(path, tiles_to_svg(ts, header=header))


# ---------------------------------------------------------------------------
# file format


def atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def json_text(payload) -> str:
    """The indented JSON text of every report and graph file: byte for byte
    `json.dumps(payload, sort_keys=True, indent=1, default=str)`.

    The json module drops to its pure-Python encoder whenever an indent is
    given.  Here dicts with str keys are walked by hand, and a flat list of
    exact ints and strs, or a list of non-empty such rows, is one C-encoder
    call with the indent folded into the item separator.  Anything else is
    the stdlib text re-indented by its depth.  The re-indenting replaces are
    safe because an ASCII-encoded JSON string never holds a raw newline.
    """
    return _json_at(payload, "\n")


_SCALARS = {int, str}  # exact types the C encoder writes as stdlib does


def _json_at(value, nl: str) -> str:
    """`value`'s text when its line breaks are `nl` (newline + its depth)."""
    inner = nl + " "
    if type(value) is dict and value and {type(k) for k in value} == {str}:
        items = [encode_basestring_ascii(k) + ": " + _json_at(value[k], inner)
                 for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(value) is list and value:
        types = {type(x) for x in value}
        if types <= _SCALARS:
            body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
            return "[" + inner + body + nl + "]"
        if types == {list} and all(value) and {type(x) for row in value for x in row} <= _SCALARS:
            deeper = inner + " "
            body = json.dumps(value, separators=("," + deeper, ": "))[2:-2]
            body = body.replace("]," + deeper + "[", inner + "]," + inner + "[" + deeper)
            return "[" + inner + "[" + deeper + body + inner + "]" + nl + "]"
    return json.dumps(value, sort_keys=True, indent=1, default=str).replace("\n", nl)


def datum_to_dict(datum: VHDatum) -> dict:
    out: dict = {
        "inv_V": list(datum.inv_V),
        "inv_H": list(datum.inv_H),
        "R": [list(t) for t in datum.R],
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


def datum_from_dict(data: dict) -> VHDatum:
    """Read a datum file's dict.  Nothing is coerced: every index, field
    parameter and coefficient must be a JSON integer, and the labels of a
    datum without a field must be strings."""
    try:
        inv_v = _listed(int, data["inv_V"], "inv_V")
        inv_h = _listed(int, data["inv_H"], "inv_H")
        tuples = [tuple(_listed(int, t, "an R entry")) for t in data["R"]]
        if any(len(t) != 4 for t in tuples):
            raise ValueError("R entries must be 4-tuples")
        if "field" in data:
            spec = _field_from_dict(data["field"], len(data["V"]), len(data["H"]), len(tuples))
            v_elems, h_elems = (
                [spec.ext(_listed(int, u, f"{key} coefficients"), _listed(int, v, f"{key} coefficients"))
                 for u, v in data[key]]
                for key in ("V", "H")
            )
            datum = VHDatum(
                V=[fq2_label(x) for x in v_elems],
                H=[fq2_label(x) for x in h_elems],
                inv_V=inv_v,
                inv_H=inv_h,
                R=tuples,
                field=spec,
                tau=spec.elem(_listed(int, data["tau"], "tau")),
                sigma=spec.elem(_listed(int, data["sigma"], "sigma")),
                V_elems=v_elems,
                H_elems=h_elems,
            )
        else:
            datum = VHDatum(
                V=_listed(str, data["V"], "V"),
                H=_listed(str, data["H"], "H"),
                inv_V=inv_v,
                inv_H=inv_h,
                R=tuples,
            )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed datum file: {exc!r}") from exc
    report = validate_datum(datum)
    if not report.ok:
        raise ValueError(f"datum file fails validation: {report.violations[0]}")
    return datum


def loads_datum(text: str) -> VHDatum:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed datum file: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    return datum_from_dict(data)


def write_datum(datum: VHDatum, path: str) -> None:
    atomic_write(path, dumps_datum(datum))


def read_datum(path: str) -> VHDatum:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_datum(fh.read())
