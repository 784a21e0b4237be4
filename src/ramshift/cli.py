"""Deterministic command-line surface over the library.

Commands: datum, automaton, graph, product-graph, verify-ramanujan,
bass-ihara, subshift-check, mixing, tiles.  Formats: JSON for reports and
datum files, DOT for graphs and automata, CSV for spectra and mixing
tables, SVG for tiles.  Every JSON report goes through one writer,
`vhdatum.json_text`: stdlib json's sorted-key, one-space-indent text,
with a graph's dart and adjacency arrays written straight from numpy.

Every output embeds the resolved run configuration for provenance (plus a
timestamp unless --no-timestamp is given): the options the run read, so
not those that a --datum or --graph-json file replaces, which are usage
errors beside it.  Files are written atomically, and nothing is
randomized, so reruns with the same flags are byte-identical modulo the
timestamp, for the same BLAS thread count: the last digits of eigenvalues
and of the distances that bass-ihara reports can change with the number
of threads (OPENBLAS_NUM_THREADS).  No color is ever emitted.

Exit codes: 0 all checks pass, 1 verified violation, 2 usage or input
error (a --tau, --sigma or --s0 place outside 1..q-1 among them), 3
resource cap exceeded (including any graph that verify-ramanujan skipped
above --dense-cap).  Sizes are counted before anything is built:
verify-ramanujan's vertices, bass-ihara's darts and mixing's strips.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from functools import cache, partial
from itertools import islice

from . import graphs, mealy, spectral, subshift, vhdatum
from .ffield import make_field
from .vhdatum import atomic_write, json_text

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# the options that a datum or graph file replaces, with their defaults when
# no file replaces them; None leaves an option out of the run's config
_DATUM_DEFAULTS = {"p": 3, "e": 1, "tau": 1, "sigma": 2}
_REPLACED = {
    "datum": _DATUM_DEFAULTS,
    "graph_json": {"datum": None, **_DATUM_DEFAULTS, "levels": "1:4", "side": "both"},
}


def _resolve_replaced(args: argparse.Namespace) -> None:
    """Refuse an option given beside a file that replaces it (ValueError),
    and give each replaceable option that no file replaces its default, so
    the run's config records exactly the options the run reads."""
    replaced = set()
    for source, names in _REPLACED.items():
        if not getattr(args, source, None):  # as the commands read it: an empty path is none
            continue
        given = next((name for name in names if getattr(args, name, None) is not None), None)
        if given is not None:
            flag = "--" + given.replace("_", "-")
            raise ValueError(f"{flag} cannot be given with --{source.replace('_', '-')}, which replaces it")
        replaced.update(names)
    for names in _REPLACED.values():
        for name, default in names.items():
            if name not in replaced and getattr(args, name, False) is None:
                setattr(args, name, default)


def _config_dict(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    if not args.no_timestamp:
        cfg["generated_at"] = datetime.now(timezone.utc).isoformat()
    return cfg


def _emit(args, text: str) -> None:
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload: dict) -> None:
    payload = dict(payload)
    payload["config"] = _config_dict(args)
    _emit(args, json_text(payload) + "\n")


def _header(args) -> str:
    return f"config: {json.dumps(_config_dict(args), sort_keys=True, default=str)}"


def _place(spec, flag: str, value: int) -> int:
    """A place given on the command line: the canonical encoding of a
    nonzero element of F_q, so 1..q-1 (never reduced mod q)."""
    if not 1 <= value < spec.q:
        raise ValueError(f"{flag} {value} is not a nonzero element of F_{spec.q}: places are 1..{spec.q - 1}")
    return value


def _datum_from_args(args) -> vhdatum.VHDatum:
    if getattr(args, "datum", None):
        return vhdatum.read_datum(args.datum)
    spec = make_field(args.p, args.e)
    tau, sigma = _place(spec, "--tau", args.tau), _place(spec, "--sigma", args.sigma)
    return vhdatum.build_quaternionic_datum(spec, tau, sigma)


def _parse_levels(text: str) -> list[int]:
    """verify-ramanujan's levels: a range lo:hi, or a comma list in which
    each level appears once (each is one entry of the report)."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        levels = list(range(int(lo), int(hi) + 1))
        if not levels:
            raise ValueError(f"empty level range {text}")
        return levels
    levels = [int(x) for x in text.split(",")]
    repeated = next((n for i, n in enumerate(levels) if n in levels[:i]), None)
    if repeated is not None:
        raise ValueError(f"level {repeated} is repeated in --levels {text}")
    return levels


# ---------------------------------------------------------------------------
# commands


def cmd_datum(args) -> int:
    # building and reading both validate the datum and raise when it is invalid
    datum = _datum_from_args(args)
    violations = []
    relations_ok = None
    if datum.is_arithmetic():
        relations = vhdatum.verify_relations(datum)
        relations_ok = relations.ok
        violations += relations.violations
    if args.write:
        vhdatum.write_datum(datum, args.write)
    payload = {
        "q": datum.field.q if datum.is_arithmetic() else None,
        "n_V": len(datum.V),
        "n_H": len(datum.H),
        "n_R": len(datum.R),
        "valid": True,
        "relations_verified": relations_ok,
        "violations": violations,
        "written": args.write,
    }
    _emit_json(args, payload)
    if violations:
        print("datum failed verification", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_automaton(args) -> int:
    datum = _datum_from_args(args)
    m = mealy.from_datum(datum)
    if args.side == "B":
        m = mealy.dual(m)
    _emit(args, mealy.mealy_to_dot(m, header=_header(args)))
    return EXIT_OK


def cmd_graph(args) -> int:
    datum = _datum_from_args(args)
    graph = graphs.level_graph(datum, args.side, args.level)
    if args.format == "dot":
        _emit(args, graphs.ugraph_to_dot(graph, header=_header(args)))
    else:
        payload = graphs.ugraph_to_json_dict(graph)
        _emit_json(args, payload)
    return EXIT_OK


def cmd_product_graph(args) -> int:
    spec = make_field(args.p, args.e)
    s0 = [_place(spec, "--s0", int(x)) for x in args.s0.split(",")]
    levels = tuple(int(x) for x in args.levels.split(","))
    graph = graphs.product_level_graph(spec, s0, _place(spec, "--tau", args.tau), levels)
    if args.format == "dot":
        _emit(args, graphs.ugraph_to_dot(graph, header=_header(args)))
    else:
        payload = graphs.ugraph_to_json_dict(graph)
        structure = graphs.structure_predicates(graph)
        payload["connected"] = structure.connected
        payload["bipartite"] = structure.bipartite
        payload["regular_degree"] = structure.regular_degree
        _emit_json(args, payload)
    return EXIT_OK


def _tower_checks(datum, side: str, tol: float):
    """ramanujan_check of a level of one side, from a covering tower built
    from level 1 up to the highest level asked for so far: a level's
    spectrum does not depend on which levels were requested."""
    tower, built = spectral.tower_spectra(graphs.level_tower(datum, side)), []

    def check(level: int) -> spectral.SpectralReport:
        built.extend(islice(tower, max(0, level - len(built))))
        graph, eigs, _ = built[level - 1]
        return spectral.ramanujan_check(graph, tol=tol, eigenvalues=eigs)

    return check


def cmd_verify_ramanujan(args) -> int:
    # one job per graph: (entry tags, CSV block name, vertex count, check);
    # a level is checked, and its tower built up to it, only when its
    # closed-form size is within the cap
    if args.graph_json:
        with open(args.graph_json, "r", encoding="utf-8") as fh:
            graph = graphs.ugraph_from_json(fh.read())
        jobs = [({"source": args.graph_json}, args.graph_json, graph.n_vertices(),
                 partial(spectral.ramanujan_check, graph, tol=args.tol))]
    else:
        datum = _datum_from_args(args)
        sides = ("A", "B") if args.side == "both" else (args.side,)
        checks = {side: _tower_checks(datum, side, args.tol) for side in sides}
        jobs = [
            ({"side": side, "level": level}, f"{side}_{level}", graphs.level_size(datum, side, level),
             partial(checks[side], level))
            for level in _parse_levels(args.levels)
            for side in sides
        ]
    verdicts = []
    spectra = []
    for tags, name, n_vertices, check in jobs:
        if n_vertices > args.dense_cap:
            verdicts.append({"skipped": True, "n_vertices": n_vertices, **tags})
            continue
        report = check()
        entry = spectral.spectral_report_to_dict(report)
        entry.update(skipped=False, connected=report.structure.connected,
                     non_bipartite=not report.bipartite, **tags)
        if not report.ramanujan:
            nontrivial = spectral.nontrivial_spectrum(report.eigenvalues, report.bipartite)
            entry["offending_eigenvalue"] = float(max(nontrivial, key=abs))
        verdicts.append(entry)
        spectra.append((name, report))
    violated = not all(report.ramanujan for _, report in spectra)
    skipped = len(verdicts) - len(spectra)
    if args.format == "csv":
        blocks = [f"# {name}\n{spectral.spectral_report_to_csv(rep)}" for name, rep in spectra]
        _emit(args, f"# {_header(args)}\n" + "".join(blocks))
    else:
        _emit_json(args, {"verdicts": verdicts, "all_pass": not (violated or skipped)})
    if violated:
        return EXIT_VIOLATION
    if skipped:
        print(f"resource cap: {skipped} graph(s) above --dense-cap {args.dense_cap} "
              "were skipped", file=sys.stderr)
        return EXIT_CAP
    return EXIT_OK


def cmd_bass_ihara(args) -> int:
    datum = _datum_from_args(args)
    # darts in closed form: one per vertex and automaton state (V for A_n, H for B_n)
    n_states = len(datum.V if args.side == "A" else datum.H)
    spectral.check_dart_cap(graphs.level_size(datum, args.side, args.level) * n_states)
    level = next(islice(graphs.level_tower(datum, args.side), args.level, None))
    report = spectral.nb_transfer_report(level.graph, (level.inversion, level.reversal), level.rotation)
    payload = {
        "n_darts": report.n_darts,
        "d": report.d,
        "max_dist_direct_to_transfer": report.max_dist_direct_to_transfer,
        "max_dist_transfer_to_direct": report.max_dist_transfer_to_direct,
        "max_modulus_defect": report.max_modulus_defect,
        "agrees": report.agrees(args.tol),
    }
    _emit_json(args, payload)
    return EXIT_OK if report.agrees(args.tol) else EXIT_VIOLATION


def cmd_subshift_check(args) -> int:
    datum = _datum_from_args(args)
    report = subshift.build_xd(datum).report
    payload = {
        "s": report.n_symbols,
        "degree": report.degree,
        "consistent": report.consistent,
        "products_01": report.products_01,
        "commute_exactly": report.commute_exactly,
        "uniquely_extendable": report.uniquely_extendable,
    }
    _emit_json(args, payload)
    ok = report.degree is not None and report.uniquely_extendable
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_mixing(args) -> int:
    datum = _datum_from_args(args)
    table = subshift.mixing_table(datum, args.k, args.max_n, direction=args.direction)
    _emit(args, subshift.mixing_table_to_csv(table, header=_header(args)))
    return EXIT_OK if table.all_ok else EXIT_VIOLATION


def cmd_tiles(args) -> int:
    datum = _datum_from_args(args)
    ts = vhdatum.wang_tiles(datum)
    _emit(args, vhdatum.tiles_to_svg(ts, header=_header(args)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _tol(text: str) -> float:
    tol = float(text)
    if not 0 <= tol < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"{text} is not a finite tolerance >= 0")
    return tol


def _dense_cap(text: str) -> int:
    cap = int(text)
    if not 0 <= cap <= spectral.DENSE_EIG_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{cap} is not a vertex count from 0 to the dense eigensolver limit {spectral.DENSE_EIG_LIMIT}"
        )
    return cap


def _add_datum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--datum", help="read the datum from a JSON file instead of building it")
    p.add_argument("--p", type=int, help="odd prime characteristic (default 3)")
    p.add_argument("--e", type=int, help="extension degree, q = p^e (default 1)")
    p.add_argument("--tau", type=int, help="first place, canonical encoding (default 1)")
    p.add_argument("--sigma", type=int, help="second place (default 2)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp for byte-identical reruns")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse leaves it unchanged
    while parsing, and the commands it binds read the library's modules
    when they run, not when it is built."""
    parser = argparse.ArgumentParser(
        prog="ramshift",
        description="quaternionic VH-data, Mealy lifts, Ramanujan level graphs, and regular shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datum", help="build, validate, and verify a quaternionic datum")
    _add_datum_args(p)
    p.add_argument("--write", help="also write the canonical datum file here")
    _add_common(p)
    p.set_defaults(func=cmd_datum)

    p = sub.add_parser("automaton", help="export the datum automaton as DOT")
    _add_datum_args(p)
    p.add_argument("--side", choices=("A", "B"), default="A", help="A = datum automaton, B = its dual")
    _add_common(p)
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("graph", help="export a level graph")
    _add_datum_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    _add_common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("product-graph", help="export a multi-dimensional level graph")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--s0", required=True, help="comma-separated places, e.g. 1,2,3")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--levels", required=True, help="comma-separated level tuple, one per non-tau place")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    _add_common(p)
    p.set_defaults(func=cmd_product_graph)

    p = sub.add_parser("verify-ramanujan", help="spectral verification campaign over level graphs")
    _add_datum_args(p)
    p.add_argument("--levels", help="range lo:hi or comma list (default 1:4)")
    p.add_argument("--side", choices=("A", "B", "both"), help="default both")
    p.add_argument("--tol", type=_tol, default=1e-8)
    p.add_argument("--dense-cap", type=_dense_cap, default=spectral.DENSE_EIG_LIMIT,
                   help="skip levels with more vertices than this "
                        f"(at most {spectral.DENSE_EIG_LIMIT}, the dense eigensolver limit)")
    p.add_argument("--graph-json", help="verify a single graph from a JSON file instead")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json verdicts or per-graph spectrum CSV")
    _add_common(p)
    p.set_defaults(func=cmd_verify_ramanujan)

    p = sub.add_parser("bass-ihara", help="compare direct dart spectra with the transferred set")
    _add_datum_args(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--tol", type=_tol, default=1e-6)
    _add_common(p)
    p.set_defaults(func=cmd_bass_ihara)

    p = sub.add_parser("subshift-check", help="regularity / consistency / extendability report")
    _add_datum_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_subshift_check)

    p = sub.add_parser("mixing", help="exact correlation-decay table as CSV")
    _add_datum_args(p)
    p.add_argument("--k", type=int, default=1, help="strip height")
    p.add_argument("--max-n", type=int, default=20)
    p.add_argument("--direction", choices=("horizontal", "vertical"), default="horizontal")
    _add_common(p)
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser("tiles", help="export the Wang tileset as SVG")
    _add_datum_args(p)
    _add_common(p)
    p.set_defaults(func=cmd_tiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_replaced(args)
        return args.func(args)
    except spectral.SizeCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
