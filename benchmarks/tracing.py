"""Per-layer spans and counts, recorded from the benchmark's own files.

`installed(recorder)` wraps the public functions of each ramshift layer in
place and restores them on exit.  A wrapper is set on every module attribute
bound to the function, so names imported across layers
(`spectral.structure_predicates`, `subshift.matrix_power_int`,
`graphs.action_graph`, ...) are traced too.  Spans stay in memory as
(parent, group, start, end) and are summarised or written out at the end.

Field element arithmetic (`Fq2Elem` mul, div, conj, norm) is counted, not
spanned: a span per field operation would swamp the run, so its time shows
in the caller's self time.  Counts named `*_computed` are derived from
problem sizes (for example n^2 * 8 bytes for a dense int64 adjacency), not
measured.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("ffield", "quaternion", "vhdatum", "mealy", "graphs", "spectral", "subshift", "cli")

# Flop estimate of eig_symmetric on an n x n matrix: 9 n^3 for a symmetric
# eigendecomposition with vectors (Golub and Van Loan) plus 2 n^3 for the
# residual product A V that it checks.
EIG_FLOPS_PER_N3 = 11


def _n_products(n: int) -> int:
    # square-and-multiply in matrix_power_int: one squaring per bit, one
    # product per set bit
    return n.bit_length() + bin(n).count("1")


def _m_eig(rec, args, kwargs, result):
    n = len(args[0])
    rec.counts["spectral.eig.flops_computed"] += EIG_FLOPS_PER_N3 * n**3
    rec.maxima["spectral.eig.max_dim"] = max(rec.maxima["spectral.eig.max_dim"], n)


def _m_power(rec, args, kwargs, result):
    rec.counts["spectral.exact_kernel.muladds_computed"] += _n_products(args[1]) * len(args[0]) ** 3


def _m_table(rec, args, kwargs, result):
    rec.counts["spectral.exact_kernel.muladds_computed"] += args[1] * len(args[0]) ** 3


def _m_adjacency(rec, args, kwargs, result):
    rec.counts["graphs.adjacency.bytes_computed"] += args[0].n_vertices() ** 2 * 8


def _m_level_graph(rec, args, kwargs, result):
    rec.counts["graphs.level_graph.vertices"] += result.n_vertices()
    rec.counts["graphs.level_graph.darts"] += result.n_darts()


def _m_action_graph(rec, args, kwargs, result):
    rec.counts["mealy.action_graph.vertices"] += len(result.vertices)


def _m_relations(rec, args, kwargs, result):
    rec.counts["vhdatum.relations_checked"] += result.checked


def _m_transition(rec, args, kwargs, result):
    dim = len(result.patterns)
    rec.maxima["subshift.strip_dim.max"] = max(rec.maxima["subshift.strip_dim.max"], dim)


def _m_emit(rec, args, kwargs, result):
    rec.counts["cli.output_bytes"] += len(args[1].encode())


def _m_fq2(rec, args, kwargs, result):
    rec.counts["ffield.fq2_ops"] += 1


# (module, attribute path, span group or None for count-only, measure): the
# public functions of each layer that the four campaigns reach.  A group of
# None adds no span; the measure still runs.
TARGETS = [
    ("ffield", "make_field", "ffield.make_field", None),
    ("ffield", "norm_fiber", "ffield.norm_fiber", None),
    ("ffield", "Fq2Elem.__mul__", None, _m_fq2),
    ("ffield", "Fq2Elem.__truediv__", None, _m_fq2),
    ("ffield", "Fq2Elem.conj", None, _m_fq2),
    ("ffield", "Fq2Elem.norm", None, _m_fq2),
    ("quaternion", "QuatElem.__mul__", "quaternion.mul", None),
    ("quaternion", "proportional", "quaternion.proportional", None),
    ("vhdatum", "build_quaternionic_datum", "vhdatum.build", None),
    ("vhdatum", "validate_datum", "vhdatum.validate", None),
    ("vhdatum", "verify_relations", "vhdatum.verify_relations", _m_relations),
    ("vhdatum", "read_datum", "vhdatum.read_datum", None),
    ("vhdatum", "write_datum", "vhdatum.write_datum", None),
    ("mealy", "from_datum", "mealy.from_datum", None),
    ("mealy", "dual", "mealy.dual", None),
    ("mealy", "action_graph", "mealy.action_graph", _m_action_graph),
    ("mealy", "reduced_words", "mealy.reduced_words", None),
    ("graphs", "level_graph", "graphs.level_graph", _m_level_graph),
    ("graphs", "product_level_graph", "graphs.product_level_graph", None),
    ("graphs", "UGraph.adjacency", "graphs.adjacency", _m_adjacency),
    ("graphs", "structure_predicates", "graphs.structure_predicates", None),
    ("graphs", "nb_matrix", "graphs.nb_matrix", None),
    ("graphs", "ugraph_to_dot", "graphs.export", None),
    ("graphs", "ugraph_to_json_dict", "graphs.export", None),
    ("spectral", "eig_symmetric", "spectral.eig", _m_eig),
    ("spectral", "ramanujan_check", "spectral.ramanujan_check", None),
    ("spectral", "nb_transfer_report", "spectral.nb_transfer", None),
    ("spectral", "nb_spectrum_direct", "spectral.nb_spectrum_direct", None),
    ("spectral", "second_modulus_directed", "spectral.second_modulus_directed", None),
    ("spectral", "matrix_power_int", "spectral.exact_kernel", _m_power),
    ("spectral", "deviation_table", "spectral.exact_kernel", _m_table),
    ("subshift", "build_xd", "subshift.build_xd", None),
    ("subshift", "regularity_report", "subshift.regularity_report", None),
    ("subshift", "chains", "subshift.chains", None),
    ("subshift", "transition_graph", "subshift.transition_graph", _m_transition),
    ("subshift", "cylinder_measure", "subshift.cylinder_measure", None),
    ("subshift", "is_admissible", "subshift.is_admissible", None),
    ("subshift", "correlation", "subshift.correlation", None),
    ("subshift", "mixing_table", "subshift.mixing_table", None),
    ("subshift", "mixing_table_to_csv", "subshift.mixing_table_to_csv", None),
    ("cli", "main", "cli.main", None),
    ("cli", "_emit", None, _m_emit),
]


def _calls(group, name=None):
    return (name or f"{group}.calls", "count", "calls", group)


def _self(group):
    return (f"{group}.self_s", "s", "self", group)


def _count(name, unit="count"):
    return (name, unit, "count", name)


# The per-layer metrics of a traced run in report order:
# (name, unit, source, key), where source says which tally `key` is read from.
PER_LAYER = (
    [
        _count("ffield.fq2_ops"),
        ("ffield.norm_fiber.s", "s", "total", "ffield.norm_fiber"),
        _calls("quaternion.mul"),
        _calls("quaternion.proportional"),
        _self("vhdatum.build"),
        _self("vhdatum.verify_relations"),
        _count("vhdatum.relations_checked"),
        _calls("vhdatum.validate"),
        _self("vhdatum.validate"),
        _calls("mealy.from_datum"),
        _self("mealy.action_graph"),
        _count("mealy.action_graph.vertices"),
        _self("graphs.level_graph"),
        _count("graphs.level_graph.vertices"),
        _count("graphs.level_graph.darts"),
        _calls("graphs.adjacency"),
        _self("graphs.adjacency"),
        _count("graphs.adjacency.bytes_computed", "B"),
        _self("graphs.export"),
        _self("graphs.nb_matrix"),
        _calls("graphs.structure_predicates"),
        _self("graphs.structure_predicates"),
        _calls("spectral.eig"),
        _self("spectral.eig"),
        ("spectral.eig.max_dim", "count", "max", "spectral.eig.max_dim"),
        _count("spectral.eig.flops_computed", "flop"),
        _self("spectral.ramanujan_check"),
        _self("spectral.nb_transfer"),
        _calls("spectral.exact_kernel"),
        _self("spectral.exact_kernel"),
        _count("spectral.exact_kernel.muladds_computed"),
        _calls("subshift.correlation"),
        _calls("subshift.transition_graph"),
        _calls("subshift.regularity_report"),
        ("subshift.strip_dim.max", "count", "max", "subshift.strip_dim.max"),
        _calls("cli.main", "cli.commands"),
        _count("cli.output_bytes", "B"),
    ]
    + [(f"{layer}.self_s", "s", "layer_self", layer) for layer in LAYERS]
    + [(f"{layer}.errors", "count", "errors", layer) for layer in LAYERS]
    + [
        ("trace.wall_s", "s", "pass", None),
        ("trace.unaccounted_s", "s", "layer_self", "bench"),
        ("trace.overhead_frac", "frac", "pass", None),
    ]
)


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []   # [parent index or -1, group, start, end]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.errors: Counter = Counter()

    def span(self, group: str, fn, measure=None):
        layer = group.split(".", 1)[0]
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = rec.stack[-1] if rec.stack else -1
            index = len(rec.spans)
            entry = [parent, group, perf_counter(), 0.0]
            rec.spans.append(entry)
            rec.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once, where it leaves the layer
                if parent < 0 or not rec.spans[parent][1].startswith(layer + "."):
                    rec.errors[layer] += 1
                raise
            finally:
                entry[3] = perf_counter()
                rec.stack.pop()
            if measure is not None:
                measure(rec, args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, measure):
        rec = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            measure(rec, args, kwargs, result)
            return result

        return wrapper

    def request(self, name: str, run, workdir):
        """Root span of one benchmark operation, named after it (layer
        "bench"); its self time is the part of the operation that no layer
        span covers."""
        return self.span(f"bench.{name}", run)(workdir)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its children (the union of the child intervals, clipped)."""
    children = defaultdict(list)
    for parent, _group, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_parent, _group, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(index, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def summarise(rec: Recorder) -> dict:
    """Per-layer values of one traced pass, except the two that need the
    pass times (trace.wall_s and trace.overhead_frac)."""
    selfs = self_times(rec.spans)
    tallies = {name: Counter() for name in ("calls", "self", "total", "layer_self")}
    for (_parent, group, start, end), own in zip(rec.spans, selfs):
        tallies["calls"][group] += 1
        tallies["self"][group] += own
        tallies["total"][group] += end - start
        tallies["layer_self"][group.split(".", 1)[0]] += own
    tallies.update(count=rec.counts, max=rec.maxima, errors=rec.errors)
    return {name: tallies[source][key] for name, _unit, source, key in PER_LAYER if source != "pass"}


@contextmanager
def installed(rec: Recorder):
    """Wrap the TARGETS in the loaded ramshift modules for the duration of
    the block, recording into `rec`; the originals are restored on exit."""
    patches = []  # (owner, attribute, original)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ramshift" or name.startswith("ramshift."))]
    try:
        for module, path, group, measure in TARGETS:
            home = sys.modules[f"ramshift.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                owners = [(cls, attr)]
            else:
                original = getattr(home, path)
                owners = [(m, name) for m in modules for name, value in vars(m).items()
                          if value is original]
            wrapper = rec.counter(original, measure) if group is None else rec.span(group, original, measure)
            for owner, attr in owners:
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
