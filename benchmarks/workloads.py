"""The four benchmark campaigns and the checks on their outputs.

A campaign is the list of operations one user would run, in order, to check
one group of the paper's claims.  Every CLI operation goes through
`ramshift.cli.main(argv)` in-process with `--no-timestamp` and `--out` into
the run's scratch directory, exactly as a user would call it; the
`correlation` sweep runs as library calls because the CLI has no command for
it.  The seed chooses the places (tau, sigma) of every field and the slice of
correlation cylinders; seed 0 keeps the canonical places (1, 2).  Only the
generated argv (or library arguments) reaches ramshift.

Each operation has three parts: `run` (timed), `facts` (untimed: parses the
output into values that carry meaning, not bytes) and `check` (untimed:
seed-independent invariants such as verdicts passing and sizes matching the
formulas).  For seed 0 the facts are also compared with the reference values
recorded in `reference.json`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable

from ramshift import cli, ffield, subshift, vhdatum

WORKLOADS = ("ramanujan_sweep", "datum_certify", "large_levels", "mixing_exact")

# q -> (p, e)
FIELDS = {
    3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 11: (11, 1), 13: (13, 1),
    17: (17, 1), 19: (19, 1), 23: (23, 1), 25: (5, 2), 27: (3, 3),
    29: (29, 1), 31: (31, 1),
}

FLOAT_TOL = 1e-9  # second_modulus against the reference


@dataclass
class Op:
    name: str
    run: Callable[[str], object]
    facts: Callable[[str, object], dict]
    check: Callable[[dict, dict], list]


@dataclass
class OpResult:
    name: str
    wall_s: float
    cpu_s: float
    problems: list
    facts: dict


def n_level(q: int, n: int) -> int:
    """Vertices of A_n / B_n: (q+1) q^(n-1)."""
    return (q + 1) * q ** (n - 1)


def _truth(x) -> bool:
    # the CLI serialises numpy booleans through str(), so "True" is a pass too
    return x is True or x == "True"


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(sorted(items)).encode()).hexdigest()[:16]


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _exit_problem(rc) -> list:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


class Places:
    """Seeded choice of distinct nonzero places of F_q; seed 0 is canonical.
    One (tau, sigma) per field, so every operation of a campaign on that
    field sees the same datum."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.pairs: dict[int, list[int]] = {}

    def pick(self, q: int, count: int) -> list[int]:
        if self.seed == 0:
            return list(range(1, count + 1))
        return self.rng.sample(range(1, q), count)

    def pair(self, q: int) -> list[int]:
        if q not in self.pairs:
            self.pairs[q] = self.pick(q, 2)
        return self.pairs[q]


def _cli_op(name: str, argv: list, out: str, facts, check) -> Op:
    def run(workdir: str):
        return cli.main(argv + ["--no-timestamp", "--out", os.path.join(workdir, out)])

    return Op(name, run, lambda workdir, rc: facts(os.path.join(workdir, out), rc), check)


def _field_args(q: int, tau: int, sigma: int) -> list:
    p, e = FIELDS[q]
    return ["--p", str(p), "--e", str(e), "--tau", str(tau), "--sigma", str(sigma)]


# ---------------------------------------------------------------------------
# verify-ramanujan, bass-ihara, product-graph


def _parse_levels(text: str) -> list[int]:
    lo, hi = text.split(":")
    return list(range(int(lo), int(hi) + 1))


def verify_op(places: Places, q: int, levels: str) -> Op:
    tau, sigma = places.pair(q)
    expected = [(side, n) for n in _parse_levels(levels) for side in ("A", "B")]

    def facts(path, rc):
        data = _load_json(path)
        graphs = {}
        for v in data["verdicts"]:
            graphs[f"{v['side']}_{v['level']}"] = {
                "skipped": v["skipped"],
                "n_vertices": v["n_vertices"],
                "degree": v.get("degree"),
                "ramanujan": _truth(v.get("ramanujan")),
                "connected": v.get("connected"),
                "bipartite": v.get("bipartite"),
                "second_modulus": v.get("second_modulus"),
            }
        return {"exit": rc, "all_pass": _truth(data["all_pass"]), "graphs": graphs}

    def check(f, _earlier):
        bad = _exit_problem(f["exit"])
        if not f["all_pass"]:
            bad.append("all_pass is false")
        bound = 2 * sqrt(q) + 1e-8
        for side, n in expected:
            g = f["graphs"].get(f"{side}_{n}")
            if g is None:
                bad.append(f"no verdict for {side}_{n}")
                continue
            if g["skipped"] or g["n_vertices"] != n_level(q, n) or g["degree"] != q + 1:
                bad.append(f"{side}_{n}: skipped or wrong size {g['n_vertices']}/{g['degree']}")
            if not (g["ramanujan"] and g["connected"] and g["second_modulus"] <= bound):
                bad.append(f"{side}_{n}: not a connected Ramanujan graph")
        return bad

    argv = ["verify-ramanujan", *_field_args(q, tau, sigma), "--levels", levels, "--side", "both"]
    return _cli_op(f"verify-ramanujan q={q} levels={levels}", argv, f"verify_q{q}.json", facts, check)


def bass_ihara_op(places: Places, q: int, level: int) -> Op:
    tau, sigma = places.pair(q)

    def facts(path, rc):
        data = _load_json(path)
        return {"exit": rc, "agrees": _truth(data["agrees"]), "n_darts": data["n_darts"], "d": data["d"]}

    def check(f, _earlier):
        bad = _exit_problem(f["exit"])
        if not f["agrees"]:
            bad.append("Bass-Ihara transfer disagrees with the direct dart spectrum")
        if f["n_darts"] != (q + 1) * n_level(q, level) or f["d"] != q:
            bad.append(f"dart graph size {f['n_darts']} / degree {f['d']} off the formula")
        return bad

    argv = ["bass-ihara", *_field_args(q, tau, sigma), "--level", str(level)]
    return _cli_op(f"bass-ihara q={q} level={level}", argv, f"bass_ihara_q{q}.json", facts, check)


def _dart_digest(labels, darts) -> str:
    """Graph identity up to renumbering of vertices and darts."""
    return _digest([[labels[o], labels[t], lab] for o, t, lab in darts])


def _graph_json_facts(data: dict) -> dict:
    n = len(data["vertices"])
    degrees = [0] * n
    for i, _j, mult in data["adjacency_coo"]:
        degrees[i] += mult
    inv = data["inv"]
    return {
        "n_vertices": n,
        "n_darts": len(data["darts"]),
        "degrees": sorted(set(degrees)),
        "involution": all(inv[inv[e]] == e != inv[e] for e in range(len(inv))),
        "darts_digest": _dart_digest(data["vertices"], data["darts"]),
    }


def product_graph_op(places: Places, q: int, levels: tuple) -> Op:
    s0 = places.pick(q, len(levels) + 1)
    tau = s0[0] if places.seed == 0 else places.rng.choice(s0)
    lv = ",".join(map(str, levels))
    n_expected = 1
    for n in levels:
        n_expected *= n_level(q, n)

    def facts(path, rc):
        data = _load_json(path)
        out = _graph_json_facts(data)
        out.update(exit=rc, connected=data["connected"], bipartite=data["bipartite"],
                   regular_degree=data["regular_degree"])
        return out

    def check(f, _earlier):
        bad = _exit_problem(f["exit"])
        if f["n_vertices"] != n_expected or f["n_darts"] != n_expected * (q + 1):
            bad.append(f"product graph has {f['n_vertices']} vertices, expected {n_expected}")
        if f["regular_degree"] != q + 1 or f["degrees"] != [q + 1] or not f["involution"]:
            bad.append("product graph is not a (q+1)-regular dart graph")
        if not f["connected"]:
            bad.append("product graph is disconnected")
        return bad

    argv = ["product-graph", "--p", str(FIELDS[q][0]), "--e", str(FIELDS[q][1]),
            "--s0", ",".join(map(str, s0)), "--tau", str(tau), "--levels", lv, "--format", "json"]
    return _cli_op(f"product-graph q={q} levels={lv}", argv, f"product_q{q}_{lv}.json", facts, check)


# ---------------------------------------------------------------------------
# graph export


def graph_op(places: Places, q: int, side: str, level: int, fmt: str) -> Op:
    tau, sigma = places.pair(q)
    n_expected = n_level(q, level)

    def facts(path, rc):
        if fmt == "json":
            out = _graph_json_facts(_load_json(path))
        else:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            edges = [ln.strip() for ln in lines if " -- " in ln]
            out = {
                "n_vertices": sum(1 for ln in lines if ln.startswith("  \"") and ln.endswith("\";")),
                "n_edges": len(edges),
                "edges_digest": _digest(edges),
            }
        out["exit"] = rc
        return out

    def check(f, _earlier):
        bad = _exit_problem(f["exit"])
        if f["n_vertices"] != n_expected:
            bad.append(f"{side}_{level} has {f['n_vertices']} vertices, expected {n_expected}")
        if fmt == "json":
            if f["n_darts"] != n_expected * (q + 1) or f["degrees"] != [q + 1] or not f["involution"]:
                bad.append(f"{side}_{level} is not a (q+1)-regular dart graph")
        elif 2 * f["n_edges"] != n_expected * (q + 1):
            bad.append(f"{side}_{level} has {f['n_edges']} edges, expected {n_expected * (q + 1) // 2}")
        return bad

    argv = ["graph", *_field_args(q, tau, sigma), "--level", str(level), "--side", side, "--format", fmt]
    name = f"graph q={q} {side}_{level} {fmt}"
    return _cli_op(name, argv, f"graph_q{q}_{side}{level}.{fmt}", facts, check)


# ---------------------------------------------------------------------------
# datum certification


def _datum_facts(path, rc, written=None):
    data = _load_json(path)
    out = {key: data[key] for key in ("q", "n_V", "n_H", "n_R", "valid", "relations_verified")}
    out["exit"] = rc
    out["n_violations"] = len(data["violations"])
    if written:
        d = _load_json(written)
        out["tuples_digest"] = _digest(
            [[str(d["V"][a]), str(d["H"][b]), str(d["H"][c]), str(d["V"][e])] for a, b, c, e in d["R"]]
        )
    return out


def _datum_check(q):
    def check(f, _earlier):
        bad = _exit_problem(f["exit"])
        if f["q"] != q or f["n_V"] != q + 1 or f["n_H"] != q + 1 or f["n_R"] != (q + 1) ** 2:
            bad.append(f"datum sizes {f['n_V']}/{f['n_H']}/{f['n_R']} off (q+1, q+1, (q+1)^2)")
        if not (f["valid"] and f["relations_verified"] is True and f["n_violations"] == 0):
            bad.append("datum not certified")
        return bad

    return check


def datum_ops(places: Places, q: int) -> list[Op]:
    tau, sigma = places.pair(q)
    file = f"datum_q{q}.json"

    def write(workdir):
        return cli.main(["datum", *_field_args(q, tau, sigma), "--write", os.path.join(workdir, file),
                         "--no-timestamp", "--out", os.path.join(workdir, f"datum_q{q}.report.json")])

    def write_facts(workdir, rc):
        return _datum_facts(os.path.join(workdir, f"datum_q{q}.report.json"), rc,
                            written=os.path.join(workdir, file))

    def read(workdir):
        return cli.main(["datum", "--datum", os.path.join(workdir, file),
                         "--no-timestamp", "--out", os.path.join(workdir, f"datum_q{q}.readback.json")])

    def read_facts(workdir, rc):
        return _datum_facts(os.path.join(workdir, f"datum_q{q}.readback.json"), rc)

    return [
        Op(f"datum write q={q}", write, write_facts, _datum_check(q)),
        Op(f"datum read-back q={q}", read, read_facts, _datum_check(q)),
    ]


# ---------------------------------------------------------------------------
# exact mixing and correlations


def mixing_op(places: Places, q: int, k: int, max_n: int, direction: str) -> Op:
    tau, sigma = places.pair(q)
    m = (q + 1) ** 2 * q ** (k - 1)  # strip dimension; the strip graph is q-regular

    def facts(path, rc):
        with open(path, encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[2:]]
        return {
            "exit": rc,
            "n": [int(r[0]) for r in rows],
            "deviation": [f"{r[1]}/{r[2]}" for r in rows],
            "all_ok": all(r[5] == "ok" for r in rows),
        }

    def check(f, _earlier):
        bad = _exit_problem(f["exit"])
        if f["n"] != list(range(1, max_n + 1)) or not f["all_ok"]:
            bad.append("mixing table incomplete or envelope violated")
        for n, dev in zip(f["n"], f["deviation"]):
            if (Fraction(dev) * m * q**n).denominator != 1:
                bad.append(f"deviation at n={n} is not a multiple of 1/(m q^n)")
                break
        return bad

    argv = ["mixing", *_field_args(q, tau, sigma), "--k", str(k), "--max-n", str(max_n),
            "--direction", direction]
    return _cli_op(f"mixing q={q} k={k} {direction}", argv, f"mixing_k{k}_{direction}.csv", facts, check)


def _shift_for(q: int, tau: int, sigma: int):
    p, e = FIELDS[q]
    return subshift.build_xd(vhdatum.build_quaternionic_datum(ffield.make_field(p, e), tau, sigma))


def correlation_sweep_op(places: Places, q: int, offsets: tuple) -> Op:
    """All height-1 tile pairs at each offset.  The worst pair at offset n
    must equal deviation(n) / s of the k = 1 horizontal mixing table: the
    library's path count and the CLI's exact power are checked against each
    other."""
    tau, sigma = places.pair(q)

    def run(_workdir):
        shift = _shift_for(q, tau, sigma)
        tiles = [((t,),) for t in range(shift.s)]
        return {n: [subshift.correlation(shift, c1, c2, n) for c1 in tiles for c2 in tiles]
                for n in offsets}

    def facts(_workdir, values):
        return {
            "offsets": {str(n): {"max": str(max(v)), "sum": str(sum(v)), "calls": len(v)}
                        for n, v in values.items()}
        }

    def check(f, earlier):
        table = earlier.get(f"mixing q={q} k=1 horizontal")
        if table is None:
            return ["the k=1 horizontal mixing table must run before the sweep"]
        s = (q + 1) ** 2
        bad = []
        for n in offsets:
            got = Fraction(f["offsets"][str(n)]["max"])
            want = Fraction(table["deviation"][n - 1]) / s
            if got != want:
                bad.append(f"worst correlation at offset {n} is {got}, mixing table gives {want}")
        return bad

    return Op(f"correlation q={q} height=1", run, facts, check)


def correlation_slice_op(places: Places, q: int, count: int, max_offset: int) -> Op:
    """A slice of height-2 column pairs; each correlation is bounded by
    deviation(n) / (s q) of the k = 2 horizontal mixing table (the strip
    graph is q-regular)."""
    tau, sigma = places.pair(q)
    n_cols = (q + 1) ** 2 * q
    if places.seed == 0:
        picks = [(i * 7 % n_cols, (5 + i * 11) % n_cols, 2 + i % (max_offset - 1)) for i in range(count)]
    else:
        picks = [(places.rng.randrange(n_cols), places.rng.randrange(n_cols),
                  places.rng.randint(2, max_offset)) for _ in range(count)]

    def run(_workdir):
        shift = _shift_for(q, tau, sigma)
        cols = subshift.chains(shift.B, 2)
        return [subshift.correlation(shift, (cols[i],), (cols[j],), n) for i, j, n in picks]

    def facts(_workdir, values):
        return {"values": [str(v) for v in values]}

    def check(f, earlier):
        table = earlier.get(f"mixing q={q} k=2 horizontal")
        if table is None:
            return ["the k=2 horizontal mixing table must run before the slice"]
        s = (q + 1) ** 2
        bad = []
        for (i, j, n), v in zip(picks, f["values"]):
            if not 0 <= Fraction(v) <= Fraction(table["deviation"][n - 1]) / (s * q):
                bad.append(f"correlation of columns {i}, {j} at offset {n} exceeds the mixing bound")
        return bad

    return Op(f"correlation q={q} height=2 slice", run, facts, check)


# ---------------------------------------------------------------------------
# campaigns


def campaign(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one pass.  `tiny` gives the same commands at sizes
    that finish in well under a second (warm-up and the benchmark's tests)."""
    places = Places(seed)
    if workload == "ramanujan_sweep":
        # the tiny sweep reaches a 324-vertex eigensolve, so the warm-up also
        # pays the one-time start-up of multi-threaded BLAS
        sweep = [(3, "1:5"), (5, "1:1")] if tiny else [(3, "1:6"), (5, "1:4"), (7, "1:3"), (9, "1:3"), (13, "1:2")]
        ops = [verify_op(places, q, lv) for q, lv in sweep]
        ops.append(bass_ihara_op(places, 3, 1 if tiny else 4))
        ops.append(product_graph_op(places, 5, (1, 1) if tiny else (2, 2)))
        return ops
    if workload == "datum_certify":
        qs = (3, 9) if tiny else (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31)
        return [op for q in qs for op in datum_ops(places, q)]
    if workload == "large_levels":
        return [
            graph_op(places, 3, "A", 2 if tiny else 8, "json"),
            graph_op(places, 5, "A", 1 if tiny else 5, "json"),
            graph_op(places, 3, "B", 2 if tiny else 7, "dot"),
            product_graph_op(places, 5, (1, 1) if tiny else (3, 2)),
        ]
    if workload == "mixing_exact":
        # max_n = 6 keeps a pass near 4 s (the k = 3 tables dominate), so a
        # run holds five or more passes
        max_n = 3 if tiny else 6
        ops = [mixing_op(places, 3, k, max_n, d)
               for k in ((1, 2) if tiny else (1, 2, 3)) for d in ("horizontal", "vertical")]
        ops.append(correlation_sweep_op(places, 3, (2,) if tiny else (2, 6)))
        ops.append(correlation_slice_op(places, 3, 2 if tiny else 4, max_n))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running and checking


def compare(got, want, path="") -> list:
    """Meaning-level comparison: keys absent from the reference are ignored,
    floats agree within FLOAT_TOL, everything else must be equal."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected a mapping"]
        bad = []
        for key, value in want.items():
            if key not in got:
                bad.append(f"{path}/{key}: missing")
            else:
                bad += compare(got[key], value, f"{path}/{key}")
        return bad
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: expected a list of {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and abs(got - want) <= FLOAT_TOL
        return [] if ok else [f"{path}: {got!r} differs from reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} differs from reference {want!r}"]


def run_pass(ops: list[Op], workdir: str, reference: dict | None = None, on_op=None) -> list[OpResult]:
    """Run every operation once, timing only `run`.  An operation fails if it
    raises, its checks find a problem, or (with a reference) a fact differs.
    `on_op` wraps each timed call (the tracer uses it for request spans)."""
    results, earlier = [], {}
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = on_op(op.name, op.run, workdir) if on_op else op.run(workdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            results.append(OpResult(op.name, wall, cpu, [f"raised {exc!r}"], {}))
            continue
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        try:
            facts = op.facts(workdir, value)
            problems = op.check(facts, earlier)
        except Exception as exc:  # unreadable output is a failed operation
            facts, problems = {}, [f"output unreadable: {exc!r}"]
        if reference is not None:
            want = reference.get(op.name)
            problems += ["no reference value"] if want is None else compare(facts, want, op.name)
        earlier[op.name] = facts
        results.append(OpResult(op.name, wall, cpu, problems, facts))
    return results
