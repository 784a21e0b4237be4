"""Command surface: exit codes, determinism, and output formats."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import cos, pi
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

from ramshift import cli
from ramshift.cli import main
from conftest import random_vh_datum
from ramshift.graphs import UGraph, level_graph, level_tower
from ramshift.mealy import from_datum
from ramshift.spectral import eig_symmetric, ramanujan_check, spectral_report_to_dict, tower_spectra
from ramshift.ffield import make_field
from ramshift.vhdatum import build_quaternionic_datum, dumps_datum, json_pieces, read_datum, write_datum
from reference import cli_stdout, direct_product_datum, from_edges, graph_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_datum_command(tmp_path, capsys):
    out = tmp_path / "datum.json"
    code, stdout, _ = run(
        capsys, "datum", "--p", "3", "--tau", "1", "--sigma", "2",
        "--write", str(out), "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["n_R"] == 16 and payload["valid"] and payload["relations_verified"]
    assert out.exists()


def test_datum_usage_errors(capsys):
    assert run(capsys, "datum", "--tau", "1", "--sigma", "1")[0] == 2
    assert run(capsys, "datum", "--p", "2")[0] == 2


def test_graph_dot_output_is_deterministic(capsys):
    code, first, _ = run(capsys, "graph", "--level", "2", "--side", "A",
                         "--format", "dot", "--no-timestamp")
    assert code == 0
    assert first.count(" -- ") == 24  # 12 vertices, 4-regular
    code, second, _ = run(capsys, "graph", "--level", "2", "--side", "A",
                          "--format", "dot", "--no-timestamp")
    assert first == second


@pytest.mark.parametrize("argv", [
    ["bass-ihara", "--p", "5", "--level", "3", "--side", "B"],
    ["bass-ihara", "--p", "3", "--level", "5"],
    ["verify-ramanujan", "--graph-json", "A_6", "--format", "csv"],
], ids=" ".join)
def test_output_does_not_depend_on_the_blas_thread_count(argv, tmp_path, capsys):
    # each of these read differently in its last digits between one and two
    # OpenBLAS threads before every eigensolve ran on one
    if "A_6" in argv:
        path = str(tmp_path / "a6.json")
        assert run(capsys, "graph", "--level", "6", "--format", "json", "--no-timestamp", "--out", path)[0] == 0
        argv = [path if arg == "A_6" else arg for arg in argv]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "ramshift.cli", *argv, "--no-timestamp"], env=env,
                                capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_verify_ramanujan_campaign(tmp_path, capsys):
    report = tmp_path / "verdicts.json"
    code, _, _ = run(
        capsys, "verify-ramanujan", "--levels", "1:3", "--side", "both",
        "--out", str(report), "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["all_pass"]
    assert len(payload["verdicts"]) == 6
    assert all(v["margin"] > 0 for v in payload["verdicts"])


def circular_ladder(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return from_edges(2 * n, edges)


def test_verify_ramanujan_flags_violation(tmp_path, capsys):
    # the prism over C_16 is 3-regular, connected, and just breaks the
    # 2 sqrt(2) bound (2 cos(pi/8) + 1 > 2 sqrt(2))
    path = tmp_path / "prism.json"
    path.write_text(graph_file(circular_ladder(16)))
    code, stdout, _ = run(
        capsys, "verify-ramanujan", "--graph-json", str(path), "--no-timestamp",
    )
    assert code == 1
    payload = json.loads(stdout)
    assert not payload["all_pass"]
    verdict = payload["verdicts"][0]
    assert abs(verdict["offending_eigenvalue"]) > verdict["bound"]


def test_verify_ramanujan_reports_a_disconnected_level(tmp_path, capsys):
    # B_1 of the seed-0 random datum has two components: a failed verdict
    # (exit 1) beside the other levels' verdicts, not a usage error
    path = tmp_path / "random_0.json"
    write_datum(random_vh_datum(random.Random(0), 6, 6), str(path))
    code, stdout, err = run(capsys, "verify-ramanujan", "--datum", str(path), "--levels", "1",
                            "--side", "B", "--no-timestamp")
    assert (code, err) == (1, "")
    verdict, = json.loads(stdout)["verdicts"]
    assert not verdict["connected"] and not verdict["ramanujan"]
    assert verdict["second_modulus"] == pytest.approx(6)  # the other component's degree
    code, stdout, _ = run(capsys, "verify-ramanujan", "--datum", str(path), "--levels", "1:2", "--no-timestamp")
    verdicts = json.loads(stdout)["verdicts"]
    assert code == 1 and len(verdicts) == 4 and not any(v["skipped"] for v in verdicts)


def test_verify_ramanujan_csv_spectra(capsys):
    code, stdout, _ = run(
        capsys, "verify-ramanujan", "--levels", "1", "--side", "A",
        "--format", "csv", "--no-timestamp",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[2] == "index,re,im,modulus,classification"
    assert len([l for l in lines if not l.startswith(("#", "index"))]) == 4


def test_graph_dot_level_four(capsys):
    code, stdout, _ = run(capsys, "graph", "--level", "4", "--side", "A",
                          "--format", "dot", "--no-timestamp")
    assert code == 0
    vertex_lines = [l for l in stdout.splitlines() if l.endswith('";')]
    assert len(vertex_lines) == 108


def test_bass_ihara_command(capsys):
    code, stdout, _ = run(capsys, "bass-ihara", "--level", "2", "--no-timestamp")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["agrees"]
    assert payload["max_dist_direct_to_transfer"] < 1e-6


def test_subshift_check_command(capsys):
    code, stdout, _ = run(capsys, "subshift-check", "--no-timestamp")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["degree"] == 3 and payload["uniquely_extendable"]


def test_mixing_command(tmp_path, capsys):
    out = tmp_path / "mixing.csv"
    code, _, _ = run(
        capsys, "mixing", "--k", "2", "--max-n", "20", "--out", str(out),
        "--no-timestamp",
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 22  # header comment + column row + 20 rows
    assert all(line.endswith(",ok") for line in lines[2:])


def test_mixing_resource_cap(capsys):
    code, _, err = run(capsys, "mixing", "--k", "7", "--max-n", "3")
    assert code == 3
    assert "cap" in err


def test_tiles_command(tmp_path, capsys):
    out = tmp_path / "tiles.svg"
    code, _, _ = run(capsys, "tiles", "--out", str(out), "--no-timestamp")
    assert code == 0
    assert out.read_text().startswith("<svg")


def test_product_graph_command(capsys):
    code, stdout, _ = run(
        capsys, "product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1",
        "--levels", "1,1", "--format", "json", "--no-timestamp",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert len(payload["vertices"]) == 36
    assert payload["connected"] and not payload["bipartite"]


def test_automaton_command(capsys):
    code, stdout, _ = run(capsys, "automaton", "--no-timestamp")
    assert code == 0
    assert stdout.count("->") == 16
    assert '"1+Z" / "2+2Z"'.replace('"', "") in stdout.replace('"', "")


def test_datum_command_accepts_generic_files(tmp_path, capsys):
    path = tmp_path / "f2f2.json"
    write_datum(direct_product_datum(2, 2), str(path))
    code, stdout, _ = run(capsys, "datum", "--datum", str(path), "--no-timestamp")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["valid"] and payload["relations_verified"] is None


def test_datum_roundtrip_through_cli(tmp_path, capsys):
    path = tmp_path / "d.json"
    assert run(capsys, "datum", "--write", str(path), "--no-timestamp")[0] == 0
    code, stdout, _ = run(
        capsys, "graph", "--datum", str(path), "--level", "1",
        "--format", "json", "--no-timestamp",
    )
    assert code == 0
    assert len(json.loads(stdout)["vertices"]) == 4


def test_verify_ramanujan_skipped_level_is_not_a_pass(capsys):
    # A_7 has 2916 vertices, above the default dense cap
    code, stdout, err = run(
        capsys, "verify-ramanujan", "--levels", "7:7", "--side", "A", "--no-timestamp",
    )
    assert code == 3
    payload = json.loads(stdout)
    assert not payload["all_pass"]
    assert payload["verdicts"][0]["skipped"]
    assert "skipped" in err


def test_verify_ramanujan_skips_a_level_too_large_to_print(capsys):
    # A_9000 has 4 * 3^8999 vertices, 4,294 digits, which Python still
    # prints; A_100000's count is over its int-to-str limit, so the entry
    # holds it to four digits, and the report is still written and read
    for fmt in ("json", "csv"):
        code, stdout, err = run(capsys, "verify-ramanujan", "--levels", "9000,100000", "--side", "A",
                                "--format", fmt, "--no-timestamp")
        assert code == 3 and err.startswith("resource cap:")
    payload = json.loads(run(capsys, "verify-ramanujan", "--levels", "9000,100000", "--side", "A",
                             "--no-timestamp")[1])
    assert not payload["all_pass"]
    exact, huge = payload["verdicts"]
    assert exact["skipped"] and exact["n_vertices"] == 4 * 3 ** 8999
    assert huge["skipped"] and huge["n_vertices"] == "1.780e+47712"


def test_verify_ramanujan_zero_dense_cap_is_not_a_pass(capsys):
    code, stdout, _ = run(
        capsys, "verify-ramanujan", "--levels", "1", "--side", "A",
        "--dense-cap", "0", "--no-timestamp",
    )
    assert code == 3
    assert not json.loads(stdout)["all_pass"]


def test_verify_ramanujan_empty_level_range(capsys):
    code, stdout, err = run(capsys, "verify-ramanujan", "--levels", "3:1", "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("levels, repeated", [("1,1", 1), ("2,1,3,1", 1), ("3,2,3", 3)])
def test_verify_ramanujan_refuses_a_repeated_level(capsys, levels, repeated):
    # each level is one entry of the report (and one block of the CSV)
    for fmt in ("json", "csv"):
        code, stdout, err = run(capsys, "verify-ramanujan", "--levels", levels, "--format", fmt, "--no-timestamp")
        assert code == 2
        assert stdout == ""
        assert err == f"error: level {repeated} is repeated in --levels {levels}\n"


@pytest.mark.parametrize("field", [("--p", "2053"), ("--p", "3", "--e", "8")], ids=["q2053", "q3e8"])
def test_datum_above_the_field_size_cap_exits_at_once(field, capsys):
    start = time.perf_counter()
    code, stdout, err = run(capsys, "datum", *field, "--no-timestamp")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert stdout == ""
    assert err == "resource cap: fields capped at q = 2048 elements\n"


def test_bass_ihara_checks_cap_before_building_darts(monkeypatch, capsys):
    from ramshift import graphs, spectral

    def no_dart_matrix(graph):
        raise AssertionError("the dart matrix must not be built above the cap")

    # the direct spectrum is summed from nb_arcs: neither the arcs nor the
    # dense matrix may be built
    for module, name in ((graphs, "nb_matrix"), (graphs, "nb_arcs"), (spectral, "nb_arcs")):
        monkeypatch.setattr(module, name, no_dart_matrix)
    # A_6 has 972 vertices and 3888 darts
    code, stdout, err = run(capsys, "bass-ihara", "--level", "6", "--no-timestamp")
    assert code == 3
    assert stdout == ""
    assert "cap" in err


@pytest.mark.parametrize("argv, darts", [
    (["graph", "--level", "3"], 144),
    (["graph", "--side", "B", "--level", "2", "--p", "5"], 180),
    (["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1", "--levels", "1,1"], 216),
    (["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1", "--levels", "2,0"], 180),
], ids=["A_3", "q5_B_2", "product_1_1", "product_2_0"])
def test_graphs_above_the_dart_cap_exit_before_any_lift(monkeypatch, capsys, argv, darts):
    # the darts are counted in closed form: one over the count exits 3 and
    # lifts nothing, and the count itself builds the graph it counted
    from ramshift import graphs

    def no_lift(*args):
        raise AssertionError("no graph may be lifted above the cap")

    with monkeypatch.context() as patched:
        patched.setattr(graphs, "MAX_DARTS", darts - 1)
        patched.setattr(graphs, "lift_arrays", no_lift)
        for fmt in ("json", "dot"):
            code, stdout, err = run(capsys, *argv, "--format", fmt, "--no-timestamp")
            assert (code, stdout) == (3, "")
            assert err == f"resource cap: graphs capped at {darts - 1} darts\n"
    monkeypatch.setattr(graphs, "MAX_DARTS", darts)
    code, stdout, _ = run(capsys, *argv, "--format", "json", "--no-timestamp")
    assert code == 0 and len(json.loads(stdout)["darts"]) == darts


@pytest.mark.parametrize("side", ["A", "B"])
def test_bass_ihara_builds_no_dense_dart_matrix(monkeypatch, capsys, side):
    from ramshift import graphs, spectral

    def no_dart_matrix(*args):
        raise AssertionError("the direct spectrum is summed from the arcs, block by block")

    monkeypatch.setattr(graphs, "nb_matrix", no_dart_matrix)
    monkeypatch.setattr(spectral, "nb_spectrum_direct", no_dart_matrix)
    code, stdout, err = run(capsys, "bass-ihara", "--level", "4", "--side", side, "--no-timestamp")
    assert (code, err) == (0, "")
    payload = json.loads(stdout)
    assert payload["agrees"] is True and payload["n_darts"] == 432 and payload["d"] == 3
    assert payload["max_dist_direct_to_transfer"] < 1e-12 and payload["max_modulus_defect"] < 1e-12
    assert sorted(payload) == ["agrees", "config", "d", "max_dist_direct_to_transfer",
                               "max_dist_transfer_to_direct", "max_modulus_defect", "n_darts"]


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_graph_json_without_vertices_is_an_input_error(tmp_path, capsys):
    path = _write_json(tmp_path / "empty.json", {"vertices": [], "darts": [], "inv": []})
    code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_graph_json_without_darts_names_the_degree(tmp_path, capsys):
    # a lone vertex is connected and 0-regular: no bound 2 sqrt(k - 1) exists
    path = _write_json(tmp_path / "point.json", {"vertices": ["a"], "darts": [], "inv": []})
    code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err == "error: ramanujan_check needs a regular degree of at least 1, not 0\n"


def test_graph_json_with_dart_outside_vertices_is_an_input_error(tmp_path, capsys):
    path = _write_json(
        tmp_path / "bad.json",
        {"vertices": ["a", "b"], "darts": [[0, 5, "g"], [5, 0, "g'"]], "inv": [1, 0]},
    )
    code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "outside" in err


@pytest.mark.parametrize(
    "darts,inv",
    [([[0, 2**70, "g"], [1, 0, "g'"]], [1, 0]), ([[0, 1, "g"], [1, 0, "g'"]], [2**70, 0])],
    ids=["dart_endpoint", "inv_entry"],
)
def test_graph_json_with_an_index_beyond_int64_is_an_input_error(tmp_path, capsys, darts, inv):
    path = _write_json(tmp_path / "huge.json", {"vertices": ["a", "b"], "darts": darts, "inv": inv})
    code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: malformed graph file") and "Traceback" not in err


@pytest.mark.parametrize(
    "keys,value",
    [
        (("darts", 0, 1), 1.7),
        (("darts", 1, 0), True),
        (("darts", 0, 1), "1"),
        (("inv", 0), 1.7),
        (("vertices",), "abc"),
        (("darts", 0), "01g"),
        (("darts", 0), [0, 1, "e0", "extra"]),
    ],
    ids=["float_endpoint", "bool_endpoint", "string_endpoint", "float_inv", "string_vertices",
         "string_dart_row", "four_item_dart_row"],
)
def test_graph_json_without_exact_integer_indices_is_an_input_error(tmp_path, capsys, keys, value):
    # the triangle passes as it stands, so only the edit can fail it
    data = json.loads(graph_file(from_edges(3, [(0, 1), (1, 2), (2, 0)], ["a", "b", "c"])))
    good = _write_json(tmp_path / "triangle.json", data)
    assert run(capsys, "verify-ramanujan", "--graph-json", good, "--no-timestamp")[0] == 0
    reduce(getitem, keys[:-1], data)[keys[-1]] = value
    path = _write_json(tmp_path / "edited.json", data)
    code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: malformed graph file") and "Traceback" not in err


def _edited_datum_file(tmp_path, capsys, edit):
    path = tmp_path / "d.json"
    assert run(capsys, "datum", "--write", str(path), "--no-timestamp")[0] == 0
    data = json.loads(path.read_text())
    edit(data)
    return _write_json(tmp_path / "edited.json", data)


def _field_edit(**changes):
    return lambda data: data["field"].update(changes)


def _drop_last_v(data):
    data["V"].pop()


@pytest.mark.parametrize("edit,message", [
    pytest.param(_field_edit(p=9), "does not fit", id="p9"),  # F_9 needs 10 symbols a side
    pytest.param(_field_edit(p=4), "does not fit", id="p4"),
    pytest.param(_field_edit(p=9, e=0), "does not fit", id="e0"),
    pytest.param(_field_edit(modulus=[1, 1]), "modulus", id="modulus"),
    pytest.param(_field_edit(c=[1]), "non-square", id="c"),
    pytest.param(_drop_last_v, "does not fit", id="fiber-size"),
])
def test_datum_file_with_a_bad_field_block_is_an_input_error(tmp_path, capsys, edit, message):
    path = _edited_datum_file(tmp_path, capsys, edit)
    code, stdout, err = run(capsys, "datum", "--datum", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and message in err


def test_datum_file_sizes_are_checked_before_any_field_table(tmp_path, capsys, monkeypatch):
    from ramshift import ffield

    path = _edited_datum_file(tmp_path, capsys, _field_edit(p=1000003))

    def no_tables(*args):
        raise AssertionError("no field may be built for a file that cannot be over it")

    monkeypatch.setattr(ffield.FieldSpec, "__init__", no_tables)
    code, _, err = run(capsys, "datum", "--datum", path, "--no-timestamp")
    assert code == 2 and "does not fit" in err


# (command line, validate_datum calls): one call per datum made, FILE a
# written datum file; product-graph makes one datum per place besides tau
VALIDATIONS = [
    (["datum"], 1),
    (["datum", "--datum", "FILE"], 1),
    *(pytest.param((line.split(), calls), id=line.split()[0]) for line, calls in (
        ("automaton", 1), ("graph --level 2", 1), ("tiles", 1), ("subshift-check", 1), ("mixing --max-n 4", 1),
        ("bass-ihara --level 2", 1), ("verify-ramanujan --levels 1:2 --side both", 1),
        ("product-graph --p 5 --s0 1,2,3 --tau 1 --levels 1,1", 2),
    )),
]


@pytest.mark.parametrize("extra", VALIDATIONS)
def test_datum_command_validates_once(tmp_path, capsys, monkeypatch, extra):
    from ramshift import vhdatum

    argv, expected = extra
    path = tmp_path / "d.json"
    assert run(capsys, "datum", "--write", str(path), "--no-timestamp")[0] == 0
    calls = []
    original = vhdatum.validate_datum

    def counting(datum):
        calls.append(datum)
        return original(datum)

    # every module that binds the function, as a traced benchmark pass counts it
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ramshift"]:
        if getattr(module, "validate_datum", None) is original:
            monkeypatch.setattr(module, "validate_datum", counting)
    code, stdout, _ = run(capsys, *[str(path) if a == "FILE" else a for a in argv], "--no-timestamp")
    assert code == 0 and stdout
    if argv[0] == "datum":
        assert json.loads(stdout)["valid"] is True
    assert len(calls) == expected


DATUM_COMMANDS = ["datum", "automaton", "graph --level 1", "tiles", "subshift-check", "mixing", "bass-ihara --level 1",
                  "verify-ramanujan"]


@pytest.mark.parametrize("line", DATUM_COMMANDS, ids=[line.split()[0] for line in DATUM_COMMANDS])
def test_an_empty_datum_file_is_an_input_error(tmp_path, capsys, line):
    path = tmp_path / "empty.json"
    path.write_text('{"V":[],"H":[],"inv_V":[],"inv_H":[],"R":[]}', encoding="utf-8")
    code, stdout, err = run(capsys, *line.split(), "--datum", str(path), "--no-timestamp")
    assert (code, stdout) == (2, "")
    assert err == "error: datum file fails validation: V and H must be nonempty\n"


@pytest.mark.parametrize("k", ["0", "-2"])
def test_mixing_needs_a_positive_strip_height(capsys, k):
    code, stdout, err = run(capsys, "mixing", "--k", k, "--no-timestamp")
    assert (code, stdout, err) == (2, "", "error: need k >= 1\n")


@pytest.mark.parametrize("source", [["--levels", "6:7", "--side", "A"], ["--graph-json", "G"]])
def test_dense_cap_above_the_eigensolver_limit_is_a_usage_error(tmp_path, capsys, source):
    graph = tmp_path / "g.json"
    graph.write_text(graph_file(circular_ladder(4)))
    argv = [str(graph) if a == "G" else a for a in source]
    with pytest.raises(SystemExit) as exc:
        main(["verify-ramanujan", *argv, "--dense-cap", "5000", "--no-timestamp"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--dense-cap" in captured.err and "2000" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["datum", "--datum", ""], "--datum"),
    (["datum", "--datum", "", "--p", "5"], "--datum"),
    (["verify-ramanujan", "--graph-json", "", "--levels", "1:1"], "--graph-json"),
    (["datum", "--write", ""], "--write"),
    (["tiles", "--out", ""], "--out"),
    (["datum", "--write", "d.json", "--out", ""], "--out"),
], ids=["datum", "datum_beside_p", "graph_json", "write", "out", "out_beside_write"])
def test_an_empty_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-timestamp"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"{flag}: an empty path names no file" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_negative_dense_cap_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-ramanujan", "--levels", "1", "--dense-cap", "-1", "--no-timestamp"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--dense-cap" in captured.err and "-1 is not a vertex count" in captured.err


def test_verify_ramanujan_skips_without_building_the_level(capsys, monkeypatch):
    from ramshift import graphs

    original = graphs.level_tower
    built = []

    def recording(datum, side):
        for level in original(datum, side):
            built.append((side, level.graph.n_vertices()))
            yield level

    monkeypatch.setattr(graphs, "level_tower", recording)
    code, stdout, _ = run(
        capsys, "verify-ramanujan", "--levels", "6:7", "--side", "A", "--no-timestamp",
    )
    assert code == 3
    verdicts = json.loads(stdout)["verdicts"]
    assert [v["skipped"] for v in verdicts] == [False, True]
    assert verdicts[1]["n_vertices"] == 2916  # 4 * 3^6
    # the tower from the rose up to A_6; A_7 is never built
    assert built == [("A", 4 * 3 ** (n - 1) if n else 1) for n in range(7)]


def test_verify_ramanujan_with_empty_new_blocks(tmp_path, capsys):
    # two letters leave two reduced words at every level: each fiber has
    # one vertex, so every level's new block from A_2 on is 0 x 0
    datum = random_vh_datum(random.Random(0), 2, 2)
    path = tmp_path / "d22.json"
    write_datum(datum, str(path))
    code, stdout, _ = run(capsys, "verify-ramanujan", "--datum", str(path), "--levels", "1:4", "--side", "A",
                          "--no-timestamp")
    assert code == 0
    verdicts = json.loads(stdout)["verdicts"]
    assert [(v["n_vertices"], v["ramanujan"]) for v in verdicts] == [(2, True)] * 4
    tower = list(islice(tower_spectra(level_tower(datum, "A")), 4))
    assert [sum(blocks) for _, _, blocks, _ in tower] == [1, 0, 0, 0]
    for graph, eigs, *_ in tower:
        assert np.allclose(eigs, [2, -2]) and np.allclose(eigs, eig_symmetric(graph.adjacency()))


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", [["verify-ramanujan", "--levels", "1:2"], ["bass-ihara", "--level", "2"]],
                         ids=["verify-ramanujan", "bass-ihara"])
def test_tol_must_be_finite_and_nonnegative(capsys, argv, tol):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", tol, "--no-timestamp"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"--tol: {tol} is not a finite tolerance" in captured.err


def test_verify_ramanujan_small_tol_passes_on_connected_levels(capsys):
    # the computed Perron value is off by a few ulps; the verdict must not care
    code, stdout, _ = run(capsys, "verify-ramanujan", "--levels", "1:6", "--tol", "1e-15", "--no-timestamp")
    assert code == 0
    assert json.loads(stdout)["all_pass"] is True


def double_cycle(n):
    """C_n with every edge doubled: 4-regular, and a cover of the rose with
    two loops (every fiber is all of it)."""
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)] * 2)


def test_levels_and_files_share_the_verdict(tmp_path, capsys, monkeypatch):
    # a level that breaks the bound reports its offending eigenvalue, as a
    # file does; the doubled 15-cycle has 4 cos(14 pi / 15) = -3.91 below
    # -2 sqrt(3), and is not bipartite
    from ramshift import graphs

    violator = double_cycle(15)
    rose = UGraph(["e"], [0] * 4, [0] * 4, [1, 0, 3, 2], ["a", "a'", "b", "b'"])
    path = tmp_path / "violator.json"
    path.write_text(graph_file(violator))
    monkeypatch.setattr(graphs, "level_size", lambda datum, side, n: violator.n_vertices())
    tower = [graphs.TowerLevel(rose, None, None, None), graphs.TowerLevel(violator, *[np.zeros(15, int)] * 2, None)]
    monkeypatch.setattr(graphs, "level_tower", lambda datum, side: iter(tower))
    code, stdout, _ = run(capsys, "verify-ramanujan", "--levels", "1", "--side", "A", "--no-timestamp")
    assert code == 1
    level = json.loads(stdout)["verdicts"][0]
    code, stdout, _ = run(capsys, "verify-ramanujan", "--graph-json", str(path), "--no-timestamp")
    assert code == 1
    file = json.loads(stdout)["verdicts"][0]
    assert level.pop("side") == "A" and level.pop("level") == 1
    assert file.pop("source") == str(path)
    # the level's spectrum is merged from the tower's new block, the file's
    # is one eigensolve of the adjacency: the floats agree to rounding
    assert level == pytest.approx(file, rel=0, abs=1e-12)
    assert abs(level["offending_eigenvalue"]) == level["second_modulus"] > level["bound"]
    assert level["offending_eigenvalue"] == pytest.approx(4 * cos(14 * pi / 15), abs=1e-12)


def test_verify_ramanujan_of_a_datum_without_the_inversion(tmp_path, capsys, datum_without_inversion):
    # a generic datum whose levels do not split: every level entry equals the
    # verdict on the whole level graph, and the exit code follows them
    path = tmp_path / "generic.json"
    write_datum(datum_without_inversion, str(path))
    code, stdout, _ = run(
        capsys, "verify-ramanujan", "--datum", str(path), "--levels", "1:4", "--side", "both", "--no-timestamp",
    )
    verdicts = json.loads(stdout)["verdicts"]
    assert len(verdicts) == 8
    for entry in verdicts:
        report = ramanujan_check(level_graph(datum_without_inversion, entry["side"], entry["level"]))
        assert entry["n_vertices"] == 6 * 5 ** (entry["level"] - 1) and entry["connected"]
        whole = spectral_report_to_dict(report)
        assert whole.pop("certificate") == "float"  # a whole graph is solved by eig_symmetric alone
        assert {k: entry[k] for k in whole} == pytest.approx(whole, rel=0, abs=1e-12)
    assert code == (0 if all(v["ramanujan"] for v in verdicts) else 1)


@pytest.mark.parametrize("command,flag,kind", [
    ("verify-ramanujan", "--graph-json", "graph"),
    ("datum", "--datum", "datum"),
])
def test_input_files_nested_beyond_the_decoder_are_an_input_error(tmp_path, capsys, command, flag, kind):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, stdout, err = run(capsys, command, flag, str(path), "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: malformed {kind} file") and "Traceback" not in err


def test_a_failed_write_leaves_no_temp_file(tmp_path, capsys):
    # a lone surrogate survives the datum file's JSON but not UTF-8
    path = _edited_datum_file(tmp_path, capsys, _without_field(V=["v\ud800", "b", "c", "d"],
                                                                H=["e", "f", "g", "h"]))
    out = tmp_path / "x.dot"
    code, stdout, err = run(capsys, "graph", "--datum", path, "--level", "2", "--side", "B",
                            "--format", "dot", "--out", str(out), "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert "surrogate" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.json", "edited.json"]


def test_a_write_failing_in_the_writer_keeps_the_previous_file(tmp_path, capsys, monkeypatch):
    # the temp file already holds the first piece when the second, not
    # bytes, fails: the writer removes it and the old --out file stays
    out = tmp_path / "report.json"
    argv = ["subshift-check", "--out", str(out), "--no-timestamp"]
    assert run(capsys, *argv)[0] == 0
    before = out.read_bytes()
    monkeypatch.setattr(cli, "json_pieces", lambda payload: [json_pieces(payload)[0], "not bytes"])
    with pytest.raises(TypeError):
        main(argv)
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_an_out_path_that_cannot_be_opened_is_named(tmp_path, capsys):
    # the writer opens a temp file beside --out; the error names --out
    out = tmp_path / "missing" / "x.svg"
    code, stdout, err = run(capsys, "tiles", "--out", str(out), "--no-timestamp")
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    # the rename over a directory fails after the temp file was written
    code, stdout, err = run(capsys, "tiles", "--out", str(tmp_path), "--no-timestamp")
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert list(tmp_path.parent.glob(tmp_path.name + ".*.tmp")) == []


def test_a_writer_leaves_another_writers_temp_file_alone(tmp_path, capsys):
    out = tmp_path / "out.csv"
    other = tmp_path / "out.csv.tmp"
    other.write_bytes(b"a table half written by another run\n")
    code, stdout, _ = run(capsys, "mixing", "--max-n", "5", "--out", str(out), "--no-timestamp")
    assert (code, stdout) == (0, "")
    assert other.read_bytes() == b"a table half written by another run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.csv.tmp"]


@pytest.mark.parametrize("argv", [
    ["graph", "--level", "3", "--format", "json"],
    ["graph", "--level", "3", "--format", "dot"],
    ["mixing", "--max-n", "5"],
], ids=" ".join)
def test_stdout_and_out_get_the_same_bytes(argv, tmp_path):
    # the config of the --out run records its path, in a DOT or CSV header
    # line as in a JSON report, and nothing else differs
    path = tmp_path / "out"
    code, stdout = cli_stdout([*argv, "--no-timestamp"])
    assert code == 0 and cli_stdout([*argv, "--no-timestamp", "--out", str(path)]) == (0, b"")
    written, n = re.subn(rb'\s+"out": "[^"]*",', b"", path.read_bytes())
    assert n == 1 and written == stdout


def _set(*keys, value):
    return lambda data: reduce(getitem, keys[:-1], data).__setitem__(keys[-1], value)


def _without_field(**changes):
    # a datum without a field block names its symbols by string labels
    return lambda data: (data.pop("field"), data.update(changes))


@pytest.mark.parametrize("edit", [
    pytest.param(_set("field", "p", value=3.9), id="float_p"),
    pytest.param(_set("field", "e", value=True), id="bool_e"),
    pytest.param(_set("field", "modulus", 1, value=1.0), id="float_modulus"),
    pytest.param(_set("field", "c", 0, value="2"), id="string_c"),
    pytest.param(_set("tau", value=[1.5]), id="float_tau"),
    pytest.param(_set("sigma", 0, value=True), id="bool_sigma"),
    pytest.param(_set("R", 0, 0, value=0.7), id="float_R_index"),
    pytest.param(_set("inv_V", 0, value="1"), id="string_inv_V"),
    pytest.param(_set("inv_H", 0, value=3.0), id="float_inv_H"),
    pytest.param(_set("V", 0, 0, 0, value=True), id="bool_V_coefficient"),
    pytest.param(_set("H", 1, 1, 0, value=1.0), id="float_H_coefficient"),
    pytest.param(_without_field(), id="list_labels"),
    pytest.param(_without_field(V=["a", "b", 3, "d"], H=["e", "f", "g", "h"]), id="int_label"),
])
def test_datum_file_values_of_the_wrong_json_type_are_an_input_error(tmp_path, capsys, edit):
    path = _edited_datum_file(tmp_path, capsys, edit)
    code, stdout, err = run(capsys, "graph", "--datum", path, "--level", "2", "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: malformed datum file") and "Traceback" not in err


@pytest.mark.parametrize(
    "keys,value",
    [
        (("vertices", 0), None),
        (("vertices", 1), 1.5),
        (("vertices", 2), False),
        (("darts", 0, 2), None),
        (("darts", 3, 2), 7),
        (("vertices", 2), "a"),
    ],
    ids=["null_vertex", "float_vertex", "bool_vertex", "null_dart_label", "int_dart_label",
         "duplicate_vertex"],
)
def test_graph_json_without_distinct_string_labels_is_an_input_error(tmp_path, capsys, keys, value):
    data = json.loads(graph_file(from_edges(3, [(0, 1), (1, 2), (2, 0)], ["a", "b", "c"])))
    reduce(getitem, keys[:-1], data)[keys[-1]] = value
    path = _write_json(tmp_path / "edited.json", data)
    code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: malformed graph file") and "Traceback" not in err


def _labelled_datum(tmp_path):
    """A datum without a field whose V and H labels hold quotes and backslashes."""
    data = json.loads(dumps_datum(direct_product_datum(2, 2)))
    data["V"] = ['v"0', "v1", 'v\\2"', "v3"]
    data["H"] = ["h\\0", "h1", 'h"2', "h3"]
    return _write_json(tmp_path / "labels.json", data)


QUOTED_ID = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _dot_ids(line):
    """The quoted IDs of a DOT line, unescaped."""
    return [re.sub(r"\\(.)", r"\1", text) for text in QUOTED_ID.findall(line)]


def test_dot_writers_escape_quotes_and_backslashes(tmp_path, capsys):
    path = _labelled_datum(tmp_path)
    code, out, _ = run(capsys, "graph", "--datum", path, "--level", "2", "--format", "dot",
                       "--no-timestamp")
    assert code == 0
    g = level_graph(read_datum(path), "A", 2)
    body = out.splitlines()[2:-1]  # between the header comment line and the closing brace
    names, labels = g.vertex_labels, g.dart_names.tolist()
    assert [_dot_ids(line) for line in body if " -- " not in line] == [[v] for v in names]
    darts = zip(g.origin.tolist(), g.terminus.tolist(), g.inv.tolist())
    edges = [[names[o], names[t], f"{labels[e]}/{labels[f]}"] for e, (o, t, f) in enumerate(darts) if e < f]
    assert [_dot_ids(line) for line in body if " -- " in line] == edges
    assert '"h\\\\0.h\\"2"' in out  # the word h\0.h"2 as written

    code, out, _ = run(capsys, "automaton", "--datum", path, "--no-timestamp")
    assert code == 0
    m = from_datum(read_datum(path))
    body = out.splitlines()[3:-1]  # after the header, the opening line and rankdir
    assert [_dot_ids(line) for line in body if " -> " not in line] == [[s] for s in m.states]
    transitions = [[m.states[a], m.states[m.delta[a][x]], f"{m.alphabet[x]} / {m.alphabet[m.out[a][x]]}"]
                   for a in range(m.n_states()) for x in range(m.n_letters())]
    assert [_dot_ids(line) for line in body if " -> " in line] == transitions


# one process, many commands: what a benchmark pass or a script does
SEQUENCE = [
    ["datum", "--p", "5"],
    ["graph", "--level", "2", "--format", "json"],
    ["verify-ramanujan", "--levels", "1:3", "--dense-cap", "20"],
    ["mixing", "--k", "1", "--max-n", "4"],
    ["verify-ramanujan", "--levels", "1:2"],
    ["bass-ihara", "--level", "1", "--tol", "1e-3"],
    ["datum", "--tau", "1", "--sigma", "1"],
    ["graph", "--level", "2"],
]


def test_commands_in_one_process_print_what_each_prints_alone(capsys):
    from ramshift import cli

    alone = []
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, *argv, "--no-timestamp"))
    cli.build_parser.cache_clear()
    together = [run(capsys, *argv, "--no-timestamp") for argv in SEQUENCE]
    assert together == alone
    assert [code for code, _, _ in alone] == [0, 0, 3, 0, 0, 0, 2, 0]
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("edit", [
    pytest.param(_set("V", value="abcd"), id="string_V"),
    pytest.param(_set("H", 2, value=[[1]]), id="one_item_entry"),
    pytest.param(lambda data: data["V"][1].append([0]), id="three_item_entry"),
    pytest.param(_set("V", 0, 1, value=[0, 1]), id="long_coefficient_list"),
    pytest.param(_set("H", 3, 0, value=[]), id="empty_coefficient_list"),
    pytest.param(lambda data: data["V"][0][0].__setitem__(0, data["V"][0][0][0] + 3), id="coefficient_p_above"),
    pytest.param(lambda data: data["H"][1][1].__setitem__(0, data["H"][1][1][0] - 3), id="negative_coefficient"),
    pytest.param(_set("tau", 0, value=4), id="tau_above_p"),
    pytest.param(_set("sigma", 0, value=-1), id="negative_sigma"),
])
def test_datum_file_coefficients_outside_the_field_are_an_input_error(tmp_path, capsys, edit):
    path = _edited_datum_file(tmp_path, capsys, edit)
    code, stdout, err = run(capsys, "datum", "--datum", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: malformed datum file") and "Traceback" not in err


def _r_entry_error(entry):
    return f"malformed datum file: TypeError({f'an R entry must be a list of int, got {entry!r}'!r})"


@pytest.mark.parametrize("edit,expected", [
    pytest.param(_set("R", 3, value=5), lambda R: _r_entry_error(5), id="non_list_entry"),
    pytest.param(_set("R", 2, 1, value=True), lambda R: _r_entry_error(R[2]), id="bool"),
    pytest.param(_set("R", 4, 0, value=1.0), lambda R: _r_entry_error(R[4]), id="float"),
    pytest.param(lambda data: data["R"][1].pop(), lambda R: "R entries must be 4-tuples", id="three_tuple"),
    pytest.param(lambda data: data["R"][6].append(0), lambda R: "R entries must be 4-tuples", id="five_tuple"),
    pytest.param(_set("R", 5, 2, value=[1]), lambda R: _r_entry_error(R[5]), id="nested_list"),
    pytest.param(_set("R", value="abc"), lambda R: _r_entry_error("a"), id="string_R"),
    # a type error anywhere is named before any entry of the wrong length
    pytest.param(lambda data: (data["R"][1].pop(), data["R"][7].__setitem__(3, 0.5)),
                 lambda R: _r_entry_error(R[7]), id="short_entry_then_float"),
])
def test_malformed_datum_file_R_entries_are_named(tmp_path, capsys, edit, expected):
    path = _edited_datum_file(tmp_path, capsys, edit)
    with open(path, encoding="utf-8") as fh:
        R = json.load(fh)["R"]
    code, stdout, err = run(capsys, "datum", "--datum", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err == f"error: {expected(R)}\n"


def _labels_with_r_index(value):
    def edit(data):
        _without_field(V=list("abcd"), H=list("efgh"))(data)
        data["R"][0][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_set("R", 4, 2, value=2**70), id="field"),
    pytest.param(_labels_with_r_index(-2**70), id="labels"),
])
def test_a_datum_file_index_beyond_int64_is_an_input_error(tmp_path, capsys, edit):
    path = _edited_datum_file(tmp_path, capsys, edit)
    for argv in (["datum"], ["tiles"], ["graph", "--level", "1"]):
        code, stdout, err = run(capsys, *argv, "--datum", path, "--no-timestamp")
        assert code == 2, argv
        assert stdout == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("side", ["V", "H"])
def test_repeated_labels_in_a_datum_file_are_an_input_error(tmp_path, capsys, side):
    data = json.loads(dumps_datum(direct_product_datum(2, 2)))
    data[side][1] = data[side][0]
    path = _write_json(tmp_path / "repeated.json", data)
    message = f"error: datum file fails validation: {side} labels are not distinct: {data[side][0]!r} repeats\n"
    for argv in (["datum"], ["automaton"], ["tiles"], ["graph", "--side", "B", "--level", "1"],
                 ["verify-ramanujan", "--levels", "1"]):
        code, stdout, err = run(capsys, *argv, "--datum", path, "--no-timestamp")
        assert (code, stdout, err) == (2, "", message), argv


def _swap(*keys):
    return lambda data: data.update(zip(keys, [data[k] for k in reversed(keys)]))


@pytest.mark.parametrize("edit,message", [
    pytest.param(_set("tau", value=[2]), "nonzero and distinct", id="sigma_equals_tau"),
    pytest.param(_set("sigma", value=[0]), "nonzero and distinct", id="zero_sigma"),
    pytest.param(_swap("tau", "sigma"), "has norm", id="swapped_places"),
    pytest.param(lambda data: data["V"].__setitem__(0, data["H"][0]), "V[0]", id="H_element_in_V"),
    pytest.param(lambda data: data["H"].__setitem__(3, data["H"][0]), "H labels are not distinct",
                 id="repeated_H_element"),
])
def test_datum_file_sides_must_be_the_fibers_of_its_places(tmp_path, capsys, edit, message):
    path = _edited_datum_file(tmp_path, capsys, edit)
    code, stdout, err = run(capsys, "datum", "--datum", path, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: datum file") and message in err and "Traceback" not in err


@pytest.mark.parametrize("argv,flag,value", [
    pytest.param(["datum", "--p", "3", "--tau", "4", "--sigma", "2"], "--tau", 4, id="tau_is_q_plus_1"),
    pytest.param(["datum", "--tau", "-2", "--sigma", "5"], "--tau", -2, id="negative_tau"),
    pytest.param(["datum", "--p", "5", "--sigma", "7"], "--sigma", 7, id="sigma_above_q"),
    pytest.param(["graph", "--level", "1", "--sigma", "5"], "--sigma", 5, id="graph_sigma_above_q"),
    pytest.param(["mixing", "--k", "1", "--max-n", "2", "--tau", "3", "--sigma", "2"], "--tau", 3, id="mixing_tau_is_q"),
    pytest.param(["product-graph", "--p", "3", "--s0", "1,5", "--tau", "1", "--levels", "1"], "--s0", 5,
                 id="s0_above_q"),
    pytest.param(["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "6", "--levels", "1,1"], "--tau", 6,
                 id="product_tau_above_q"),
])
def test_places_outside_one_to_q_minus_one_are_an_input_error(capsys, argv, flag, value):
    code, stdout, err = run(capsys, *argv, "--no-timestamp")
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {flag} {value} is not a nonzero element of F_")


def test_bass_ihara_counts_darts_before_building_the_level(monkeypatch, capsys):
    from ramshift import graphs

    def no_level(*args):
        raise AssertionError("a level above the dart cap must not be built")

    monkeypatch.setattr(graphs, "level_graph", no_level)
    monkeypatch.setattr(graphs, "level_tower", no_level)
    for argv in (["--level", "6"], ["--level", "12"], ["--level", "6", "--side", "B"]):
        code, stdout, err = run(capsys, "bass-ihara", *argv, "--no-timestamp")
        assert code == 3
        assert stdout == ""
        assert err == "resource cap: direct dart spectrum capped at 2000; use bass_ihara_pairs instead\n"


@pytest.mark.parametrize("k", ["7", "8", "40"])
def test_mixing_counts_strips_before_building_the_strip_graph(monkeypatch, capsys, k):
    from ramshift import subshift

    def no_strip_graph(*args):
        raise AssertionError("a strip graph above the exact byte bound must not be built")

    monkeypatch.setattr(subshift, "transition_graph", no_strip_graph)
    code, stdout, err = run(capsys, "mixing", "--k", k, "--max-n", "3", "--no-timestamp")
    assert code == 3
    assert stdout == ""
    assert err == "resource cap: exact walk counts capped at 268435456 bytes\n"


@pytest.mark.parametrize("k,max_n", [("1", 9010), ("2", 9009), ("1", 20000), ("1", 10**9)])
def test_mixing_refuses_a_table_too_long_to_print_before_the_walk(monkeypatch, capsys, k, max_n):
    # a denominator m d^n of more than 4300 digits, Python's default limit
    # for printing an int, refuses the table before the walk: with d = 3,
    # n = 9010 is the first at k = 1 (m = 16) and n = 9009 at k = 2 (m = 48)
    from ramshift import subshift

    def no_walk(*args):
        raise AssertionError("a table too long to print must not be walked")

    monkeypatch.setattr(subshift, "deviation_table", no_walk)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code, stdout, err = run(capsys, "mixing", "--k", k, "--max-n", str(max_n), "--no-timestamp")
    assert (code, stdout) == (3, "")
    assert err == ("resource cap: mixing tables capped at denominators of 4300 digits, "
                   f"the most Python prints; n = {max_n} exceeds it\n")


@pytest.mark.parametrize("k,max_n", [("1", 9009), ("2", 9008)])
def test_mixing_walks_the_longest_tables_that_print(monkeypatch, capsys, k, max_n):
    # the walk is replaced by a table of 1/3s, which violates the envelope
    # (exit 1): the refusal stops at the limit
    from ramshift import subshift

    monkeypatch.setattr(subshift, "deviation_table", lambda preds, n_max: [Fraction(1, 3)] * n_max)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    code, stdout, _ = run(capsys, "mixing", "--k", k, "--max-n", str(max_n), "--no-timestamp")
    assert code == 1 and stdout.endswith(f"\n{max_n},1,3,0.3333333333333333,0.0,VIOLATION\n")


# each command that reads a datum, with the arguments it needs besides it
DATUM_COMMANDS = [["datum"], ["automaton"], ["graph", "--level", "1", "--format", "json"],
                  ["verify-ramanujan", "--levels", "1"], ["bass-ihara", "--level", "1"], ["subshift-check"],
                  ["mixing", "--max-n", "2"], ["tiles"]]


@pytest.mark.parametrize("side", ["V", "H"])
def test_a_repeated_element_in_a_field_datum_file_is_a_repeated_label(tmp_path, capsys, side):
    # a repeated fiber element is decided once, by the datum's
    # construction, as the repeated label it renders to
    datum = build_quaternionic_datum(make_field(3, 1), 1, 2)
    data = json.loads(dumps_datum(datum))
    data[side][1] = data[side][0]
    path = _write_json(tmp_path / "repeated.json", data)
    label = getattr(datum, side)[0]
    message = f"error: datum file fails validation: {side} labels are not distinct: {label!r} repeats\n"
    for argv in DATUM_COMMANDS:
        code, stdout, err = run(capsys, *argv, "--datum", path, "--no-timestamp")
        assert (code, stdout, err) == (2, "", message), argv


def _config(text: str) -> dict:
    """The run configuration a JSON report embeds, or that a DOT, CSV or SVG
    header line carries."""
    if text.startswith("{"):
        return json.loads(text)["config"]
    return json.loads(re.search(r"config: (\{.*\})", text).group(1))


@pytest.mark.parametrize("argv", DATUM_COMMANDS, ids=[argv[0] for argv in DATUM_COMMANDS])
def test_a_datum_file_run_records_no_field_or_place_options(tmp_path, capsys, argv):
    # the field and places come from the file: the config leaves out the
    # options the run never read, and any of them given beside the file is
    # a usage error that names it; without a file, the defaults are recorded
    path = tmp_path / "d.json"
    assert run(capsys, "datum", "--write", str(path), "--no-timestamp")[0] == 0
    code, stdout, _ = run(capsys, *argv, "--datum", str(path), "--no-timestamp")
    assert code == 0
    assert not {"p", "e", "tau", "sigma"} & set(_config(stdout))
    code, stdout, _ = run(capsys, *argv, "--no-timestamp")
    assert code == 0
    assert {key: _config(stdout)[key] for key in ("p", "e", "tau", "sigma")} == {"p": 3, "e": 1, "tau": 1, "sigma": 2}
    for flag in ("--p", "--e", "--tau", "--sigma"):
        code, stdout, err = run(capsys, *argv, "--datum", str(path), flag, "1", "--no-timestamp")
        assert (code, stdout) == (2, "")
        assert err == f"error: {flag} cannot be given with --datum, which replaces it\n"


def test_a_graph_file_run_records_no_datum_options(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(graph_file(circular_ladder(4)))
    code, stdout, _ = run(capsys, "verify-ramanujan", "--graph-json", str(path), "--no-timestamp")
    assert code == 0
    assert set(_config(stdout)) == {"command", "dense_cap", "format", "graph_json", "no_timestamp", "tol"}
    for extra in (["--levels", "1:2"], ["--side", "A"], ["--p", "5"], ["--sigma", "2"], ["--datum", str(path)]):
        code, stdout, err = run(capsys, "verify-ramanujan", "--graph-json", str(path), *extra, "--no-timestamp")
        assert (code, stdout) == (2, "")
        assert err == f"error: {extra[0]} cannot be given with --graph-json, which replaces it\n"
