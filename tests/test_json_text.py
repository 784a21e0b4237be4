"""The one indented JSON writer: `json_pieces(x)`, joined, must equal
`json.dumps(x, sort_keys=True, indent=1, default=str)` byte for byte, with
every numpy array, `Labels` and `Rows` in `x` first replaced by its
`tolist()`, on edge cases, on every indent-1 golden file, on graph files
and on real CLI payloads."""

import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ramshift import cli, vhdatum
from ramshift.graphs import UGraph, level_graph, ugraph_to_json_dict
from ramshift.vhdatum import Labels, Rows, dumps_datum, json_pieces
from reference import cli_stdout, direct_product_datum, from_edges, graph_file, json_text

GOLDEN = Path(__file__).parent / "data" / "golden"


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1, default=str)


def assert_same_text(got: str, want: str) -> None:
    """Exact equality of two texts.  A failure names only the first
    differing offset with 40 characters on each side: pytest's own diff of
    two texts of a megabyte runs for minutes."""
    if got != want:
        k = len(os.path.commonprefix((got, want)))
        lo = max(0, k - 40)
        pytest.fail(f"texts differ at offset {k} (lengths {len(got)} and {len(want)}):\n"
                    f"  got:  {got[lo:k + 40]!r}\n  want: {want[lo:k + 40]!r}", pytrace=False)


def test_text_comparison_names_the_first_difference():
    assert_same_text("x" * 10**6, "x" * 10**6)
    with pytest.raises(pytest.fail.Exception) as caught:
        assert_same_text("a" * 100 + "b" + "c" * 10**6, "a" * 100 + "B" + "c" * 10**6)
    message = str(caught.value)
    assert "offset 100 " in message and len(message) < 300
    assert repr("a" * 40 + "b" + "c" * 39) in message and repr("a" * 40 + "B" + "c" * 39) in message
    with pytest.raises(pytest.fail.Exception, match="offset 3 .lengths 3 and 4"):
        assert_same_text("abc", "abcd")


def listed(value):
    """`value` with every numpy array, `Labels` and `Rows` replaced by its
    `tolist()`."""
    if isinstance(value, (np.ndarray, Labels, Rows)):
        return value.tolist()
    if isinstance(value, dict):
        return {k: listed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(listed, value))
    return value


EDGE_CASES = {
    "empty_dict": {},
    "empty_list": [],
    "empty_rows": [[], []],
    "one_empty_row": [[1, 2], []],
    "row_boundary_in_strings": ["],\n[", "a],", "[b"],
    "row_boundary_in_rows": [["],\n [", 1], ["x]", "[y"], [2, "],\n  ["]],
    "quotes_and_backslashes": ['say "hi"', "back\\slash", "tab\there", "\x00\x1f"],
    "non_ascii": {"ключ": ["é", "∞", "😀"], "ä": "ü"},
    "nan_and_floats": [float("nan"), float("inf"), -0.0, 1e-300, 0.1],
    "tuples": {"t": (1, 2), "rows": [(1, 2), (3, 4)], "mixed": [[1, 2], (3, 4)]},
    "int_keys": {1: 2, 3: [4]},
    "nested_int_keys": {"a": {1: 2}},
    "row_with_bool": [[1, True], [2, 3]],
    "row_with_none": [[1, None], [2, 3]],
    "nested_row": [[1, [2]], [3, 4]],
    "bool_list": [True, False],
    "dict_list": [{"b": 1, "a": [1, 2]}, {}],
    "big_int": [2**100, -(2**70), 0],
    "numpy_bool": {"ramanujan": np.bool_(True), "other": np.bool_(False)},
    "numpy_int": {"n": np.int64(7), "ns": [np.int64(1), 2]},
    "numpy_float": {"x": np.float64(0.5), "xs": [np.float64(1.25), 1]},
    "numpy_row": [[np.int64(1), 2], [3, 4]],
    "scalars": {"none": None, "true": True, "float": 2.5, "str": "s", "int": -3},
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_stdlib_at_every_depth(name):
    value = EDGE_CASES[name]
    for payload in (value, {"k": value}, {"a": {"b": [value]}, "z": {"y": value}}):
        assert json_text(payload) == stdlib(payload)


def _records(*rows):
    out = np.zeros(len(rows), dtype=[("origin", np.int64), ("terminus", np.int64), ("label", object)])
    for k, row in enumerate(rows):
        out[k] = row
    return out


def _dart_rows(*rows):
    """Rows of (origin, terminus, label) as a graph file's darts hold them:
    two int columns and the labels as codes."""
    origin, terminus, labels = zip(*rows)
    return Rows(np.array(origin, dtype=np.int64), np.array(terminus, dtype=np.int64), Labels.of(list(labels)))


LABELS = ['say "hi"', "back\\slash", "\\", '"', "tab\there", "\x00", "end\x00", "\x1f\n",
          "é", "∞", "😀", "100%d", "%s%%", ""]
ARRAYS = {
    "ints": np.array([3, -1, 0, 7]),
    "int64_extremes": np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]),
    "uint64_max": np.array([np.iinfo(np.uint64).max, 0], dtype=np.uint64),
    "int32_rows": np.arange(12, dtype=np.int32).reshape(4, 3),
    "uint8_rows": np.arange(6, dtype=np.uint8).reshape(2, 3),
    "one_row": np.array([[5, 6]]),
    "one_column": np.array([[5], [6]]),
    "empty": np.array([], dtype=np.int64),
    "empty_rows": np.zeros((0, 3), dtype=np.int64),
    "rows_without_columns": np.zeros((2, 0), dtype=np.int64),
    "str_objects": np.array(LABELS, dtype=object),
    "str_object_rows": np.array([LABELS[:2], LABELS[2:4]], dtype=object),
    "records": _records(*((k, -k, label) for k, label in enumerate(LABELS))),
    "empty_records": _records(),
    "records_with_none": _records((0, 1, "a"), (1, 0, None)),
    "records_with_int_label": _records((0, 1, 1), (1, 0, True)),
    "records_with_list_label": _records((0, 1, "a"), (1, 0, ["b"])),
    "str_subclass": np.array([np.str_("a"), "a", "b"], dtype=object),
    "bools": np.array([True, False]),
    "floats": np.array([0.1, -0.0, 1e300, np.nan]),
    "float_rows": np.array([[0.5, 2.0], [np.inf, 3.0]]),
    "unicode_dtype": np.array(["a", "é"]),
    "zero_d": np.array(5),
    "three_d": np.arange(8).reshape(2, 2, 2),
    "in_list": [np.array([1, 2]), np.array([[3]])],
    "int_keys": {1: np.array([1, 2])},
    "tuple_of_arrays": (np.array([1]), np.array(["x"], dtype=object)),
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_arrays_are_written_as_their_lists_at_every_depth(name):
    value = ARRAYS[name]
    for payload in (value, {"k": value}, {"a": {"b": [value]}, "z": {"y": value}}):
        assert json_text(payload) == stdlib(listed(payload))


def test_dict_keys_are_sorted_and_escaped():
    payload = {"b": 1, "a": {"é\n": [1], '"q"': "x"}, "A": [[0, "\\"]]}
    assert json_text(payload) == stdlib(payload)


INDENT_ONE = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("datum_file"))


def test_golden_json_files_are_all_found():
    assert len(INDENT_ONE) >= 8


@pytest.mark.parametrize("name", INDENT_ONE)
def test_golden_files_round_trip(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert_same_text(json_text(json.loads(text)) + "\n", text)


REAL = {
    "graph_q3_A6": ["graph", "--level", "6", "--side", "A", "--format", "json"],
    "graph_q3_A7": ["graph", "--level", "7", "--side", "A", "--format", "json"],
    "product_graph_q5_2_2": ["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1",
                             "--levels", "2,2"],
    "verify_ramanujan_q3_1_3": ["verify-ramanujan", "--levels", "1:3"],
}


def _recorded_run(argv, monkeypatch):
    """(payload, stdout) of one CLI run, recording what it hands the writer."""
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return json_pieces(payload)

    monkeypatch.setattr(cli, "json_pieces", recording)
    code, out = cli_stdout(argv + ["--no-timestamp"])
    assert code == 0
    (payload,) = payloads
    return payload, out.decode("ascii")


@pytest.mark.parametrize("name", sorted(REAL))
def test_real_cli_payloads_match_stdlib(name, monkeypatch):
    payload, out = _recorded_run(REAL[name], monkeypatch)
    assert_same_text(out, stdlib(listed(payload)) + "\n")
    if name.startswith("verify"):
        assert all(type(v["ramanujan"]) is bool for v in payload["verdicts"])
        assert '"ramanujan": true' in out
    else:  # a graph file is written from the graph's arrays and label codes
        assert all(type(payload[key]) is np.ndarray for key in ("inv", "adjacency_coo"))
        assert type(payload["darts"]) is Rows and type(payload["vertices"]) is Labels


def test_graph_file_of_a_datum_with_escaped_labels_matches_stdlib(tmp_path, monkeypatch):
    data = json.loads(dumps_datum(direct_product_datum(2, 2)))
    data["V"] = ['v"0', "v\\1", "v\x01\n", "vé😀"]
    data["H"] = ["h\\0", 'h"1', "h%d\t", "h∞"]
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for side in ("A", "B"):
        argv = ["graph", "--datum", str(path), "--level", "3", "--side", side, "--format", "json"]
        payload, out = _recorded_run(argv, monkeypatch)
        assert_same_text(out, stdlib(listed(payload)) + "\n")
        assert "v\\u00e9\\ud83d\\ude00" in out and '\\"' in out


def test_graph_file_matches_stdlib_and_coo_counts_darts():
    # a multigraph: a double edge, a loop and a vertex with no edges
    g = from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 2)])
    data = json.loads(graph_file(g))
    counts = Counter(zip(g.origin.tolist(), g.terminus.tolist()))
    assert data["adjacency_coo"] == [[i, j, m] for (i, j), m in sorted(counts.items())]
    assert all(type(x) is int for row in data["adjacency_coo"] for x in row)
    assert graph_file(g) == json.dumps(data, sort_keys=True, indent=1) + "\n"


GRAPHS = {
    "one_vertex_no_darts": UGraph(["v"], [], [], [], []),
    "loops_and_double_edges": from_edges(3, [(0, 0), (0, 1), (1, 0), (2, 2), (2, 2), (0, 0)]),
    "labels": UGraph(LABELS[:4], [0, 1, 2, 2, 3, 0], [1, 0, 2, 2, 0, 3], [1, 0, 3, 2, 5, 4], LABELS[4:10]),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_files_match_stdlib_on_the_list_form(name):
    g = GRAPHS[name]
    data = ugraph_to_json_dict(g)
    text = graph_file(g)
    assert text == stdlib(listed(data)) + "\n"
    rows = zip(g.origin.tolist(), g.terminus.tolist(), g.dart_names.tolist())
    assert json.loads(text)["darts"] == [list(row) for row in rows]
    if not g.n_darts():
        for key in ("darts", "inv", "adjacency_coo"):
            assert f'"{key}": []' in text


def _every_depth(value):
    return (value, {"k": value}, {"a": {"b": [value]}, "z": {"y": value}})


def _assert_listed_at_every_depth(value):
    for payload in _every_depth(value):
        assert_same_text(json_text(payload), stdlib(listed(payload)))


# the renderer writes int columns of entries in [0, 2^32)
_BOUNDARIES = [x for k in range(10) for x in (10**k - 1, 10**k)] + [2**32 - 1]
_MATRIX = np.arange(120, dtype=np.int64).reshape(10, 12) * 987_654


RENDERED = {
    "digit_boundaries": np.array(_BOUNDARIES, dtype=np.int64),
    "digit_boundary_rows": np.array(_BOUNDARIES).reshape(7, 3),
    "zeros_only": np.zeros(7, dtype=np.int64),
    "all_negative": np.array([-1, -10, -9, -123456789]),
    "int8_min": np.array([np.iinfo(np.int8).min, 0, np.iinfo(np.int8).max], dtype=np.int8),
    "int16_min": np.array([[np.iinfo(np.int16).min, 5], [1, -1]], dtype=np.int16),
    "big_endian": np.array([2**31, 2**32 - 1, 3], dtype=">i8"),
    "every_other_column": _MATRIX[:, ::2],
    "transposed": _MATRIX.T,
    "fortran_order": np.asfortranarray(_MATRIX),
    "uint64_records": Rows(np.array([np.iinfo(np.uint64).max, 0, 2**32], dtype=np.uint64),
                           Labels.of(["a", "b", "c"])),
    "uneven_labels": _dart_rows(*((k, k, label) for k, label in enumerate(
        ["", "\x00", "x" * 300, "y", '"' * 50, "", "é" * 20, "\x00" * 3]))),
    "words": Labels([(np.array([[0, 1], [1, 0], [2, 2]]), LABELS[:3]), (np.zeros((2, 0), np.intp), ())]),
    "beyond_uint32": np.array([x for k in range(19) for x in (10**k - 1, 10**k, -(10**k))], dtype=np.int64),
}
# a negative entry or one of 2^32 or more: no file holds one, and the
# stdlib's indenting encoder writes the column
FALLBACK = {"all_negative", "int8_min", "int16_min", "uint64_records", "beyond_uint32"}


def _rendered_at_every_depth(value, monkeypatch, fallback=False):
    """`_assert_listed_at_every_depth`, and at depths 0 to 2 in dicts also
    the check that the stdlib's indenting encoder writes no part of
    `value`: its text would be the same, so only this tells that the
    renderer wrote it.  (Inside a list, `value` is the stdlib's.)  With
    `fallback`, the check is the reverse: the indenting encoder writes
    `value` at each of those depths."""
    _assert_listed_at_every_depth(value)
    dumps = json.dumps
    indented = []

    def counting(value, **kwargs):
        indented.append(kwargs.get("indent") is not None)
        return dumps(value, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    for payload in (value, {"k": value}, {"z": {"y": value}}):
        indented.clear()
        json_text(payload)
        assert any(indented) == fallback, f"the indenting encoder wrote it: {any(indented)}"
    monkeypatch.setattr(json, "dumps", dumps)


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_rendered_arrays_are_written_as_their_lists_at_every_depth(name, monkeypatch):
    _rendered_at_every_depth(RENDERED[name], monkeypatch, fallback=name in FALLBACK)


@pytest.mark.parametrize("kind", ["ints", "records"])
def test_rows_on_both_sides_of_every_block_boundary(kind, monkeypatch):
    # 120 bytes hold 2 to 17 rows of these arrays at these depths, so every
    # length below covers a block boundary, one row short and one row over
    monkeypatch.setattr(vhdatum, "_BLOCK_BYTES", 120)
    for n in range(1, 60):
        if kind == "ints":
            value = np.arange(n, dtype=np.int64) * 7
        else:
            value = _dart_rows(*((k, n - k, LABELS[k % len(LABELS)]) for k in range(n)))
        _rendered_at_every_depth(value, monkeypatch)


def test_full_range_int64_array_spans_real_blocks():
    # the renderer's full range, [0, 2^32), in an int64 array
    values = np.random.default_rng(20260).integers(0, 2**32, size=10**5, dtype=np.int64)
    assert len(values) > 2 * vhdatum._BLOCK_BYTES // len(",\n  4294967295")
    _assert_listed_at_every_depth(values)


def test_graph_files_never_leave_the_array_renderer(d12_q3, monkeypatch):
    """A graph file's `darts`, `inv` and `adjacency_coo` are rendered by
    `json_pieces` itself: a fall back to the indenting stdlib encoder would
    write the same bytes, but one call per array slower."""
    graph = level_graph(d12_q3, "A", 5)  # 1296 darts
    indented = []
    dumps = json.dumps

    def counting(value, **kwargs):
        if kwargs.get("indent") is not None:
            indented.append(value)
        return dumps(value, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    text = graph_file(graph)
    assert indented == []
    assert max(json.loads(text)["inv"]) >= 1000
    monkeypatch.setattr(json, "dumps", dumps)
    assert_same_text(text, stdlib(listed(ugraph_to_json_dict(graph))) + "\n")
