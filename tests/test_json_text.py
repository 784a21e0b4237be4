"""The one indented JSON writer: `json_text(x)` must equal
`json.dumps(x, sort_keys=True, indent=1, default=str)` byte for byte, on
edge cases, on every indent-1 golden file and on real CLI payloads."""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ramshift import cli
from ramshift.graphs import UGraph, ugraph_to_json, ugraph_to_json_dict
from ramshift.vhdatum import json_text

GOLDEN = Path(__file__).parent / "data" / "golden"


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=1, default=str)


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


def test_dict_keys_are_sorted_and_escaped():
    payload = {"b": 1, "a": {"é\n": [1], '"q"': "x"}, "A": [[0, "\\"]]}
    assert json_text(payload) == stdlib(payload)


INDENT_ONE = sorted(p.name for p in GOLDEN.glob("*.json") if not p.name.startswith("datum_file"))


def test_golden_json_files_are_all_found():
    assert len(INDENT_ONE) >= 8


@pytest.mark.parametrize("name", INDENT_ONE)
def test_golden_files_round_trip(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert json_text(json.loads(text)) + "\n" == text


REAL = {
    "graph_q3_A6": ["graph", "--level", "6", "--side", "A", "--format", "json"],
    "product_graph_q5_2_2": ["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1",
                             "--levels", "2,2"],
    "verify_ramanujan_q3_1_3": ["verify-ramanujan", "--levels", "1:3"],
}


@pytest.mark.parametrize("name", sorted(REAL))
def test_real_cli_payloads_match_stdlib(name, monkeypatch):
    payloads = []

    def recording(payload):
        payloads.append(payload)
        return json_text(payload)

    monkeypatch.setattr(cli, "json_text", recording)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(REAL[name] + ["--no-timestamp"]) == 0
    (payload,) = payloads
    assert out.getvalue() == stdlib(payload) + "\n"
    if name.startswith("verify"):
        assert all(type(v["ramanujan"]) is bool for v in payload["verdicts"])
        assert '"ramanujan": true' in out.getvalue()


def test_graph_file_matches_stdlib_and_coo_counts_darts():
    # a multigraph: a double edge, a loop and a vertex with no edges
    g = UGraph.from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 2)])
    data = ugraph_to_json_dict(g)
    counts = Counter(zip(g.origin.tolist(), g.terminus.tolist()))
    assert data["adjacency_coo"] == [[i, j, m] for (i, j), m in sorted(counts.items())]
    assert all(type(x) is int for row in data["adjacency_coo"] for x in row)
    assert ugraph_to_json(g) == json.dumps(data, sort_keys=True, indent=1) + "\n"
