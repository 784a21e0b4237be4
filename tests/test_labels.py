"""Labels on demand: a graph keeps its words and states as codes, its files
render them straight from the codes, and no verdict renders them.

The graph files are compared, byte for byte and at sizes the goldens do not
reach, with an independent reference: the list payload built from
`reference.word_labels` and string dart labels, written by
`json.dumps(..., sort_keys=True, indent=1)`."""

import contextlib
import io
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from ramshift import cli, graphs, vhdatum
from ramshift.ffield import make_field
from ramshift.graphs import UGraph, level_graph, product_level_graph, ugraph_from_json
from ramshift.mealy import dual, from_datum, lift_arrays
from ramshift.vhdatum import Labels, build_quaternionic_datum, dot_escaped, dumps_datum
from reference import graph_file, json_text, word_labels


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--no-timestamp"]) == 0
    return out.getvalue()


def _reference_json(vertices: list, states: list, graph: UGraph, rest: dict) -> str:
    """The graph file of `graph` from string labels and plain lists, with
    the report keys `rest` beside it."""
    origin, terminus, inv = (x.tolist() for x in (graph.origin, graph.terminus, graph.inv))
    s = len(states)
    payload = {
        "vertices": vertices,
        "darts": [[o, t, states[e % s]] for e, (o, t) in enumerate(zip(origin, terminus))],
        "inv": inv,
        "adjacency_coo": [[i, j, m] for (i, j), m in sorted(Counter(zip(origin, terminus)).items())],
        **rest,
    }
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _level(p: int, e: int, side: str, n: int):
    datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    auto = from_datum(datum) if side == "A" else dual(from_datum(datum))
    return auto, level_graph(datum, side, n)


@pytest.mark.parametrize("p,e,side,n", [(3, 1, "A", 8), (3, 2, "B", 3)], ids=["q3_A8", "q9_B3"])
def test_level_graph_files_match_the_string_reference(p, e, side, n):
    auto, graph = _level(p, e, side, n)
    text = _stdout(["graph", "--p", str(p), "--e", str(e), "--side", side, "--level", str(n), "--format", "json"])
    vertices = word_labels(lift_arrays(auto, n).words, auto.alphabet)
    assert text == _reference_json(vertices, auto.states, graph, {"config": json.loads(text)["config"]})
    if n == 8:  # the darts alone span several render blocks
        assert len(text) > 4 * vhdatum._BLOCK_BYTES


def test_product_graph_file_matches_the_string_reference():
    # the last component is level 0, whose one word renders as "e"
    spec = make_field(5, 1)
    levels = (2, 1, 0)
    text = _stdout(["product-graph", "--p", "5", "--s0", "1,2,3,4", "--tau", "1", "--levels", "2,1,0"])
    data = json.loads(text)
    automata = [from_datum(build_quaternionic_datum(spec, 1, sigma)) for sigma in (2, 3, 4)]
    words = [word_labels(lift_arrays(auto, lv).words, auto.alphabet) for auto, lv in zip(automata, levels)]
    vertices = list(map("|".join, itertools.product(*words)))
    assert len(vertices) == 30 * 6 and all(v.endswith("|e") for v in vertices)
    rest = {key: data[key] for key in ("config", "connected", "bipartite", "regular_degree")}
    graph = product_level_graph(spec, [1, 2, 3, 4], 1, levels)
    assert text == _reference_json(vertices, automata[0].states, graph, rest)


def test_level_graph_dot_matches_the_string_reference():
    auto, graph = _level(3, 1, "B", 5)
    text = _stdout(["graph", "--side", "B", "--level", "5", "--format", "dot"])
    names = [dot_escaped(v) for v in word_labels(lift_arrays(auto, 5).words, auto.alphabet)]
    states = [dot_escaped(x) for x in auto.states]
    s = len(states)
    origin, terminus, inv = (x.tolist() for x in (graph.origin, graph.terminus, graph.inv))
    lines = [text.splitlines()[0], "graph level_graph {"]
    lines += [f'  "{name}";' for name in names]
    lines += [f'  "{names[origin[e]]}" -- "{names[terminus[e]]}" [label="{states[e % s]}/{states[f % s]}"];'
              for e, f in enumerate(inv) if e < f]
    assert text == "\n".join(lines + ["}"]) + "\n"


def test_a_graph_file_reads_back_to_the_same_arrays_and_labels():
    _, graph = _level(3, 1, "A", 8)
    back = ugraph_from_json(graph_file(graph))
    for key in ("origin", "terminus", "inv"):
        assert np.array_equal(getattr(back, key), getattr(graph, key))
    assert back.vertex_labels == graph.vertex_labels
    assert back.dart_names.tolist() == graph.dart_names.tolist()


def _refuse(*_args, **_kwargs):
    raise AssertionError("a label was rendered or checked")


@pytest.mark.parametrize("argv", [["verify-ramanujan", "--levels", "1:4"], ["bass-ihara", "--level", "3"]],
                         ids=["verify-ramanujan", "bass-ihara"])
def test_verdicts_render_no_label(argv, monkeypatch):
    for owner, name in ((Labels, "tolist"), (Labels, "unambiguous"), (UGraph, "check_labels"),
                        (vhdatum, "_WordColumn"), (graphs, "_check_strings")):
        monkeypatch.setattr(owner, name, _refuse)
    _stdout(argv)
    with pytest.raises(AssertionError, match="rendered or checked"):
        _stdout(["graph", "--level", "2", "--format", "json"])


def test_multi_part_labels_render_on_both_sides_of_every_block_boundary(monkeypatch):
    # parts of 3 and 2 rows of two codes, and a part of one empty row: the
    # later parts repeat with the stride of the mixed radix
    names = ["a", 'q"', "é", ""]
    labels = Labels([(np.array([[0, 1], [2, 3], [3, 0]]), names), (np.array([[1, 1], [0, 2]]), names[::-1]),
                     (np.zeros((1, 0), dtype=np.intp), ())])
    want = ["|".join(parts) for parts in itertools.product(['a.q"', "é.", ".a"], ["é.é", '.q"'], ["e"])]
    assert labels.tolist() == want
    # a row is 37 bytes at the top level: these hold 1 to 6 rows a block
    for block_bytes in range(37, 8 * 37, 9):
        monkeypatch.setattr(vhdatum, "_BLOCK_BYTES", block_bytes)
        for payload in (labels, {"k": labels}, {"a": {"b": [labels]}}):
            listed = json.loads(json.dumps(payload, default=Labels.tolist))
            assert json_text(payload) == json.dumps(listed, sort_keys=True, indent=1)


def test_word_labels_that_render_alike_are_refused_by_the_writers(tmp_path, capsys):
    # the q = 3 datum without its field, with H letters "x" and "x.x": the
    # letters are distinct, but the words x.(x.x) and (x.x).x of A_2 both
    # render as "x.x.x", so a file of them could not be read back and the
    # writers refuse it.  Verdicts read no label: A_2 passes
    data = json.loads(dumps_datum(build_quaternionic_datum(make_field(3, 1), 1, 2)))
    letters = [f"h{k}" for k in range(4)]
    other = next(k for k in range(1, 4) if data["inv_H"][0] != k)
    letters[0], letters[other] = "x", "x.x"
    for key in ("field", "tau", "sigma"):
        data.pop(key)
    data.update(V=[f"v{k}" for k in range(4)], H=letters)
    path = tmp_path / "dotted.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for fmt in ("json", "dot"):
        code = cli.main(["graph", "--datum", str(path), "--level", "2", "--format", fmt, "--no-timestamp"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: vertex labels must be distinct\n")
    assert cli.main(["graph", "--datum", str(path), "--level", "1", "--format", "json", "--no-timestamp"]) == 0
    capsys.readouterr()
    code = cli.main(["verify-ramanujan", "--datum", str(path), "--levels", "2", "--side", "A", "--no-timestamp"])
    verdict = json.loads(capsys.readouterr().out)["verdicts"][0]
    assert code == 0
    assert (verdict["n_vertices"], verdict["connected"], verdict["ramanujan"]) == (12, True, True)
