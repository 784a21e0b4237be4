"""Golden CLI outputs: each command's --no-timestamp stdout must match the
checked-in file under tests/data/golden byte for byte.

The outputs go to stdout, never --out, and each command runs in tests/data,
so the one input file, c4.json, enters the embedded config by the same
relative path wherever the suite runs.  To re-record after an intended output change, run
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from ramshift.cli import main
from ramshift.ffield import make_field
from ramshift.vhdatum import build_quaternionic_datum, dumps_datum

GOLDEN = Path(__file__).parent / "data" / "golden"

# name -> (argv, exit code)
CASES = {
    **{
        f"mixing_q3_k{k}_{direction}.csv": (
            ["mixing", "--k", str(k), "--max-n", "20", "--direction", direction], 0
        )
        for k in (1, 2, 3)
        for direction in ("horizontal", "vertical")
    },
    "graph_q3_A3.json": (["graph", "--level", "3", "--side", "A", "--format", "json"], 0),
    "graph_q3_A3.dot": (["graph", "--level", "3", "--format", "dot"], 0),
    "datum_q3.json": (["datum"], 0),
    "datum_q9.json": (["datum", "--p", "3", "--e", "2"], 0),
    "datum_q27.json": (["datum", "--p", "3", "--e", "3"], 0),
    "automaton_q9_A.dot": (["automaton", "--p", "3", "--e", "2"], 0),
    "automaton_q27_A.dot": (["automaton", "--p", "3", "--e", "3"], 0),
    "automaton_q3_A.dot": (["automaton", "--side", "A"], 0),
    "automaton_q3_B.dot": (["automaton", "--side", "B"], 0),
    "tiles_q3.svg": (["tiles"], 0),
    "subshift_check_q3.json": (["subshift-check"], 0),
    "graph_q5_B2.json": (
        ["graph", "--p", "5", "--level", "2", "--side", "B", "--format", "json"], 0
    ),
    "graph_q9_B2.json": (
        ["graph", "--p", "3", "--e", "2", "--level", "2", "--side", "B", "--format", "json"], 0
    ),
    "product_graph_q5_levels_1_1.json": (
        ["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1", "--levels", "1,1"], 0
    ),
    "product_graph_q5_levels_2_1.json": (
        ["product-graph", "--p", "5", "--s0", "1,2,3", "--tau", "1", "--levels", "2,1"], 0
    ),
    "product_graph_q5_s0_1234_levels_2_1_0.json": (
        ["product-graph", "--p", "5", "--s0", "1,2,3,4", "--tau", "1", "--levels", "2,1,0",
         "--format", "json"], 0
    ),
    "verify_ramanujan_q3_1_4.json": (["verify-ramanujan", "--levels", "1:4"], 0),
    # the direct dart spectrum, split by inversion and reversal lifted to the darts
    "bass_ihara_q3_A4.json": (["bass-ihara", "--level", "4"], 0),
    "verify_ramanujan_q3_1_3.csv": (["verify-ramanujan", "--levels", "1:3", "--format", "csv"], 0),
    # the 4-cycle is bipartite: its first and last eigenvalues are trivial
    "verify_ramanujan_c4.csv": (["verify-ramanujan", "--graph-json", "c4.json", "--format", "csv"], 0),
}

# name -> (p, e) of the canonical datum file D_{1,2} over F_{p^e}
DATUM_FILES = {"datum_file_q9.json": (3, 2), "datum_file_q27.json": (3, 3)}


@contextlib.contextmanager
def _working_directory(path: Path):
    # contextlib.chdir is new in Python 3.11, and the suite runs on 3.10 too
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_case(name: str) -> tuple[int, str]:
    argv, _ = CASES[name]
    out = io.StringIO()
    with _working_directory(GOLDEN.parent), contextlib.redirect_stdout(out):
        code = main(argv + ["--no-timestamp"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, text = run_case(name)
    assert code == CASES[name][1]
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(name for name in CASES if name.startswith("mixing_")))
def test_mixing_calls_no_eigensolver(name, monkeypatch):
    # every mixing table is exact: its golden bytes come without one float
    # eigensolve, which would raise here
    from ramshift import spectral

    def refuse(*args, **kwargs):
        raise AssertionError("mixing must not run an eigensolver")

    monkeypatch.setattr(spectral, "second_modulus_directed", refuse)
    for solver in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver, refuse)
    assert run_case(name) == (0, (GOLDEN / name).read_text(encoding="utf-8"))


def datum_file_text(name: str) -> str:
    return dumps_datum(build_quaternionic_datum(make_field(*DATUM_FILES[name]), 1, 2))


@pytest.mark.parametrize("name", sorted(DATUM_FILES))
def test_datum_file_matches_golden(name):
    assert datum_file_text(name) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        code, text = run_case(name)
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][1]}")
        (GOLDEN / name).write_text(text, encoding="utf-8")
    for name in sorted(DATUM_FILES):
        (GOLDEN / name).write_text(datum_file_text(name), encoding="utf-8")
