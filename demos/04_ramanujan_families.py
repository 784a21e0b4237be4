"""Spectral verification of the level-graph families.

A_n and B_n are the level graphs of the datum automaton and its dual on
reduced words of length n.  For the quaternionic datums every one of them
is a connected, non-bipartite, (q+1)-regular Ramanujan graph: all
nontrivial eigenvalues have modulus at most 2 sqrt(q).  Each side is walked
as a covering tower: every level covers the one below by dropping its
first and by dropping its last letter, so from level 3 on only the
doubly-new block is eigensolved, in four blocks by letter-wise inversion
and reversal (reverse the word, invert every letter).
The dart (non-backtracking) spectrum then sits on {+-1} and the circle of
radius sqrt(q), which the quadratic transfer of the adjacency spectrum
predicts exactly.
"""

from itertools import islice
from math import sqrt

import numpy as np

from ramshift import build_quaternionic_datum, make_field, ramanujan_check
from ramshift.graphs import level_graph, level_tower
from ramshift.spectral import eig_symmetric, nb_transfer_report, tower_spectra

for q in (3, 5):
    datum = build_quaternionic_datum(make_field(q, 1), 1, 2)
    bound = 2 * sqrt(q)
    print(f"q = {q}: bound 2 sqrt(q) = {bound:.6f}")
    top = 6 if q == 3 else 4
    for side in ("A", "B"):
        for n, (graph, eigs, blocks) in enumerate(islice(tower_spectra(level_tower(datum, side)), top), 1):
            verdict = ramanujan_check(graph, eigenvalues=eigs)
            shape = verdict.structure
            print(
                f"  {side}_{n}: {graph.n_vertices():>4} vertices, solved blocks {' + '.join(map(str, blocks)):>21}, "
                f"connected={shape.connected}, bipartite={shape.bipartite}, "
                f"max nontrivial |l| = {verdict.second_modulus:.6f}, "
                f"margin = {verdict.margin:.6f}, ramanujan = {verdict.ramanujan}"
            )
        whole = eig_symmetric(graph.adjacency())
        print(f"  {side}_{top} against the whole-graph eigensolve: max difference {np.abs(eigs - whole).max():.1e}")
    print()

print("Dart spectra vs the quadratic transfer (q = 3):")
datum = build_quaternionic_datum(make_field(3, 1), 1, 2)
for n in (1, 2, 3):
    report = nb_transfer_report(level_graph(datum, "A", n))
    print(
        f"  A_{n}: {report.n_darts:>3} darts, set distance "
        f"{max(report.max_dist_direct_to_transfer, report.max_dist_transfer_to_direct):.2e}, "
        f"nontrivial moduli off {{1, sqrt(3)}} by {report.max_modulus_defect:.2e}"
    )
