"""Acceptance suite: one test per headline criterion, each printing a
PASS line with its tolerance.  Everything spectral is rechecked at desk
scale; all algebraic identities are exact."""

from fractions import Fraction
from itertools import islice
from math import sqrt

import numpy as np
from ramshift.ffield import make_field
from ramshift.graphs import (
    cover_fiber,
    level_graph,
    level_tower,
    nb_matrix,
    product_level_graph,
    structure_predicates,
)
from ramshift.mealy import action_graph, from_datum, lift_arrays
from ramshift.quaternion import QuatElem, proportional
from ramshift.spectral import (
    bass_ihara_pairs,
    deviation_table,
    eig_symmetric,
    nb_spectrum_direct,
    ramanujan_check,
    second_modulus_directed,
)
from ramshift.subshift import (
    MatrixSubshift,
    admissible_patterns,
    build_xd,
    chains,
    cylinder_measure,
    fill_rectangle,
    is_admissible,
    pattern_count,
    regularity_report,
    transition_graph,
)
from ramshift.vhdatum import (
    build_quaternionic_datum,
    validate_datum,
    verify_relations,
)
from reference import direct_product_datum, strip_adjacency, wang_shift


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_01_quaternionic_datum_correctness():
    cases = [(3, 1, 1, 2), (5, 1, 1, 2), (5, 1, 2, 3), (7, 1, 1, 2), (3, 2, 1, 2)]
    for p, e, tau, sigma in cases:
        spec = make_field(p, e)
        datum = build_quaternionic_datum(spec, tau, sigma)
        assert len(datum.R) == (spec.q + 1) ** 2
        validation = validate_datum(datum)
        assert validation.ok, validation.violations[:3]
        relations = verify_relations(datum)
        assert relations.ok, relations.violations[:3]
    report(
        "criterion 1 PASS: datum axioms (1)-(3) and all quaternion relations "
        "exact for (q, tau, sigma) in {(3,1,2), (5,1,2), (5,2,3), (7,1,2), (9,1,2)}"
    )


def test_criterion_02_printed_table_discrepancy():
    spec = make_field(3, 1)
    gen = lambda u, v: QuatElem.one_plus_alpha_f(spec, spec.ext(u, v))
    lhs = gen(1, 0) * gen(1, 1)            # (1 + F)(1 + (1+Z)F)
    printed = gen(2, 2) * gen(2, 0)        # ... = (1 + (2+2Z)F)(1 + 2F)?  no
    corrected = gen(2, 2) * gen(0, 2)      # ... = (1 + (2+2Z)F)(1 + 2Z F)?  yes
    assert not proportional(lhs, printed)
    assert proportional(lhs, corrected)
    # and the constructed datum contains exactly the corrected tuple
    datum = build_quaternionic_datum(spec, 1, 2)
    labeled = {
        (datum.V[a], datum.H[b], datum.H[c], datum.V[d]) for a, b, c, d in datum.R
    }
    assert ("1", "1+Z", "2+2Z", "2Z") in labeled
    assert ("1", "1+Z", "2+2Z", "2") not in labeled
    report(
        "criterion 2 PASS: printed row (1, 1+Z, 2+2Z, 2) fails the oracle; "
        "the twist formula's (1, 1+Z, 2+2Z, 2Z) passes (exact)"
    )


def test_criterion_03_ramanujan_level_families():
    tol = 1e-8
    worst = {}
    for q, max_level in ((3, 6), (5, 4)):
        spec = make_field(q, 1)
        datum = build_quaternionic_datum(spec, 1, 2)
        bound = 2 * sqrt(q)
        for side in ("A", "B"):
            for n in range(1, max_level + 1):
                graph = level_graph(datum, side, n)
                assert graph.n_vertices() == (q + 1) * q ** (n - 1)
                structure = structure_predicates(graph)
                assert structure.connected and not structure.bipartite
                assert structure.regular_degree == q + 1
                verdict = ramanujan_check(graph, tol=tol)
                assert verdict.ramanujan, (q, side, n, verdict.second_modulus)
                assert verdict.second_modulus <= bound + tol
                worst[q] = min(worst.get(q, 1e9), verdict.margin)
    report(
        "criterion 3 PASS: A_n, B_n connected non-bipartite Ramanujan "
        f"(q=3 n<=6 margin>={worst[3]:.2e}, q=5 n<=4 margin>={worst[5]:.2e}, tol 1e-8)"
    )


def test_criterion_04_multidimensional_levels():
    tol = 1e-8
    spec = make_field(5, 1)
    for levels in ((1, 1), (2, 1), (1, 2)):
        graph = product_level_graph(spec, [1, 2, 3], 1, levels)
        structure = structure_predicates(graph)
        assert structure.connected and not structure.bipartite
        assert structure.regular_degree == 6
        verdict = ramanujan_check(graph, tol=tol)
        assert verdict.ramanujan and verdict.second_modulus <= 2 * sqrt(5) + tol
    report(
        "criterion 4 PASS: q=5, S0={1,2,3}, tau=1 level graphs (1,1), (2,1), "
        "(1,2) are connected, non-bipartite, 6-regular, Ramanujan (tol 1e-8)"
    )


def test_criterion_05_bass_ihara_transfer():
    tol = 1e-6
    spec = make_field(3, 1)
    datum = build_quaternionic_datum(spec, 1, 2)
    checked = 0
    for side in ("A", "B"):
        for n in (1, 2, 3):
            graph = level_graph(datum, side, n)
            dart = nb_matrix(graph)
            assert dart.n_darts() <= 2000
            direct = nb_spectrum_direct(dart)
            transfer = np.array([x for x, _ in bass_ihara_pairs(eig_symmetric(graph.adjacency()), dart.degree)])
            for x in direct:
                assert np.abs(transfer - x).min() <= tol
            for y in transfer:
                assert np.abs(direct - y).min() <= tol
            for x in direct:
                mod = abs(x)
                if abs(mod - dart.degree) <= tol:
                    continue  # the Perron value d
                assert min(abs(mod - 1), abs(mod - sqrt(3))) <= tol
            checked += 1
    assert checked == 6
    report(
        "criterion 5 PASS: direct dart spectra match the transferred sets both "
        "ways and nontrivial moduli lie in {1, sqrt(q)} (q=3, n<=3, tol 1e-6)"
    )


def test_criterion_06_covering_and_lift_structure():
    spec = make_field(3, 1)
    datum = build_quaternionic_datum(spec, 1, 2)
    automaton = from_datum(datum)
    for side in ("A", "B"):
        levels = list(islice(level_tower(datum, side), 6))
        for lower, level in zip(levels, levels[1:]):
            for parent in (level.parent, level.last_parent):  # drop-first and drop-last
                assert cover_fiber(level.graph, lower.graph, parent) == (4 if lower.parent is None else 3)
    before = lift_arrays(automaton, 1)
    for n in (2, 3, 4):
        lift = lift_arrays(automaton, n)
        assert len(lift.words) == 3 * len(before.words)  # a q-fold vertex lift
        assert (lift.words[:, 1:] == before.words[lift.parent]).all()  # its parents drop the first letter
        ref = action_graph(automaton, n, reduced=True)
        for name in ("words", "dst", "end"):  # equal as labeled graphs
            assert (getattr(lift, name) == getattr(ref, name)).all()
        assert (level_graph(datum, "A", n).terminus == lift.dst.ravel()).all()
        before = lift
    report(
        "criterion 6 PASS: drop-last and drop-first coverings hold for "
        "A_n -> A_(n-1) and B_n -> B_(n-1), n<=5; iterated reduced lifts "
        "rebuild A_n (n<=4) as labeled graphs via q-fold vertex lifts"
    )


def test_criterion_07_subshift_algebra():
    spec = make_field(3, 1)
    shift = build_xd(build_quaternionic_datum(spec, 1, 2))
    rep = regularity_report(shift)
    assert rep.degree == 3 and rep.consistent and rep.uniquely_extendable
    ab, ba = shift.A @ shift.B, shift.B @ shift.A
    abt, bta = shift.A @ shift.B.T, shift.B.T @ shift.A
    assert set(np.unique(ab)) <= {0, 1} and set(np.unique(abt)) <= {0, 1}
    assert (ab == ba).all() and (abt == bta).all()

    a4 = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0]])
    b4 = np.array([[0, 1, 0, 1], [0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 0]])
    pair = MatrixSubshift(list("0123"), a4, b4)
    assert set(np.unique(a4 @ b4)) == {0, 2}
    assert (b4 @ a4 == 1).all()
    rep4 = regularity_report(pair)
    assert rep4.degree == 2 and not rep4.consistent and not rep4.uniquely_extendable

    f2f2 = direct_product_datum(2, 2)
    full = regularity_report(wang_shift(f2f2))
    assert full.degree == 4 and full.uniquely_extendable
    sub = regularity_report(build_xd(f2f2))
    assert sub.degree == 3 and sub.uniquely_extendable
    report(
        "criterion 7 PASS: q=3 shift is 3-regular, consistent, uniquely "
        "extendable (exact); the 4x4 pair reproduces AB in {0,2}, BA = J and "
        "is flagged non-extendable; F2xF2 gives 4-regular full / 3-regular "
        "restricted shifts"
    )


def test_criterion_08_pattern_counting_and_measure():
    spec = make_field(3, 1)
    shift = build_xd(build_quaternionic_datum(spec, 1, 2))
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 2)):
        assert pattern_count(shift, m, n) == 16 * 3 ** (m - 1) * 3 ** (n - 1)
    for m, n in ((1, 1), (2, 2), (2, 3)):
        total = sum(cylinder_measure(shift, p) for p in admissible_patterns(shift, m, n))
        assert total == Fraction(1)
    report(
        "criterion 8 PASS: exhaustive counts equal s d^(m-1) d^(n-1) for "
        "(1,1), (2,2), (2,3), (3,2); cylinder measures sum to exactly 1"
    )


def test_criterion_09_mixing_envelope():
    margins = {}
    for q, ks, n_max in ((3, (1, 2), 20), (5, (1,), 15)):
        spec = make_field(q, 1)
        shift = build_xd(build_quaternionic_datum(spec, 1, 2))
        for k in ks:
            graph = transition_graph(shift, "horizontal", k)
            adjacency = strip_adjacency(graph)
            d = int(adjacency.sum(axis=1)[0])
            assert d == q
            devs = deviation_table(graph.preds, n_max)
            dev1 = devs[0]
            for n, dev in enumerate(devs, start=1):
                # dev(n) <= C n (1/sqrt(q))^n with C = dev(1) sqrt(q), exactly
                assert dev * dev * q**n <= dev1 * dev1 * q * n * n, (q, k, n)
            lam = second_modulus_directed(adjacency)
            assert abs(lam - sqrt(q)) <= 1e-6, (q, k, lam)
            margins[(q, k)] = lam
    report(
        "criterion 9 PASS: exact deviations obey C n (1/sqrt(q))^n with C "
        "fitted at n=1 (q=3 k in {1,2} n<=20; q=5 k=1 n<=15); lambda(H_k) = "
        "sqrt(q) within 1e-6"
    )


def test_criterion_10_unique_reconstruction():
    spec = make_field(3, 1)
    shift = build_xd(build_quaternionic_datum(spec, 1, 2))
    filled = 0
    for m in (1, 2, 3):
        h_chains = chains(shift.A, m)
        for n in (1, 2, 3):
            v_by_origin: dict[int, list] = {}
            for chain in chains(shift.B, n):
                v_by_origin.setdefault(chain[0], []).append(chain)
            for h_trace in h_chains:
                for v_trace in v_by_origin.get(h_trace[0], []):
                    pattern = fill_rectangle(shift, h_trace, v_trace)
                    assert is_admissible(shift, pattern)
                    assert pattern[0] == v_trace
                    assert tuple(col[0] for col in pattern) == h_trace
                    filled += 1
    # trace pairs biject with patterns: sum over shapes of s d^(m-1) d^(n-1)
    expected = sum(
        16 * 3 ** (m - 1) * 3 ** (n - 1) for m in (1, 2, 3) for n in (1, 2, 3)
    )
    assert filled == expected
    report(
        f"criterion 10 PASS: all {filled} admissible trace pairs up to 3x3 "
        "reconstruct uniquely and admissibly (every corner step forced)"
    )
