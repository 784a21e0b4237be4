"""Automata from datums: transductions, duality, composition,
reversibility, action graphs, lifts, and the diagonal product action."""

import random
from itertools import permutations, product

import numpy as np
import pytest

from ramshift import mealy
from ramshift.mealy import (
    Mealy,
    act,
    action_graph,
    compose,
    dual,
    dual_negation_check,
    from_datum,
    is_bireversible,
    is_dual_reversible,
    is_reversible,
    iterate,
    lift_arrays,
    product_act,
    reduced_words,
)
from ramshift.vhdatum import build_quaternionic_datum, direct_product_datum


@pytest.fixture(scope="module")
def m_q3(d12_q3):
    return from_datum(d12_q3)


def test_from_datum_shape(m_q3):
    assert m_q3.n_states() == 4 and m_q3.n_letters() == 4


def test_single_transition(d12_q3, m_q3):
    a = d12_q3.V.index("1")
    b = d12_q3.H.index("1+Z")
    out, end = act(m_q3, a, (b,))
    assert d12_q3.H[out[0]] == "2+2Z"
    assert d12_q3.V[end] == "2Z"


def test_totality(m_q3):
    assert all(x >= 0 for row in m_q3.delta for x in row)
    assert all(x >= 0 for row in m_q3.out for x in row)


def test_dual_is_an_involution(m_q3):
    dd = dual(dual(m_q3))
    assert np.array_equal(dd.delta, m_q3.delta) and np.array_equal(dd.out, m_q3.out)
    assert dd.states == m_q3.states


def test_dual_unlabeled_graph_is_g1(m_q3):
    dm = dual(m_q3)
    g1 = action_graph(m_q3, 1)
    dual_edges = sorted((x, dm.delta[x][a]) for x in range(dm.n_states()) for a in range(dm.n_letters()))
    letter = g1.words[:, 0]
    g1_edges = sorted(zip(np.repeat(letter, m_q3.n_states()).tolist(), letter[g1.dst.ravel()].tolist()))
    assert dual_edges == g1_edges


@pytest.mark.parametrize("places", [("f3", 1, 2), ("f5", 1, 2), ("f5", 2, 3), ("f5", 1, 4)])
def test_negation_maps_dual_onto_swapped_datum(places, request):
    fixture, tau, sigma = places
    spec = request.getfixturevalue(fixture)
    d_ts = build_quaternionic_datum(spec, tau, sigma)
    d_st = build_quaternionic_datum(spec, sigma, tau)
    assert dual_negation_check(d_ts, d_st)


def test_self_duality_exists_for_sigma_minus_tau(m_q3):
    # sigma = -tau at q=3: some automaton isomorphism dual(M) -> M exists
    # (brute force over the 4! x 4! candidate bijections)
    dm = dual(m_q3)
    n = m_q3.n_states()
    found = any(
        all(
            m_q3.delta[pq[x]][ps[a]] == pq[dm.delta[x][a]]
            and m_q3.out[pq[x]][ps[a]] == ps[dm.out[x][a]]
            for x in range(n)
            for a in range(n)
        )
        for pq in permutations(range(n))
        for ps in permutations(range(n))
    )
    assert found


def test_compose_state_count_and_semantics(m_q3):
    mm = compose(m_q3, m_q3)
    assert mm.n_states() == 16
    rng = random.Random(7)
    for _ in range(20):
        a1, a2 = rng.randrange(4), rng.randrange(4)
        w = tuple(rng.randrange(4) for _ in range(5))
        mid, end2 = act(m_q3, a2, w)
        out, end1 = act(m_q3, a1, mid)
        out_c, end_c = act(mm, a1 * 4 + a2, w)
        assert out_c == out
        assert end_c == end1 * 4 + end2


def test_compose_requires_matching_alphabets(m_q3):
    other = direct_product_datum(2, 2)
    with pytest.raises(ValueError, match="alphabet"):
        compose(m_q3, from_datum(other))


@pytest.mark.parametrize("n", [2, 3])
def test_iterated_automaton_graph_equals_dual_action_graph(m_q3, n):
    # M^(n), one edge per letter, matches G_n(dual M) after reversing the
    # state tuple that identifies product states with words
    mn = iterate(m_q3, n)
    k = m_q3.n_states()

    def unpack(i):
        # state index -> reversed component tuple (innermost factor first)
        digits = []
        for _ in range(n):
            digits.append(i % k)
            i //= k
        return tuple(digits)

    mn_edges = sorted(
        (unpack(s), unpack(mn.delta[s][x]))
        for s in range(mn.n_states())
        for x in range(mn.n_letters())
    )
    gd = action_graph(dual(m_q3), n)
    words = list(map(tuple, gd.words.tolist()))
    gd_edges = sorted((words[v], words[u]) for v, row in enumerate(gd.dst.tolist()) for u in row)
    assert mn_edges == gd_edges


def test_reversibility_verdicts(m_q3):
    assert is_reversible(m_q3)
    assert is_dual_reversible(m_q3)
    assert is_bireversible(m_q3)
    collapsing = Mealy(
        states=["p", "q"], alphabet=["0", "1"],
        delta=[[0, 0], [0, 1]], out=[[0, 1], [1, 0]],
    )
    assert not is_reversible(collapsing)
    assert is_dual_reversible(collapsing) == is_reversible(dual(collapsing))


def _brute_bireversible(m: Mealy) -> bool:
    # build the inverse automaton state by state and test the three
    # bijections by counting images
    ns, nl = m.n_states(), m.n_letters()
    delta, out = m.delta.tolist(), m.out.tolist()
    invertible = all(len({out[a][x] for x in range(nl)}) == nl for a in range(ns))
    reversible = all(len({delta[a][x] for a in range(ns)}) == ns for x in range(nl))
    if not invertible:
        return False
    inverse_delta = [[None] * nl for _ in range(ns)]
    for a in range(ns):
        for x in range(nl):
            inverse_delta[a][out[a][x]] = delta[a][x]
    inverse_reversible = all(len({inverse_delta[a][y] for a in range(ns)}) == ns for y in range(nl))
    return reversible and inverse_reversible


def test_bireversibility_of_every_two_state_two_letter_automaton():
    tables = list(product(range(2), repeat=4))
    verdicts = []
    for delta in tables:
        for out in tables:
            m = Mealy(["p", "q"], ["0", "1"], np.reshape(delta, (2, 2)), np.reshape(out, (2, 2)))
            verdicts.append(is_bireversible(m))
            assert verdicts[-1] == _brute_bireversible(m), (delta, out)
    assert 0 < sum(verdicts) < len(verdicts)
    # reversible and invertible, but the inverse repeats (out, next) = (0, 1)
    swap = Mealy(["p", "q"], ["0", "1"], delta=[[0, 1], [1, 0]], out=[[0, 1], [1, 0]])
    assert is_reversible(swap) and is_dual_reversible(swap) and not is_bireversible(swap)


@pytest.mark.parametrize(
    "fields,message",
    [
        (dict(delta=[[0, 1], [1]]), "inhomogeneous|shape"),  # ragged
        (dict(delta=[[0, 1]]), "shape"),
        (dict(out=[[0, 1, 0], [1, 0, 1]]), "shape"),
        (dict(delta=[[0, 2], [1, 0]]), "delta entries"),
        (dict(out=[[0, -1], [1, 0]]), "out entries"),
        (dict(out=[[0, 1.5], [1, 0]]), "out entries"),
        (dict(delta=[[True, False], [False, True]]), "delta entries"),
        (dict(inv_states=[0]), "shape"),
        (dict(inv_states=[0, 2]), "inv_states entries"),
        (dict(inv_alphabet=[1, 1]), "involutive permutation"),
        (dict(inv_alphabet=[[1, 0]]), "shape"),
        (dict(alphabet=["0", "1", "2"], delta=[[0, 0, 0], [1, 1, 1]], out=[[0, 1, 2], [0, 1, 2]],
              inv_alphabet=[1, 2, 0]), "involutive permutation"),  # a three-cycle
    ],
)
def test_construction_checks_the_tables(fields, message):
    good = dict(states=["p", "q"], alphabet=["0", "1"], delta=[[0, 1], [1, 0]], out=[[1, 0], [0, 1]],
                inv_states=[1, 0], inv_alphabet=[0, 1])
    Mealy(**good)
    with pytest.raises(ValueError, match=message):
        Mealy(**{**good, **fields})


def test_tables_are_read_only_intp_copies():
    delta = np.array([[0, 1], [1, 0]])
    m = Mealy(states=["p", "q"], alphabet=["0", "1"], delta=delta, out=[[1, 0], [0, 1]], inv_alphabet=[1, 0])
    assert m.delta.dtype == m.out.dtype == m.inv_alphabet.dtype == np.intp
    delta[0, 0] = 1  # the automaton keeps its own copy
    assert m.delta[0, 0] == 0
    for table in (m.delta, m.out, m.inv_alphabet):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


@pytest.mark.parametrize("fixture", ["f3", "f5", "f9"])
def test_from_datum_reads_every_relation(fixture, request):
    datum = build_quaternionic_datum(request.getfixturevalue(fixture), 1, 2)
    m = from_datum(datum)
    assert m.delta.shape == m.out.shape == (len(datum.V), len(datum.H))
    assert all(m.delta[a, b] == d and m.out[a, b] == c for a, b, c, d in datum.R)
    assert m.inv_states.tolist() == list(datum.inv_V) and m.inv_alphabet.tolist() == list(datum.inv_H)


def test_compose_acts_as_its_factors_on_every_short_word(f5):
    m1 = from_datum(build_quaternionic_datum(f5, 1, 2))
    m2 = from_datum(build_quaternionic_datum(f5, 3, 2))  # same letters, other states
    mm, n2 = compose(m1, m2), m2.n_states()
    for word in (w for n in range(4) for w in product(range(6), repeat=n)):
        for a1 in range(m1.n_states()):
            for a2 in range(n2):
                mid, end2 = act(m2, a2, word)
                out, end1 = act(m1, a1, mid)
                assert act(mm, a1 * n2 + a2, word) == (out, end1 * n2 + end2)
    assert mm.inv_states is None  # the factors' states differ
    square = compose(m1, m1)
    for word in product(range(6), repeat=2):
        for s in range(square.n_states()):
            image, _ = act(square, s, word)
            assert act(square, square.inv_states[s], image)[0] == word


def test_act_returns_python_ints(m_q3):
    out, end = act(m_q3, 1, (0, 2, 3))
    assert {type(x) for x in (*out, end)} == {int}


def test_act_empty_word(m_q3):
    assert act(m_q3, 2, ()) == ((), 2)


def test_act_rejects_foreign_letters(m_q3):
    with pytest.raises(ValueError, match="alphabet"):
        act(m_q3, 0, (7,))


def test_act_preserves_reducedness_exhaustively(m_q3):
    inv = m_q3.inv_alphabet
    for n in range(1, 5):
        reduced = set(reduced_words(n, 4, inv))
        assert len(reduced) == 4 * 3 ** (n - 1)
        assert all(w[i + 1] != inv[w[i]] for w in reduced for i in range(n - 1))  # no letter then its inverse
        for w in reduced:
            for a in range(4):
                out, _ = act(m_q3, a, w)
                assert out in reduced


def test_act_is_a_bijection_on_words(m_q3):
    for n in (2, 3):
        full = [tuple(w) for w in product(range(4), repeat=n)]
        red = reduced_words(n, 4, m_q3.inv_alphabet)
        for a in range(4):
            assert len({act(m_q3, a, w)[0] for w in full}) == len(full)
            assert len({act(m_q3, a, w)[0] for w in red}) == len(red)


def test_prefix_property(m_q3):
    rng = random.Random(404)
    for _ in range(30):
        w = tuple(rng.randrange(4) for _ in range(8))
        a = rng.randrange(4)
        full, _ = act(m_q3, a, w)
        for k in range(9):
            assert act(m_q3, a, w[:k])[0] == full[:k]


def test_edge_inverse_symmetry(d12_q3, m_q3):
    iv, ih = d12_q3.inv_V, d12_q3.inv_H
    for a in range(4):
        for b in range(4):
            d = m_q3.delta[a][b]
            c = m_q3.out[a][b]
            assert m_q3.delta[d][ih[b]] == a
            assert m_q3.out[d][ih[b]] == ih[c]


def test_action_graph_counts(m_q3):
    g0 = action_graph(m_q3, 0, reduced=True)
    assert g0.words.shape == (1, 0) and g0.dst.tolist() == [[0, 0, 0, 0]]
    assert g0.end.tolist() == [[0, 1, 2, 3]]
    g2 = action_graph(m_q3, 2)
    assert g2.words.tolist() == [list(w) for w in product(range(4), repeat=2)]  # lexicographic
    g3 = action_graph(m_q3, 3, reduced=True)
    assert g3.words.tolist() == [list(w) for w in reduced_words(3, 4, m_q3.inv_alphabet)]
    assert g3.dst.shape == (36, 4)  # (q+1) q^(n-1) vertices, one dart per state
    for g in (g2, g3):
        words = list(map(tuple, g.words.tolist()))
        for v, w in enumerate(words):
            for a in range(4):
                out, end = act(m_q3, a, w)
                assert (words[g.dst[v, a]], g.end[v, a]) == (out, end)


def test_reduced_mode_needs_involution():
    m = Mealy(states=["p"], alphabet=["0", "1"], delta=[[0, 0]], out=[[1, 0]])
    with pytest.raises(ValueError, match="involution"):
        action_graph(m, 2, reduced=True)


def test_lift_rules_are_the_inverted_transitions(m_q3):
    # one lift of the rose applies R_{a,x} = (b, y) to its loop a: the dart
    # (x, b) points to the word y and ends in a, where delta(b, x) = a and
    # y = out(b, x); for each x the rules permute the 4 states
    lift = lift_arrays(m_q3, 1)
    for x in range(4):
        assert lift.dst[x].tolist() == [m_q3.out[b][x] for b in range(4)]
        assert lift.end[x].tolist() == [m_q3.delta[b][x] for b in range(4)]
        assert sorted(lift.end[x].tolist()) == [0, 1, 2, 3]


def test_reduced_lift_is_a_qfold_vertex_lift(m_q3):
    before = lift_arrays(m_q3, 1)
    for n in (2, 3, 4):
        lift = lift_arrays(m_q3, n)
        assert len(lift.words) == 3 * len(before.words)  # q-fold
        ref = action_graph(m_q3, n, reduced=True)
        assert (lift.words == ref.words).all() and (lift.dst == ref.dst).all()
        before = lift


@pytest.mark.parametrize(
    "p,e,n_max",
    [(3, 1, 5), (5, 1, 3), (3, 2, 2), (None, None, 3)],
    ids=["q3", "q5", "q9", "direct_2x3"],
)
@pytest.mark.parametrize("side", ["A", "B"])
def test_lift_arrays_equal_the_action_graph(p, e, n_max, side):
    from ramshift.ffield import make_field

    if p is None:
        datum = direct_product_datum(2, 3)
    else:
        datum = build_quaternionic_datum(make_field(p, e), 1, 2)
    m = from_datum(datum)
    auto = m if side == "A" else dual(m)
    s = auto.n_states()
    for n in range(n_max + 1):
        lift = lift_arrays(auto, n)
        ref = action_graph(auto, n, reduced=True)
        assert lift.words.shape == ref.words.shape == (len(ref.words), n)
        assert lift.dst.shape == lift.end.shape == (len(ref.words), s)
        for name in ("words", "dst", "end"):  # order included
            assert getattr(lift, name).tolist() == getattr(ref, name).tolist()


def test_lift_arrays_need_a_reversible_automaton():
    m = Mealy(states=["p", "q"], alphabet=["0", "1"], delta=[[0, 0], [0, 1]], out=[[0, 1], [1, 0]],
              inv_alphabet=[1, 0])
    with pytest.raises(ValueError, match="reversible"):
        lift_arrays(m, 2)


def test_lift_system_needs_reversibility():
    # every output map is a bijection, but delta_1 sends both states to q:
    # the rules R_{a,x} are undefined, so no length is lifted
    m = Mealy(states=["p", "q"], alphabet=["0", "1"], delta=[[0, 0], [0, 1]], out=[[0, 1], [1, 0]],
              inv_alphabet=[1, 0])
    assert is_dual_reversible(m) and not is_reversible(m)
    for n in range(4):
        with pytest.raises(ValueError, match="reversible"):
            lift_arrays(m, n)


def test_lift_arrays_reject_an_automaton_that_leaves_the_reduced_words():
    # one state, letters 0 <-> 1 and 2 <-> 3 inverse; the output swaps 1 and
    # 2, so the reduced word (0, 2) is sent to (0, 1), which is not reduced
    m = Mealy(states=["p"], alphabet=["0", "1", "2", "3"], delta=[[0, 0, 0, 0]], out=[[0, 2, 1, 3]],
              inv_states=[0], inv_alphabet=[1, 0, 3, 2])
    assert is_reversible(m)
    lift_arrays(m, 1)  # every word of length one is reduced
    action_graph(m, 1, reduced=True)
    with pytest.raises(RuntimeError, match="lift dropped one endpoint"):
        lift_arrays(m, 2)
    with pytest.raises(RuntimeError, match="outside the reduced words"):
        action_graph(m, 2, reduced=True)
    assert len(action_graph(m, 2).words) == 16  # all words: nothing leaves them


def test_product_act_empty(d12_q3):
    assert product_act([], 0, ()) == ((), 0)


def test_product_act_threads_states(f5):
    from ramshift.vhdatum import verify_relations

    d2 = build_quaternionic_datum(f5, 1, 2)
    d3 = build_quaternionic_datum(f5, 1, 3)
    # every single transition used below is quaternion-certified
    assert verify_relations(d2).ok and verify_relations(d3).ok
    m2, m3 = from_datum(d2), from_datum(d3)
    for a in range(6):
        for b2 in range(6):
            for b3 in range(6):
                (o2, o3), end = product_act([d2, d3], a, ((b2,), (b3,)))
                w2, mid = act(m2, a, (b2,))
                w3, fin = act(m3, mid, (b3,))
                assert (o2, o3) == (w2, w3) and end == fin


def test_product_act_inverse_is_identity(f5, d12_q5):
    d3 = build_quaternionic_datum(f5, 1, 3)
    datums = [d12_q5, d3]
    inv_v = d12_q5.inv_V
    words = (tuple([2]), tuple([4, 1]))
    for a in range(6):
        mid, end = product_act(datums, a, words)
        back, _ = product_act(datums, inv_v[a], mid)
        assert back == words


def test_product_act_rejects_mismatched_v_side(f5, d12_q5):
    d_other = build_quaternionic_datum(f5, 2, 3)  # different tau
    with pytest.raises(ValueError, match="share the V side"):
        product_act([d12_q5, d_other], 0, ((), ()))
