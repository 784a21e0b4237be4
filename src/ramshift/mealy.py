"""Mealy automata (letter-to-letter transducers) and their action graphs.

An automaton built from a VH-datum has states V, alphabet H, and one
transition a --b/c--> d per relation tuple (a, b, c, d).  Such automata are
bireversible and respect the involutions: a --b/c--> d iff
d --b^-1/c^-1--> a, which is what lets action graphs be glued into
undirected level graphs.  `Mealy` holds its tables as int arrays checked
once, when it is built; duals, compositions, the lift and the level graphs
read them without converting.

Words are tuples of letter indices, and a word is *reduced* when no letter
is followed by its inverse.  An action graph has one form, `LevelArrays`:
the words of length n as an int array and, for every (word, state) dart,
the index of the image word and the end state.  The lifting rule R_{a,x}
sends v --a--> u to xv --b--> yu where delta(b, x) = a and y = lambda(b, x);
`lift_levels` iterates it from the one-vertex rose, handing out each level
with its drop-first projection to the level below, and builds every level
graph; `action_graph`, which transduces every (word, state) pair with
`act`, is the reference it is tested against.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .vhdatum import VHDatum, dot_escaped, validate_datum

Word = tuple[int, ...]


@dataclass(eq=False)
class Mealy:
    """In state a, letter x is written as out[a, x] and the automaton moves
    to delta[a, x].  Construction copies both (states x letters) tables and
    the optional involutions to read-only intp arrays, and raises
    ValueError for a ragged or wrong-shape table, an entry out of range, or
    an inverse that is not an involutive permutation."""

    states: list[str]
    alphabet: list[str]
    delta: np.ndarray  # delta[state, letter] -> next state
    out: np.ndarray    # out[state, letter] -> output letter
    inv_states: np.ndarray | None = None
    inv_alphabet: np.ndarray | None = None

    def __post_init__(self):
        ns, nl = len(self.states), len(self.alphabet)
        self.delta = _checked_table("delta", self.delta, (ns, nl), ns)
        self.out = _checked_table("out", self.out, (ns, nl), nl)
        for name, size in (("inv_states", ns), ("inv_alphabet", nl)):
            if getattr(self, name) is not None:
                inv = _checked_table(name, getattr(self, name), (size,), size)
                if (inv[inv] != np.arange(size)).any():
                    raise ValueError(f"{name} must be an involutive permutation")
                setattr(self, name, inv)

    def n_states(self) -> int:
        return len(self.states)

    def n_letters(self) -> int:
        return len(self.alphabet)

    def __repr__(self) -> str:
        return f"Mealy({self.n_states()} states, {self.n_letters()} letters)"


def _checked_table(name: str, values, shape: tuple[int, ...], bound: int) -> np.ndarray:
    """A read-only intp copy of `values`, which must have `shape` and integer entries in 0..bound-1."""
    table = np.array(values)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {table.shape}")
    if table.size and (table.dtype.kind not in "iu" or table.min() < 0 or table.max() >= bound):
        raise ValueError(f"{name} entries must be integers in 0..{bound - 1}")
    table = table.astype(np.intp, copy=False)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# construction


def from_datum(datum: VHDatum) -> Mealy:
    """States V, alphabet H; tuple (a, b, c, d) reads as delta(a,b) = d,
    out(a,b) = c.  Property (3) makes both maps total."""
    report = validate_datum(datum)
    if not report.ok:
        raise ValueError(f"invalid datum: {report.violations[0]}")
    a, b, c, d = np.array(datum.R, dtype=np.intp).reshape(-1, 4).T
    delta, out = np.full((2, len(datum.V), len(datum.H)), -1, dtype=np.intp)
    delta[a, b], out[a, b] = d, c
    return Mealy(list(datum.V), list(datum.H), delta, out, datum.inv_V, datum.inv_H)


def dual(m: Mealy) -> Mealy:
    """Swap the roles of states and letters:
    delta*(x, a) = out(a, x), out*(x, a) = delta(a, x)."""
    return Mealy(list(m.alphabet), list(m.states), m.out.T, m.delta.T, m.inv_alphabet, m.inv_states)


def compose(m1: Mealy, m2: Mealy) -> Mealy:
    """Serial composition: input goes through m2 first, its output through m1.

    States are pairs (a1, a2), at index a1 * |m2 states| + a2, with
        delta((a1,a2), x) = (delta1(a1, out2(a2,x)), delta2(a2, x)),
        out((a1,a2), x)   = out1(a1, out2(a2,x)).
    Acting from (a1, a2) equals acting with a2 then a1.
    """
    if m1.alphabet != m2.alphabet:
        raise ValueError("composition needs identical alphabets")
    n2 = m2.n_states()
    shape = (m1.n_states() * n2, m1.n_letters())
    # with shared states, the inverse of "a2 then a1" is "a1^-1 then a2^-1"
    shared = m1.states == m2.states and m1.inv_states is not None and np.array_equal(m1.inv_states, m2.inv_states)
    # [a1, a2, x]: m1 reads the letter y = out2(a2, x)
    return Mealy(
        states=[f"({s1},{s2})" for s1 in m1.states for s2 in m2.states],
        alphabet=list(m1.alphabet),
        delta=(m1.delta[:, m2.out] * n2 + m2.delta).reshape(shape),
        out=m1.out[:, m2.out].reshape(shape),
        inv_states=(m1.inv_states * n2 + m1.inv_states[:, None]).ravel() if shared else None,
        inv_alphabet=m1.inv_alphabet,
    )


def iterate(m: Mealy, n: int) -> Mealy:
    """n-fold composition of m with itself (n >= 1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    result = m
    for _ in range(n - 1):
        result = compose(result, m)
    return result


# ---------------------------------------------------------------------------
# reversibility


def is_reversible(m: Mealy) -> bool:
    """Each delta_x: state -> state is a bijection."""
    return bool((np.sort(m.delta, axis=0) == np.arange(m.n_states())[:, None]).all())


def is_dual_reversible(m: Mealy) -> bool:
    """Each lambda_a: letter -> letter is a bijection."""
    return bool((np.sort(m.out, axis=1) == np.arange(m.n_letters())).all())


def is_bireversible(m: Mealy) -> bool:
    """Reversible, invertible, and with a reversible inverse.  The inverse
    reads out[a, x], writes x and moves to delta[a, x], so it is reversible
    exactly when the pairs (out[a, x], delta[a, x]) are all distinct."""
    pairs = m.out * m.n_states() + m.delta
    return is_reversible(m) and is_dual_reversible(m) and len(np.unique(pairs)) == pairs.size


# ---------------------------------------------------------------------------
# word actions


def act(m: Mealy, state: int, word: Word) -> tuple[Word, int]:
    """Left-to-right transduction; returns (output word, end state) as Python ints."""
    if not 0 <= state < m.n_states():
        raise ValueError(f"state index {state} out of range")
    n_letters, out, delta = m.n_letters(), m.out, m.delta
    output = []
    for letter in word:
        if not 0 <= letter < n_letters:
            raise ValueError(f"letter index {letter} not in the alphabet")
        output.append(int(out[state, letter]))
        state = int(delta[state, letter])
    return tuple(output), state


def reduced_words(n: int, size: int, inv: list[int]) -> list[Word]:
    """All reduced words of length n over an alphabet of `size` letters, in
    lexicographic order; count is size * (size-1)^(n-1).

    Only `action_graph` reads it: `lift_arrays` enumerates reduced words as
    arrays.  It stays as the tests' reference for that order, and because
    `benchmarks/tracing.TARGETS` wraps it by name, so deleting it breaks
    `benchmarks/test_benchmark.py::test_traced_pass_accounts_for_its_wall_time`."""
    if n == 0:
        return [()]
    words = [(x,) for x in range(size)]
    for _ in range(n - 1):
        words = [w + (x,) for w in words for x in range(size) if x != inv[w[-1]]]
    return words


@dataclass
class LevelArrays:
    """An action graph on the words of length n: row i of `words` is vertex
    i's word, in lexicographic order; dart i * s + a (the flat order of the
    (N, s) tables) goes to vertex dst[i, a], the output of act(a, words[i]),
    and the transduction ends in state end[i, a].  A lifted level also
    holds its drop-first projection: parent[i] is the index, at level
    n - 1, of word i without its first letter."""

    words: np.ndarray  # (N, n) letters
    dst: np.ndarray    # (N, s) vertex indices
    end: np.ndarray    # (N, s) state indices
    parent: np.ndarray | None = None  # (N,) vertex indices at level n - 1; None unless lifted from it


def action_graph(m: Mealy, n: int, reduced: bool = False) -> LevelArrays:
    """The action graph G_n: one vertex per word of length n, one dart
    v -> M_a(v) per state a, found by transducing every (word, state) pair
    with `act`, independently of the lift.

    In reduced mode the vertices are the reduced words, and a state that
    maps a reduced word outside them raises (datum automata never do).
    n = 0 gives a single vertex with a loop per state.

    No command reads it: the level graphs come from `lift_arrays`.  It stays
    as the reference the tests compare the lift with, and because
    `benchmarks/tracing.TARGETS` wraps it by name, so deleting it breaks
    `benchmarks/test_benchmark.py::test_traced_pass_accounts_for_its_wall_time`.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if reduced:
        if m.inv_alphabet is None:
            raise ValueError("reduced mode needs an alphabet involution")
        words = reduced_words(n, m.n_letters(), m.inv_alphabet)
    else:
        words = list(itertools.product(range(m.n_letters()), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    images = [act(m, a, w) for w in words for a in range(m.n_states())]
    try:
        dst = [index[out] for out, _ in images]
    except KeyError as exc:
        raise RuntimeError(f"a reduced word is mapped to {exc.args[0]}, outside the reduced words") from None
    shape = (len(words), m.n_states())
    return LevelArrays(
        np.array(words, dtype=np.intp).reshape(len(words), n),
        np.array(dst, dtype=np.intp).reshape(shape),
        np.array([end for _, end in images], dtype=np.intp).reshape(shape),
    )


# ---------------------------------------------------------------------------
# lifting


def lift_arrays(m: Mealy, n: int) -> LevelArrays:
    """Iterate the lifting rule n times from the rose, keeping the reduced
    words: `action_graph(m, n, reduced=True)` as arrays, with the
    projection to level n - 1 (see `lift_levels`)."""
    if n < 0:
        raise ValueError("word length must be >= 0")
    return next(itertools.islice(lift_levels(m), n, None))


def lift_levels(m: Mealy) -> Iterator[LevelArrays]:
    """The rose and then every level in turn, each lifted from the one
    before it: `lift_arrays(m, n)` for n = 0, 1, 2, ...

    The rules R_{a,x} are well defined exactly when m is reversible.  One
    step puts the word x.v at index x * N + v and lifts dart (v, a) to dart
    (x.v, b), pointing to y.u for u = dst[v, a]; the end state carries
    over, since act(b, x.v) continues as act(a, v).  The kept words x.v
    keep v as their parent.  An automaton that maps a reduced word outside
    the reduced set makes a lifted dart join a kept and a dropped word, and
    the lift raises."""
    if m.inv_alphabet is None:
        raise ValueError("reduced mode needs an alphabet involution")
    if not is_reversible(m):
        raise ValueError("lifting system requires a reversible automaton")
    n_letters, n_states = m.n_letters(), m.n_states()
    # R_{a,x} = (b, y) with a = delta[b, x] and y = out[b, x]: source[x, b] = a, image[x, b] = y
    source, image, inv_letter = m.delta.T, m.out.T, m.inv_alphabet

    # the rose: the empty word (no first letter), dart (0, a) -> 0 ending in a
    words, first = np.zeros((1, 0), dtype=np.intp), np.full(1, -1)
    dst = np.zeros((1, n_states), dtype=np.intp)
    end = np.arange(n_states, dtype=np.intp).reshape(1, n_states)
    yield LevelArrays(words, dst, end)
    while True:
        size = len(words)
        # [x, v, b]: the lift of dart (v, source[x, b]) to dart (x.v, b)
        lifted_dst = (image[:, None, :] * size + dst[:, source].transpose(1, 0, 2)).reshape(-1, n_states)
        lifted_end = end[:, source].transpose(1, 0, 2).reshape(-1, n_states)
        keep = (first[None, :] != inv_letter[:, None]).ravel()
        if (keep[lifted_dst] != keep[:, None]).any():
            raise RuntimeError("lift dropped one endpoint of an edge")  # broken automaton
        dst = (np.cumsum(keep) - 1)[lifted_dst[keep]]
        end = lifted_end[keep]
        letters = np.repeat(np.arange(n_letters, dtype=np.intp), size)
        words = np.column_stack([letters, np.tile(words, (n_letters, 1))])[keep]
        first = letters[keep]
        yield LevelArrays(words, dst, end, np.flatnonzero(keep) % size)


def dual_negation_check(d_ts: VHDatum, d_st: VHDatum) -> bool:
    """Does xi -> -xi define an automaton isomorphism from the dual of
    M(d_ts) onto M(d_st)?

    For quaternionic datums this holds with d_st built from the swapped
    places (sigma, tau): inverting each square relation (1+a F)(1+b F) =
    (1+c F)(1+d F) yields (1-b F)(1-a F) = (1-d F)(1-c F), and uniqueness of
    normal forms identifies the negated tuple inside the swapped datum.
    Only this explicit map is checked; no isomorphism search is performed.
    """
    if not (d_ts.is_arithmetic() and d_st.is_arithmetic()):
        raise ValueError("negation check needs arithmetic datums")
    dm = dual(from_datum(d_ts))
    m2 = from_datum(d_st)
    try:
        v_index = {x: i for i, x in enumerate(d_st.V_elems)}
        h_index = {x: i for i, x in enumerate(d_st.H_elems)}
        phi_states = np.array([v_index[-x] for x in d_ts.H_elems], dtype=np.intp)
        phi_letters = np.array([h_index[-x] for x in d_ts.V_elems], dtype=np.intp)
    except KeyError:
        return False  # fibers do not match up
    mapped = np.ix_(phi_states, phi_letters)
    return bool((m2.delta[mapped] == phi_states[dm.delta]).all() and (m2.out[mapped] == phi_letters[dm.out]).all())


# ---------------------------------------------------------------------------
# product (diagonal) actions


def product_act(datums: list[VHDatum], state: int, words: tuple[Word, ...]) -> tuple[tuple[Word, ...], int]:
    """Act by one V-generator on a tuple of words, one word per datum.

    All datums must share the V side (same tau, same fiber).  The state is
    threaded through the automata in order: the end state of each
    transduction starts the next one; outputs are collected component-wise.
    This realizes the diagonal action in level coordinates: pushing a
    generator through the normal form w1 * w2 * ... rewrites each factor in
    turn, the carried state being the remainder so far.
    """
    if len(words) != len(datums):
        raise ValueError("need exactly one word per datum")
    if not datums:
        return (), state
    first = datums[0]
    for d in datums[1:]:
        if d.V != first.V or d.inv_V != first.inv_V or (d.is_arithmetic() and first.is_arithmetic() and d.tau != first.tau):
            raise ValueError("datums must share the V side (same tau)")
    outputs = []
    for datum, word in zip(datums, words):
        out_word, state = act(from_datum(datum), state, word)
        outputs.append(out_word)
    return tuple(outputs), state


# ---------------------------------------------------------------------------
# export


def mealy_to_dot(m: Mealy, header: str | None = None) -> str:
    lines = ["digraph automaton {"]
    if header:
        lines.insert(0, f"// {header}")
    lines.append("  rankdir=LR;")
    states, letters = [dot_escaped(s) for s in m.states], [dot_escaped(x) for x in m.alphabet]
    for s in states:
        lines.append(f'  "{s}";')
    for a, x in itertools.product(range(m.n_states()), range(m.n_letters())):
        lines.append(f'  "{states[a]}" -> "{states[m.delta[a, x]]}" [label="{letters[x]} / {letters[m.out[a, x]]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def word_label(word: Word, alphabet: list[str]) -> str:
    return ".".join(alphabet[x] for x in word) if word else "e"


def word_labels(words: np.ndarray, alphabet: list[str]) -> list[str]:
    """`word_label` of every row of an (N, n) letter array."""
    if not words.shape[1]:
        return ["e"] * len(words)
    return list(map(".".join, np.array(alphabet, dtype=object)[words].tolist()))
