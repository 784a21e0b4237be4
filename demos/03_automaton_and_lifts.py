"""The datum automaton, its dual, and deterministic lifts.

Each relation square (a, b, c, d) reads as a transition a --b/c--> d of a
Mealy automaton with states V and alphabet H.  The automaton is
bireversible, so it carries a lifting system: a single fixed set of rules
that turns the level-n graph into the level-(n+1) graph.  Iterating the
rules from the one-vertex rose rebuilds every action graph.
"""

from itertools import islice
from pathlib import Path

from ramshift import build_quaternionic_datum, make_field
from ramshift.graphs import cover_fiber, level_tower
from ramshift.mealy import (
    act,
    action_graph,
    dual,
    from_datum,
    is_bireversible,
    lift_arrays,
    mealy_to_dot,
    word_label,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

datum = build_quaternionic_datum(make_field(3, 1), 1, 2)
m = from_datum(datum)
print(m, "bireversible:", is_bireversible(m))

state = datum.V.index("1")
word = tuple(datum.H.index(x) for x in ("1+Z", "2+Z", "1+Z"))
output, end = act(m, state, word)
print(f"acting from state 1 on {word_label(word, m.alphabet)}:")
print(f"  output {word_label(output, m.alphabet)}, end state {m.states[end]}")

print("\nThe dual automaton swaps states and letters:")
print(dual(m))

# R_{a,x} = (b, y) for the one state b with delta(b, x) = a, and y = out(b, x)
print(f"\n{m.n_states() * m.n_letters()} lifting rules; for example those lifting an edge labeled '1':")
a = datum.V.index("1")
for x in range(m.n_letters()):
    b = next(b for b in range(m.n_states()) if m.delta[b][x] == a)
    y = m.out[b][x]
    print(f"  prepend {m.alphabet[x]:>4}: v --1--> u lifts to "
          f"[{m.alphabet[x]}]v --{m.states[b]}--> [{m.alphabet[y]}]u")

for n in range(1, 5):
    lift, reference = lift_arrays(m, n), action_graph(m, n, reduced=True)
    same = all((getattr(lift, k) == getattr(reference, k)).all() for k in ("words", "dst", "end"))
    print(f"level {n}: {len(lift.words):>3} vertices, equals the action graph: {same}")

# A_4 covers A_3 by dropping its first and by dropping its last letter;
# cover_fiber checks each and counts the q words over every vertex
small, big = islice(level_tower(datum, "A"), 3, 5)
print("drop-last covering, fiber:", cover_fiber(big.graph, small.graph, big.last_parent))
print("drop-first covering, fiber:", cover_fiber(big.graph, small.graph, big.parent))

(out / "automaton_q3.dot").write_text(mealy_to_dot(m))
print(f"\nwrote {out / 'automaton_q3.dot'}")
