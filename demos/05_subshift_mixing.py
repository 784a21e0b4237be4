"""The plane shift of a datum and its exact mixing rate.

Tiles of the datum form the alphabet; horizontal and vertical transition
matrices forbid mismatched colors and consecutive mutually inverse colors.
The result is a q-regular, uniquely extendable shift whose strip transition
graphs are the dart graphs of the level graphs, so correlations decay at
the optimal rate C n (1/sqrt(q))^n.  Everything below is exact rational
arithmetic; no floating error enters the deviations.
"""

from pathlib import Path

from fractions import Fraction

import numpy as np

from ramshift import build_quaternionic_datum, make_field
from ramshift.spectral import matrix_power_int, second_modulus_directed
from ramshift.subshift import (
    admissible_patterns,
    build_xd,
    correlation,
    cylinder_measure,
    fill_rectangle,
    mixing_table,
    mixing_table_to_csv,
    regularity_report,
)

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

datum = build_quaternionic_datum(make_field(3, 1), 1, 2)
shift = build_xd(datum)
print(shift)
print(regularity_report(shift))

print("\nPattern counts (m, n) -> s d^(m-1) d^(n-1):")
for m, n in [(1, 1), (2, 2), (2, 3), (3, 3)]:
    print(f"  ({m},{n}): {len(admissible_patterns(shift, m, n))}")

pattern = admissible_patterns(shift, 2, 2)[0]
print(f"\nmu of one 2x2 cylinder: {cylinder_measure(shift, pattern)}")
total = sum(cylinder_measure(shift, p) for p in admissible_patterns(shift, 2, 2))
print(f"sum over all 2x2 cylinders: {total}")

h_trace = tuple(pattern[i][0] for i in range(2))
v_trace = pattern[0]
print(f"reconstruction from traces is unique: {fill_rectangle(shift, h_trace, v_trace) == pattern}")

print("\nSingle-tile correlations at growing horizontal offsets:")
tile_a, tile_b = ((0,),), ((5,),)
for n in (2, 4, 6, 8, 10):
    dev = correlation(shift, tile_a, tile_b, n)
    print(f"  offset {n:>2}: |mu(C & s^-n D) - mu(C)mu(D)| = {dev} ~ {float(dev):.3e}")

print("\nDeviation-norm table for the height-2 strip matrix (exact):")
table = mixing_table(datum, k=2, n_max=20)
strips = shift.strip_graph("horizontal", 2)
dense = np.zeros((table.dimension,) * 2, dtype=np.int64)  # the exact table walks the arcs instead
dense[strips.tail, strips.head] = 1
lam = second_modulus_directed(dense)
print(f"  d = {table.d}, dimension {table.dimension}, lambda = {lam:.9f}")
print(f"  envelope C n (1/sqrt(3))^n with C = {table.c_float:.6f}, all within: {table.all_ok}")
(out / "mixing_q3_k2.csv").write_text(mixing_table_to_csv(table))
print(f"  wrote {out / 'mixing_q3_k2.csv'}")

print("\nInt64 until the overflow bound, Python integers after (3^39 < 2^63 < 3^40):")
table = mixing_table(shift, k=1, n_max=41)
h1 = shift.A  # the height-1 horizontal strip graph is A itself
m = len(h1)
for n in (39, 40, 41):
    dev = table.rows[n - 1].deviation
    power = np.array(matrix_power_int(h1, n), dtype=object)
    check = Fraction(int(abs(power * m - 3**n).max()), m * 3**n)
    print(f"  n = {n}: deviation = {dev} ~ {float(dev):.3e}, "
          f"equals matrix_power_int: {dev == check}")
    assert dev == check
