"""Build the smallest quaternionic datum and certify it.

The datum D_{1,2} over F_3 has V = {+-1, +-Z}, H = {1+-Z, 2+-Z} and sixteen
relation squares produced by the unit-norm twist
zeta_a(b) = (1 + a/b) / (1 + conj(a)/conj(b)).  Every square is certified
against the quaternion algebra (Z^2 = c, F^2 = t, ZF = -FZ): the two ways
around the square must be proportional as elements of the algebra.
"""

from pathlib import Path

from ramshift import build_quaternionic_datum, make_field, validate_datum, verify_relations
from ramshift.quaternion import QuatElem
from ramshift.vhdatum import export_tiles, write_datum

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

spec = make_field(3, 1)
datum = build_quaternionic_datum(spec, tau=1, sigma=2)
print(datum)
print(f"V = {datum.V}")
print(f"H = {datum.H}")

print("\nThe sixteen squares (left, top, bottom, right):")
for a, b, c, d in datum.R:
    print(f"  ({datum.V[a]:>4}, {datum.H[b]:>4}, {datum.H[c]:>4}, {datum.V[d]:>4})")

print("\nAxioms:", validate_datum(datum))
print("Quaternion certification:", verify_relations(datum))

# one relation spelled out in the algebra
gen = lambda x: QuatElem.one_plus_alpha_f(spec, x)
a, b, c, d = datum.R[0]
lhs = gen(datum.V_elems[a]) * gen(datum.H_elems[b])
rhs = gen(datum.H_elems[c]) * gen(datum.V_elems[d])
print(f"\nFirst square, both ways around:")
print(f"  (1 + {datum.V[a]} F)(1 + {datum.H[b]} F) = {lhs}")
print(f"  (1 + {datum.H[c]} F)(1 + {datum.V[d]} F) = {rhs}")

write_datum(datum, str(out / "d12_q3.json"))
export_tiles(datum, str(out / "d12_q3_tiles.svg"))
print(f"\nwrote {out / 'd12_q3.json'} and {out / 'd12_q3_tiles.svg'}")
