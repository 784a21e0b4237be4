import random

import numpy as np
import pytest

from ramshift import build_quaternionic_datum, make_field
from ramshift.graphs import level_graph, structure_predicates
from ramshift.subshift import build_xd
from ramshift.vhdatum import VHDatum, validate_datum


@pytest.fixture(scope="session")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def f5():
    return make_field(5, 1)


@pytest.fixture(scope="session")
def f9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def d12_q3(f3):
    return build_quaternionic_datum(f3, 1, 2)


@pytest.fixture(scope="session")
def d12_q5(f5):
    return build_quaternionic_datum(f5, 1, 2)


@pytest.fixture(scope="session")
def xd_q3(d12_q3):
    return build_xd(d12_q3)


def random_vh_datum(rng: random.Random, nv: int, nh: int) -> VHDatum:
    """A random valid VH-datum with sides of nv and nh symbols (s' = s ^ 1):
    one square (a, b, c, d) at a time, with its three companions, for the
    first free (a, b) and a random (c, d) that keeps all four projections
    injective; backtracks when no (c, d) fits."""
    iv, ih = [i ^ 1 for i in range(nv)], [i ^ 1 for i in range(nh)]
    used, tuples = set(), []

    def keys(t):
        a, b, c, d = t
        return ("ab", a, b), ("cd", c, d), ("ac", a, c), ("bd", b, d)

    def fill() -> bool:
        free = [(a, b) for a in range(nv) for b in range(nh) if ("ab", a, b) not in used]
        if not free:
            return True
        a, b = free[0]
        options = [(c, d) for c in range(nh) for d in range(nv)]
        rng.shuffle(options)
        for c, d in options:
            square = {(a, b, c, d), (iv[a], c, b, iv[d]), (iv[d], ih[c], ih[b], iv[a]), (d, ih[b], ih[c], a)}
            new = [k for t in square for k in keys(t)]
            if len(square) < 4 or len(set(new)) < 16 or used.intersection(new):
                continue  # degenerate, or a projection would collide
            used.update(new)
            tuples.extend(square)
            if fill():
                return True
            used.difference_update(new)
            del tuples[-4:]
        return False

    assert fill()
    return VHDatum([f"a{i}" for i in range(nv)], [f"x{i}" for i in range(nh)], iv, ih, sorted(tuples))


def letter_map(datum: VHDatum, side: str, graph, reverse: bool = False) -> list[int]:
    """Letter-wise inversion of every vertex's word of a level graph, the
    word reversed too when asked, read off the vertex labels independently
    of the lift."""
    letters = datum.H if side == "A" else datum.V
    inverse = dict(zip(letters, (letters[i] for i in (datum.inv_H if side == "A" else datum.inv_V))))
    index = {label: i for i, label in enumerate(graph.vertex_labels)}
    words = (label.split(".") for label in graph.vertex_labels)
    return [index[".".join(map(inverse.get, word[::-1] if reverse else word))] for word in words]


def _inversion_is_automorphism(datum: VHDatum, side: str, n: int) -> bool:
    graph = level_graph(datum, side, n)
    perm = letter_map(datum, side, graph)
    a = graph.adjacency()
    return bool((a[np.ix_(perm, perm)] == a).all())


@pytest.fixture(scope="session")
def datum_without_inversion():
    """The first seeded random valid 6 x 6 VH-datum whose letter-wise
    inversion is no automorphism of A_3 or B_3, with both sides connected
    at levels 1-4."""
    for seed in range(100):
        datum = random_vh_datum(random.Random(seed), 6, 6)
        assert validate_datum(datum).ok
        if not any(_inversion_is_automorphism(datum, side, 3) for side in "AB") and all(
            structure_predicates(level_graph(datum, side, n)).connected for side in "AB" for n in range(1, 5)
        ):
            return datum
    raise AssertionError("no seed gave a datum without the inversion")
