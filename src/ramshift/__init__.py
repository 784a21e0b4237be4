"""From finite-field quaternion arithmetic to Ramanujan graph families and
regular multidimensional shifts of finite type.

The pipeline: exact arithmetic in F_q and F_q[Z] (`ffield`), the quaternion
oracle over F_q(t) (`quaternion`), VH-data built from norm fibers and the
unit-norm twist (`vhdatum`), the associated bireversible Mealy automata and
their deterministic lifts (`mealy`), level graphs and non-backtracking dart
graphs (`graphs`), spectral verdicts including Ramanujan checks and the
Bass-Ihara transfer (`spectral`), and regular matrix subshifts with exact
cylinder measures and correlation-decay tables (`subshift`).
"""

from . import ffield, graphs, mealy, quaternion, spectral, subshift, vhdatum
from .ffield import FieldSpec, Fq2Elem, FqElem, make_field, norm_fiber
from .graphs import UGraph, level_graph, nb_matrix, product_level_graph, structure_predicates
from .mealy import Mealy
from .quaternion import QuatElem, proportional
from .spectral import bass_ihara_pairs, eig_symmetric, ramanujan_check
from .subshift import MatrixSubshift, build_xd, mixing_table, regularity_report
from .vhdatum import (
    VHDatum,
    build_quaternionic_datum,
    read_datum,
    validate_datum,
    verify_relations,
    write_datum,
)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "FqElem",
    "Fq2Elem",
    "make_field",
    "norm_fiber",
    "QuatElem",
    "proportional",
    "VHDatum",
    "build_quaternionic_datum",
    "validate_datum",
    "verify_relations",
    "read_datum",
    "write_datum",
    "Mealy",
    "UGraph",
    "level_graph",
    "product_level_graph",
    "nb_matrix",
    "structure_predicates",
    "eig_symmetric",
    "ramanujan_check",
    "bass_ihara_pairs",
    "MatrixSubshift",
    "build_xd",
    "regularity_report",
    "mixing_table",
    "ffield",
    "quaternion",
    "vhdatum",
    "mealy",
    "graphs",
    "spectral",
    "subshift",
]
