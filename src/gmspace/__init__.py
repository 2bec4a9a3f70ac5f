"""Exact-arithmetic generalized metric spaces over involutive quantales,
read through the protocol documented in `gmspace._orders`."""

from . import automata  # bench/tracer.py looks modules up in sys.modules
from ._orders import canonical_distance
from .words import Alphabet, AlphabetMismatch, PLUS_MINUS, Word, subword_leq
from .segments import FinalSegment, SEGMENTS, residual, in_macneille
from .zigzag import ReflexiveDigraph, DistanceMatrix, zigzag_distance, \
    distance_matrix
from .spaces import FiniteGms, MonoidTable, SizeGuard
from .partitions import EquivSystem, Partition
from .zcong import IntPoly, cgg_generator, is_congruence_preserving, lcm_upto

__all__ = [
    "Alphabet", "AlphabetMismatch", "PLUS_MINUS", "Word", "subword_leq",
    "canonical_distance", "FinalSegment", "SEGMENTS", "residual", "in_macneille",
    "ReflexiveDigraph", "DistanceMatrix", "zigzag_distance", "distance_matrix",
    "FiniteGms", "MonoidTable", "SizeGuard",
    "EquivSystem", "Partition",
    "IntPoly", "cgg_generator", "is_congruence_preserving", "lcm_upto",
]

__version__ = "0.1.0"
