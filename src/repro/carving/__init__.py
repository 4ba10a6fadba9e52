"""Carving subsystem: cell split, bottom-up hull merging, rasterization.

Implements Section IV-B (Algorithm 2) plus the Simple Convex baseline of
Section V-C.
"""

from repro.carving.carver import Carver, CarveResult
from repro.carving.merge import MergeStats, close, merge_hulls
from repro.carving.simple_convex import SimpleConvexCarver

__all__ = [
    "Carver",
    "CarveResult",
    "SimpleConvexCarver",
    "merge_hulls",
    "close",
    "MergeStats",
]
