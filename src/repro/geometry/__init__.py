"""Computational-geometry substrate for the carver.

A from-scratch 2-D convex hull (monotone chain), a Qhull-backed path for
d >= 3, a rank-aware :class:`~repro.geometry.hull.Hull`
facade implementing the paper's center/boundary distances and vertex-union
merge, and lattice rasterization back to array indices.
"""

from repro.geometry.hull import DEFAULT_TOL, Hull
from repro.geometry.hull2d import monotone_chain, polygon_area, polygon_halfspaces
from repro.geometry.primitives import (
    EPS,
    affine_basis,
    as_points,
    bounding_box,
    dedupe_points,
    min_pairwise_distance,
)
from repro.geometry.raster import integer_points_in_hull, integer_points_in_hulls

__all__ = [
    "Hull",
    "DEFAULT_TOL",
    "EPS",
    "monotone_chain",
    "polygon_area",
    "polygon_halfspaces",
    "affine_basis",
    "as_points",
    "bounding_box",
    "dedupe_points",
    "min_pairwise_distance",
    "integer_points_in_hull",
    "integer_points_in_hulls",
]
