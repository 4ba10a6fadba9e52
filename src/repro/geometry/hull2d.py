"""2-D convex hulls from scratch: Andrew's monotone chain.

This is the workhorse for the paper's evaluation (most benchmark programs
are 2-D).  Produces counter-clockwise vertices, outward halfspace normals,
and the shoelace area.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import EPS, as_points, dedupe_points


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Convex hull of 2-D points, CCW order, no repeated endpoint.

    O(n log n); collinear points on the boundary are dropped (strict
    turns only), so the result is the minimal vertex description.
    Degenerate inputs (all points equal / collinear) return the 1- or
    2-point degenerate "hull" — callers handle those ranks separately.
    """
    pts = dedupe_points(as_points(points, ndim=2))  # sorted by (x, y)
    n = pts.shape[0]
    if n <= 2:
        return pts
    # The loop runs on Python floats: the same IEEE-double operations as
    # ``cross2`` on numpy scalars, in the same order, so the same bits at a
    # fraction of the per-operation cost.
    rows = pts.tolist()

    def half(iterable):
        chain = []
        for p in iterable:
            px, py = p
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) <= EPS:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(rows)
    upper = half(reversed(rows))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # All points collinear: keep the two extremes.
        return np.vstack([pts[0], pts[-1]])
    return np.array(hull)


def polygon_area(vertices: np.ndarray) -> float:
    """Shoelace area of a CCW polygon."""
    v = as_points(vertices, ndim=2)
    if v.shape[0] < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return float(0.5 * np.abs(
        np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))
    ))


def polygon_halfspaces(vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Outward halfspace form ``A @ x <= b`` of a CCW polygon.

    Each edge ``(v_i, v_{i+1})`` contributes one row: the outward unit
    normal and its support offset.
    """
    v = as_points(vertices, ndim=2)
    if v.shape[0] < 3:
        raise GeometryError(
            f"halfspaces need a full-rank polygon, got {v.shape[0]} vertices"
        )
    edges = np.roll(v, -1, axis=0) - v
    # CCW polygon: outward normal of edge (dx, dy) is (dy, -dx).
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    lengths = np.linalg.norm(normals, axis=1)
    if np.any(lengths < EPS):
        raise GeometryError("degenerate (zero-length) polygon edge")
    normals = normals / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    return normals, offsets
