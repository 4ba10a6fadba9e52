"""SPLIT: partition discovered offsets into fixed-size cells.

Algorithm 2, line 3: "The d-dimensional offset space is divided into fixed
size cells.  Given a set of points that fall in cell i, a hull h_i is
computed.  If no points fall in a cell, it is discarded."

Computing several small per-cell hulls first (instead of one global hull)
is what lets the carver approximate non-convex, disjoint, or holed subsets
(paper Figure 6).

The split works on the fuzz campaign's native output, sorted unique flat
offsets, and strips each cell's lattice-interior points in the same
vectorised pass.  A hull depends only on its extreme points, and a lattice
point whose 2d axis neighbours all lie in its cell's set can never be
extreme, so dense 3-D cells shrink by an order of magnitude before they
reach the hull code.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import row_major_strides
from repro.errors import GeometryError


def cell_boundary_rows(flat: np.ndarray, coords: np.ndarray,
                       dims: Sequence[int], cell_size: float,
                       max_cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """SPLIT sorted unique offsets into cells and strip interior points.

    Args:
        flat: non-empty sorted unique flat offsets into ``dims``.
        coords: ``(n, d)`` row-major unflattening of ``flat``.
        dims: array extents (the window).
        cell_size: edge length of the (hyper-cubic) cells; any positive
            float, the cell of coordinate ``p`` is ``floor(p / cell_size)``.
        max_cells: largest offset space tested for membership through a
            dense bitmap; larger ones binary-search ``flat``.

    Returns:
        ``(rows, bounds)``: cell ``i`` keeps the points
        ``coords[rows[bounds[i]:bounds[i + 1]]]``.  Cells come in
        lexicographic cell-coordinate order, and each cell's rows are
        ascending, so its points are lexsorted and unique.  A point is
        stripped when, along every axis and in both directions, its
        neighbour lies in the window, in the same cell and in ``flat``.
        Cells of at most ``2d + 1`` points are kept whole.
    """
    if cell_size <= 0:
        raise GeometryError(f"cell_size must be positive, got {cell_size}")
    n, d = coords.shape
    # One scalar key per point whose order is the cells' lexicographic
    # order, and whether all 2d axis neighbours lie in the point's cell.
    key = np.zeros(n, dtype=np.int64)
    inner = np.ones(n, dtype=bool)
    for k, extent in enumerate(dims):
        # Cell id of coordinate p at index p + 1.  The two probe slots
        # outside the window get -1, which matches no in-window cell.
        table = np.floor(
            np.arange(-1, extent + 1, dtype=np.float64) / cell_size
        ).astype(np.int64)
        table[0] = table[-1] = -1
        same = table[1:] == table[:-1]  # p - 1 and p share a cell, at p
        col = coords[:, k]
        key *= table[-2] + 1
        key += table[1:-1][col]
        inner &= (same[:-1] & same[1:])[col]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    edges = np.append(starts, n)
    counts = np.diff(edges)
    inner[order[np.repeat(counts <= 2 * d + 1, counts)]] = False

    # Of the rest, interior points have all 2d neighbours in ``flat``.
    cand = np.flatnonzero(inner)
    if cand.size:
        present = _membership(flat, int(np.prod(dims)), max_cells)
        strides = row_major_strides(dims)
        for k in range(d):
            for sign in (-1, 1):
                cand = cand[present(flat[cand] + sign * strides[k])]
    interior = np.zeros(n, dtype=bool)
    interior[cand] = True
    keep = ~interior[order]
    bounds = np.concatenate(([0], np.cumsum(keep)))[edges]
    return order[keep], bounds


def _membership(flat: np.ndarray, n_flat: int, max_cells: int):
    """``probe -> bool mask`` of which in-window offsets are in ``flat``."""
    if n_flat <= max_cells:
        bits = np.zeros(n_flat, dtype=bool)
        bits[flat] = True
        return lambda probe: bits[probe]

    def present(probe: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(flat, probe), flat.size - 1)
        return flat[pos] == probe
    return present
