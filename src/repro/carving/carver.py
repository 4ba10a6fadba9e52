"""The Carver: from fuzz-discovered index points to the carved subset.

Combines SPLIT (per-cell hulls), the bottom-up merge (Algorithm 2), and
rasterization back to integer indices.  The carved subset always includes
every directly-observed index, so carving can only *add* (interior/
sandwiched) indices on top of what fuzzing proved accessible — precision
may drop, recall never does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.arraymodel.layout import flatten_many, unflatten_many
from repro.carving.cells import cell_boundary_rows
from repro.carving.merge import MergeStats, merge_hulls
from repro.errors import GeometryError
from repro.fuzzing.config import CarveConfig
from repro.geometry.hull import Hull
from repro.geometry.raster import flat_indices_in_hulls, integer_points_in_hulls
from repro.perf.bitmap import sorted_unique, union_flat


def as_sorted_unique(flat_indices) -> np.ndarray:
    """``flat_indices`` as a sorted unique int64 vector.

    The fuzz campaign's output already is one; only other inputs pay for
    the sort.
    """
    flat = np.asarray(flat_indices, dtype=np.int64).reshape(-1)
    if flat.size > 1 and not (flat[1:] > flat[:-1]).all():
        flat = sorted_unique(flat)
    return flat


def points_to_flat(points: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Sorted unique flat offsets of ``(n, d)`` index points, rounded and
    clipped into ``dims`` (the carvers' point-cloud entry)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != len(dims):
        raise GeometryError(
            f"expected (n, {len(dims)}) points, got {points.shape}"
        )
    return sorted_unique(observed_flat_indices(points, dims))


def cell_hulls(flat: np.ndarray, dims: Sequence[int], cell_size: float,
               max_cells: int) -> List[Hull]:
    """One hull per cell of sorted unique offsets, after the lattice strip
    (:func:`~repro.carving.cells.cell_boundary_rows`)."""
    coords = unflatten_many(flat, dims)
    rows, bounds = cell_boundary_rows(flat, coords, dims, cell_size,
                                      max_cells)
    points = coords[rows].astype(np.float64)
    return [
        Hull._from_unique_rows(points[a:b])
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]


def observed_flat_indices(points: np.ndarray,
                          dims: Sequence[int]) -> np.ndarray:
    """Flat offsets of the rounded observed points, clipped into ``dims``.

    Observed points sit on (or numerically next to) lattice points, but a
    boundary index like ``dims - 1 + 1e-9`` rounds out of the window and
    the flat-index encode would reject it — the carved subset must keep
    the nearest in-window index instead of crashing on it.
    """
    dims_arr = np.asarray(tuple(dims), dtype=np.int64)
    rounded = np.round(np.asarray(points, dtype=np.float64)).astype(np.int64)
    return flatten_many(np.clip(rounded, 0, dims_arr - 1), dims)


@dataclass
class CarveResult:
    """Output of one carving run.

    Attributes:
        hulls: the final set of merged hulls (the paper's ``H``).
        flat_indices: sorted flat indices of the carved subset
            ``I'_Theta`` (hull interiors plus all observed points).
        merge_stats: diagnostics from the merge loop.
        elapsed_seconds: wall-clock carving time.
    """

    hulls: List[Hull]
    flat_indices: np.ndarray
    merge_stats: MergeStats
    elapsed_seconds: float

    @property
    def n_hulls(self) -> int:
        return len(self.hulls)

    @property
    def n_indices(self) -> int:
        return int(self.flat_indices.size)


class Carver:
    """Convex-hull-set carver over a d-dimensional index space.

    Args:
        dims: array extents (defines both the flat<->tuple index mapping
            and the clip window for rasterization).
        config: carve configuration (cell size, merge thresholds, ...).
    """

    def __init__(self, dims: Sequence[int], config: Optional[CarveConfig] = None):
        self.dims = tuple(int(d) for d in dims)
        self.config = config if config is not None else CarveConfig()

    def build_cell_hulls(self, flat: np.ndarray) -> List[Hull]:
        """SPLIT sorted unique offsets into cells and hull each cell
        (Alg 2, l. 3-5).

        Lattice-interior points of each cell are stripped first — they can
        never be hull vertices, and dense 3-D cells shrink by an order of
        magnitude.
        """
        return cell_hulls(flat, self.dims, self.config.cell_size,
                          self.config.perf.bitmap_max_cells)

    def carve_points(self, points: np.ndarray) -> CarveResult:
        """Carve from an ``(n, d)`` array of index points.

        The points are rounded and clipped into the window first
        (:func:`observed_flat_indices`).
        """
        return self.carve_flat(points_to_flat(points, self.dims))

    def carve_flat(self, flat_indices: np.ndarray) -> CarveResult:
        """Carve from flat offsets (the fuzz campaign's native output)."""
        start = time.perf_counter()
        flat = as_sorted_unique(flat_indices)
        if flat.size == 0:
            return CarveResult(
                hulls=[],
                flat_indices=np.empty(0, dtype=np.int64),
                merge_stats=MergeStats(0, 0, 0, 0),
                elapsed_seconds=time.perf_counter() - start,
            )
        initial = self.build_cell_hulls(flat)
        merged, stats = merge_hulls(initial, self.config)
        perf = self.config.perf
        if perf.bitmap_raster:
            # Fast path: stay in flat-offset space end to end — hull
            # rasterization and the union with the observed points both go
            # through the bitmap, no (n, d) point stacking or re-sort.
            carved_flat = flat_indices_in_hulls(
                merged, self.dims, tol=self.config.raster_tol, perf=perf
            )
            flat = union_flat(
                [carved_flat, flat],
                int(np.prod(self.dims)),
                perf.bitmap_max_cells,
            )
        else:
            raster = integer_points_in_hulls(
                merged, dims=self.dims, tol=self.config.raster_tol, perf=perf
            )
            carved_flat = (
                flatten_many(raster, self.dims)
                if raster.size
                else np.empty(0, dtype=np.int64)
            )
            flat = np.union1d(carved_flat, flat)
        return CarveResult(
            hulls=merged,
            flat_indices=flat.astype(np.int64),
            merge_stats=stats,
            elapsed_seconds=time.perf_counter() - start,
        )
