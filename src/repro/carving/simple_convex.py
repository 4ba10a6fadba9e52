"""Simple Convex (SC) baseline carver.

Section V-C: "we use Kondo's Fuzzer with a regular convex hull computation
procedure [22]" — i.e. one global convex hull over all discovered points,
no cell split, no bottom-up merging.  On disjoint or holed subsets this
over-covers badly (paper Figure 6(b) and the SC bars in Figure 8), which
is precisely what motivates Kondo's merge-based carver.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.arraymodel.layout import flatten_many
from repro.carving.carver import (
    CarveResult,
    as_sorted_unique,
    cell_hulls,
    points_to_flat,
)
from repro.carving.merge import MergeStats
from repro.fuzzing.config import CarveConfig
from repro.geometry.raster import integer_points_in_hull


class SimpleConvexCarver:
    """One global hull over all points — the paper's SC baseline."""

    def __init__(self, dims: Sequence[int], config: Optional[CarveConfig] = None):
        self.dims = tuple(int(d) for d in dims)
        self.config = config if config is not None else CarveConfig()

    def carve_points(self, points: np.ndarray) -> CarveResult:
        return self.carve_flat(points_to_flat(points, self.dims))

    def carve_flat(self, flat_indices: np.ndarray) -> CarveResult:
        start = time.perf_counter()
        flat = as_sorted_unique(flat_indices)
        if flat.size == 0:
            return CarveResult(
                hulls=[], flat_indices=np.empty(0, dtype=np.int64),
                merge_stats=MergeStats(0, 0, 0, 0),
                elapsed_seconds=time.perf_counter() - start,
            )
        # A cell as large as the longest axis holds the whole window.
        [hull] = cell_hulls(flat, self.dims, float(max(self.dims)),
                            self.config.perf.bitmap_max_cells)
        raster = integer_points_in_hull(
            hull, dims=self.dims, tol=self.config.raster_tol
        )
        carved_flat = (
            flatten_many(raster, self.dims)
            if raster.size
            else np.empty(0, dtype=np.int64)
        )
        return CarveResult(
            hulls=[hull],
            flat_indices=np.union1d(carved_flat, flat).astype(np.int64),
            merge_stats=MergeStats(1, 1, 0, 0),
            elapsed_seconds=time.perf_counter() - start,
        )
