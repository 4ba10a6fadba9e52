"""Rectangle-family programs: PRL, LDC, RDC (2-D and 3-D).

These reproduce the remaining h5bench-style stencil idioms of Table I:

* **PRL** — a peripheral ring (2-D) / shell (3-D): a rectangular shape
  with a hole.  The hole is proportionally larger in 3-D ("the hole
  enlarges in PRL3D", Section V-D2).
* **LDC** — two disjoint solid blocks in the main-diagonal corners.
* **RDC** — two disjoint solid blocks in the anti-diagonal corners.

LDC/RDC have "clear separation of the two subsets present in the
program", which is why Kondo's precision on them is 1 across all runs
(Section V-D2).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import row_major_strides, unflatten_many
from repro.fuzzing.parameters import ParameterSpace
from repro.perf.bitmap import box_flat_indices, sorted_unique
from repro.workloads.base import Program


def _box_cells(lo: Sequence[int], hi: Sequence[int]) -> np.ndarray:
    """All integer cells of the half-open box [lo, hi)."""
    axes = [np.arange(a, b, dtype=np.int64) for a, b in zip(lo, hi)]
    if any(ax.size == 0 for ax in axes):
        return np.empty((0, len(axes)), dtype=np.int64)
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grid], axis=1)


class PeripheralRing(Program):
    """PRL — reads the border ring/shell of a centered rectangle.

    Parameters are per-axis half-extents; a run with half-extents
    ``(w_1, ..., w_d)`` reads every cell on the *surface* of the box
    centered at the array center.  The guard restricts the supported
    half-extents to ``[D/8, 3D/8]``, so the union over Theta is a thick
    rectangular annulus with a central hole of half-extent ``D/8``.
    """

    def __init__(self, ndim: int = 2):
        self.ndim = ndim
        self.name = f"PRL{ndim}D"
        self.description = f"{ndim}-D peripheral ring with central hole"
        super().__init__()

    def _valid_band(self, dims: Sequence[int]) -> List[Tuple[int, int]]:
        """Per-axis supported half-extent range [lo, hi].

        The hole (everything closer to the center than the band's lower
        edge) is proportionally larger in 3-D — the paper observes that
        "the hole enlarges in PRL3D", which is what depresses PRL3D's
        precision below PRL2D's.
        """
        if self.ndim >= 3:
            return [(d // 4, (3 * d) // 8) for d in dims]
        return [(d // 8, (3 * d) // 8) for d in dims]

    def parameter_space(self, dims: Sequence[int]) -> ParameterSpace:
        dims = self.check_dims(dims)
        return ParameterSpace.of(
            *[(0, d // 2 - 1) for d in dims], integer=True
        )

    def _center(self, dims: Sequence[int]) -> Tuple[int, ...]:
        return tuple(d // 2 for d in dims)

    def valid_step(self, v: Sequence[int], dims: Sequence[int]) -> bool:
        band = self._valid_band(dims)
        return all(lo <= x <= hi for x, (lo, hi) in zip(v, band))

    def access_flat(self, v: Sequence[float], dims: Sequence[int]
                    ) -> np.ndarray:
        dims = self.check_dims(dims)
        space = self.parameter_space(dims)
        if not space.contains(tuple(v)):
            return np.empty(0, dtype=np.int64)
        half = tuple(int(x) for x in v)
        if not self.valid_step(half, dims):
            return np.empty(0, dtype=np.int64)
        c = self._center(dims)
        strides = np.asarray(row_major_strides(dims), dtype=np.int64)
        lo = [ck - w for ck, w in zip(c, half)]
        hi = [ck + w for ck, w in zip(c, half)]
        parts = []
        # One pair of faces per axis: coordinate pinned to c +/- w, the
        # remaining axes spanning their full [-w, +w] band.  Theta keeps
        # every face inside the array (0 <= w < D/2 around c = D/2); faces
        # share their edges, which the sort-dedupe drops.
        for axis in range(self.ndim):
            for pinned in (lo[axis], hi[axis]):
                face_lo, face_hi = list(lo), list(hi)
                face_lo[axis] = face_hi[axis] = pinned
                parts.append(box_flat_indices(face_lo, face_hi, strides))
        return sorted_unique(np.concatenate(parts))

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        return unflatten_many(self.access_flat(v, dims),
                              self.check_dims(dims))

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        band = self._valid_band(dims)
        c = self._center(dims)
        # Per-axis |x_k - c_k| grids.
        dists = np.meshgrid(
            *[np.abs(np.arange(d) - ck) for d, ck in zip(dims, c)],
            indexing="ij",
        )
        mask = np.zeros(dims, dtype=bool)
        # A cell is on some supported surface iff for one axis its distance
        # lies inside the supported band while every other axis' distance
        # is <= that axis' maximum half-extent.
        for axis in range(self.ndim):
            lo, hi = band[axis]
            cond = (dists[axis] >= lo) & (dists[axis] <= hi)
            for other in range(self.ndim):
                if other != axis:
                    cond &= dists[other] <= band[other][1]
            mask |= cond
        return mask


class CornerBlocks(Program):
    """LDC/RDC — two disjoint corner blocks selected by anchor parameters.

    A run's parameter value is a candidate block anchor; the guard accepts
    anchors inside one of two small corner windows, and the run reads the
    ``B``-cube anchored there.  The union over Theta is two solid corner
    regions, clearly separated.
    """

    def __init__(self, ndim: int = 2, anti_diagonal: bool = False):
        self.ndim = ndim
        self.anti_diagonal = anti_diagonal
        self.name = ("RDC" if anti_diagonal else "LDC") + f"{ndim}D"
        self.description = (
            f"two disjoint {ndim}-D corner blocks, "
            + ("anti-diagonal" if anti_diagonal else "main-diagonal")
        )
        super().__init__()

    def _block(self, dims: Sequence[int]) -> int:
        return max(2, min(dims) // 8)

    def _windows(self, dims: Sequence[int]
                 ) -> List[List[Tuple[int, int]]]:
        """Two per-axis anchor windows [lo, hi] (inclusive)."""
        b = self._block(dims)
        # 3-D anchor windows are proportionally wider: the valid fraction
        # of Theta shrinks with the cube of the window width, and a window
        # that is discoverable in 2-D becomes a needle in 3-D.
        frac = 4 if self.ndim >= 3 else 8
        low = [(0, d // frac) for d in dims]
        high = [(d - d // frac - b, d - b) for d in dims]
        if not self.anti_diagonal:
            return [low, high]
        # Anti-diagonal: flip the window on the first axis.
        first_low, first_high = low[0], high[0]
        win_a = [first_high] + low[1:]
        win_b = [first_low] + high[1:]
        return [win_a, win_b]

    def parameter_space(self, dims: Sequence[int]) -> ParameterSpace:
        dims = self.check_dims(dims)
        return ParameterSpace.of(
            *[(0, d - 1) for d in dims], integer=True
        )

    def _window_of(self, v: Sequence[int], dims: Sequence[int]) -> int:
        for w, window in enumerate(self._windows(dims)):
            if all(lo <= x <= hi for x, (lo, hi) in zip(v, window)):
                return w
        return -1

    def access_indices(self, v: Sequence[float], dims: Sequence[int]
                       ) -> np.ndarray:
        dims = self.check_dims(dims)
        space = self.parameter_space(dims)
        if not space.contains(tuple(v)):
            return np.empty((0, self.ndim), dtype=np.int64)
        anchor = tuple(int(x) for x in v)
        if self._window_of(anchor, dims) < 0:
            return np.empty((0, self.ndim), dtype=np.int64)
        b = self._block(dims)
        lo = anchor
        hi = tuple(min(a + b, d) for a, d in zip(anchor, dims))
        return _box_cells(lo, hi)

    def ground_truth_mask(self, dims: Sequence[int]) -> np.ndarray:
        dims = self.check_dims(dims)
        b = self._block(dims)
        mask = np.zeros(dims, dtype=bool)
        for window in self._windows(dims):
            # Union of B-blocks over all anchors in the window is the box
            # [lo, hi + B) per axis.
            sl = tuple(
                slice(lo, min(hi + b, d))
                for (lo, hi), d in zip(window, dims)
            )
            mask[sl] = True
        return mask
