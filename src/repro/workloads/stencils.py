"""Stencil shapes (paper Table I).

H5bench describes I/O subsetting patterns via *stencils*: "a stencil
represents a geometric neighborhood of an array in an HDF5 data file".
Table I uses two families — a solid rectangular shape and a rectangular
shape with a hole.  A :class:`Stencil` here is the set of relative integer
offsets a program touches around each anchor position.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.arraymodel.layout import flatten_many, unflatten_many
from repro.errors import ProgramError
from repro.perf.bitmap import sorted_unique


@dataclass(frozen=True)
class Stencil:
    """A set of relative offsets applied at every anchor position."""

    name: str
    offsets: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if not self.offsets:
            raise ProgramError(f"stencil {self.name!r} has no offsets")
        ranks = {len(o) for o in self.offsets}
        if len(ranks) != 1:
            raise ProgramError(f"stencil {self.name!r} mixes offset ranks {ranks}")

    @property
    def ndim(self) -> int:
        return len(self.offsets[0])

    @property
    def size(self) -> int:
        return len(self.offsets)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.offsets, dtype=np.int64)

    def max_extent(self) -> Tuple[int, ...]:
        """Largest offset along each axis (for in-bounds anchor checks)."""
        arr = self.as_array()
        return tuple(int(x) for x in arr.max(axis=0))

    def apply(self, anchors: np.ndarray, dims: Sequence[int]) -> np.ndarray:
        """Cells = anchors (+) offsets, clipped to bounds, deduplicated."""
        anchors = np.asarray(anchors, dtype=np.int64)
        if anchors.size == 0:
            return np.empty((0, self.ndim), dtype=np.int64)
        if anchors.ndim == 1:
            anchors = anchors.reshape(1, -1)
        cells = (anchors[:, None, :] + self.as_array()[None, :, :]).reshape(
            -1, self.ndim
        )
        dims_arr = np.asarray(dims, dtype=np.int64)
        keep = ((cells >= 0) & (cells < dims_arr)).all(axis=1)
        # Dedupe on flat keys: ascending flat order is the lexicographic
        # row order, without the void-dtype sort of ``np.unique(axis=0)``.
        return unflatten_many(sorted_unique(flatten_many(cells[keep], dims)),
                              dims)


def solid_block(ndim: int, extent: int = 2) -> Stencil:
    """A solid rectangular stencil: the ``extent``^ndim block (Table I).

    ``extent=2`` gives the 2x2 (2x2x2 in 3-D) block the cross-stencil
    program of Listing 1 reads at each walk position.
    """
    if extent < 1:
        raise ProgramError(f"extent must be >= 1, got {extent}")
    offsets = tuple(itertools.product(range(extent), repeat=ndim))
    return Stencil(name=f"solid{extent}^{ndim}", offsets=offsets)


def block_with_hole(ndim: int, extent: int = 4, hole: int = 2) -> Stencil:
    """A rectangular stencil with a centered rectangular hole (Table I)."""
    if not 0 < hole < extent:
        raise ProgramError(f"need 0 < hole ({hole}) < extent ({extent})")
    lo = (extent - hole) // 2
    hi = lo + hole
    offsets = tuple(
        o for o in itertools.product(range(extent), repeat=ndim)
        if not all(lo <= c < hi for c in o)
    )
    return Stencil(name=f"hole{extent}-{hole}^{ndim}", offsets=offsets)


def cross(ndim: int, radius: int = 1) -> Stencil:
    """A plus/cross stencil: center plus ``radius`` cells along each axis."""
    if radius < 1:
        raise ProgramError(f"radius must be >= 1, got {radius}")
    offsets: List[Tuple[int, ...]] = [tuple([0] * ndim)]
    for axis in range(ndim):
        for r in range(1, radius + 1):
            for sign in (-1, 1):
                o = [0] * ndim
                o[axis] = sign * r
                offsets.append(tuple(o))
    return Stencil(name=f"cross{radius}^{ndim}", offsets=tuple(offsets))
