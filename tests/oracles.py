"""Reference implementations kept as test oracles.

Each function here is the straightforward form of a hot path that
``src/`` now computes a faster way.  The equivalence properties compare
the two; nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.fuzzing.clusters import Cluster
from repro.fuzzing.parameters import ParameterSpace


def prl_access_indices(program, v: Sequence[float],
                       dims: Sequence[int]) -> np.ndarray:
    """PRL ``I_v`` as a point cloud: every face's cells from a meshgrid,
    masked into the array, deduplicated with ``np.unique(axis=0)``."""
    dims = program.check_dims(dims)
    empty = np.empty((0, program.ndim), dtype=np.int64)
    if not program.parameter_space(dims).contains(tuple(v)):
        return empty
    half = tuple(int(x) for x in v)
    if not program.valid_step(half, dims):
        return empty
    c = tuple(d // 2 for d in dims)
    parts = []
    for axis in range(program.ndim):
        for sign in (-1, 1):
            lo = [c[k] - half[k] for k in range(program.ndim)]
            hi = [c[k] + half[k] + 1 for k in range(program.ndim)]
            pinned = c[axis] + sign * half[axis]
            lo[axis], hi[axis] = pinned, pinned + 1
            axes = [np.arange(a, b, dtype=np.int64) for a, b in zip(lo, hi)]
            grid = np.meshgrid(*axes, indexing="ij")
            parts.append(np.stack([g.reshape(-1) for g in grid], axis=1))
    cells = np.concatenate(parts, axis=0)
    keep = ((cells >= 0) & (cells < np.asarray(dims))).all(axis=1)
    return np.unique(cells[keep], axis=0)


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """Exact-duplicate row removal by ``np.unique(axis=0)``."""
    return np.unique(np.asarray(points), axis=0)


def clip(space: ParameterSpace, v: Sequence[float]) -> Tuple[float, ...]:
    """Per-range Python clip of a parameter value."""
    return tuple(r.clip(x) for r, x in zip(space.ranges, v))


def uniform_mutations(v, space: ParameterSpace, dist: Tuple[float, float],
                      reps: int, rng: np.random.Generator
                      ) -> List[Tuple[float, ...]]:
    """UNIFORM with ``rng.choice`` signs and the per-range clip."""
    v = np.asarray(v, dtype=np.float64)
    out = []
    lo, hi = dist
    for _ in range(reps):
        signs = rng.choice((-1.0, 1.0), size=v.shape)
        steps = rng.uniform(lo, hi, size=v.shape)
        out.append(clip(space, v + signs * steps))
    return out


def greedy_mutations(v, space: ParameterSpace, target: Cluster,
                     target_distance: float, dist: Tuple[float, float],
                     reps: int, rng: np.random.Generator
                     ) -> List[Tuple[float, ...]]:
    """GREEDY with the per-range clip and the oracle UNIFORM fallback."""
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(target.center, dtype=np.float64)
    direction = center - v
    norm = float(np.linalg.norm(direction))
    if norm < 1e-12:
        return uniform_mutations(v, space, dist, reps, rng)
    direction = direction / norm
    lo, hi = dist
    frame_ref = max((lo + hi) / 2.0, 1e-9)
    scale = float(np.clip(target_distance / (2.0 * frame_ref), 0.25, 4.0))
    out = []
    for _ in range(reps):
        magnitude = min(rng.uniform(lo, hi) * scale, norm)
        jitter = rng.uniform(-lo, lo, size=v.shape) if lo > 0 else 0.0
        out.append(clip(space, v + direction * magnitude + jitter))
    return out
