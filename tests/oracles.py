"""Reference implementations kept as test oracles.

Each function here is the straightforward form of a hot path that
``src/`` now computes a faster way.  The equivalence properties compare
the two; nothing outside ``tests/`` imports this module.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.fuzzing.clusters import Cluster
from repro.fuzzing.parameters import ParameterSpace
from repro.geometry.hull import Hull
from repro.geometry.primitives import EPS, as_points, cross2
from repro.geometry.primitives import dedupe_points as lexsort_dedupe


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


# -- SPLIT and the lattice boundary strip, one point cloud at a time --------


def split_into_cells(points: np.ndarray, cell_size: float
                     ) -> Dict[Tuple[int, ...], np.ndarray]:
    """Group ``(n, d)`` points by grid cell ``floor(p / cell_size)``.

    A per-cell dict in lexicographic cell order; each cell keeps its
    points in input order.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise GeometryError(f"need a non-empty (n, d) point array, got {pts.shape}")
    if cell_size <= 0:
        raise GeometryError(f"cell_size must be positive, got {cell_size}")
    coords = np.floor(pts / cell_size).astype(np.int64)
    order = np.lexsort(coords.T[::-1])
    coords_sorted = coords[order]
    pts_sorted = pts[order]
    boundaries = np.flatnonzero((np.diff(coords_sorted, axis=0) != 0).any(axis=1))
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [pts_sorted.shape[0]]))
    out: Dict[Tuple[int, ...], np.ndarray] = {}
    for s, e in zip(starts, ends):
        out[tuple(int(c) for c in coords_sorted[s])] = pts_sorted[s:e]
    return out


def lattice_boundary_points(points: np.ndarray) -> np.ndarray:
    """Drop integer points all of whose axis neighbours are in the set.

    Clouds of at most ``2d + 1`` points, and non-integer clouds, come back
    unchanged.
    """
    pts = as_points(points)
    ints = np.round(pts).astype(np.int64)
    if not np.allclose(pts, ints):
        return pts
    n, d = ints.shape
    if n <= 2 * d + 1:
        return pts
    lo = ints.min(axis=0)
    local = ints - lo
    extents = local.max(axis=0) + 3  # +3: room for the +/-1 neighbour probes
    strides = np.empty(d, dtype=np.int64)
    strides[-1] = 1
    for k in range(d - 2, -1, -1):
        strides[k] = strides[k + 1] * extents[k + 1]
    keys = (local + 1) @ strides
    key_set = np.sort(keys)
    interior = np.ones(n, dtype=bool)
    for k in range(d):
        for sign in (-1, 1):
            probe = keys + sign * strides[k]
            pos = np.clip(np.searchsorted(key_set, probe), 0, key_set.size - 1)
            interior &= key_set[pos] == probe
    return pts[~interior]


def cell_hulls(points: np.ndarray, cell_size: float) -> List[Hull]:
    """Algorithm 2, l. 3-5: one hull per cell of the stripped cloud."""
    return [Hull.from_points(lattice_boundary_points(c))
            for c in split_into_cells(points, cell_size).values()]


# -- 2-D hull on numpy scalars ----------------------------------------------


def monotone_chain(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain with ``cross2`` on numpy float64 rows."""
    pts = lexsort_dedupe(as_points(points, ndim=2))
    if pts.shape[0] <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2 and cross2(chain[-2], chain[-1], p) <= EPS:
                chain.pop()
            chain.append(p)
        return chain

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    if len(hull) < 3:
        return np.vstack([pts[0], pts[-1]])
    return np.asarray(hull)


# -- 3-D hull from scratch: randomized incremental construction -------------
#
# Maintains a triangle soup with outward orientation; each insertion finds
# the visible faces, extracts the horizon loop, and re-triangulates against
# the new point.  Worst case O(n^2).  Cross-checked against Qhull.

_EPS = 1e-9


def _face_normal(pts: np.ndarray, face: Tuple[int, int, int]) -> np.ndarray:
    a, b, c = pts[face[0]], pts[face[1]], pts[face[2]]
    return np.cross(b - a, c - a)


def _orient_outward(pts: np.ndarray, face: Tuple[int, int, int],
                    interior: np.ndarray) -> Tuple[int, int, int]:
    n = _face_normal(pts, face)
    if np.dot(n, interior - pts[face[0]]) > 0:
        return (face[0], face[2], face[1])
    return face


def _initial_tetrahedron(pts: np.ndarray) -> List[int]:
    """Pick four affinely independent points spanning the cloud."""
    n = pts.shape[0]
    i0 = 0
    d = np.linalg.norm(pts - pts[i0], axis=1)
    i1 = int(d.argmax())
    if d[i1] < _EPS:
        raise GeometryError("all points coincide; rank-0 input to 3-D hull")
    # Farthest from the line (i0, i1).
    u = pts[i1] - pts[i0]
    u = u / np.linalg.norm(u)
    rel = pts - pts[i0]
    perp = rel - np.outer(rel @ u, u)
    dist_line = np.linalg.norm(perp, axis=1)
    i2 = int(dist_line.argmax())
    if dist_line[i2] < _EPS:
        raise GeometryError("collinear input to 3-D hull (rank 1)")
    # Farthest from the plane (i0, i1, i2).
    normal = np.cross(pts[i1] - pts[i0], pts[i2] - pts[i0])
    normal = normal / np.linalg.norm(normal)
    dist_plane = np.abs(rel @ normal)
    i3 = int(dist_plane.argmax())
    if dist_plane[i3] < _EPS:
        raise GeometryError("coplanar input to 3-D hull (rank 2)")
    return [i0, i1, i2, i3]


def incremental_hull3d(points: np.ndarray
                       ) -> Tuple[np.ndarray, List[Tuple[int, int, int]]]:
    """Convex hull of full-rank 3-D points.

    Returns ``(pts, faces)`` — the deduplicated input points and outward-
    oriented triangular faces as index triples into ``pts``.  Raises
    :class:`GeometryError` for rank-deficient input (callers should have
    projected those into a lower dimension first).
    """
    pts = lexsort_dedupe(as_points(points, ndim=3))
    if pts.shape[0] < 4:
        raise GeometryError(
            f"3-D hull needs >= 4 distinct points, got {pts.shape[0]}"
        )
    tet = _initial_tetrahedron(pts)
    interior = pts[tet].mean(axis=0)
    faces: Set[Tuple[int, int, int]] = set()
    for skip in range(4):
        tri = tuple(tet[j] for j in range(4) if j != skip)
        faces.add(_orient_outward(pts, tri, interior))

    # Deterministic insertion order: remaining points by index.
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) or 1.0
    tol = _EPS * scale
    remaining = [i for i in range(pts.shape[0]) if i not in set(tet)]
    for i in remaining:
        p = pts[i]
        visible = []
        for face in faces:
            n = _face_normal(pts, face)
            nn = np.linalg.norm(n)
            if nn < _EPS:
                continue
            if np.dot(n / nn, p - pts[face[0]]) > tol:
                visible.append(face)
        if not visible:
            continue  # p is inside (or on) the current hull
        visible_set = set(visible)
        # Horizon: directed edges of visible faces whose reverse edge
        # belongs to an invisible face.
        edge_count: Dict[Tuple[int, int], int] = {}
        for (a, b, c) in visible_set:
            for e in ((a, b), (b, c), (c, a)):
                edge_count[e] = edge_count.get(e, 0) + 1
        horizon = [
            e for e in edge_count
            if (e[1], e[0]) not in edge_count
        ]
        faces -= visible_set
        for (a, b) in horizon:
            faces.add(_orient_outward(pts, (a, b, i), interior))
    return pts, sorted(faces)


def hull3d_halfspaces(pts: np.ndarray, faces: List[Tuple[int, int, int]]
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Outward halfspace form ``A @ x <= b`` from oriented faces."""
    if not faces:
        raise GeometryError("no faces")
    normals = []
    offsets = []
    for face in faces:
        n = _face_normal(pts, face)
        nn = np.linalg.norm(n)
        if nn < _EPS:
            continue  # sliver face; neighbors carry the constraint
        n = n / nn
        normals.append(n)
        offsets.append(float(n @ pts[face[0]]))
    if not normals:
        raise GeometryError("all faces degenerate")
    return np.asarray(normals), np.asarray(offsets)


def hull3d_volume(pts: np.ndarray, faces: List[Tuple[int, int, int]]) -> float:
    """Volume via signed tetrahedra against the vertex centroid."""
    if not faces:
        return 0.0
    used = sorted({i for f in faces for i in f})
    ref = pts[used].mean(axis=0)
    vol = 0.0
    for (a, b, c) in faces:
        vol += abs(np.dot(np.cross(pts[a] - ref, pts[b] - ref), pts[c] - ref))
    return vol / 6.0


def hull3d_vertices(pts: np.ndarray, faces: List[Tuple[int, int, int]]
                    ) -> np.ndarray:
    """Unique vertex coordinates referenced by the face list."""
    used = sorted({i for f in faces for i in f})
    return pts[used]


@contextlib.contextmanager
def own_hull3d() -> Iterator[None]:
    """Build rank-3 :class:`Hull` s with :func:`incremental_hull3d` instead
    of Qhull while the context is open."""
    saved = vars(Hull)["_full_rank_hull"]

    def full_rank_hull(coords):
        if coords.shape[1] != 3:
            return saved.__func__(coords)
        try:
            pts, faces = incremental_hull3d(coords)
            normals, offsets = hull3d_halfspaces(pts, faces)
        except GeometryError:
            return Hull._bbox_hull(coords)
        return (hull3d_vertices(pts, faces), normals, offsets,
                hull3d_volume(pts, faces))

    Hull._full_rank_hull = staticmethod(full_rank_hull)
    try:
        yield
    finally:
        Hull._full_rank_hull = saved
