"""Mesh voxelization (Section 3.2 of the paper).

Follows the paper's three steps: bound the model with a box, divide it into
N^3 voxels, and set a voxel to one when it intersects the model.  Surface
intersection is detected by deterministic barycentric supersampling of each
triangle at sub-voxel pitch; the solid interior is then recovered with an
exterior flood fill, yielding the binary density function of Eq. 3.5.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..geometry.mesh import TriangleMesh
from ..robust.errors import VoxelizationError
from .grid import VoxelGrid
from .morphology import fill_interior

_SUBSAMPLE_FACTOR = 2.0  # samples per voxel edge along each triangle axis
#: Most sample points one batch of equally sampled triangles holds, so the
#: scratch arrays stay small however large or dense the mesh is.
_MAX_BATCH_POINTS = 1 << 12
#: Relative distance from an integer within which a vectorized edge length
#: (a few ulps off ``np.linalg.norm``) could round the sample count the
#: other way; such triangles are recounted with ``np.linalg.norm``.
_NEAR_INTEGER = 1e-9
#: Lattices of up to this many cuts are cached (about 0.7 MB in all);
#: larger ones come from few, large triangles and are rebuilt per call.
_CACHED_CUTS = 64


def _lattice(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Barycentric ``(u, v)`` of the samples of a triangle cut ``n`` ways."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = (i + j) <= n
    u = (i[keep] / n)[:, None]
    v = (j[keep] / n)[:, None]
    u.flags.writeable = v.flags.writeable = False
    return u, v


_cached_lattice = lru_cache(maxsize=_CACHED_CUTS)(_lattice)


def _sample_counts(tris: np.ndarray, pitch: float) -> np.ndarray:
    """Per-triangle cuts ``n``: ceil(longest edge * factor / pitch), >= 1."""
    edges = np.stack(
        (tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0], tris[:, 2] - tris[:, 1]),
        axis=1,
    )
    longest = np.sqrt(np.einsum("tij,tij->ti", edges, edges)).max(axis=1)
    q = longest * _SUBSAMPLE_FACTOR / pitch
    near = np.abs(q - np.rint(q)) <= _NEAR_INTEGER * np.maximum(q, 1.0)
    for t in np.flatnonzero(near).tolist():
        a, b, c = tris[t]
        exact = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
        q[t] = exact * _SUBSAMPLE_FACTOR / pitch
    return np.maximum(np.ceil(q), 1).astype(np.int64)


def voxelize_surface(
    mesh: TriangleMesh, resolution: int = 32, padding: int = 1
) -> VoxelGrid:
    """Mark every voxel touched by the mesh surface.

    Parameters
    ----------
    resolution:
        Number of voxels along the *longest* bounding-box axis (the paper's
        N); the grid is cubic with ``resolution + 2*padding`` cells per side
        so the model never touches the grid boundary (required for the
        exterior flood fill).
    padding:
        Empty cells added around the model on each side.
    """
    if resolution < 2:
        raise VoxelizationError(
            f"resolution must be >= 2, got {resolution}",
            code="voxel.bad_resolution",
        )
    if mesh.n_faces == 0:
        raise VoxelizationError(
            "cannot voxelize an empty mesh", code="voxel.empty_mesh"
        )
    lo, hi = mesh.bounds()
    extent = float((hi - lo).max())
    if extent <= 0:
        raise VoxelizationError(
            "mesh has zero extent; cannot voxelize", code="voxel.zero_extent"
        )
    spacing = extent / resolution
    side = resolution + 2 * padding
    center = (lo + hi) / 2.0
    origin = center - side * spacing / 2.0

    # Every triangle gets the points a + u*e1 + v*e2 of a barycentric
    # lattice; triangles with the same number of cuts share one lattice and
    # are sampled together, in batches of at most _MAX_BATCH_POINTS points.
    occ = np.zeros(side**3, dtype=bool)
    tris = mesh.triangles
    a = tris[:, None, 0]
    e1 = tris[:, None, 1] - a
    e2 = tris[:, None, 2] - a
    counts = _sample_counts(tris, spacing)
    for n in np.unique(counts).tolist():
        u, v = _cached_lattice(n) if n <= _CACHED_CUTS else _lattice(n)
        members = np.flatnonzero(counts == n)
        step = max(1, _MAX_BATCH_POINTS // len(u))
        for start in range(0, len(members), step):
            t = members[start : start + step]
            pts = a[t] + u * e1[t] + v * e2[t]
            idx = np.floor((pts - origin) / spacing).astype(np.int64)
            np.clip(idx, 0, side - 1, out=idx)
            occ[(idx[..., 0] * side + idx[..., 1]) * side + idx[..., 2]] = True
    occ = occ.reshape(side, side, side)
    return VoxelGrid(occ, origin=origin, spacing=spacing)


def voxelize(
    mesh: TriangleMesh, resolution: int = 32, solid: bool = True, padding: int = 1
) -> VoxelGrid:
    """Voxelize a mesh; with ``solid=True`` the interior is filled.

    The mesh must be closed for solid voxelization to be meaningful (open
    shells leak and fill nothing beyond the surface).
    """
    grid = voxelize_surface(mesh, resolution=resolution, padding=padding)
    if not grid.occupancy.any():
        raise VoxelizationError(
            f"voxelization of {mesh.name!r} at resolution {resolution} "
            "produced an empty model",
            code="voxel.empty",
        )
    if solid:
        grid = VoxelGrid(
            fill_interior(grid.occupancy), origin=grid.origin, spacing=grid.spacing
        )
    return grid
