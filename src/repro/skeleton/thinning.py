"""Topology-preserving 3D thinning (Section 3.3 of the paper).

Iteratively peels border voxels in six directional subiterations (U, D, N,
S, E, W), deleting only *simple* points that are not curve endpoints.
Deletions within a subiteration are applied sequentially with the
neighborhood re-examined before each removal, which is the standard safe
variant that guarantees topology preservation for (26, 6) connectivity.

Two kernels implement the same sequential-deletion semantics:

* ``"batched"`` (default) keeps the volume as one Python-int bitset per
  (x, y) row.  A candidate's 26-bit mask is gathered from its 9
  neighboring rows with a shift and a 3-bit AND each, a deletion clears
  one bit of one row, and the boolean volume is written back once per
  subiteration.  The per-candidate work drops to a handful of integer
  operations plus a memoized simple-point lookup, which is what makes
  query-by-example extraction and ``build-db`` fast.
* ``"reference"`` is the original per-voxel loop
  (:func:`~repro.skeleton.simple_point.neighborhood_mask` per candidate).
  It is kept as the correctness oracle: both kernels re-check a
  candidate's mask against the *current* occupancy before deleting, so
  their outputs are bitwise identical (asserted by the test suite and the
  ``three-dess bench`` thinning stage).

The result is a one-voxel-wide curve skeleton suitable for skeletal-graph
construction; like the thinning algorithm the paper uses, it preserves the
topology of the original model but is not perfectly invariant to rotation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..obs import get_registry
from ..robust.errors import InvalidParameterError, SkeletonizationError
from ..voxel.grid import VoxelGrid
from .simple_point import (
    count_object_neighbors,
    is_simple_mask,
    neighborhood_mask,
)

_DIRECTIONS: Tuple[Tuple[int, int, int], ...] = (
    (0, 0, 1),
    (0, 0, -1),
    (0, 1, 0),
    (0, -1, 0),
    (1, 0, 0),
    (-1, 0, 0),
)


def _border_candidates(
    occ: np.ndarray, direction: Tuple[int, int, int]
) -> np.ndarray:
    """Voxels whose neighbor in ``direction`` is background."""
    shifted = np.zeros_like(occ)
    dx, dy, dz = direction
    src = [slice(None)] * 3
    dst = [slice(None)] * 3
    for axis, d in enumerate((dx, dy, dz)):
        if d == 1:
            src[axis] = slice(1, None)
            dst[axis] = slice(None, -1)
        elif d == -1:
            src[axis] = slice(None, -1)
            dst[axis] = slice(1, None)
    shifted[tuple(dst)] = occ[tuple(src)]
    return occ & ~shifted


def _row_bitsets(occ: np.ndarray) -> List[int]:
    """One Python int per (x, y) row of ``occ``, padded by one on every side.

    Row ``(x + 1) * (ny + 2) + (y + 1)`` holds grid voxel ``(x, y, z)`` at
    bit ``z + 1``; the rows and bits of the pad ring stay zero, so a
    neighborhood gather never leaves the volume.
    """
    nx, ny, nz = occ.shape
    if nz <= 61:  # bits 1..nz fit an int64
        bits = (occ @ (np.int64(2) << np.arange(nz, dtype=np.int64))).ravel().tolist()
    else:
        packed = np.packbits(occ, axis=2, bitorder="little")
        bits = [
            int.from_bytes(row.tobytes(), "little") << 1
            for row in packed.reshape(-1, packed.shape[2])
        ]
    rows = np.zeros((nx + 2, ny + 2), dtype=object)
    rows[1:-1, 1:-1] = np.array(bits, dtype=object).reshape(nx, ny)
    return rows.ravel().tolist()


def _row_mask(rows: List[int], r: int, z: int, w: int) -> int:
    """26-bit neighborhood mask of grid voxel ``z`` of padded row ``r``.

    Takes three bits (dz = -1, 0, 1) from each of the 9 rows at offsets
    (dx, dy) in :data:`~repro.skeleton.simple_point.NEIGHBOR_OFFSETS`
    order — the center row gives only dz = -1 and dz = 1 — so the mask
    equals :func:`~repro.skeleton.simple_point.neighborhood_mask`.
    ``w`` is the padded row stride ``ny + 2``.
    """
    c = rows[r] >> z
    return (
        (rows[r - w - 1] >> z & 7)
        | (rows[r - w] >> z & 7) << 3
        | (rows[r - w + 1] >> z & 7) << 6
        | (rows[r - 1] >> z & 7) << 9
        | (c & 1) << 12
        | (c & 4) << 11
        | (rows[r + 1] >> z & 7) << 14
        | (rows[r + w - 1] >> z & 7) << 17
        | (rows[r + w] >> z & 7) << 20
        | (rows[r + w + 1] >> z & 7) << 23
    )


def _thin_batched(
    occ: np.ndarray, preserve_endpoints: bool, max_iterations: int
) -> np.ndarray:
    rows = _row_bitsets(occ)
    _, ny, nz = occ.shape
    w = ny + 2  # row stride of the padded (x, y) plane
    simple = is_simple_mask
    gather = _row_mask
    for _ in range(max_iterations):
        deleted_this_sweep = 0
        for direction in _DIRECTIONS:
            flat = np.flatnonzero(_border_candidates(occ, direction))
            xy, zs = np.divmod(flat, nz)
            xs, ys = np.divmod(xy, ny)
            deleted = []
            # Candidates are distinct voxels and only visited voxels are
            # deleted, so — exactly as in the reference kernel — no
            # candidate can lose its occupancy before its own visit; the
            # row bitsets alone carry the current neighborhood state.
            for f, r, z in zip(
                flat.tolist(), ((xs + 1) * w + ys + 1).tolist(), zs.tolist()
            ):
                mask = gather(rows, r, z, w)
                if preserve_endpoints and (mask & (mask - 1)) == 0:
                    continue  # <= 1 object neighbor: endpoint (or isolated)
                if simple(mask):
                    rows[r] &= ~(2 << z)
                    deleted.append(f)
            np.put(occ, deleted, False)
            deleted_this_sweep += len(deleted)
        if not deleted_this_sweep:
            return occ
    raise SkeletonizationError(
        "thinning did not converge within max_iterations",
        code="skeleton.no_convergence",
    )


def _thin_reference(
    occ: np.ndarray, preserve_endpoints: bool, max_iterations: int
) -> np.ndarray:
    for _ in range(max_iterations):
        deleted_this_sweep = 0
        for direction in _DIRECTIONS:
            candidates = np.argwhere(_border_candidates(occ, direction))
            for x, y, z in candidates:
                if not occ[x, y, z]:
                    continue  # removed earlier in this subiteration
                mask = neighborhood_mask(occ, x, y, z)
                n_obj = count_object_neighbors(mask)
                if preserve_endpoints and n_obj <= 1:
                    continue
                if is_simple_mask(mask):
                    occ[x, y, z] = False
                    deleted_this_sweep += 1
        if not deleted_this_sweep:
            return occ
    raise SkeletonizationError(
        "thinning did not converge within max_iterations",
        code="skeleton.no_convergence",
    )


_KERNELS = {
    "batched": _thin_batched,
    "reference": _thin_reference,
}


def thin(
    grid: VoxelGrid,
    preserve_endpoints: bool = True,
    max_iterations: int = 10_000,
    kernel: str = "batched",
) -> VoxelGrid:
    """Thin a solid voxel model to its curve skeleton.

    Parameters
    ----------
    preserve_endpoints:
        Keep voxels with at most one object neighbor (curve endpoints),
        producing a curve skeleton.  With False the object shrinks to a
        minimal topology-preserving set (a point per ball, a cycle per
        handle).
    max_iterations:
        Safety bound on full sweeps (each sweep = 6 subiterations).
    kernel:
        ``"batched"`` (row-bitset neighborhood gathers, default) or
        ``"reference"`` (the original per-voxel loop).  Both produce
        bitwise-identical skeletons; the reference kernel exists for
        verification and benchmarking.
    """
    try:
        run = _KERNELS[kernel]
    except KeyError:
        raise InvalidParameterError(
            f"unknown thinning kernel {kernel!r}; choose from {sorted(_KERNELS)}",
            code="usage.unknown_kernel",
        ) from None
    metrics = get_registry()
    with metrics.timed("skeleton.thin"):
        occ = run(grid.occupancy.copy(), preserve_endpoints, max_iterations)
    return VoxelGrid(occ, origin=grid.origin.copy(), spacing=grid.spacing)


def skeletonize(
    grid: VoxelGrid, preserve_endpoints: bool = True
) -> VoxelGrid:
    """Alias for :func:`thin` matching the paper's terminology."""
    return thin(grid, preserve_endpoints=preserve_endpoints)


def skeleton_points(grid: VoxelGrid) -> np.ndarray:
    """Skeleton voxel indices, shape (k, 3)."""
    return grid.occupied_indices()
