"""Fault-injection helpers shared by the robustness test suite.

Factories for broken meshes (NaN vertices, zero-area faces, collapsed
bounding boxes), extractors that hang or crash on demand, and byte-level
corruption of saved database directories.  Kept importable (no pytest
dependency) so the CI fault-injection job can also drive them directly.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.features.base import FeatureExtractor
from repro.geometry.mesh import TriangleMesh
from repro.geometry.primitives import box

#: Marker extent: meshes built by :func:`hanging_mesh` trip the sleeping
#: extractor, everything else passes through instantly.
HANG_EXTENT = 7.0


def good_mesh(scale: float = 1.0) -> TriangleMesh:
    """A clean closed box; always ingests."""
    return TriangleMesh(
        np.asarray(box((2.0 * scale, 1.0, 1.0)).vertices),
        np.asarray(box((2.0 * scale, 1.0, 1.0)).faces),
        name=f"good_{scale:g}",
    )


def nan_vertex_mesh() -> TriangleMesh:
    """A box with one NaN coordinate (fails ``mesh.nonfinite_vertices``).

    Construction-time validation is sidestepped by mutating the vertex
    buffer in place — exactly the failure mode the pre-flight validator
    exists to catch.
    """
    mesh = box((1.0, 1.0, 1.0))
    mesh.vertices[0, 0] = np.nan
    mesh.name = "nan_vertex"
    return mesh


def zero_area_mesh() -> TriangleMesh:
    """Every face degenerate — three collinear points per triangle
    (fails ``mesh.degenerate_faces``)."""
    verts = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 1.0]]
    )
    faces = np.array([[0, 1, 2]])
    return TriangleMesh(verts, faces, name="zero_area")


def zero_extent_mesh() -> TriangleMesh:
    """All vertices coincide: voxelizes to nothing
    (fails ``mesh.zero_extent``)."""
    verts = np.zeros((3, 3))
    faces = np.array([[0, 1, 2]])
    return TriangleMesh(verts, faces, name="zero_extent")


def flat_mesh() -> TriangleMesh:
    """Open zero-volume sheet: passes pre-flight validation, fails at
    normalization (``mesh.zero_volume``)."""
    return TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], name="flat"
    )


def hanging_mesh() -> TriangleMesh:
    """A valid box whose extent triggers :class:`SleepingExtractor`."""
    mesh = box((HANG_EXTENT, 1.0, 1.0))
    return TriangleMesh(
        np.asarray(mesh.vertices), np.asarray(mesh.faces), name="hanging"
    )


class SleepingExtractor(FeatureExtractor):
    """Hangs (far past any test timeout) on :func:`hanging_mesh` only."""

    name = "sleeping"
    dim = 1
    sleep_seconds = 120.0

    def extract(self, context) -> np.ndarray:
        verts = np.asarray(context.mesh.vertices)
        extent = float(verts[:, 0].max() - verts[:, 0].min())
        if abs(extent - HANG_EXTENT) < 1e-9:
            time.sleep(self.sleep_seconds)
        return np.array([extent])


def register_sleeping_extractor() -> str:
    """Register :class:`SleepingExtractor`; returns its feature name.

    Registration is inherited by pool workers (fork start method), so
    timeout tests can use it inside subprocess extraction too.
    """
    from repro.features.registry import register_extractor

    register_extractor(SleepingExtractor.name, SleepingExtractor)
    return SleepingExtractor.name


class CrashingExtractor(FeatureExtractor):
    """Kills its worker process (``os._exit(3)``) on :func:`hanging_mesh`.

    Only outside the process that registered it (see
    :func:`register_crashing_extractor`): a serial, in-process run never
    takes the test runner down with it.
    """

    name = "crashing"
    dim = 1
    parent_pid = -1

    def extract(self, context) -> np.ndarray:
        verts = np.asarray(context.mesh.vertices)
        extent = float(verts[:, 0].max() - verts[:, 0].min())
        if abs(extent - HANG_EXTENT) < 1e-9 and os.getpid() != self.parent_pid:
            os._exit(3)
        return np.array([extent])


def register_crashing_extractor() -> str:
    """Register :class:`CrashingExtractor`; returns its feature name.

    Records the calling process as the one the extractor never kills;
    workers inherit the registration (fork start method) with it.
    """
    from repro.features.registry import register_extractor

    CrashingExtractor.parent_pid = os.getpid()
    register_extractor(CrashingExtractor.name, CrashingExtractor)
    return CrashingExtractor.name


def flip_byte(path: os.PathLike, offset: int = -1) -> None:
    """Invert one byte of a file in place (default: middle of the file)."""
    with open(path, "r+b") as handle:
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        assert size > 0, f"cannot corrupt empty file {path}"
        pos = size // 2 if offset < 0 else offset
        handle.seek(pos)
        byte = handle.read(1)
        handle.seek(pos)
        handle.write(bytes([byte[0] ^ 0xFF]))


def write_broken_off(path: os.PathLike) -> None:
    """Write a syntactically broken OFF file (truncated vertex block)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("OFF\n8 12 0\n0.0 0.0\n")
