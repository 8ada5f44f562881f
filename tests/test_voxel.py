"""Voxel grids, rasterization, solid fill, morphology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.geometry import TriangleMesh, box, torus, tube
from repro.voxel import (
    VoxelGrid,
    dilate,
    erode,
    exterior_mask,
    fill_interior,
    label_components,
    surface_voxels,
    voxelize,
    voxelize_surface,
)


class TestVoxelGrid:
    def test_basic_properties(self):
        occ = np.zeros((3, 4, 5), dtype=bool)
        occ[1, 2, 3] = True
        grid = VoxelGrid(occ, origin=(1, 1, 1), spacing=0.5)
        assert grid.shape == (3, 4, 5)
        assert grid.n_occupied == 1
        assert grid.volume() == pytest.approx(0.125)

    def test_world_index_roundtrip(self):
        grid = VoxelGrid(np.ones((4, 4, 4), dtype=bool), origin=(0, 0, 0), spacing=0.25)
        centers = grid.index_to_world([[0, 0, 0], [3, 3, 3]])
        idx = grid.world_to_index(centers)
        assert idx.tolist() == [[0, 0, 0], [3, 3, 3]]

    def test_contains_index(self):
        grid = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        assert grid.contains_index([[0, 0, 0], [1, 1, 1], [2, 0, 0]]).tolist() == [
            True,
            True,
            False,
        ]

    def test_voxel_centers_match_occupancy(self):
        occ = np.zeros((3, 3, 3), dtype=bool)
        occ[1, 1, 1] = True
        grid = VoxelGrid(occ, spacing=2.0)
        assert np.allclose(grid.voxel_centers(), [[3, 3, 3]])

    def test_validation(self):
        with pytest.raises(ValueError):
            VoxelGrid(np.ones((2, 2)))
        with pytest.raises(ValueError):
            VoxelGrid(np.ones((2, 2, 2)), spacing=0.0)
        with pytest.raises(ValueError):
            VoxelGrid(np.ones((2, 2, 2)), origin=(0, 0))

    def test_equality_and_copy(self):
        grid = VoxelGrid(np.ones((2, 2, 2), dtype=bool))
        clone = grid.copy()
        assert clone == grid
        clone.occupancy[0, 0, 0] = False
        assert clone != grid


class TestVoxelize:
    def test_box_volume_within_shell_error(self, asym_box):
        grid = voxelize(asym_box, resolution=32)
        assert grid.volume() == pytest.approx(48.0, rel=0.2)
        assert grid.volume() >= 48.0  # occupancy overestimates

    def test_resolution_improves_accuracy(self, unit_box):
        coarse = voxelize(unit_box, resolution=8).volume()
        fine = voxelize(unit_box, resolution=48).volume()
        assert abs(fine - 1.0) < abs(coarse - 1.0)

    def test_surface_only_is_hollow(self, asym_box):
        surf = voxelize_surface(asym_box, resolution=24)
        solid = voxelize(asym_box, resolution=24)
        assert surf.n_occupied < solid.n_occupied

    def test_tube_hole_is_preserved(self):
        grid = voxelize(tube(2.0, 1.0, 1.0, 32), resolution=32)
        # The voxel column through the hole center must be empty.
        center = grid.world_to_index([[0.0, 0.0, 0.5]])[0]
        assert not grid.occupancy[center[0], center[1], center[2]]

    def test_padding_keeps_boundary_clear(self, unit_box):
        grid = voxelize(unit_box, resolution=16, padding=2)
        occ = grid.occupancy
        assert not occ[0].any() and not occ[-1].any()
        assert not occ[:, 0].any() and not occ[:, -1].any()

    def test_validation(self, unit_box):
        from repro.geometry import TriangleMesh

        with pytest.raises(ValueError):
            voxelize(unit_box, resolution=1)
        with pytest.raises(ValueError):
            voxelize(TriangleMesh([], []), resolution=8)


def oracle_sample_count(a, b, c, pitch):
    longest = max(np.linalg.norm(b - a), np.linalg.norm(c - a), np.linalg.norm(c - b))
    return max(1, int(np.ceil(longest * 2.0 / pitch)))


def voxelize_surface_oracle(mesh, resolution, padding=1):
    """The per-triangle sampling loop ``voxelize_surface`` batches.

    Returns ``(occupancy, origin, spacing)``; the batched voxelizer must
    match all three bit for bit.
    """
    lo, hi = mesh.bounds()
    spacing = float((hi - lo).max()) / resolution
    side = resolution + 2 * padding
    origin = (lo + hi) / 2.0 - side * spacing / 2.0
    occ = np.zeros((side, side, side), dtype=bool)
    for a, b, c in mesh.triangles:
        e1, e2 = b - a, c - a
        n = oracle_sample_count(a, b, c, spacing)
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = (i + j) <= n
        pts = a + (i[keep] / n)[:, None] * e1 + (j[keep] / n)[:, None] * e2
        idx = np.floor((pts - origin) / spacing).astype(np.int64)
        np.clip(idx, 0, side - 1, out=idx)
        occ[idx[:, 0], idx[:, 1], idx[:, 2]] = True
    return occ, origin, spacing


def assert_matches_oracle(mesh, resolution, padding=1):
    occ, origin, spacing = voxelize_surface_oracle(mesh, resolution, padding)
    grid = voxelize_surface(mesh, resolution=resolution, padding=padding)
    assert np.array_equal(grid.occupancy, occ)
    assert np.array_equal(grid.origin, origin)
    assert grid.spacing == spacing


@st.composite
def triangle_soups(draw):
    """Random soups mixing generic, zero-area, sliver and near-integer triangles.

    A near-integer triangle's longest edge is ``k * pitch / 2`` for a whole
    ``k``, so ``longest * 2 / pitch`` is an integer up to rounding; the
    soup is anchored to the cube [0, size]^3 so the pitch is known before
    those triangles are placed, and may then be translated as a whole.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    resolution = draw(st.integers(2, 40))
    size = draw(st.sampled_from([1e-3, 1.0, 7.3, 1e3]))
    kinds = draw(
        st.lists(
            st.sampled_from(["generic", "point", "collinear", "sliver", "near_integer"]),
            min_size=1,
            max_size=12,
        )
    )
    pitch = size / resolution
    tris = [[[0.0, 0.0, 0.0], [size, size, size], [size, size, size]]]
    for kind in kinds:
        a, b, c = rng.uniform(0.0, size, (3, 3))
        if kind == "point":
            b = c = a
        elif kind == "collinear":
            c = a + rng.uniform(0.0, 1.0) * (b - a)
        elif kind == "sliver":
            c = a + rng.uniform(0.0, 1.0) * (b - a) + rng.normal(0.0, 1e-9 * size, 3)
        elif kind == "near_integer":
            axis_aligned = rng.random() < 0.3
            w = np.eye(3)[rng.integers(3)] if axis_aligned else rng.normal(size=3)
            w /= np.linalg.norm(w)
            half = int(rng.integers(1, resolution + 1)) * pitch / 4
            mid = np.full(3, size / 2)
            a, b = mid - half * w, mid + half * w
            c = mid + rng.uniform(0.0, 0.5) * half * np.cross(w, rng.normal(size=3))
        tris.append([a, b, c])
    verts = np.asarray(tris, dtype=np.float64).reshape(-1, 3)
    if draw(st.booleans()):
        verts += rng.uniform(-10.0, 10.0, 3) * size
    faces = np.arange(len(verts)).reshape(-1, 3)
    return TriangleMesh(verts, faces), resolution


class TestSurfaceVoxelizerEquivalence:
    """The batched surface voxelizer equals the per-triangle loop exactly."""

    @given(soup=triangle_soups(), padding=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_triangle_oracle(self, soup, padding):
        mesh, resolution = soup
        assert_matches_oracle(mesh, resolution, padding)

    @given(soup=triangle_soups())
    @settings(max_examples=150, deadline=None)
    def test_sample_counts_match_per_edge_norms(self, soup):
        # A denser lattice often marks the same voxels, so the counts are
        # checked directly: a batched edge length is a few ulps off
        # np.linalg.norm, which must not move any ceil().
        from repro.voxel.voxelize import _sample_counts

        mesh, resolution = soup
        lo, hi = mesh.bounds()
        pitch = float((hi - lo).max()) / resolution
        expected = [oracle_sample_count(a, b, c, pitch) for a, b, c in mesh.triangles]
        assert _sample_counts(mesh.triangles, pitch).tolist() == expected

    @pytest.mark.parametrize("resolution", [2, 5, 16, 40])
    def test_exact_integer_sample_counts(self, resolution):
        # Pythagorean edges (3-4-5 and 5-12-13, scaled by a power of two)
        # have exact lengths, so longest * 2 / pitch is an exact integer
        # whenever the pitch divides evenly.
        verts = np.array(
            [[0, 0, 0], [16, 16, 16], [16, 16, 16],
             [0, 0, 0], [3, 4, 0], [3, 0, 0],
             [1, 1, 1], [1, 6, 1], [1, 1, 13],
             [2, 2, 2], [2, 2, 2], [2.5, 2, 2]],
            dtype=np.float64,
        ) / 2.0
        mesh = TriangleMesh(verts, np.arange(12).reshape(4, 3))
        for padding in (0, 1, 2):
            assert_matches_oracle(mesh, resolution, padding)

    @pytest.mark.parametrize("resolution", [24, 32])
    def test_matches_oracle_on_corpus(self, resolution):
        from repro.datasets.generator import build_corpus, stream_corpus

        meshes = [shape.mesh for shape in build_corpus(7)]
        meshes += [shape.mesh for batch in stream_corpus(64, seed=7) for shape in batch]
        for mesh in meshes:
            assert_matches_oracle(mesh, resolution)


class TestMorphology:
    def test_label_components_matches_scipy(self, rng):
        mask = rng.random((12, 12, 12)) < 0.3
        ours, n_ours = label_components(mask)
        theirs, n_theirs = ndimage.label(mask)
        assert n_ours == n_theirs
        # Label ids may differ; compare partition structure.
        for lab in range(1, n_ours + 1):
            where = ours == lab
            scipy_labels = np.unique(theirs[where])
            assert len(scipy_labels) == 1

    def test_exterior_mask_excludes_cavity(self):
        shell = np.zeros((7, 7, 7), dtype=bool)
        shell[1:6, 1:6, 1:6] = True
        shell[2:5, 2:5, 2:5] = False  # hollow cavity
        ext = exterior_mask(shell)
        assert not ext[3, 3, 3]  # cavity is not exterior
        assert ext[0, 0, 0]

    def test_fill_interior_fills_cavity(self):
        shell = np.zeros((7, 7, 7), dtype=bool)
        shell[1:6, 1:6, 1:6] = True
        shell[2:5, 2:5, 2:5] = False
        solid = fill_interior(shell)
        assert solid[3, 3, 3]
        assert solid.sum() == 125  # the full 5^3 block

    def test_fill_interior_matches_scipy(self, rng):
        from repro.geometry import uv_sphere
        from repro.voxel import voxelize_surface

        surf = voxelize_surface(uv_sphere(1.0, 16, 32), resolution=20).occupancy
        ours = fill_interior(surf)
        theirs = ndimage.binary_fill_holes(surf)
        assert np.array_equal(ours, theirs)

    def test_erode_dilate_opening_is_subset(self):
        block = np.zeros((9, 9, 9), dtype=bool)
        block[2:7, 2:7, 2:7] = True
        opened = dilate(erode(block))
        assert (opened <= block).all()  # opening never grows the set
        assert opened[4, 4, 4]  # and keeps the core
        # 6-connected dilation does not restore cube corners.
        assert not opened[2, 2, 2]

    def test_erode_boundary_voxels_removed(self):
        full = np.ones((4, 4, 4), dtype=bool)
        eroded = erode(full)
        assert eroded.sum() == 8  # inner 2^3

    def test_surface_voxels_of_block(self):
        block = np.zeros((8, 8, 8), dtype=bool)
        block[1:7, 1:7, 1:7] = True
        surf = surface_voxels(block)
        assert surf.sum() == 6**3 - 4**3

    def test_non_3d_rejected(self):
        with pytest.raises(ValueError):
            label_components(np.ones((3, 3)))
