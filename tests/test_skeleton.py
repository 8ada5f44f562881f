"""Simple-point test, thinning, skeletal graphs, adjacency spectra."""

import numpy as np
import pytest

from repro.geometry import box, extrude_polygon, plate_with_rect_hole, torus
from repro.skeleton import (
    CURVE,
    LINE,
    LOOP,
    adjacency_matrix,
    build_skeletal_graph,
    connection_weight,
    is_simple,
    is_simple_mask,
    pack_neighborhood,
    spectrum,
    thin,
)
from repro.voxel import VoxelGrid, label_components, voxelize


def block_grid(shape=(8, 8, 8), fill=None):
    occ = np.zeros(shape, dtype=bool)
    if fill is not None:
        occ[fill] = True
    return VoxelGrid(occ)


class TestSimplePoint:
    def test_isolated_voxel_not_simple(self):
        block = np.zeros((3, 3, 3), dtype=bool)
        assert not is_simple(block)

    def test_interior_voxel_not_simple(self):
        block = np.ones((3, 3, 3), dtype=bool)
        assert not is_simple(block)

    def test_face_surface_voxel_simple(self):
        block = np.zeros((3, 3, 3), dtype=bool)
        block[:, :, 0] = True  # slab below; center sits on its surface
        assert is_simple(block)

    def test_bridge_voxel_not_simple(self):
        # Two separate object voxels connected only through the center.
        block = np.zeros((3, 3, 3), dtype=bool)
        block[0, 1, 1] = True
        block[2, 1, 1] = True
        assert not is_simple(block)

    def test_line_end_voxel_simple(self):
        block = np.zeros((3, 3, 3), dtype=bool)
        block[0, 1, 1] = True  # one neighbor: center is a line end
        assert is_simple(block)

    def test_pack_roundtrip(self):
        rng = np.random.default_rng(0)
        block = rng.random((3, 3, 3)) < 0.5
        mask = pack_neighborhood(block)
        assert 0 <= mask < 1 << 26
        assert is_simple_mask(mask) == is_simple(block)

    def test_pack_validation(self):
        with pytest.raises(ValueError):
            pack_neighborhood(np.ones((3, 3)))


class TestThinning:
    def test_preserves_component_count(self):
        grid = voxelize(box((6, 2, 2)), resolution=16)
        skel = thin(grid)
        _, n_before = label_components(grid.occupancy)
        # Components under 26-connectivity: use cluster on occupied set.
        assert skel.n_occupied >= 1
        _, n_after = label_components(skel.occupancy)
        assert n_after <= n_before  # 6-conn may split; 26-conn preserved below
        from repro.skeleton.graph import _cluster

        occ = {tuple(v) for v in skel.occupied_indices()}
        assert len(_cluster(sorted(occ))) == 1

    def test_rod_thins_to_thin_curve(self):
        grid = voxelize(box((10, 1, 1)), resolution=20)
        skel = thin(grid)
        assert skel.n_occupied < grid.n_occupied / 5

    def test_torus_keeps_cycle(self):
        grid = voxelize(torus(3.0, 0.8, 48, 16), resolution=24)
        skel = thin(grid)
        sg = build_skeletal_graph(skel)
        assert sg.type_counts()[LOOP] >= 1

    def test_idempotent_on_skeleton(self):
        grid = voxelize(box((8, 1.2, 1.2)), resolution=16)
        skel = thin(grid)
        again = thin(skel)
        assert again.n_occupied == skel.n_occupied

    def test_without_endpoint_preservation_shrinks_more(self):
        grid = voxelize(box((8, 1.2, 1.2)), resolution=16)
        curve = thin(grid, preserve_endpoints=True)
        point = thin(grid, preserve_endpoints=False)
        assert point.n_occupied <= curve.n_occupied
        assert point.n_occupied == 1  # a ball-topology solid shrinks to a point

    def test_grid_metadata_preserved(self):
        grid = voxelize(box((4, 2, 2)), resolution=12)
        skel = thin(grid)
        assert skel.spacing == grid.spacing
        assert np.allclose(skel.origin, grid.origin)


class TestThinningKernels:
    """The batched kernel must be bitwise identical to the reference loop."""

    MESHES = {
        "box": lambda: box((4, 3, 2)),
        "l_bracket": lambda: extrude_polygon(
            [[0, 0], [6, 0], [6, 1], [1, 1], [1, 6], [0, 6]], 1.0
        ),
        "torus": lambda: torus(3.0, 0.8, 32, 12),
        "plate_with_hole": lambda: plate_with_rect_hole(8, 6, 1, 3, 2),
    }

    @pytest.mark.parametrize("name", sorted(MESHES))
    @pytest.mark.parametrize("resolution", [10, 16])
    def test_identical_on_solids(self, name, resolution):
        grid = voxelize(self.MESHES[name](), resolution=resolution)
        a = thin(grid, kernel="reference")
        b = thin(grid, kernel="batched")
        assert np.array_equal(a.occupancy, b.occupancy)

    @pytest.mark.parametrize("preserve_endpoints", [True, False])
    def test_identical_on_random_grids(self, preserve_endpoints):
        rng = np.random.default_rng(7)
        for density in (0.2, 0.5, 0.8):
            occ = rng.random((9, 9, 9)) < density
            grid = VoxelGrid(occ)
            a = thin(grid, preserve_endpoints=preserve_endpoints, kernel="reference")
            b = thin(grid, preserve_endpoints=preserve_endpoints, kernel="batched")
            assert np.array_equal(a.occupancy, b.occupancy), density

    def test_unknown_kernel_rejected(self):
        grid = voxelize(box((2, 2, 2)), resolution=8)
        with pytest.raises(ValueError, match="unknown thinning kernel"):
            thin(grid, kernel="bogus")

    @staticmethod
    def assert_kernels_agree(occ):
        for preserve_endpoints in (True, False):
            a = thin(VoxelGrid(occ), preserve_endpoints, kernel="reference")
            b = thin(VoxelGrid(occ), preserve_endpoints, kernel="batched")
            assert np.array_equal(a.occupancy, b.occupancy), (
                occ.shape,
                preserve_endpoints,
            )

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 1), (1, 6, 4), (3, 11, 5), (12, 4, 7), (2, 2, 9), (3, 0, 4), (2, 0, 64)],
    )
    def test_identical_on_non_cubic_grids(self, shape):
        rng = np.random.default_rng(sum(shape))
        for density in (0.3, 0.7, 1.0):
            self.assert_kernels_agree(rng.random(shape) < density)

    def test_identical_on_grids_touching_the_boundary(self):
        rng = np.random.default_rng(11)
        full = np.ones((5, 6, 7), dtype=bool)  # every voxel on or next to the boundary
        self.assert_kernels_agree(full)
        slab = np.zeros((8, 8, 8), dtype=bool)
        slab[:, :, :3] = True  # fills the z = 0 face and the x/y faces
        self.assert_kernels_agree(slab)
        shell = rng.random((7, 7, 7)) < 0.6
        shell[1:-1, 1:-1, 1:-1] = False  # only the outermost layer
        self.assert_kernels_agree(shell)

    @pytest.mark.parametrize("nz", [61, 62, 63, 64, 70])
    def test_identical_on_long_z_extents(self, nz):
        # Past nz = 61 the row bitsets no longer fit an int64 and are
        # built from packed bytes instead.
        rng = np.random.default_rng(nz)
        self.assert_kernels_agree(rng.random((4, 5, nz)) < 0.5)
        rod = np.zeros((5, 5, nz), dtype=bool)
        rod[1:4, 1:4, :] = True  # a rod touching both z faces
        self.assert_kernels_agree(rod)

    def test_row_mask_matches_neighborhood_mask(self):
        from repro.skeleton.simple_point import neighborhood_mask
        from repro.skeleton.thinning import _row_bitsets, _row_mask

        rng = np.random.default_rng(3)
        for shape in [(6, 5, 7), (3, 4, 66)]:  # int64 rows, then wider rows
            occ = rng.random(shape) < 0.5
            rows = _row_bitsets(occ)
            nx, ny, nz = shape
            w = ny + 2
            for x in range(nx):
                for y in range(ny):
                    for z in range(nz):
                        mask = _row_mask(rows, (x + 1) * w + y + 1, z, w)
                        assert mask == neighborhood_mask(occ, x, y, z)


class TestSkeletalGraph:
    def test_empty_grid(self):
        sg = build_skeletal_graph(block_grid())
        assert sg.n_nodes == 0

    def test_single_voxel_is_degenerate_line(self):
        sg = build_skeletal_graph(block_grid(fill=(4, 4, 4)))
        assert sg.n_nodes == 1
        assert sg.segments[0].kind == LINE

    def test_straight_chain_is_line(self):
        occ = np.zeros((10, 5, 5), dtype=bool)
        occ[1:9, 2, 2] = True
        sg = build_skeletal_graph(VoxelGrid(occ))
        assert sg.n_nodes == 1
        assert sg.segments[0].kind == LINE
        assert sg.segments[0].length == 8

    def test_bent_chain_is_curve(self):
        occ = np.zeros((10, 10, 3), dtype=bool)
        occ[1:9, 1, 1] = True
        occ[8, 1:9, 1] = True
        sg = build_skeletal_graph(VoxelGrid(occ))
        kinds = {s.kind for s in sg.segments}
        assert CURVE in kinds or len(sg.segments) > 1

    def test_closed_ring_is_loop(self):
        # Diamond ring: |x-5| + |y-5| == 4 is a closed degree-2 cycle.
        occ = np.zeros((11, 11, 3), dtype=bool)
        for x in range(11):
            for y in range(11):
                if abs(x - 5) + abs(y - 5) == 4:
                    occ[x, y, 1] = True
        sg = build_skeletal_graph(VoxelGrid(occ))
        assert sg.n_nodes == 1
        assert sg.segments[0].kind == LOOP

    def test_cross_has_junction_and_multiple_entities(self):
        occ = np.zeros((11, 11, 3), dtype=bool)
        occ[1:10, 5, 1] = True
        occ[5, 1:10, 1] = True
        sg = build_skeletal_graph(VoxelGrid(occ))
        assert sg.n_junctions == 1
        assert sg.n_nodes >= 3
        assert sg.graph.number_of_edges() >= 3

    def test_plate_with_hole_pipeline(self):
        grid = voxelize(plate_with_rect_hole(8, 6, 1, 3, 2), resolution=28)
        sg = build_skeletal_graph(thin(grid))
        assert sg.type_counts()[LOOP] >= 1


class TestAdjacency:
    def test_matrix_symmetric(self):
        grid = voxelize(
            extrude_polygon(
                [[-4, -1], [-1, -1], [-1, -4], [1, -4], [1, -1], [4, -1],
                 [4, 1], [1, 1], [1, 4], [-1, 4], [-1, 1], [-4, 1]], 1.5
            ),
            resolution=24,
        )
        sg = build_skeletal_graph(thin(grid))
        mat = adjacency_matrix(sg)
        assert np.allclose(mat, mat.T)

    def test_connection_weights_by_type(self):
        assert connection_weight(LINE, LINE) == 1.0
        assert connection_weight(LOOP, LINE) == connection_weight(LINE, LOOP)
        assert connection_weight(LOOP, LOOP) > connection_weight(LINE, LINE)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            connection_weight("blob", LINE)

    def test_spectrum_fixed_dimension(self):
        occ = np.zeros((10, 5, 5), dtype=bool)
        occ[1:9, 2, 2] = True
        sg = build_skeletal_graph(VoxelGrid(occ))
        assert spectrum(sg, dim=6).shape == (6,)
        assert spectrum(sg, dim=1).shape == (1,)

    def test_spectrum_empty_graph_is_zero(self):
        sg = build_skeletal_graph(block_grid())
        assert np.allclose(spectrum(sg, dim=4), 0.0)

    def test_spectrum_sorted_by_magnitude(self):
        occ = np.zeros((11, 11, 3), dtype=bool)
        occ[1:10, 5, 1] = True
        occ[5, 1:10, 1] = True
        sg = build_skeletal_graph(VoxelGrid(occ))
        spec = spectrum(sg, dim=8)
        mags = np.abs(spec[spec != 0])
        assert (np.diff(mags) <= 1e-12).all()

    def test_spectrum_dim_validation(self):
        sg = build_skeletal_graph(block_grid(fill=(4, 4, 4)))
        with pytest.raises(ValueError):
            spectrum(sg, dim=0)

    def test_loop_vs_line_distinguished(self):
        ring = np.zeros((11, 11, 3), dtype=bool)
        for x in range(11):
            for y in range(11):
                if abs(x - 5) + abs(y - 5) == 4:
                    ring[x, y, 1] = True
        line = np.zeros((11, 11, 3), dtype=bool)
        line[1:7, 3, 1] = True
        s_ring = spectrum(build_skeletal_graph(VoxelGrid(ring)))
        s_line = spectrum(build_skeletal_graph(VoxelGrid(line)))
        assert not np.allclose(s_ring, s_line)
