"""Build the 113-shape evaluation corpus (Section 4, Fig. 4).

26 similarity groups with sizes between two and eight totalling 86
shapes, plus 27 noise shapes.  The whole corpus is deterministic under a
seed, and the populated :class:`ShapeDatabase` (features extracted for
every shape) can be cached on disk because extraction is the expensive
step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..db.database import ShapeDatabase
from ..features.base import DEFAULT_VOXEL_RESOLUTION
from ..features.pipeline import FeaturePipeline
from ..geometry.mesh import TriangleMesh
from .families import FAMILIES
from .noise import N_NOISE, make_noise_shapes

DEFAULT_SEED = 42

#: Group sizes per family, matching Fig. 4's profile: 26 groups, sizes in
#: [2, 8], sum 86.  (9 groups of 2, 8 of 3, 5 of 4, 2 of 5, 1 of 6, 1 of 8.)
GROUP_SIZES: Dict[str, int] = {
    "l_bracket": 8,
    "block": 6,
    "stepped_shaft": 5,
    "plate_with_hole": 5,
    "washer": 4,
    "u_channel": 4,
    "t_section": 4,
    "flange": 4,
    "elbow_pipe": 4,
    "h_beam": 3,
    "c_clamp": 3,
    "bushing": 3,
    "cone_part": 3,
    "slim_rod": 3,
    "hex_nut": 3,
    "torus_ring": 3,
    "sphere_knob": 3,
    "cross_section": 2,
    "comb_plate": 2,
    "staircase": 2,
    "angle_rib": 2,
    "tapered_block": 2,
    "pyramid_mount": 2,
    "hex_prism": 2,
    "dumbbell": 2,
    "tee_pipe": 2,
}

_total = sum(GROUP_SIZES.values())
if _total != 86 or len(GROUP_SIZES) != 26:  # pragma: no cover - structural
    raise AssertionError(f"corpus profile broken: {len(GROUP_SIZES)} groups, {_total} shapes")


@dataclass
class CorpusShape:
    """One generated shape before database insertion."""

    mesh: TriangleMesh
    name: str
    group: Optional[str]


def group_size_profile() -> List[int]:
    """Group sizes in ascending order (the series of Fig. 4)."""
    return sorted(GROUP_SIZES.values())


#: Within-group spread of the characteristic part size (volume jitter).
_VOLUME_JITTER = (0.92, 1.10)


def build_corpus(
    seed: int = DEFAULT_SEED, noise_count: int = N_NOISE
) -> List[CorpusShape]:
    """Generate all 113 meshes deterministically.

    Members of a family share a characteristic size: each mesh is rescaled
    to the family's reference volume (drawn once per family) with a small
    jitter.  Proportions still vary member to member, which is how real
    part families behave — a size-160 L-bracket and a size-165 L-bracket
    with slightly different arm lengths.
    """
    from ..geometry.properties import volume as mesh_volume
    from ..geometry.transform import scale as mesh_scale

    rng = np.random.default_rng(seed)
    shapes: List[CorpusShape] = []
    for family_index, (family, size) in enumerate(GROUP_SIZES.items()):
        maker = FAMILIES[family]
        ref_rng = np.random.default_rng([seed, family_index])
        reference_volume = mesh_volume(maker(ref_rng))
        for k in range(size):
            mesh = maker(rng)
            target = reference_volume * rng.uniform(*_VOLUME_JITTER)
            factor = (target / mesh_volume(mesh)) ** (1.0 / 3.0)
            mesh = mesh_scale(mesh, factor)
            mesh.name = f"{family}_{k:02d}"
            shapes.append(
                CorpusShape(mesh=mesh, name=mesh.name, group=family)
            )
    for mesh in make_noise_shapes(rng, noise_count):
        shapes.append(CorpusShape(mesh=mesh, name=mesh.name, group=None))
    return shapes


def build_database(
    seed: int = DEFAULT_SEED,
    voxel_resolution: int = DEFAULT_VOXEL_RESOLUTION,
    feature_names: Optional[List[str]] = None,
    workers: int = 0,
    feature_cache_dir: Optional[Union[str, os.PathLike]] = None,
) -> ShapeDatabase:
    """Generate the corpus and extract every feature vector.

    ``workers`` fans extraction over a process pool (0/1 = serial; the
    resulting database is identical either way).  ``feature_cache_dir``
    attaches a persistent content-addressed cache so repeat builds only
    extract shapes whose geometry or parameters changed.
    """
    pipeline = FeaturePipeline(
        feature_names=feature_names, voxel_resolution=voxel_resolution
    )
    if feature_cache_dir is not None:
        from ..features.cache import CachingPipeline, PersistentFeatureStore

        pipeline = CachingPipeline(
            pipeline, store=PersistentFeatureStore(feature_cache_dir)
        )
    db = ShapeDatabase(pipeline)
    corpus = build_corpus(seed)
    result = db.insert_meshes(
        [shape.mesh for shape in corpus],
        names=[shape.name for shape in corpus],
        groups=[shape.group for shape in corpus],
        workers=workers,
    )
    if result.errors:  # pragma: no cover - generated corpus never fails
        failed = ", ".join(err.name for err in result.errors)
        raise RuntimeError(f"corpus extraction failed for: {failed}")
    return db


def default_cache_dir() -> str:
    """Directory used for the cached evaluation database."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-3dess")


def load_or_build_database(
    seed: int = DEFAULT_SEED,
    voxel_resolution: int = DEFAULT_VOXEL_RESOLUTION,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    load_meshes: bool = False,
    feature_names: Optional[List[str]] = None,
    cache_tag: str = "",
) -> ShapeDatabase:
    """The evaluation database, cached on disk after the first build.

    Feature extraction for 113 shapes takes tens of seconds; benchmarks
    and experiments share one cached copy keyed by (seed, resolution) plus
    an optional ``cache_tag`` for non-default feature sets.
    """
    root = os.fspath(cache_dir) if cache_dir is not None else default_cache_dir()
    key = f"corpus_seed{seed}_res{voxel_resolution}{cache_tag}"
    path = os.path.join(root, key)
    pipeline = FeaturePipeline(
        feature_names=feature_names, voxel_resolution=voxel_resolution
    )
    if os.path.exists(os.path.join(path, "manifest.json")):
        return ShapeDatabase.load(path, pipeline=pipeline, load_meshes=load_meshes)
    db = build_database(
        seed=seed, voxel_resolution=voxel_resolution, feature_names=feature_names
    )
    os.makedirs(path, exist_ok=True)
    db.save(path)
    return db


#: All descriptors compared by the extension benchmark: the paper's four
#: plus the related-work descriptors.
ALL_DESCRIPTOR_FEATURES: List[str] = [
    "moment_invariants",
    "geometric_params",
    "principal_moments",
    "eigenvalues",
    "extended_invariants",
    "d1_distribution",
    "d2_distribution",
    "a3_distribution",
    "shell_histogram",
    "sector_histogram",
    "combined_histogram",
    "fourier3d",
    "view_hu",
    "face_graph",
    "spherical_harmonics",
]


def load_or_build_extended_database(
    seed: int = DEFAULT_SEED,
    voxel_resolution: int = DEFAULT_VOXEL_RESOLUTION,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
) -> ShapeDatabase:
    """Evaluation database carrying every registered descriptor."""
    return load_or_build_database(
        seed=seed,
        voxel_resolution=voxel_resolution,
        cache_dir=cache_dir,
        feature_names=list(ALL_DESCRIPTOR_FEATURES),
        cache_tag="_ext",
    )


# ----------------------------------------------------------------------
# Scale tier: streaming generation and synthetic vector corpora
# ----------------------------------------------------------------------

_FAMILY_LIST: List[str] = list(GROUP_SIZES)


def stream_corpus(
    n_shapes: int,
    seed: int = DEFAULT_SEED,
    batch_size: int = 64,
) -> "Iterator[List[CorpusShape]]":
    """Yield deterministic mesh batches with bounded memory.

    Shape ``i`` is drawn from ``default_rng([seed, i])`` and cycles
    through the 26 families, so the corpus is a pure function of
    ``(seed, n_shapes)`` — the batch size only controls how many meshes
    exist at once, never what they are.
    """
    if n_shapes < 0:
        raise ValueError(f"n_shapes must be >= 0, got {n_shapes}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    batch: List[CorpusShape] = []
    for i in range(n_shapes):
        family = _FAMILY_LIST[i % len(_FAMILY_LIST)]
        mesh = FAMILIES[family](np.random.default_rng([seed, i]))
        mesh.name = f"{family}_{i:06d}"
        batch.append(CorpusShape(mesh=mesh, name=mesh.name, group=family))
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def build_streaming_database(
    n_shapes: int,
    seed: int = DEFAULT_SEED,
    batch_size: int = 64,
    voxel_resolution: int = DEFAULT_VOXEL_RESOLUTION,
    feature_names: Optional[List[str]] = None,
    keep_meshes: bool = False,
) -> ShapeDatabase:
    """Extract a streamed corpus batch by batch (bounded memory).

    Meshes are generated, extracted, and (unless ``keep_meshes``)
    dropped one batch at a time, so peak memory is one batch of geometry
    plus the packed feature store — not the whole corpus.
    """
    pipeline = FeaturePipeline(
        feature_names=feature_names, voxel_resolution=voxel_resolution
    )
    db = ShapeDatabase(pipeline)
    for batch in stream_corpus(n_shapes, seed=seed, batch_size=batch_size):
        result = db.insert_meshes(
            [shape.mesh for shape in batch],
            names=[shape.name for shape in batch],
            groups=[shape.group for shape in batch],
        )
        if result.errors:  # pragma: no cover - generated corpus never fails
            failed = ", ".join(err.name for err in result.errors)
            raise RuntimeError(f"streaming extraction failed for: {failed}")
        if not keep_meshes:
            for sid in result.inserted_ids:
                db.get(sid).mesh = None
    return db


#: Feature dimensions of the paper's four vectors, used by the synthetic
#: corpus so its packed store has the real system's shape.
SYNTHETIC_FEATURE_DIMS: Dict[str, int] = {
    "moment_invariants": 3,
    "geometric_params": 5,
    "principal_moments": 3,
    "eigenvalues": 10,
}


def synthetic_vector_batches(
    n_shapes: int,
    seed: int = DEFAULT_SEED,
    batch_size: int = 4096,
    n_groups: int = 64,
    feature_dims: Optional[Dict[str, int]] = None,
) -> "Iterator[Tuple[List[str], List[str], Dict[str, np.ndarray]]]":
    """Yield ``(names, groups, features)`` batches of synthetic vectors.

    Shapes cycle through ``n_groups`` Gaussian clusters (centers drawn
    once from ``default_rng(seed)``; members perturbed with 0.15 sigma
    noise from a per-batch ``default_rng([seed, 1 + b])``).  This is the
    100k+ scale path: no geometry, just float32 feature rows shaped like
    the real pipeline's output, feeding
    :meth:`ShapeDatabase.bulk_append_vectors`.
    """
    if n_shapes < 0:
        raise ValueError(f"n_shapes must be >= 0, got {n_shapes}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    dims = dict(SYNTHETIC_FEATURE_DIMS if feature_dims is None else feature_dims)
    center_rng = np.random.default_rng(seed)
    centers = {
        fname: center_rng.normal(0.0, 1.0, size=(n_groups, dim))
        for fname, dim in sorted(dims.items())
    }
    start = 0
    batch_index = 0
    while start < n_shapes:
        count = min(batch_size, n_shapes - start)
        rng = np.random.default_rng([seed, 1 + batch_index])
        idx = np.arange(start, start + count)
        group_idx = idx % n_groups
        names = [f"synthetic_{i:07d}" for i in idx]
        groups = [f"g{g:04d}" for g in group_idx]
        features = {
            fname: np.asarray(
                centers[fname][group_idx]
                + rng.normal(0.0, 0.15, size=(count, dim)),
                dtype=np.float32,
            )
            for fname, dim in sorted(dims.items())
        }
        yield names, groups, features
        start += count
        batch_index += 1


def build_synthetic_database(
    n_shapes: int,
    seed: int = DEFAULT_SEED,
    batch_size: int = 4096,
    n_groups: int = 64,
    feature_dims: Optional[Dict[str, int]] = None,
) -> ShapeDatabase:
    """Synthetic-vector database at arbitrary scale (no meshes).

    Every batch is a vectorized tail-append into the packed columnar
    store.
    """
    db = ShapeDatabase(pipeline=None)
    for names, groups, features in synthetic_vector_batches(
        n_shapes,
        seed=seed,
        batch_size=batch_size,
        n_groups=n_groups,
        feature_dims=feature_dims,
    ):
        db.bulk_append_vectors(names, groups, features)
    return db
