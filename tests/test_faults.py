"""Fault-injection tests: ingestion quarantine, worker timeouts, degraded
extraction, and save-directory corruption salvage."""

import json
import os
import time

import numpy as np
import pytest

from repro.db import ShapeDatabase, StorageError, salvage_records, verify_database
from repro.features import FeaturePipeline
from repro.features.parallel import ParallelPipeline
from repro.robust import (
    MeshValidationError,
    QuarantineItem,
    QuarantineReport,
    ReproError,
    SkeletonizationError,
    classify_exception,
    validate_mesh,
)

from .faults import (
    flip_byte,
    good_mesh,
    hanging_mesh,
    nan_vertex_mesh,
    register_crashing_extractor,
    register_sleeping_extractor,
    write_broken_off,
    zero_area_mesh,
    zero_extent_mesh,
)

RES = 10


class TestValidator:
    @pytest.mark.parametrize(
        "factory, code",
        [
            (nan_vertex_mesh, "mesh.nonfinite_vertices"),
            (zero_area_mesh, "mesh.degenerate_faces"),
            (zero_extent_mesh, "mesh.zero_extent"),
        ],
    )
    def test_bad_meshes_rejected_with_code(self, factory, code):
        with pytest.raises(MeshValidationError) as excinfo:
            validate_mesh(factory())
        assert excinfo.value.code == code
        assert excinfo.value.stage == "validate"

    def test_good_mesh_passes_with_probe(self):
        validate_mesh(good_mesh(), voxel_resolution=8, probe_voxelization=True)

    def test_taxonomy_is_still_valueerror(self):
        # Historical except-clauses must keep catching these.
        with pytest.raises(ValueError):
            validate_mesh(nan_vertex_mesh())


class TestIngestionQuarantine:
    def test_bad_meshes_quarantined_batch_survives(self):
        meshes = [
            good_mesh(1.0),
            nan_vertex_mesh(),
            good_mesh(1.5),
            zero_area_mesh(),
            zero_extent_mesh(),
            good_mesh(2.0),
        ]
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes(meshes)
        assert len(db) == 3
        # IDs follow input order; failures consume no ID.
        assert result.shape_ids == [1, None, 2, None, None, 3]
        assert [e.index for e in result.errors] == [1, 3, 4]
        codes = {e.name: e.code for e in result.errors}
        assert codes == {
            "nan_vertex": "mesh.nonfinite_vertices",
            "zero_area": "mesh.degenerate_faces",
            "zero_extent": "mesh.zero_extent",
        }
        assert all(e.stage == "validate" for e in result.errors)
        assert all(e.digest for e in result.errors)
        assert "3 full, 0 degraded, 3 failed" in result.summary()

    def test_quarantine_report_roundtrip(self, tmp_path):
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes([good_mesh(), nan_vertex_mesh()])
        report = QuarantineReport()
        for err in result.errors:
            report.add(
                QuarantineItem(
                    index=err.index,
                    name=err.name,
                    stage=err.stage,
                    code=err.code,
                    message=err.message,
                    digest=err.digest,
                )
            )
        assert report.by_stage() == {"validate": 1}
        path = report.write(tmp_path / "quarantine")
        data = json.loads(open(path).read())
        assert data["items"][0]["code"] == "mesh.nonfinite_vertices"
        assert "nan_vertex" in report.summary()


class TestWorkerTimeout:
    def test_hung_worker_terminated_and_retried(self):
        feature = register_sleeping_extractor()
        pipeline = FeaturePipeline(
            feature_names=["geometric_params", feature],
            voxel_resolution=RES,
        )
        par = ParallelPipeline(pipeline, workers=2, task_timeout=2.0, retries=1)
        start = time.monotonic()
        outcomes = par.extract_batch([good_mesh(), hanging_mesh(), good_mesh(1.5)])
        elapsed = time.monotonic() - start
        assert elapsed < 30, "timeout pool must not wait out the hang"
        assert outcomes[0].ok and outcomes[2].ok
        hung = outcomes[1]
        assert not hung.ok
        assert hung.failure.code == "extract.timeout"
        assert hung.attempts == 2  # one retry on a fresh worker
        assert "timed out" in hung.error

    def test_timeout_insert_reports_not_deadlocks(self):
        feature = register_sleeping_extractor()
        pipeline = FeaturePipeline(
            feature_names=["geometric_params", feature],
            voxel_resolution=RES,
        )
        db = ShapeDatabase(pipeline)
        result = db.insert_meshes(
            [good_mesh(), hanging_mesh()],
            workers=2,
            timeout=2.0,
            retries=0,
            degraded=False,
        )
        assert result.shape_ids == [1, None]
        assert result.errors[0].code == "extract.timeout"
        assert result.errors[0].stage == "extract"

    def test_deterministic_failures_not_retried(self):
        # A flat mesh fails extraction identically every attempt; the
        # retry budget must not be burned re-running it.
        from .faults import flat_mesh

        pipeline = FeaturePipeline(voxel_resolution=RES)
        par = ParallelPipeline(pipeline, workers=1, task_timeout=30.0, retries=2)
        outcomes = par.extract_batch([flat_mesh()])
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 1
        assert "volume" in outcomes[0].error


class TestWorkerCrash:
    def test_worker_crash_without_timeout_keeps_batch(self):
        # A worker dying mid-task (segfault, OOM kill) costs that task
        # its attempts, never the batch -- with or without a deadline.
        feature = register_crashing_extractor()
        pipeline = FeaturePipeline(
            feature_names=["geometric_params", feature],
            voxel_resolution=RES,
        )
        retries = 1
        with ParallelPipeline(pipeline, workers=2, retries=retries) as par:
            outcomes = par.extract_batch(
                [good_mesh(), hanging_mesh(), good_mesh(1.5)]
            )
        assert outcomes[0].ok and outcomes[2].ok
        crashed = outcomes[1]
        assert not crashed.ok
        assert crashed.failure.code == "extract.worker_crash"
        assert crashed.attempts == 1 + retries


class TestDegradedExtraction:
    def test_skeleton_failure_keeps_geometry_features(self, monkeypatch):
        import repro.features.base as base

        def broken_thin(voxels):
            raise SkeletonizationError(
                "injected thinning failure", code="skeleton.no_convergence"
            )

        monkeypatch.setattr(base, "thin", broken_thin)
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes([good_mesh()], workers=0)
        assert result.shape_ids == [1]
        assert result.degraded_ids == [1]
        record = db.get(1)
        assert record.is_degraded()
        assert sorted(record.features) == [
            "geometric_params",
            "moment_invariants",
            "principal_moments",
        ]
        assert record.metadata["missing.eigenvalues"] == "skeleton.no_convergence"
        assert "1 degraded" in result.summary()

    def test_degraded_disabled_rejects_shape(self, monkeypatch):
        import repro.features.base as base

        def broken_thin(voxels):
            raise SkeletonizationError("injected", code="skeleton.no_convergence")

        monkeypatch.setattr(base, "thin", broken_thin)
        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes([good_mesh()], workers=0, degraded=False)
        assert result.shape_ids == [None]
        assert result.errors[0].stage == "skeletonize"

    def test_total_failure_is_error_not_degraded(self):
        from .faults import flat_mesh

        db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
        result = db.insert_meshes([flat_mesh()])
        assert result.shape_ids == [None]
        assert result.degraded_ids == []


@pytest.fixture
def saved_db(tmp_path):
    db = ShapeDatabase(FeaturePipeline(voxel_resolution=RES))
    result = db.insert_meshes(
        [good_mesh(1.0), good_mesh(1.5), good_mesh(2.0)],
        names=["a", "b", "c"],
    )
    assert not result.errors
    path = tmp_path / "db"
    db.save(path)
    return path


class TestCorruptionSalvage:
    def test_clean_directory_verifies(self, saved_db):
        assert verify_database(saved_db) == {}

    def test_flipped_mesh_byte_detected_strict(self, saved_db):
        flip_byte(saved_db / "meshes" / "2.off")
        assert "meshes/2.off" in verify_database(saved_db)
        with pytest.raises(StorageError, match="corrupt mesh"):
            ShapeDatabase.load(saved_db)

    def test_flipped_mesh_byte_salvaged(self, saved_db):
        flip_byte(saved_db / "meshes" / "2.off")
        db = ShapeDatabase.load(saved_db, strict=False)
        assert sorted(r.name for r in db) == ["a", "c"]
        assert [d.shape_id for d in db.dropped_records] == [2]
        assert "checksum mismatch" in db.dropped_records[0].reason

    def test_flipped_features_byte_detected_strict(self, saved_db):
        flip_byte(saved_db / "features.npz")
        with pytest.raises(StorageError, match="integrity"):
            ShapeDatabase.load(saved_db)

    def test_flipped_features_salvages_other_records(self, saved_db):
        # npz members decompress lazily, so one flipped byte corrupts
        # one member: at least the untouched records must survive.
        flip_byte(saved_db / "features.npz")
        records, dropped = salvage_records(saved_db)
        assert len(records) + len(dropped) == 3
        assert len(records) >= 1

    def test_deleted_mesh_file_salvaged(self, saved_db):
        os.unlink(saved_db / "meshes" / "1.off")
        db = ShapeDatabase.load(saved_db, strict=False)
        assert sorted(r.name for r in db) == ["b", "c"]

    def test_strict_error_mentions_salvage(self, saved_db):
        flip_byte(saved_db / "features.npz")
        with pytest.raises(StorageError, match="strict=False"):
            ShapeDatabase.load(saved_db)

    def test_save_is_atomic_swap(self, saved_db, tmp_path):
        # Re-saving over a live directory must never leave tmp/stale
        # siblings or a half-written database.
        db = ShapeDatabase.load(saved_db)
        db.save(saved_db)
        assert verify_database(saved_db) == {}
        siblings = [
            name
            for name in os.listdir(saved_db.parent)
            if "tmp" in name or "stale" in name
        ]
        assert siblings == []


class TestClassification:
    def test_foreign_exception_classified(self):
        info = classify_exception(ZeroDivisionError("boom"))
        assert info.stage == "extract"
        assert info.code == "extract.ZeroDivisionError"
        assert "boom" in info.message

    def test_taxonomy_exception_classified(self):
        try:
            raise SkeletonizationError("x", code="skeleton.no_convergence")
        except ReproError as exc:
            info = classify_exception(exc)
        assert info.stage == "skeletonize"
        assert info.code == "skeleton.no_convergence"
        assert info.digest


class TestBuildDbCli:
    def _make_input_dir(self, tmp_path):
        from repro.geometry.io_off import save_off

        src = tmp_path / "input"
        src.mkdir()
        save_off(good_mesh(1.0), src / "a.off")
        save_off(good_mesh(1.5), src / "b.off")
        write_broken_off(src / "broken.off")
        save_off(zero_area_mesh(), src / "degen.off")
        return src

    def test_on_error_fail_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        src = self._make_input_dir(tmp_path)
        code = main(
            [
                "build-db",
                str(tmp_path / "db"),
                "--from-dir",
                str(src),
                "--resolution",
                str(RES),
            ]
        )
        assert code == 3

    def test_on_error_skip_builds_good_subset(self, tmp_path, capsys):
        from repro.cli import main

        src = self._make_input_dir(tmp_path)
        code = main(
            [
                "build-db",
                str(tmp_path / "db"),
                "--from-dir",
                str(src),
                "--on-error",
                "skip",
                "--resolution",
                str(RES),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built 2 shapes" in out
        assert "quarantine: 2 input(s) rejected" in out
        db = ShapeDatabase.load(tmp_path / "db")
        assert sorted(r.name for r in db) == ["a", "b"]

    def test_on_error_quarantine_dir_exits_5_with_report(self, tmp_path, capsys):
        from repro.cli import main
        from repro.robust.quarantine import REPORT_NAME

        src = self._make_input_dir(tmp_path)
        qdir = tmp_path / "quarantine"
        code = main(
            [
                "build-db",
                str(tmp_path / "db"),
                "--from-dir",
                str(src),
                "--on-error",
                "quarantine-dir",
                "--quarantine-dir",
                str(qdir),
                "--resolution",
                str(RES),
            ]
        )
        assert code == 5
        report = json.loads((qdir / REPORT_NAME).read_text())
        assert {item["name"] for item in report["items"]} == {
            "broken.off",
            "degen",
        }
        codes = {item["code"] for item in report["items"]}
        assert "mesh.parse_error" in codes
        assert "mesh.degenerate_faces" in codes
        # The offending raw file is copied next to the report.
        assert (qdir / "broken.off").exists()
        db = ShapeDatabase.load(tmp_path / "db")
        assert len(db) == 2

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        from repro import cli

        def boom(args):
            raise RuntimeError("injected internal failure")

        # build_parser resolves the handler by name at call time, so
        # patching the module global reroutes `stats` to the bomb.
        monkeypatch.setattr(cli, "_cmd_stats", boom)
        code = cli.main(["stats"])
        assert code == 4
        assert "internal error" in capsys.readouterr().err

    def test_data_error_exits_3(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["query", str(tmp_path / "missing_db"), "nope.off"])
        assert code == 3
        assert "storage" in capsys.readouterr().err