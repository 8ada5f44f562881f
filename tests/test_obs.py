"""The repro.obs metrics layer: registry unit tests + pipeline integration."""

import time

import pytest

from repro import obs
from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture(autouse=True)
def clean_default_registry():
    """Keep the process-wide registry enabled and empty around each test."""
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.set_enabled(True)
    obs.reset()


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_identity_per_name(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_reset(self, registry):
        registry.counter("a").inc(3)
        registry.reset()
        assert registry.counter("a").value == 0

    def test_inc_by_name_convenience(self, registry):
        registry.inc("a")
        registry.inc("a", 2)
        assert registry.counter("a").value == 3


class TestGauge:
    def test_set_and_value(self, registry):
        g = registry.gauge("size")
        g.set(7)
        assert g.value == 7.0
        g.set(3)
        assert g.value == 3.0

    def test_reset(self, registry):
        registry.gauge("size").set(9)
        registry.reset()
        assert registry.gauge("size").value == 0.0


class TestHistogram:
    def test_aggregates_exact(self, registry):
        h = registry.histogram("lat")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.mean == 4.0
        assert h.min == 1.0
        assert h.max == 10.0

    def test_percentiles(self, registry):
        h = registry.histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)

    def test_percentile_empty_and_single(self, registry):
        h = registry.histogram("lat")
        assert h.percentile(50) == 0.0
        h.observe(4.2)
        assert h.percentile(99) == 4.2

    def test_percentile_validates_range(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("lat").percentile(101)

    def test_reservoir_bounded(self, registry):
        h = registry.histogram("lat", reservoir=8)
        for v in range(100):
            h.observe(float(v))
        assert h.count == 100  # aggregates keep counting
        assert len(h._ring) == 8  # ring stays bounded
        assert h.percentile(0) >= 92.0  # only recent values remain

    def test_summary_keys(self, registry):
        h = registry.histogram("lat")
        h.observe(1.0)
        summary = h.summary()
        assert set(summary) == {
            "count", "total", "mean", "min", "max", "p50", "p90", "p99", "unit"
        }


class TestTimed:
    def test_context_manager_records(self, registry):
        with registry.timed("section"):
            time.sleep(0.001)
        h = registry.histogram("section")
        assert h.count == 1
        assert h.total >= 0.001

    def test_decorator_records_per_call(self, registry):
        @registry.timed("fn")
        def fn(x):
            return x * 2

        assert fn(3) == 6
        assert fn(4) == 8
        assert registry.histogram("fn").count == 2

    def test_decorator_records_on_exception(self, registry):
        @registry.timed("boom")
        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            boom()
        assert registry.histogram("boom").count == 1

    def test_module_level_timed_uses_default_registry(self):
        with obs.timed("module.section"):
            pass
        assert obs.get_registry().histogram("module.section").count == 1


class TestDisabled:
    def test_counter_noop(self, registry):
        registry.disable()
        registry.counter("a").inc(5)
        assert registry.counter("a").value == 0

    def test_gauge_noop(self, registry):
        registry.disable()
        registry.gauge("g").set(3)
        assert registry.gauge("g").value == 0.0

    def test_histogram_noop(self, registry):
        registry.disable()
        registry.histogram("h").observe(1.0)
        assert registry.histogram("h").count == 0

    def test_timed_noop_then_reenable(self, registry):
        registry.disable()
        with registry.timed("s"):
            pass
        assert registry.histogram("s").count == 0
        registry.enable()
        with registry.timed("s"):
            pass
        assert registry.histogram("s").count == 1

    def test_decorator_honors_toggle_at_call_time(self, registry):
        @registry.timed("fn")
        def fn():
            return 1

        registry.disable()
        fn()
        assert registry.histogram("fn").count == 0
        registry.enable()
        fn()
        assert registry.histogram("fn").count == 1

    def test_values_survive_disable(self, registry):
        registry.counter("a").inc(2)
        registry.disable()
        assert registry.counter("a").value == 2


class TestSnapshotAndTable:
    def test_snapshot_structure(self, registry):
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"c": 1}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert isinstance(snap["derived"], dict)

    def test_derived_cache_hit_rate(self, registry):
        registry.inc("cache.hits", 3)
        registry.inc("cache.misses", 1)
        assert registry.snapshot()["derived"]["cache.hit_rate"] == 0.75

    def test_derived_per_query_ratios(self, registry):
        registry.inc("search.queries", 2)
        registry.inc("search.candidates_examined", 10)
        derived = registry.snapshot()["derived"]
        assert derived["search.candidates_per_query"] == 5.0

    def test_render_table_empty(self, registry):
        assert registry.render_table() == "(no metrics recorded)"

    def test_render_table_sections(self, registry):
        registry.histogram("pipeline.voxelize").observe(0.01)
        registry.inc("cache.hits")
        registry.gauge("cache.size").set(4)
        table = registry.render_table()
        assert "pipeline.voxelize" in table
        assert "cache.hits" in table
        assert "cache.size" in table
        assert "ms" in table

    def test_registries_are_independent(self, registry):
        registry.counter("only.here").inc()
        assert "only.here" not in obs.snapshot()["counters"]


class TestSystemIntegration:
    """One real insert + query populates the documented metric names."""

    # Names OBSERVABILITY.md promises after an insert + knn search
    # with the feature cache on and the paper's four feature vectors.
    EXPECTED_HISTOGRAMS = {
        "pipeline.extract",
        "pipeline.normalize",
        "pipeline.voxelize",
        "pipeline.skeletonize",
        "pipeline.skeletal_graph",
        "pipeline.feature.eigenvalues",
        "pipeline.feature.moment_invariants",
        "search.knn",
        "system.insert",
        "system.query",
    }
    EXPECTED_COUNTERS = {
        "cache.hits",
        "cache.misses",
        "search.queries",
        "search.candidates_examined",
    }

    @pytest.fixture
    def stats(self):
        from repro import SystemConfig, ThreeDESS
        from repro.geometry import box, cylinder

        system = ThreeDESS(
            SystemConfig(voxel_resolution=10, feature_cache=True)
        )
        system.reset_stats()
        system.insert(box((2, 3, 4)), name="b1", group="boxes")
        system.insert(box((2, 3, 4)), name="b1_copy", group="boxes")
        system.insert(cylinder(1, 4, 16), name="c1")
        from repro.search.api import SearchRequest

        system.search(SearchRequest(query=box((2.1, 3, 4)), mode="knn", k=2))
        return system.stats()

    def test_histogram_names_populated(self, stats):
        populated = {
            name for name, s in stats["histograms"].items() if s["count"] > 0
        }
        assert self.EXPECTED_HISTOGRAMS <= populated

    def test_counter_names_populated(self, stats):
        populated = {name for name, v in stats["counters"].items() if v > 0}
        assert self.EXPECTED_COUNTERS <= populated

    def test_cache_hit_recorded(self, stats):
        assert stats["counters"]["cache.hits"] == 1
        assert stats["derived"]["cache.hit_rate"] == pytest.approx(0.25)

    def test_stage_timers_fire_once_per_extraction(self, stats):
        # 3 extractions (duplicate was a cache hit): 2 inserts + 1 query mesh.
        assert stats["histograms"]["pipeline.normalize"]["count"] == 3
        assert stats["histograms"]["pipeline.extract"]["count"] == 3

    def test_table_covers_acceptance_surface(self, stats):
        table = obs.render_table()
        assert "pipeline.skeletonize" in table
        assert "search.queries" in table
        assert "cache.hit_rate" in table

    def test_metrics_disabled_records_nothing(self):
        from repro import SystemConfig, ThreeDESS
        from repro.geometry import box

        system = ThreeDESS(
            SystemConfig(voxel_resolution=10, metrics_enabled=False)
        )
        system.reset_stats()
        system.insert(box((2, 3, 4)))
        snap = system.stats()
        assert snap["enabled"] is False
        assert all(v == 0 for v in snap["counters"].values())
        assert all(s["count"] == 0 for s in snap["histograms"].values())

    def test_multistep_metrics(self):
        from repro import SystemConfig, ThreeDESS
        from repro.geometry import box
        from repro.search.api import SearchRequest

        system = ThreeDESS(SystemConfig(voxel_resolution=10))
        for dx in (0.0, 0.2, 0.4, 0.6):
            system.insert(box((2 + dx, 3, 4)), group="boxes")
        system.reset_stats()
        system.search(
            SearchRequest(
                query=1,
                mode="multi_step",
                steps=(("principal_moments", 3), ("geometric_params", 2)),
            )
        )
        # The multi_step shim now runs as a cascade, so the cascade
        # metrics (not the legacy search.multistep ones) account for it.
        snap = system.stats()
        assert snap["histograms"]["cascade.run"]["count"] == 1
        assert snap["counters"]["cascade.queries"] == 1
        assert snap["counters"]["cascade.exact_scans"] >= 1
        assert snap["histograms"]["search.rerank"]["count"] == 1


class TestCliStats:
    def test_stats_subcommand_prints_table(self, capsys):
        from repro.cli import main

        code = main(["stats", "--resolution", "10", "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pipeline.skeletonize" in out
        assert "cache.hits" in out
        assert "search.queries" in out
        assert "cache.hit_rate" in out

    def test_query_profile_flag(self, tmp_path, capsys):
        from repro import SystemConfig, ThreeDESS
        from repro.cli import main
        from repro.geometry import box, save_mesh

        sys3d = ThreeDESS(SystemConfig(voxel_resolution=10))
        sys3d.insert(box((2, 3, 4)), name="b1", group="boxes")
        sys3d.insert(box((2.2, 3.1, 3.8)), name="b2", group="boxes")
        sys3d.save(tmp_path / "db")
        mesh_path = tmp_path / "query.off"
        save_mesh(box((2, 3, 4)), mesh_path)

        code = main(
            ["query", str(tmp_path / "db"), str(mesh_path), "-k", "1", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "b1" in out  # the normal query output is intact
        assert "search.knn" in out
        # The default feature (principal_moments) only needs normalization,
        # so the extraction timers stop at that stage.
        assert "pipeline.normalize" in out
