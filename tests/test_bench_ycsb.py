import pytest

from repro.bench.ycsb import YCSBBenchmark
from repro.datastore import CassandraLike
from repro.errors import WorkloadError
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture
def small_workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=1_000_000, krd_mean_ops=50_000)


class TestAnalyticRun:
    def test_produces_result(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=60)
        result = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        assert result.mean_throughput > 0
        assert result.duration_seconds == 60
        assert result.workload is small_workload

    def test_series_buckets_cover_run(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=60, report_interval=10.0)
        result = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        assert 5 <= len(result.series) <= 7

    def test_metadata_attached(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        result = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        assert "sstable_count" in result.metadata
        assert "cache_hit_ratio" in result.metadata

    def test_fresh_instance_per_run(self, cassandra, small_workload):
        """The Docker-reset property: repeated runs are independent."""
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        a = bench.run(cassandra.default_configuration(), small_workload, seed=2)
        b = bench.run(cassandra.default_configuration(), small_workload, seed=2)
        assert a.mean_throughput == pytest.approx(b.mean_throughput)

    def test_seed_changes_result(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        a = bench.run(cassandra.default_configuration(), small_workload, seed=1)
        b = bench.run(cassandra.default_configuration(), small_workload, seed=2)
        assert a.mean_throughput != b.mean_throughput

    def test_skip_load(self, cassandra, small_workload):
        bench = YCSBBenchmark(cassandra, run_seconds=30)
        result = bench.run(
            cassandra.default_configuration(), small_workload, seed=1, load=False
        )
        assert result.metadata["sstable_count"] <= 2

    def test_invalid_durations(self, cassandra):
        with pytest.raises(WorkloadError):
            YCSBBenchmark(cassandra, run_seconds=0)
        with pytest.raises(WorkloadError):
            YCSBBenchmark(cassandra, step_seconds=0)


class TestEngineRun:
    def test_engine_benchmark_runs(self, cassandra):
        wl = WorkloadSpec(read_ratio=0.5, n_keys=5_000, krd_mean_ops=100.0, value_bytes=64)
        bench = YCSBBenchmark(cassandra)
        result = bench.run_engine(
            cassandra.default_configuration(), wl, n_ops=2_000, load_keys=1_000, seed=3
        )
        assert result.mean_throughput > 0
        assert result.duration_seconds > 0

    def test_engine_benchmark_deterministic(self, cassandra):
        wl = WorkloadSpec(read_ratio=0.3, n_keys=5_000, krd_mean_ops=100.0, value_bytes=64)
        bench = YCSBBenchmark(cassandra)
        a = bench.run_engine(cassandra.default_configuration(), wl, n_ops=1_000, load_keys=500, seed=3)
        b = bench.run_engine(cassandra.default_configuration(), wl, n_ops=1_000, load_keys=500, seed=3)
        assert a.mean_throughput == pytest.approx(b.mean_throughput)
