"""The online loop on one tenant: when it reconfigures and what it costs."""

import pytest

from repro.core.policies import HysteresisPolicy, OraclePolicy
from repro.datastore import CassandraLike
from repro.errors import SearchError
from repro.workload.spec import WorkloadSpec

from tests.conftest import run_one_tenant


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=2_000_000)


def hysteresis(min_change):
    return HysteresisPolicy(OraclePolicy(), min_change=min_change)


class FakeRafiki:
    """Recommends leveled+big-cache for reads, defaults for writes."""

    def __init__(self, datastore):
        self.datastore = datastore
        self.calls = []

    def recommend(self, read_ratio, use_cache=True):
        self.calls.append(read_ratio)
        from repro.core.search import OptimizationResult

        if read_ratio >= 0.5:
            config = self.datastore.space.configuration(
                compaction_method="LeveledCompactionStrategy",
                file_cache_size_in_mb=2048,
            )
        else:
            config = self.datastore.default_configuration()
        return OptimizationResult(
            configuration=config,
            predicted_throughput=0.0,
            evaluations=1,
            equivalent_wall_seconds=0.0,
            strategy="fake",
        )


class TestOnlineController:
    def test_empty_series_rejected(self, cassandra, workload):
        with pytest.raises(SearchError):
            run_one_tenant(cassandra, None, workload, [], window_seconds=60)

    def test_baseline_never_reconfigures(self, cassandra, workload):
        run = run_one_tenant(
            cassandra, None, workload, [0.1, 0.9, 0.5], window_seconds=60, load=False
        )
        assert run.reconfiguration_count == 0
        assert len(run.events) == 3

    def test_reconfigures_on_regime_change(self, cassandra, workload):
        rafiki = FakeRafiki(cassandra)
        run = run_one_tenant(
            cassandra, rafiki, workload, [0.1, 0.1, 0.9, 0.9],
            window_seconds=60, policy=hysteresis(0.1), load=False,
        )
        # First window always consults; then only the 0.1 -> 0.9 jump.
        assert run.reconfiguration_count >= 1
        assert any(e.reconfigured for e in run.events[2:])

    def test_small_wobble_ignored(self, cassandra, workload):
        rafiki = FakeRafiki(cassandra)
        run_one_tenant(
            cassandra, rafiki, workload, [0.50, 0.55, 0.52, 0.58],
            window_seconds=60, policy=hysteresis(0.2), load=False,
        )
        assert len(rafiki.calls) == 1  # only the first window

    def test_events_record_throughput(self, cassandra, workload):
        run = run_one_tenant(
            cassandra, None, workload, [0.5, 0.5], window_seconds=60, load=False
        )
        assert all(e.mean_throughput > 0 for e in run.events)
        assert run.mean_throughput > 0

    def test_rr_clipped(self, cassandra, workload):
        run = run_one_tenant(
            cassandra, None, workload, [1.4, -0.2], window_seconds=60, load=False
        )
        assert run.events[0].read_ratio == 1.0
        assert run.events[1].read_ratio == 0.0

    def test_reconfiguration_penalty_reduces_window(self, cassandra, workload):
        run_slow = run_one_tenant(
            cassandra, FakeRafiki(cassandra), workload, [0.9], window_seconds=60,
            reconfiguration_penalty_s=30.0, seed=7, load=False,
        )
        run_fast = run_one_tenant(
            cassandra, FakeRafiki(cassandra), workload, [0.9], window_seconds=60,
            reconfiguration_penalty_s=0.0, seed=7, load=False,
        )
        assert run_slow.events[0].mean_throughput < run_fast.events[0].mean_throughput
