"""A one-tenant scheduler reproduces the frozen single-tenant oracle.

``tests/fixtures/controller_oracle.json`` holds what the retired
single-tenant controller produced for the three scenarios below, on the
same seeds: every window's read ratio and mean throughput as
``float.hex``, its flags and non-default configuration knobs, and the
``(topic, message)`` event sequence.  A ``MiddlewareScheduler`` hosting
exactly one tenant must reproduce it bit for bit; its tenant events
carry the ``tenant.<id>.`` prefix, which is stripped before comparing,
and its closing ``actuate.teardown`` event is additive.
"""

import json
import pathlib

import pytest

from repro.core.policies import HysteresisPolicy, OraclePolicy
from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.faults import FaultPlan
from repro.middleware import MiddlewareScheduler, TenantSpec
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec

SERIES = [0.1, 0.1, 0.9, 0.9, 0.3, 0.8, 0.8, 0.2]

ORACLE = json.loads(
    (pathlib.Path(__file__).parent / "fixtures" / "controller_oracle.json").read_text()
)


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=100_000)


class FakeRafiki:
    """Deterministic recommender with a canary-compatible surface."""

    def __init__(self, datastore):
        self.datastore = datastore
        self.calls = []

    def recommend(self, read_ratio, use_cache=True):
        self.calls.append(read_ratio)
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

    def predicted_mean_std(self, read_ratio, configuration):
        return 40_000.0 + 10_000.0 * read_ratio, 2_000.0


def run_middleware(cassandra, workload, **kwargs):
    events = EventBus()
    log = []
    events.subscribe(log.append)
    scheduler = MiddlewareScheduler(cassandra, FakeRafiki(cassandra), events=events)
    scheduler.add_tenant(
        TenantSpec(
            tenant_id="t0",
            rr_series=SERIES,
            base_workload=workload,
            policy=HysteresisPolicy(OraclePolicy(), min_change=0.08),
            window_seconds=60,
            seed=7,
            load=False,
            **kwargs,
        )
    )
    return scheduler.run()["t0"], log


def encode_value(value):
    return {"float": value.hex()} if isinstance(value, float) else value


def encode_run(run, log, tenant_id="t0"):
    """The run in the fixture's encoding; tenant events de-namespaced."""
    prefix = f"tenant.{tenant_id}."
    return {
        "windows": [
            {
                "window_index": e.window_index,
                "read_ratio": e.read_ratio.hex(),
                "reconfigured": e.reconfigured,
                "configuration": {
                    k: encode_value(v)
                    for k, v in sorted(e.configuration.non_default_items().items())
                },
                "mean_throughput": float(e.mean_throughput).hex(),
                "rolled_back": e.rolled_back,
                "degraded": e.degraded,
                "shed": e.shed,
                "quarantined": e.quarantined,
            }
            for e in run.events
        ],
        "mean_throughput": float(run.mean_throughput).hex(),
        "events": [
            [e.topic[len(prefix):], e.message]
            for e in log
            if e.topic.startswith(prefix)
            and e.topic != f"{prefix}actuate.teardown"
        ],
    }


def assert_matches_oracle(name, run, log):
    expected = ORACLE[name]
    got = encode_run(run, log)
    assert got["windows"] == expected["windows"]
    assert got["mean_throughput"] == expected["mean_throughput"]
    assert got["events"] == expected["events"]


class TestSingleTenantEquivalence:
    def test_plain_run_is_bit_identical(self, cassandra, workload):
        run, log = run_middleware(cassandra, workload)
        assert_matches_oracle("plain", run, log)

    def test_faulty_canaried_run_is_bit_identical(self, cassandra, workload):
        plan = FaultPlan.generate(
            seed=13,
            n_windows=len(SERIES),
            n_nodes=1,
            slowdown_probability=0.0,
            search_fault_probability=0.4,
            push_fault_probability=0.4,
        )
        assert not plan.is_empty  # the seed must actually exercise faults
        run, log = run_middleware(
            cassandra, workload, fault_plan=plan, canary_margin=0.05,
            canary_std_factor=0.0,
        )
        assert_matches_oracle("faulty_canaried", run, log)
        assert run.rollback_count >= 1

    def test_multinode_run_is_bit_identical(self, cassandra, workload):
        run, log = run_middleware(
            cassandra, workload, n_nodes=3, replication_factor=2
        )
        assert_matches_oracle("multinode", run, log)
