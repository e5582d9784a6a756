#!/usr/bin/env python3
"""CI fault-smoke: the self-healing loop must survive a canned plan.

Trains a tiny-budget Rafiki, then drives one tenant on a
``MiddlewareScheduler`` through a fixed FaultPlan — a node crash plus a disk slowdown landing in the
same window as a regime-shift reconfiguration, and transient
search/push faults — with every guardrail enabled.  The job fails
unless:

* the run completes with zero unhandled exceptions,
* the canary fired at least one ``controller.rollback``,
* replaying the identical plan + seed reproduces the identical
  event sequence.

    PYTHONPATH=src python scripts/fault_smoke.py
"""

from __future__ import annotations

import sys
import traceback

from repro import (
    CASSANDRA_KEY_PARAMETERS,
    CassandraLike,
    EventBus,
    FaultPlan,
    HysteresisPolicy,
    MiddlewareScheduler,
    OraclePolicy,
    RafikiPipeline,
    RetryPolicy,
    TenantSpec,
    mgrast_workload,
)
from repro.bench.ycsb import YCSBBenchmark
from repro.faults import DiskSlowdown, NodeCrash, TransientFault
from repro.ml.ensemble import EnsembleConfig

RR_SERIES = [0.2, 0.2, 0.2, 0.2, 0.9, 0.9, 0.9, 0.9]

PLAN = FaultPlan(
    node_crashes=(NodeCrash(window=4, node=1, recover_window=6),),
    disk_slowdowns=(DiskSlowdown(window=4, node=2, factor=3.0, end_window=6),),
    transient_faults=(
        TransientFault(kind="search", window=4, failures=1),
        TransientFault(kind="push", window=0, failures=1),
    ),
)


def train_rafiki(cassandra):
    pipeline = RafikiPipeline(
        cassandra,
        mgrast_workload(0.5),
        benchmark=YCSBBenchmark(cassandra, run_seconds=30),
        ensemble_config=EnsembleConfig(n_networks=4, max_epochs=60),
        n_workloads=5,
        n_configurations=8,
        n_faulty=2,
        seed=11,
    )
    rafiki, _ = pipeline.run(key_parameters=CASSANDRA_KEY_PARAMETERS)
    return rafiki


def one_run(cassandra, rafiki):
    """One guarded one-tenant pass; returns (run, tenant event trace).

    The trace keeps the tenant's own events with the ``tenant.smoke.``
    namespace stripped.
    """
    bus = EventBus()
    trace = []
    prefix = "tenant.smoke."
    bus.subscribe(
        lambda e: trace.append(
            (e.topic[len(prefix):], e.message, tuple(sorted(e.payload.items())))
        ),
        topic="tenant.smoke",
    )
    scheduler = MiddlewareScheduler(cassandra, rafiki, events=bus)
    scheduler.add_tenant(
        TenantSpec(
            tenant_id="smoke",
            rr_series=RR_SERIES,
            base_workload=mgrast_workload(0.5),
            policy=HysteresisPolicy(OraclePolicy(), min_change=0.1),
            window_seconds=60,
            fault_plan=PLAN,
            n_nodes=4,
            replication_factor=2,
            retry=RetryPolicy(max_attempts=3, backoff_s=2.0),
            canary_margin=0.2,
            canary_std_factor=0.5,
            seed=7,
            load=False,
        )
    )
    return scheduler.run()["smoke"], trace


def main() -> int:
    failures = []
    try:
        cassandra = CassandraLike()
        rafiki = train_rafiki(cassandra)
        run, trace = one_run(cassandra, rafiki)
        rerun, retrace = one_run(cassandra, rafiki)
    except Exception:
        traceback.print_exc()
        print("FAULT SMOKE: unhandled exception", file=sys.stderr)
        return 1

    if len(run.events) != len(RR_SERIES):
        failures.append(
            f"run truncated: {len(run.events)}/{len(RR_SERIES)} windows"
        )
    if run.rollback_count < 1:
        failures.append("canary never rolled back")
    rollback_events = [t for t in trace if t[0] == "controller.rollback"]
    if not rollback_events:
        failures.append("no controller.rollback event on the bus")
    retry_events = [t for t in trace if t[0] == "controller.retry"]
    if not retry_events:
        failures.append("no controller.retry event (retry path never ran)")
    if trace != retrace:
        failures.append("event sequence not reproducible across reruns")

    print(f"windows:          {len(run.events)}")
    print(f"mean throughput:  {run.mean_throughput:,.0f} ops/s")
    print(f"reconfigurations: {run.reconfiguration_count}")
    print(f"rollbacks:        {run.rollback_count}")
    print(f"retries:          {len(retry_events)}")
    print(f"events on bus:    {len(trace)} (rerun identical: {trace == retrace})")
    if failures:
        for failure in failures:
            print(f"FAULT SMOKE FAILED: {failure}", file=sys.stderr)
        return 1
    print("fault smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
