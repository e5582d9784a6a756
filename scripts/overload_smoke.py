#!/usr/bin/env python3
"""CI overload-smoke: the guard layer must protect victims from a hog.

Four tenants share one modeled cluster: three small "victim" tenants
with throughput-floor SLOs and one 4-node "hostile" tenant whose demand
pushes the fleet past the shared capacity.  The fleet runs twice —
unguarded (no admission control: the ledger models the overload and
every window scales down proportionally) and guarded (priority shedding
on) — and the job fails unless:

* both runs complete with zero unhandled exceptions,
* the guarded run sheds the hostile tenant (``guard.shed`` events) and
  opens at least one circuit breaker on it,
* no victim is ever shed, and every victim's SLO attainment is
  *strictly better* guarded than unguarded,
* rerunning the guarded fleet reproduces the identical event sequence,
* the guarded fleet sharded across ``workers=2`` reproduces the
  identical event sequence (shedding and breakers are deterministic
  under the sharded serve path too).

    PYTHONPATH=src python scripts/overload_smoke.py
"""

from __future__ import annotations

import sys
import traceback

from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.middleware import (
    GuardSpec,
    MiddlewareScheduler,
    SloSpec,
    TenantSpec,
)
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)
N_WINDOWS = 12
VICTIMS = ("assembly", "annotation", "binning")


class TableRafiki:
    """Deterministic table-fill recommender (picklable for workers)."""

    def __init__(self, datastore):
        self.datastore = datastore
        self._cache = {}

    def recommend(self, read_ratio, use_cache=True):
        key = round(read_ratio, 2)
        if key not in self._cache:
            self._cache[key] = OptimizationResult(
                configuration=self.datastore.default_configuration(),
                predicted_throughput=0.0,
                evaluations=1,
                equivalent_wall_seconds=0.0,
                strategy="table",
            )
        return self._cache[key]


def fleet(victim_floor):
    """Three guarded victims plus one oversized hostile tenant."""
    slo = SloSpec(throughput_floor=victim_floor, window_span=6, error_budget=0.2)
    specs = [
        TenantSpec(
            tenant_id=tenant_id,
            rr_series=[rr] * N_WINDOWS,
            base_workload=WORKLOAD,
            seed=i + 1,
            window_seconds=30,
            load=False,
            priority=0,
            slo=slo,
        )
        for i, (tenant_id, rr) in enumerate(
            zip(VICTIMS, (0.3, 0.6, 0.45))
        )
    ]
    specs.append(
        TenantSpec(
            tenant_id="hostile",
            rr_series=[0.5] * N_WINDOWS,
            base_workload=WORKLOAD,
            seed=9,
            window_seconds=30,
            load=False,
            n_nodes=4,
            priority=5,
            slo=SloSpec(
                throughput_floor=victim_floor, window_span=6, error_budget=0.2
            ),
            guard=GuardSpec(breaker_failures=3, breaker_cooldown=3),
        )
    )
    return specs


def run_fleet(capacity, victim_floor, shedding, workers=None):
    """One campaign; returns (scheduler, per-tenant summary, event trace)."""
    events = EventBus()
    trace = []

    def record(e):
        trace.append((e.topic, e.message, tuple(sorted(e.payload.items()))))

    events.subscribe(record)
    cassandra = CassandraLike()
    scheduler = MiddlewareScheduler(
        cassandra,
        TableRafiki(cassandra),
        events=events,
        workers=workers,
        cluster_capacity=capacity,
        shedding=shedding,
    )
    for spec in fleet(victim_floor):
        scheduler.add_tenant(spec)
    results = scheduler.run()
    summary = {
        tenant_id: [
            (e.window_index, e.mean_throughput, e.shed) for e in run.events
        ]
        for tenant_id, run in results.items()
    }
    return scheduler, summary, trace


def slo_attainment(scheduler, tenant_id):
    return scheduler.guard_report()[tenant_id]["slo"]["attainment"]


def main() -> int:
    failures = []
    try:
        # Probe run: size the capacity between victims-only demand and
        # full-fleet demand, and the victims' floor below their healthy
        # throughput, so only the hostile tenant forces an overload.
        _, probe, _ = run_fleet(None, 1.0, shedding=False)
        per_tenant = {t: probe[t][1][1] for t in probe}
        victim_floor = min(per_tenant[v] for v in VICTIMS) * 0.8
        capacity = sum(per_tenant.values()) * 0.7

        unguarded_sch, unguarded, _ = run_fleet(
            capacity, victim_floor, shedding=False
        )
        guarded_sch, guarded, trace = run_fleet(
            capacity, victim_floor, shedding=True
        )
        _, rerun, retrace = run_fleet(capacity, victim_floor, shedding=True)
        _, sharded, shtrace = run_fleet(
            capacity, victim_floor, shedding=True, workers=2
        )
    except Exception:
        traceback.print_exc()
        print("OVERLOAD SMOKE: unhandled exception", file=sys.stderr)
        return 1

    report = guarded_sch.guard_report()
    hostile_sheds = report["hostile"]["sheds"]
    hostile_opens = sum(
        b["opens"] for b in report["hostile"]["breakers"].values()
    )
    if hostile_sheds < 1:
        failures.append("hostile tenant was never shed")
    if hostile_opens < 1:
        failures.append("no circuit breaker opened on the hostile tenant")
    for victim in VICTIMS:
        if report[victim]["sheds"] > 0:
            failures.append(f"victim {victim!r} was shed")
        before = slo_attainment(unguarded_sch, victim)
        after = slo_attainment(guarded_sch, victim)
        if not after > before:
            failures.append(
                f"victim {victim!r} SLO attainment did not improve: "
                f"{before:.1%} unguarded vs {after:.1%} guarded"
            )
    if (guarded, trace) != (rerun, retrace):
        failures.append("guarded run not reproducible across reruns")
    if (guarded, trace) != (sharded, shtrace):
        failures.append("sharded guarded run diverges from serial")

    shed_events = [t for t in trace if t[0] == "guard.shed"]
    print(f"capacity:         {capacity:,.0f} ops/s "
          f"(victim floor {victim_floor:,.0f} ops/s)")
    print(f"hostile sheds:    {hostile_sheds} ({len(shed_events)} guard.shed events)")
    print(f"hostile breakers: {hostile_opens} open(s)")
    for victim in VICTIMS:
        print(
            f"victim {victim:<12} SLO {slo_attainment(unguarded_sch, victim):.1%}"
            f" unguarded -> {slo_attainment(guarded_sch, victim):.1%} guarded"
        )
    print(f"events on bus:    {len(trace)} "
          f"(rerun identical: {trace == retrace}, "
          f"sharded identical: {trace == shtrace})")
    if failures:
        for failure in failures:
            print(f"OVERLOAD SMOKE FAILED: {failure}", file=sys.stderr)
        return 1
    print("overload smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
