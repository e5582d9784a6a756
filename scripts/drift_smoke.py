#!/usr/bin/env python3
"""CI drift-smoke: verified actuation must detect, repair, and replay.

One 3-node tenant runs a 12-window campaign with rolling restarts and a
regime-switching recommender (its read-ratio series changes regime at
windows 4 and 8, so config pushes land exactly there).  A hand-written
fault plan injects:

* an ``ActuationFault`` at window 4 on node 1 — the push silently fails
  on that node (partial push), and
* a ``StaleRecovery`` at window 6 on node 2, rejoining at window 9 —
  the node misses the window-8 push and comes back on stale knobs.

The job fails unless:

* both drifts are detected within one window of becoming observable
  (the partial push in its own window; the stale rejoin in the rejoin
  window) via ``actuate.drift`` events,
* every detected drift is repaired within the configured repair budget
  (``actuate.reconciled`` in the same window) and the affected windows
  are quarantined,
* the faulted run is reproducible, and sharded across ``workers=2`` it
  reproduces the identical drift/repair/quarantine event sequence,
* with no actuation faults, a reconciler-enabled run is bit-identical
  (summaries and full event trace) to a reconciler-less run, serial and
  sharded — verification is free when nothing drifts.

    PYTHONPATH=src python scripts/drift_smoke.py
"""

from __future__ import annotations

import sys
import traceback

from repro.core.search import OptimizationResult
from repro.datastore import CassandraLike
from repro.faults import ActuationFault, FaultPlan, StaleRecovery
from repro.middleware import MiddlewareScheduler, ReconcileSpec, TenantSpec
from repro.runtime import EventBus
from repro.workload.spec import WorkloadSpec

WORKLOAD = WorkloadSpec(read_ratio=0.5, n_keys=100_000)
N_WINDOWS = 12
#: Regime changes at windows 4 and 8 force a config push at each.
RR_SERIES = [0.3] * 4 + [0.7] * 4 + [0.3] * 4

FAULT_PLAN = FaultPlan(
    actuation_faults=(ActuationFault(window=4, node=1),),
    stale_recoveries=(StaleRecovery(window=6, node=2, recover_window=9),),
)


class RegimeRafiki:
    """Per-regime table recommender (picklable for sharded workers)."""

    def __init__(self, datastore):
        self.datastore = datastore
        self._cache = {}

    def recommend(self, read_ratio, use_cache=True):
        key = round(read_ratio, 2)
        if key not in self._cache:
            # Distinct knobs per regime so a regime change is a real push.
            writes = 64 if read_ratio < 0.5 else 96
            self._cache[key] = OptimizationResult(
                configuration=self.datastore.default_configuration().with_updates(
                    concurrent_writes=writes
                ),
                predicted_throughput=0.0,
                evaluations=1,
                equivalent_wall_seconds=0.0,
                strategy="table",
            )
        return self._cache[key]


def run_campaign(fault_plan, reconcile, workers=None):
    """One campaign; returns (summary, event trace)."""
    events = EventBus()
    trace = []

    def record(e):
        trace.append((e.topic, e.message, tuple(sorted(e.payload.items()))))

    events.subscribe(record)
    cassandra = CassandraLike()
    scheduler = MiddlewareScheduler(
        cassandra, RegimeRafiki(cassandra), events=events, workers=workers
    )
    scheduler.add_tenant(
        TenantSpec(
            tenant_id="tuned",
            rr_series=RR_SERIES,
            base_workload=WORKLOAD,
            seed=3,
            n_nodes=3,
            window_seconds=120,
            restart_policy="rolling",
            restart_seconds_per_node=10,
            load=False,
            fault_plan=fault_plan,
            reconcile=reconcile,
        )
    )
    results = scheduler.run()
    summary = {
        tenant_id: [
            (e.window_index, e.mean_throughput, e.reconfigured,
             e.degraded, e.quarantined)
            for e in run.events
        ]
        for tenant_id, run in results.items()
    }
    return summary, trace


def windows_of(trace, topic):
    return [
        dict(payload)["window"]
        for t, _, payload in trace
        if t == f"tenant.tuned.{topic}"
    ]


def main() -> int:
    failures = []
    spec = ReconcileSpec(max_repairs=2, span=8)
    try:
        faulted, trace = run_campaign(FAULT_PLAN, spec)
        _, retrace = run_campaign(FAULT_PLAN, spec)
        _, shtrace = run_campaign(FAULT_PLAN, spec, workers=2)
        clean_off, clean_off_trace = run_campaign(None, None)
        clean_on, clean_on_trace = run_campaign(None, spec)
        clean_sh_on, clean_sh_on_trace = run_campaign(None, spec, workers=2)
        clean_sh_off, clean_sh_off_trace = run_campaign(None, None, workers=2)
    except Exception:
        traceback.print_exc()
        print("DRIFT SMOKE: unhandled exception", file=sys.stderr)
        return 1

    drifts = windows_of(trace, "actuate.drift")
    repairs = windows_of(trace, "actuate.reconciled")
    quarantines = windows_of(trace, "actuate.quarantine")
    # The partial push is observable at window 4 (the push window); the
    # stale rejoin at window 9 (the recover window).  "Within one
    # window" means detection at the observable window itself.
    if drifts != [4, 9]:
        failures.append(f"expected drift detection at windows [4, 9], got {drifts}")
    if repairs != drifts:
        failures.append(
            f"drift at windows {drifts} but repairs at {repairs} — "
            "not repaired within the budget"
        )
    if quarantines != drifts:
        failures.append(
            f"drifted windows {drifts} but quarantined {quarantines}"
        )
    quarantined_windows = [
        w for (w, _, _, _, quarantined) in faulted["tuned"] if quarantined
    ]
    if quarantined_windows != drifts:
        failures.append(
            f"sealed events quarantine {quarantined_windows}, "
            f"expected {drifts}"
        )
    if any(degraded for (_, _, _, degraded, _) in faulted["tuned"]):
        failures.append(
            "no window should degrade: both drifts are repairable in budget"
        )
    if trace != retrace:
        failures.append("faulted run not reproducible across reruns")
    if trace != shtrace:
        failures.append(
            "sharded faulted run diverges from serial "
            "(drift/repair/quarantine sequences must be identical)"
        )
    if (clean_on, clean_on_trace) != (clean_off, clean_off_trace):
        failures.append(
            "fault-free run with reconciliation differs from one without "
            "(verification must be free when nothing drifts)"
        )
    if (clean_sh_on, clean_sh_on_trace) != (clean_sh_off, clean_sh_off_trace):
        failures.append("fault-free sharded runs differ with reconciliation on")
    if clean_on != clean_off or clean_sh_on != clean_on:
        failures.append("fault-free serial and sharded summaries diverge")

    print(f"drift detected:   windows {drifts} (expected [4, 9])")
    print(f"repaired:         windows {repairs} (budget "
          f"{spec.max_repairs}/{spec.span} windows)")
    print(f"quarantined:      windows {quarantined_windows}")
    print(f"events on bus:    {len(trace)} "
          f"(rerun identical: {trace == retrace}, "
          f"sharded identical: {trace == shtrace})")
    print(f"fault-free:       reconciler on == off: "
          f"{clean_on_trace == clean_off_trace}, "
          f"sharded identical: {clean_sh_on_trace == clean_sh_off_trace}")
    if failures:
        for failure in failures:
            print(f"DRIFT SMOKE FAILED: {failure}", file=sys.stderr)
        return 1
    print("drift smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
