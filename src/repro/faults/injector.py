"""Applies a :class:`~repro.faults.plan.FaultPlan` to a running system.

The injector is the single choke point between a plan and the components
it disturbs: a tenant session calls :meth:`begin_window` once per
window (node crashes/recoveries and disk slowdowns land on the cluster
there) and :meth:`check` immediately before each fault-prone operation
(search, config push), which raises
:class:`~repro.errors.TransientError` while the window's failure budget
lasts.  Every action publishes a ``fault.*`` event so a run's full fault
history can be captured from the bus.

All injector state is rebuilt by :meth:`reset`, so one injector can
drive the same plan through repeated runs and produce the identical
event sequence each time.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DatastoreError, FaultError, TransientError
from repro.faults.plan import FaultPlan
from repro.runtime.events import EventBus


class FaultInjector:
    """Stateful executor of one :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan, events: Optional[EventBus] = None):
        plan.validate()
        self.plan = plan
        self.events = events or EventBus()
        self.injected_count = 0
        self._budgets: dict = {}
        self.reset()

    def reset(self) -> None:
        """Restore every per-run failure budget (between runs)."""
        self.injected_count = 0
        budgets: dict = {}
        for fault in self.plan.transient_faults:
            key = (fault.kind, fault.window)
            budgets[key] = budgets.get(key, 0) + fault.failures
        self._budgets = budgets

    def _publish(self, topic: str, message: str, **payload) -> None:
        self.events.publish(topic, message, **payload)

    # -- node/disk faults ----------------------------------------------------

    def begin_window(self, window: int, cluster=None) -> None:
        """Apply the node-level faults scheduled for ``window``.

        ``cluster`` is anything with ``fail_node(i)`` / ``recover_node(i)``
        / ``set_disk_slowdown(i, factor)`` (see
        :class:`~repro.datastore.cluster.Cluster`).  Scheduling a node
        fault without a cluster to land it on is a plan/runtime mismatch
        and raises :class:`FaultError`; a fault the cluster itself
        refuses (e.g. failing the last live node) is skipped and
        reported as ``fault.skipped`` rather than crashing the run.
        """
        has_node_faults = (
            any(
                c.window == window or c.recover_window == window
                for c in self.plan.node_crashes
            )
            or any(
                s.window == window or s.end_window == window
                for s in self.plan.disk_slowdowns
            )
            or any(a.window == window for a in self.plan.actuation_faults)
            or any(
                s.window == window or s.recover_window == window
                for s in self.plan.stale_recoveries
            )
        )
        if not has_node_faults:
            return
        if cluster is None:
            raise FaultError(
                f"fault plan schedules node faults at window {window} but the "
                "run has no multi-node cluster to inject them into"
            )
        for crash in self.plan.node_crashes:
            if crash.window == window:
                self._apply(
                    "node-crash", window, crash.node,
                    lambda: cluster.fail_node(crash.node),
                )
            if crash.recover_window == window:
                self._apply(
                    "node-recover", window, crash.node,
                    lambda: cluster.recover_node(crash.node), recovery=True,
                )
        for slow in self.plan.disk_slowdowns:
            if slow.window == window:
                self._apply(
                    "disk-slowdown", window, slow.node,
                    lambda: cluster.set_disk_slowdown(slow.node, slow.factor),
                    factor=slow.factor,
                )
            if slow.end_window == window:
                self._apply(
                    "disk-recover", window, slow.node,
                    lambda: cluster.set_disk_slowdown(slow.node, 1.0),
                    recovery=True,
                )
        for act in self.plan.actuation_faults:
            if act.window == window:
                # Arm silent push refusals: the initial push plus any
                # blocked repair re-pushes all fail invisibly on this node.
                refusals = 1 + act.repairs_blocked
                try:
                    cluster.refuse_pushes(act.node, refusals)
                except DatastoreError as exc:
                    self._publish(
                        "fault.skipped",
                        f"skipped partial-push on node {act.node}: {exc}",
                        kind="partial-push", window=window, node=act.node,
                        reason=str(exc),
                    )
                    continue
                self.injected_count += 1
                self._publish(
                    "fault.actuation.partial_push",
                    f"armed partial push on node {act.node} "
                    f"(window {window}, {refusals} refusal(s))",
                    kind="partial-push", window=window, node=act.node,
                    refusals=refusals,
                )
        for stale in self.plan.stale_recoveries:
            if stale.window == window:
                def crash_isolated(node=stale.node):
                    cluster.fail_node(node)
                    cluster.isolate_node(node)
                self._apply(
                    "stale-crash", window, stale.node, crash_isolated,
                    topic="fault.actuation.stale_crash",
                )
            if stale.recover_window == window:
                self._apply(
                    "stale-recover", window, stale.node,
                    lambda node=stale.node: cluster.recover_node(node),
                    recovery=True, topic="fault.actuation.stale_recovery",
                )

    def _apply(self, kind, window, node, action, recovery=False, topic=None,
               **payload):
        try:
            action()
        except DatastoreError as exc:
            self._publish(
                "fault.skipped",
                f"skipped {kind} on node {node}: {exc}",
                kind=kind, window=window, node=node, reason=str(exc),
            )
            return
        if topic is None:
            topic = "fault.recovered" if recovery else "fault.injected"
        if not recovery:
            self.injected_count += 1
        self._publish(
            topic,
            f"{kind} node {node} (window {window})",
            kind=kind, window=window, node=node, **payload,
        )

    # -- transient control-plane faults --------------------------------------

    def check(self, kind: str, window: int) -> None:
        """Fail the caller's operation while this window's budget lasts.

        Raises :class:`TransientError` and decrements the remaining
        failure budget for ``(kind, window)``; once the budget is spent
        the operation goes through, which is what makes these faults
        retryable.
        """
        key = (kind, window)
        remaining = self._budgets.get(key, 0)
        if remaining <= 0:
            return
        self._budgets[key] = remaining - 1
        self.injected_count += 1
        self._publish(
            "fault.injected",
            f"transient {kind} fault (window {window})",
            kind=kind, window=window, remaining=remaining - 1,
        )
        raise TransientError(f"injected transient {kind} fault at window {window}")
