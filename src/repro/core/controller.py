"""Online-loop vocabulary shared by the middleware layers.

The paper's online half is one loop: observe a window's read ratio,
search the surrogate, push the configuration (§3, Figure 1).  That loop
lives in the middleware service layer — a
:class:`~repro.middleware.session.TenantSession` runs the
observe -> decide -> actuate -> canary state machine against a
:class:`~repro.datastore.adapter.DatastoreAdapter`, and a
:class:`~repro.middleware.scheduler.MiddlewareScheduler` drives one or
many sessions over one shared surrogate.  This module keeps the
records and guardrail settings that loop shares with the layers below
the middleware:

* :class:`RetryPolicy` — bounded exponential backoff for transient
  search/push failures; simulated backoff time is charged against the
  window, so flakiness costs throughput instead of crashing runs.
* :class:`ControllerEvent` / :class:`ControllerRun` — one window's
  outcome and a whole run's summary.
* :data:`CANARY_RATIO_ALPHA` — the smoothing of the canary's
  observed/predicted throughput baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.config.space import Configuration
from repro.errors import SearchError

#: Smoothing of the observed/predicted throughput ratio the canary
#: normalizes against (high = adapt fast to regime/fault shifts).
CANARY_RATIO_ALPHA = 0.5


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for search/push calls.

    Backoff is *simulated* time: every retry charges its backoff
    against the window it happens in.  ``deadline_s`` caps the total
    backoff one operation may accumulate regardless of attempts left.
    """

    max_attempts: int = 3
    backoff_s: float = 2.0
    backoff_factor: float = 2.0
    deadline_s: float = 60.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise SearchError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.deadline_s < 0:
            raise SearchError("backoff and deadline must be >= 0")
        if self.backoff_factor < 1.0:
            raise SearchError("backoff_factor must be >= 1")


@dataclass
class ControllerEvent:
    """One window's outcome."""

    window_index: int
    read_ratio: float
    reconfigured: bool
    configuration: Configuration
    mean_throughput: float
    rolled_back: bool = False
    degraded: bool = False
    #: Admission control deferred this whole window (nothing was served).
    shed: bool = False
    #: The window ran under detected config drift (mixed-config ring);
    #: canary EWMA / SLO scoring / surrogate observation must skip it.
    quarantined: bool = False


@dataclass
class ControllerRun:
    """Full run summary."""

    events: List[ControllerEvent] = field(default_factory=list)

    @property
    def mean_throughput(self) -> float:
        if not self.events:
            raise SearchError("controller run is empty")
        return float(np.mean([e.mean_throughput for e in self.events]))

    @property
    def reconfiguration_count(self) -> int:
        return sum(1 for e in self.events if e.reconfigured)

    @property
    def rollback_count(self) -> int:
        return sum(1 for e in self.events if e.rolled_back)

    @property
    def degraded_count(self) -> int:
        return sum(1 for e in self.events if e.degraded)

    @property
    def shed_count(self) -> int:
        return sum(1 for e in self.events if e.shed)
