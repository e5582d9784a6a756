"""Content-addressed state shipping for persistent worker pools.

The sharded serve loop used to re-pickle the entire shared rafiki state
— full ensemble weights plus recommendation cache — into *every* worker
task of *every* window round.  That is the classic inference-serving
IPC-amortization problem: the model should ship once, and steady-state
rounds should ship O(1) bytes.

This module provides the two halves of that protocol:

* **Parent side** — :class:`StateShipper` remembers the fingerprint of
  the last blob it broadcast.  ``prepare(fingerprint, blob_factory)``
  returns a :class:`StateShipment` carrying the full blob only when the
  fingerprint changed (first round, post-retrain, cache growth);
  otherwise the shipment carries just the fingerprint — a few dozen
  bytes.  ``refetch()`` re-attaches the blob for workers that missed.
* **Worker side** — :func:`install_shipment` resolves a shipment
  against a small per-process blob cache keyed by fingerprint.  A
  fingerprint-only shipment that finds no cached blob (a brand-new or
  restarted worker) raises :class:`StateMissError`; the task function
  returns a :class:`StateMiss` marker instead of a result, and the
  parent re-runs exactly that task with the blob attached.

The protocol is observable through :meth:`StateShipper.report`
counters (blobs shipped, fingerprint-only tasks, payload bytes, worker
cache hits and misses).  It publishes no events: which worker holds
which blob depends on OS scheduling, and the event log must be
identical between serial and sharded runs.

Determinism: the shipped blob bytes (and therefore every worker-side
unpickle) are identical whether they travelled this round or were
cached rounds ago, so results are bit-identical to full shipping.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "StateShipment",
    "StateShipper",
    "StateMiss",
    "StateMissError",
    "install_shipment",
    "state_fingerprint",
    "reset_worker_state_cache",
]

#: Hex digest length of a fingerprint — 16 hex chars (64 bits) keeps the
#: steady-state payload tiny while making accidental collision between
#: the handful of states one pool ever sees astronomically unlikely.
FINGERPRINT_HEX_CHARS = 16

#: Blobs a worker process retains, newest-first.  One slot would do for
#: a single scheduler; a few slots keep interleaved backends (tests,
#: serial fallbacks running in the parent) from thrashing each other.
WORKER_CACHE_SLOTS = 4


def state_fingerprint(blob: bytes) -> str:
    """Stable content hash of a state blob."""
    return hashlib.sha256(blob).hexdigest()[:FINGERPRINT_HEX_CHARS]


@dataclass(frozen=True)
class StateShipment:
    """One round's state payload: a fingerprint, with the blob attached
    only when the receiving side cannot already have it."""

    fingerprint: str
    blob: Optional[bytes] = None

    @property
    def payload_bytes(self) -> int:
        """Bytes this shipment adds to one task's pickle."""
        return len(self.fingerprint) + (len(self.blob) if self.blob else 0)


@dataclass(frozen=True)
class StateMiss:
    """Returned by a task function whose worker lacked the blob; the
    parent re-runs the task with the blob attached."""

    fingerprint: str


class StateMissError(KeyError):
    """A fingerprint-only shipment found no cached blob in this worker."""


#: Per-process blob cache, fingerprint -> blob, newest last.
_WORKER_BLOBS: "OrderedDict[str, bytes]" = OrderedDict()


def install_shipment(shipment: StateShipment) -> tuple:
    """Resolve a shipment to blob bytes in the current (worker) process.

    Returns ``(blob, from_cache)``.  A shipment carrying its blob is
    cached and returned (``from_cache=False``); a fingerprint-only
    shipment is served from the cache (``from_cache=True``) or raises
    :class:`StateMissError`.
    """
    if shipment.blob is not None:
        _WORKER_BLOBS[shipment.fingerprint] = shipment.blob
        _WORKER_BLOBS.move_to_end(shipment.fingerprint)
        while len(_WORKER_BLOBS) > WORKER_CACHE_SLOTS:
            _WORKER_BLOBS.popitem(last=False)
        return shipment.blob, False
    blob = _WORKER_BLOBS.get(shipment.fingerprint)
    if blob is None:
        raise StateMissError(shipment.fingerprint)
    _WORKER_BLOBS.move_to_end(shipment.fingerprint)
    return blob, True


def reset_worker_state_cache() -> None:
    """Drop every cached blob in this process (test isolation hook)."""
    _WORKER_BLOBS.clear()


class StateShipper:
    """Parent-side half of the protocol: decides when the blob travels.

    One shipper serves one logical state (the scheduler's shared
    rafiki).  Counters (``blob_ships``, ``blob_bytes``, ``hits``,
    ``misses``, ``fingerprint_tasks``, ``payload_bytes``) accumulate
    over the shipper's life and feed the serve benchmark's
    ``payload_bytes_per_round`` column.
    """

    def __init__(self):
        self.last_fingerprint: Optional[str] = None
        self._blob: Optional[bytes] = None
        self.blob_ships = 0
        self.blob_bytes = 0
        self.fingerprint_tasks = 0
        self.payload_bytes = 0
        self.hits = 0
        self.misses = 0

    def prepare(
        self, fingerprint: str, blob_factory: Callable[[], bytes]
    ) -> StateShipment:
        """Shipment for one round: blob attached only on a fingerprint
        change.  ``blob_factory`` is only invoked when the blob must
        actually travel, so steady-state rounds skip the pickling too."""
        if fingerprint == self.last_fingerprint and self._blob is not None:
            return StateShipment(fingerprint)
        blob = blob_factory()
        self.last_fingerprint = fingerprint
        self._blob = blob
        self.blob_ships += 1
        self.blob_bytes += len(blob)
        return StateShipment(fingerprint, blob)

    def refetch(self, fingerprint: str) -> StateShipment:
        """Blob-attached shipment for a worker that missed; one-shot."""
        if fingerprint != self.last_fingerprint or self._blob is None:
            raise StateMissError(
                f"no blob held for fingerprint {fingerprint!r} "
                f"(last shipped: {self.last_fingerprint!r})"
            )
        self.blob_ships += 1
        self.blob_bytes += len(self._blob)
        return StateShipment(fingerprint, self._blob)

    def count_task(self, shipment: StateShipment) -> None:
        """Account one task's state payload."""
        self.payload_bytes += shipment.payload_bytes
        if shipment.blob is None:
            self.fingerprint_tasks += 1

    def record_hit(self) -> None:
        """A worker served its task from the cached blob."""
        self.hits += 1

    def record_miss(self) -> None:
        """A worker lacked the blob; the task is being refetched."""
        self.misses += 1

    def report(self) -> dict:
        """Counters snapshot for benchmarks and CLI summaries."""
        return {
            "blob_ships": self.blob_ships,
            "blob_bytes": self.blob_bytes,
            "fingerprint_tasks": self.fingerprint_tasks,
            "payload_bytes": self.payload_bytes,
            "state_hits": self.hits,
            "state_misses": self.misses,
        }
