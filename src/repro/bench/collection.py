"""The §4.2 data-collection campaign.

"We use 11 different workloads spanning 10% increments between 0% and
100% reads.  The number of configurations |C| = 20, resulting in 220
total data points. ... 20 noisy/faulted samples were removed in our
dataset, due to faults in the load-generating clients, thus leaving 200
total samples."

The campaign samples configurations with the §3.5 coverage rule (every
key parameter's min, max, and default occur at least once), benchmarks
every (workload, configuration) pair on a fresh server, optionally
injects client faults into a deterministic subset of samples, and drops
the faulted points — reproducing the 220 -> 200 pipeline.

Faulted samples can also be *retried* instead of dropped
(``retry_faulty > 0``): a transient client fault re-runs clean on a
fresh derived stream, while persistent faults (scheduled through a
:class:`~repro.faults.plan.FaultPlan`'s ``bench_faults``) re-fault on
every retry and are dropped once the budget is spent.  With the default
``retry_faulty=0`` the campaign is bit-identical to the historical
drop-only behaviour.

Every (workload, configuration) pair is an independent work unit with a
pre-derived random stream, so the grid is submitted through an
:class:`~repro.runtime.backend.ExecutionBackend` and parallelizes across
cores with bitwise-identical results to a serial run.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.bench.metrics import BenchmarkResult
from repro.bench.ycsb import YCSBBenchmark
from repro.config.space import Configuration
from repro.datastore.base import Datastore
from repro.errors import ConfigurationError, WorkloadError
from repro.faults.plan import FaultPlan
from repro.recovery.journal import Journal
from repro.runtime.backend import ExecutionBackend, resolve_backend
from repro.runtime.events import EventBus
from repro.sim.rng import SeedSequence
from repro.workload.spec import WorkloadSpec

#: §4.2 defaults.
DEFAULT_WORKLOAD_COUNT = 11
DEFAULT_CONFIG_COUNT = 20
DEFAULT_FAULT_COUNT = 20

#: Journal kind tag for campaign WALs (see :mod:`repro.recovery.journal`).
CAMPAIGN_JOURNAL_KIND = "collection-campaign"


@dataclass(frozen=True)
class BenchmarkTask:
    """One independent grid point: everything a worker needs, including
    its own random stream and (for faulted points) the pre-drawn client
    degradation factor."""

    index: int
    configuration: Configuration
    workload: WorkloadSpec
    rng: np.random.Generator
    benchmark: YCSBBenchmark
    degradation: Optional[float] = None


def execute_benchmark_task(task: BenchmarkTask) -> BenchmarkResult:
    """Run one grid point (module-level so process pools can pickle it)."""
    result = task.benchmark.run(task.configuration, task.workload, seed=task.rng)
    if task.degradation is not None:
        # A fault in the load-generating client: the recorded
        # throughput is garbage (partially idle shooter).
        result.mean_throughput *= task.degradation
        result.faulty = True
    return result


class DataCollectionCampaign:
    """Orchestrates the paper's offline benchmarking campaign."""

    def __init__(
        self,
        datastore: Datastore,
        base_workload: WorkloadSpec,
        key_parameters: Optional[Sequence[str]] = None,
        n_workloads: int = DEFAULT_WORKLOAD_COUNT,
        n_configurations: int = DEFAULT_CONFIG_COUNT,
        n_faulty: int = DEFAULT_FAULT_COUNT,
        benchmark: Optional[YCSBBenchmark] = None,
        seed: int = 0,
        backend: Optional[ExecutionBackend] = None,
        events: Optional[EventBus] = None,
        retry_faulty: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        journal: Optional[Union[str, pathlib.Path]] = None,
    ):
        if n_workloads < 2:
            raise WorkloadError("need at least two workloads")
        if n_configurations < 1:
            raise ConfigurationError("need at least one configuration")
        if retry_faulty < 0:
            raise ConfigurationError("retry_faulty must be >= 0")
        self.datastore = datastore
        self.base_workload = base_workload
        self.key_parameters = tuple(key_parameters or datastore.key_parameters)
        self.n_workloads = n_workloads
        self.n_configurations = n_configurations
        self.n_faulty = n_faulty
        self.benchmark = benchmark or YCSBBenchmark(datastore)
        self.seeds = SeedSequence(seed)
        self.backend = backend
        self.events = events or EventBus()
        self.retry_faulty = retry_faulty
        self.fault_plan = fault_plan
        self.journal_path = pathlib.Path(journal) if journal is not None else None
        if fault_plan is not None:
            fault_plan.validate()

    # -- plan ------------------------------------------------------------------

    def workloads(self) -> List[WorkloadSpec]:
        """Evenly spaced read ratios: 0%, 10%, ..., 100% for the default
        11 (§4.2)."""
        ratios = np.linspace(0.0, 1.0, self.n_workloads)
        return [self.base_workload.with_read_ratio(float(r)) for r in ratios]

    def configurations(self) -> List[Configuration]:
        """Coverage-sampled configurations over the key parameters."""
        rng = self.seeds.stream("config-sampling")
        return self.datastore.space.coverage_sample(
            rng, self.key_parameters, self.n_configurations
        )

    def plan_tasks(self) -> List[BenchmarkTask]:
        """The full grid as independent, seeded work units.

        Stream names and fault-RNG draw order match the historical
        serial loop, so campaigns reproduce bit-for-bit across backends
        and versions.
        """
        workloads = self.workloads()
        configs = self.configurations()
        total = len(workloads) * len(configs)
        fault_rng = self.seeds.stream("fault-injection")
        faulty_indices = (
            set(
                fault_rng.choice(total, size=min(self.n_faulty, total), replace=False).tolist()
            )
            if self.n_faulty
            else set()
        )
        # Degradations are drawn up front, in index order — the same
        # sequence the old inline loop consumed lazily.
        degradations: Dict[int, float] = {
            index: 0.2 + 0.5 * fault_rng.random()
            for index in range(total)
            if index in faulty_indices
        }
        # Externally scheduled client faults ride on top of the campaign's
        # own §4.2 noise model (out-of-grid indices are ignored).
        if self.fault_plan is not None:
            for bf in self.fault_plan.bench_faults:
                if bf.index < total:
                    degradations[bf.index] = bf.degradation

        tasks: List[BenchmarkTask] = []
        index = 0
        for config in configs:
            for workload in workloads:
                tasks.append(
                    BenchmarkTask(
                        index=index,
                        configuration=config,
                        workload=workload,
                        rng=self.seeds.stream(f"bench-{index}"),
                        benchmark=self.benchmark,
                        degradation=degradations.get(index),
                    )
                )
                index += 1
        return tasks

    # -- journal --------------------------------------------------------------

    def _journal_header(self) -> Dict:
        """The campaign fingerprint stored in the journal header.

        Everything that shapes the deterministic grid is captured, so a
        resume with different settings is refused rather than producing
        a silently mixed dataset — and ``repro resume`` can rebuild the
        campaign from the header alone.
        """
        return {
            "space": self.datastore.space.name,
            "key_parameters": list(self.key_parameters),
            "n_workloads": self.n_workloads,
            "n_configurations": self.n_configurations,
            "n_faulty": self.n_faulty,
            "seed": self.seeds.root_seed,
            "retry_faulty": self.retry_faulty,
            "base_read_ratio": self.base_workload.read_ratio,
            "base_n_keys": self.base_workload.n_keys,
            "run_seconds": self.benchmark.run_seconds,
            "fault_plan": (
                self.fault_plan.to_dict() if self.fault_plan is not None else None
            ),
        }

    @staticmethod
    def _record_from_result(
        index: int, attempt: int, result: BenchmarkResult
    ) -> Dict:
        """The journaled scalars for one sample.

        Only what :meth:`run`'s dataset needs plus the fault/metadata
        flags; workload and configuration are *not* stored — they are
        regenerated bit-identically by :meth:`plan_tasks` on resume.
        """
        return {
            "index": index,
            "attempt": attempt,
            "throughput": result.mean_throughput,
            "duration": result.duration_seconds,
            "faulty": result.faulty,
            "metadata": dict(result.metadata),
        }

    @staticmethod
    def _result_from_record(task: BenchmarkTask, record: Dict) -> BenchmarkResult:
        """Rebuild a result from its journaled scalars + regenerated task.

        The throughput series is not journaled (the dataset never reads
        it), so resumed results carry an empty ``series``.
        """
        return BenchmarkResult(
            workload=task.workload,
            configuration=task.configuration,
            mean_throughput=float(record["throughput"]),
            duration_seconds=float(record["duration"]),
            series=[],
            faulty=bool(record["faulty"]),
            metadata=dict(record["metadata"]),
        )

    # -- execution ----------------------------------------------------------------

    def run(self) -> PerformanceDataset:
        """Benchmark the full grid, drop faulted samples, return the rest."""
        results = self.run_raw()
        kept = [PerformanceSample.from_result(r) for r in results if not r.faulty]
        return PerformanceDataset(kept, self.key_parameters)

    def run_raw(self) -> List[BenchmarkResult]:
        """All 220 results, with ``faulty`` marking injected client faults.

        With ``retry_faulty > 0`` each faulted sample is re-run (fresh
        derived stream per attempt) up to that many times; transient
        client faults come back clean, persistent ones re-fault and stay
        marked for the drop in :meth:`run`.

        With a ``journal`` path the campaign is crash-safe: every result
        is appended (fsynced) to an append-only WAL keyed by
        ``(index, attempt)``, and a re-run against the same journal
        skips the journaled work — per-task random streams are derived
        by name, so the partial re-run is bit-identical to an
        uninterrupted campaign.
        """
        tasks = self.plan_tasks()
        total = len(tasks)
        backend = resolve_backend(self.backend)

        journal: Optional[Journal] = None
        journaled: Dict[Tuple[int, int], Dict] = {}
        if self.journal_path is not None:
            journal, records = Journal.open(
                self.journal_path,
                CAMPAIGN_JOURNAL_KIND,
                self._journal_header(),
                events=self.events,
            )
            for rec in records:
                journaled[(int(rec["index"]), int(rec["attempt"]))] = rec

        try:
            results: List[Optional[BenchmarkResult]] = [None] * total
            resumed = 0
            for task in tasks:
                rec = journaled.get((task.index, 0))
                if rec is not None:
                    results[task.index] = self._result_from_record(task, rec)
                    resumed += 1
            pending = [t for t in tasks if results[t.index] is None]
            if resumed:
                self.events.publish(
                    "recovery.resumed",
                    f"resumed {resumed}/{total} samples from journal",
                    resumed=resumed,
                    total=total,
                    path=str(self.journal_path),
                )
            done = resumed

            def on_result(position: int, result: BenchmarkResult) -> None:
                nonlocal done
                index = pending[position].index
                done += 1
                if journal is not None:
                    journal.append(self._record_from_result(index, 0, result))
                if result.faulty:
                    self.events.publish(
                        "fault.injected",
                        f"client fault on sample {index}",
                        kind="bench-client",
                        index=index,
                    )
                self.events.publish(
                    "collect.sample",
                    f"sample {done}/{total}",
                    index=index,
                    done=done,
                    total=total,
                    faulty=result.faulty,
                )

            fresh = backend.map_tasks(
                execute_benchmark_task, pending, on_result=on_result
            )
            for task, result in zip(pending, fresh):
                results[task.index] = result
            if self.retry_faulty > 0:
                self._retry_faulted(tasks, results, backend, journal, journaled)
            return results
        finally:
            if journal is not None:
                journal.close()

    def _retry_faulted(
        self,
        tasks: List[BenchmarkTask],
        results: List[BenchmarkResult],
        backend: ExecutionBackend,
        journal: Optional[Journal] = None,
        journaled: Optional[Dict[Tuple[int, int], Dict]] = None,
    ) -> None:
        """Re-run faulted grid points in place, bounded by the budget."""
        journaled = journaled or {}
        persistent = (
            {bf.index for bf in self.fault_plan.bench_faults if not bf.transient}
            if self.fault_plan is not None
            else set()
        )
        for attempt in range(1, self.retry_faulty + 1):
            faulted = [t for t in tasks if results[t.index].faulty]
            if not faulted:
                return
            retry_tasks = []
            resumed = 0
            for task in faulted:
                rec = journaled.get((task.index, attempt))
                if rec is not None:
                    # This retry already ran before the crash; its stream
                    # is never re-derived (streams are independent by
                    # name, so skipping it perturbs nothing else).
                    results[task.index] = self._result_from_record(task, rec)
                    resumed += 1
                    continue
                self.events.publish(
                    "collect.retry",
                    f"retrying faulted sample {task.index} (attempt {attempt})",
                    index=task.index,
                    attempt=attempt,
                )
                retry_tasks.append(
                    replace(
                        task,
                        rng=self.seeds.stream(f"bench-{task.index}-retry{attempt}"),
                        degradation=(
                            task.degradation if task.index in persistent else None
                        ),
                    )
                )
            if resumed:
                self.events.publish(
                    "recovery.resumed",
                    f"resumed {resumed} retry results (attempt {attempt}) from journal",
                    resumed=resumed,
                    attempt=attempt,
                )

            def on_retry_result(position: int, result: BenchmarkResult) -> None:
                if journal is not None:
                    journal.append(
                        self._record_from_result(
                            retry_tasks[position].index, attempt, result
                        )
                    )

            retried = backend.map_tasks(
                execute_benchmark_task, retry_tasks, on_result=on_retry_result
            )
            for task, result in zip(retry_tasks, retried):
                results[task.index] = result
