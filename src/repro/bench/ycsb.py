"""YCSB-style benchmark runner.

The paper uses a modified Yahoo Cloud Serving Benchmark "only as a
harness to drive the experiments and collect metrics, while all the
workload-specific details ... are derived from actual MG-RAST queries"
(§4.1).  This module plays that role for the simulated servers:

* :meth:`YCSBBenchmark.run` — the fast path: fresh analytic instance,
  load phase (~2 simulated minutes in the paper), settle, then a
  5-simulated-minute run phase measured in 10-second intervals.
* :meth:`YCSBBenchmark.run_engine` — the per-operation path against the
  materialized LSM engine at reduced scale, for validation.
"""

from __future__ import annotations


import numpy as np

from repro.bench.metrics import BenchmarkResult, ThroughputSample
from repro.config.space import Configuration
from repro.datastore.adapter import SimulatedDatastoreAdapter
from repro.datastore.base import Datastore
from repro.errors import WorkloadError
from repro.sim.rng import SeedLike, derive_rng
from repro.workload.generator import OperationGenerator
from repro.workload.spec import DELETE, READ, WorkloadSpec

#: The paper's benchmark window: 5 minutes of stable metrics (§3.5).
DEFAULT_RUN_SECONDS = 300.0
#: Figure 10 samples throughput every 10 seconds.
REPORT_INTERVAL_SECONDS = 10.0
#: Settling time after the load phase before measurements start.  Short
#: on purpose: the paper loads for ~2 minutes and then measures, so the
#: run phase inherits whatever compaction backlog the load left — which
#: is precisely what makes the compaction strategy matter for reads.
SETTLE_SECONDS = 60.0


class YCSBBenchmark:
    """Drives one simulated server with one workload and measures AOPS."""

    def __init__(
        self,
        datastore: Datastore,
        run_seconds: float = DEFAULT_RUN_SECONDS,
        step_seconds: float = 1.0,
        settle_seconds: float = SETTLE_SECONDS,
        report_interval: float = REPORT_INTERVAL_SECONDS,
    ):
        if run_seconds <= 0 or step_seconds <= 0:
            raise WorkloadError("durations must be positive")
        self.datastore = datastore
        self.run_seconds = run_seconds
        self.step_seconds = step_seconds
        self.settle_seconds = settle_seconds
        self.report_interval = report_interval

    # ------------------------------------------------------------------ fast path

    def run(
        self,
        config: Configuration,
        workload: WorkloadSpec,
        seed: SeedLike = 0,
        load: bool = True,
    ) -> BenchmarkResult:
        """Benchmark (config, workload) on a fresh analytic instance.

        Mirrors §4.2: a fresh server per data point (the Docker reset —
        here an adapter provision/teardown cycle), a load phase, then the
        measured run.  Throughput is reported as the mean over the run,
        with a 10-second-interval series attached.
        """
        adapter = SimulatedDatastoreAdapter(
            self.datastore, config, profile=workload.to_profile(), seed=seed
        )
        adapter.provision(
            load_keys=workload.n_keys if load else None,
            settle_seconds=self.settle_seconds,
        )
        steps = adapter.run(workload.read_ratio, self.run_seconds, self.step_seconds)
        series = self._bucket_series(steps)
        mean_tp = float(np.mean([s.throughput for s in steps]))
        adapter.teardown()
        return BenchmarkResult(
            workload=workload,
            configuration=config,
            mean_throughput=mean_tp,
            duration_seconds=self.run_seconds,
            series=series,
            metadata={
                "sstable_count": float(steps[-1].sstable_count),
                "cache_hit_ratio": float(steps[-1].cache_hit_ratio),
                "compaction_backlog_bytes": float(steps[-1].compaction_backlog_bytes),
            },
        )

    def _bucket_series(self, steps) -> list:
        """Aggregate per-step throughput into report-interval buckets."""
        series = []
        bucket: list = []
        bucket_start = steps[0].t - steps[0].dt
        for s in steps:
            bucket.append(s.throughput)
            if s.t - bucket_start >= self.report_interval:
                series.append(
                    ThroughputSample(t=s.t, ops_per_second=float(np.mean(bucket)))
                )
                bucket = []
                bucket_start = s.t
        if bucket:
            series.append(
                ThroughputSample(t=steps[-1].t, ops_per_second=float(np.mean(bucket)))
            )
        return series

    # ------------------------------------------------------------------ engine path

    def run_engine(
        self,
        config: Configuration,
        workload: WorkloadSpec,
        n_ops: int = 20_000,
        load_keys: int = 5_000,
        seed: SeedLike = 0,
        batched: bool = False,
        batch_ops: int = 4096,
    ) -> BenchmarkResult:
        """Benchmark against the materialized engine, per operation.

        Runs at reduced scale (tens of thousands of real operations) and
        measures ops / elapsed simulated seconds.  Used to validate that
        the analytic path preserves ordering and trends.

        With ``batched=True`` the op stream is generated and executed in
        vectorized blocks of ``batch_ops`` through
        :meth:`~repro.lsm.engine.LSMEngine.execute_batch` — same
        engine-side accounting, far less per-op Python overhead.  The
        report series is reconstructed from the block's per-op end times
        with the same crossing rule as the scalar loop.
        """
        rng = derive_rng(seed)
        engine = self.datastore.new_engine_instance(config)
        gen = OperationGenerator(workload, rng)

        if batched:
            load = gen.load_batch(load_keys)
            engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
        else:
            for op in gen.load_operations(load_keys):
                engine.put(op.key, op.payload(rng))
        engine.idle_until_compact(max_seconds=600.0)

        t0 = engine.clock.now
        series = []
        last_report_t, last_report_ops = t0, 0
        if batched:
            done = 0
            while done < n_ops:
                block = gen.operation_batch(min(batch_ops, n_ops - done))
                result = engine.execute_batch(
                    block.kinds, block.key_names(), block.value_sizes
                )
                # Same crossing rule as the scalar loop, applied to the
                # recorded per-op end times.
                for j in range(result.n_ops):
                    t = float(result.end_times[j])
                    if t - last_report_t >= self.report_interval:
                        series.append(
                            ThroughputSample(
                                t=t,
                                ops_per_second=(done + j + 1 - last_report_ops)
                                / (t - last_report_t),
                            )
                        )
                        last_report_t, last_report_ops = t, done + j + 1
                done += result.n_ops
        else:
            for i, op in enumerate(gen.operations(n_ops)):
                if op.kind == READ:
                    engine.get(op.key)
                elif op.kind == DELETE:
                    engine.delete(op.key)
                else:
                    engine.put(op.key, op.payload(rng))
                if engine.clock.now - last_report_t >= self.report_interval:
                    done = i + 1
                    series.append(
                        ThroughputSample(
                            t=engine.clock.now,
                            ops_per_second=(done - last_report_ops)
                            / (engine.clock.now - last_report_t),
                        )
                    )
                    last_report_t, last_report_ops = engine.clock.now, done
        # Flush the final partial interval: without this the tail of the
        # run (everything after the last full report interval) silently
        # vanishes from the series, unlike the analytic path's
        # _bucket_series which always emits its last partial bucket.
        if n_ops > last_report_ops and engine.clock.now > last_report_t:
            series.append(
                ThroughputSample(
                    t=engine.clock.now,
                    ops_per_second=(n_ops - last_report_ops)
                    / (engine.clock.now - last_report_t),
                )
            )
        elapsed = engine.clock.now - t0
        if elapsed <= 0:
            raise RuntimeError("benchmark did not advance simulated time")
        return BenchmarkResult(
            workload=workload,
            configuration=config,
            mean_throughput=n_ops / elapsed,
            duration_seconds=elapsed,
            series=series,
            metadata={
                "sstable_count": float(engine.sstable_count),
                "cache_hit_ratio": float(engine.cache.hit_ratio),
            },
        )
