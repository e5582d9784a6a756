"""The three benchmark workloads: inputs, set-up, closed loop, checks.

Every input (read-ratio series, tenant seeds, op-block seeds) is made
from the benchmark seed.  Set-up is timed and repeated; the measured
loop is closed — a window round or op block starts when the previous
one finishes — and runs for the requested seconds, but never fewer than
a fixed prefix: a number of window rounds, or the engine's first
episode.  Simulated throughput, peak memory and the tracing overhead
are taken over that prefix, so they do not depend on how much work a
fast host fits into the run.  After every round or block, outside its
timing, the loop times the host-speed calibration kernel once.

``repro`` must be importable before this module is imported; ``run.py``
puts the checkout's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro import (
    CassandraLike,
    EventBus,
    MGRastTraceGenerator,
    MiddlewareScheduler,
    OraclePolicy,
    ProcessPoolBackend,
    Rafiki,
    RafikiPipeline,
    ReproError,
    TenantSpec,
    WorkloadSpec,
    YCSBBenchmark,
    mgrast_workload,
)
from repro.core.search import ConfigurationOptimizer
from repro.core.surrogate import SurrogateModel
from repro.lsm.engine import OP_WRITE
from repro.middleware.session import TenantSession
from repro.ml.ensemble import EnsembleConfig
from repro.workload.generator import OperationBatch, OperationGenerator

from perfbench.host import (
    HostCalibration,
    children_cpu_s,
    nproc,
    peak_rss_mb,
    self_cpu_s,
    speed_factor,
)
from perfbench.tracing import Tracer, patched_class_methods, trace_backend

#: Offline pipeline of both serve workloads.  It keeps the paper's
#: 20-net ensemble (14 members active after pruning), because search
#: cost scales with the member count, but trains on a small campaign
#: with capped epochs so that set-up can be repeated within one run.
PIPELINE = dict(n_workloads=5, n_configurations=10, n_faulty=0, anova_repeats=1)
PIPELINE_SAMPLE_SECONDS = 60.0      # simulated run phase per YCSB sample
PIPELINE_EPOCHS = 15
#: The pipeline trains on a fixed seed: the deployment under test is the
#: same for every benchmark seed, which varies only the traffic.  (Search
#: cost depends on the trained surface, so a per-seed model would add
#: its own spread to every serve metric.)
PIPELINE_SEED = 2017
SETUP_REPEATS = 3
#: Window rounds each tenant's series provides; far more than a run
#: completes, so the clock, not the series, ends the loop.
HORIZON = 2000


@dataclass(frozen=True)
class ServeShape:
    tenants: int
    window_seconds: float
    rr_resolution: float     # recommendation-cache grid
    min_rounds: int          # the fixed prefix
    sharded: bool            # ProcessPoolBackend with one worker per CPU


#: Every tenant-window is a regime never seen before: the RR grid (1e-4)
#: is ten times coarser than the cache resolution and no RR repeats, so
#: the GA search and ensemble inference do the work.
TUNE_FRESH = ServeShape(
    tenants=3, window_seconds=60.0, rr_resolution=1e-5, min_rounds=30, sharded=False
)
#: MG-RAST regimes recur: at the default 0.05 resolution at most 21
#: regimes exist, so after the first searches every decision is a cache
#: hit and the execute phase and the sharding machinery do the work.
SERVE_MGRAST = ServeShape(
    tenants=8, window_seconds=900.0, rr_resolution=0.05, min_rounds=60, sharded=True
)

#: engine-mixed: a fixed flush-heavy Cassandra configuration — the
#: smallest memtable space (256 + 256 MB) flushed at 10 % of it, a
#: 32 MB file cache and 32 MB sstables — under 4 KB values, so the data
#: outgrows the file cache and the memtable flushes every ~12k writes.
ENGINE_CONFIG = dict(
    memtable_heap_space_in_mb=256,
    memtable_offheap_space_in_mb=256,
    memtable_cleanup_threshold=0.10,
    file_cache_size_in_mb=32,
    sstable_size_in_mb=32,
)
LOAD_KEYS = 40_000
#: MG-RAST-like key reuse: a reuse distance comparable to the key count,
#: so most reads miss the file cache.
ENGINE_SPEC = WorkloadSpec(
    read_ratio=0.7,
    n_keys=LOAD_KEYS,
    value_bytes=4096,
    update_fraction=0.5,
    krd_mean_ops=40_000.0,
    name="engine-mixed",
)
BLOCK_OPS = 2_000
#: Read ratio regimes, visited in this order, each for RR_DWELL_BLOCKS.
RR_CYCLE = (0.5, 0.6, 0.7, 0.8, 0.9, 0.8, 0.7, 0.6)
RR_DWELL_BLOCKS = 4
#: One episode drives a freshly loaded engine through three whole RR
#: cycles.  Left running, this engine never settles: the flush rate
#: outruns compaction, tables pile up and reads leave the vectorized
#: path, so block latency keeps growing with the blocks done.  A run
#: therefore repeats whole episodes, each from the same settled start,
#: and every regime weighs the same in every episode.
EPISODE_BLOCKS = 3 * RR_DWELL_BLOCKS * len(RR_CYCLE)
ENGINE_SETUP_REPEATS = 5
#: Calibration kernel samples taken before and after each engine set-up.
#: Load and settle are Python and numpy work like the blocks, and follow
#: the kernel as the blocks do, so engine set-up is in reference-host time.
#: (The serve workloads' set-up is multi-threaded BLAS training, which
#: does not follow the kernel; it stays wall time.)
SETUP_CALIBRATION_SAMPLES = 5
MAX_EPISODES = 50
READBACK_SAMPLE = 256


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    setup_s: List[float]        # engine: in reference-host seconds
    #: Wall time of each window round or op block.  Engine rebuilds
    #: between episodes are not work a user of the engine waits for, so
    #: they are in no block.
    round_s: List[float]
    calibration_s: List[float]  # the calibration kernel's, between rounds
    units: int                  # tenant-windows or ops completed
    prefix_s: float             # round (engine: block) time of the fixed prefix
    sim_kops: float             # simulated throughput over the prefix
    peak_rss_mb: float          # at the prefix's end, this process plus workers
    attempted: int
    failed: int
    problems: List[str]         # failed output checks
    layers: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    #: Per-tenant window records of a serve workload, for comparing runs.
    records: Dict[str, list] = field(default_factory=dict)


class RoundClock:
    """Times the rounds of a closed loop and says when to stop.

    Peak memory is read when the fixed prefix ends, so it does not grow
    with the number of rounds a fast host fits into the run.  The host
    calibration is sampled after each round, outside the round's time.
    """

    def __init__(self, seconds: float, min_rounds: int):
        self.seconds = seconds
        self.min_rounds = min_rounds
        self.round_s: List[float] = []
        self.calibration = HostCalibration()
        self.prefix_s = self.prefix_rss_mb = float("nan")
        self.t0 = self.last = float("nan")

    def start(self, _event=None) -> None:
        self.t0 = self.last = time.perf_counter()

    def lap(self) -> bool:
        """Close one round; True once the loop should stop."""
        now = time.perf_counter()
        self.round_s.append(now - self.last)
        if len(self.round_s) == self.min_rounds:
            self.prefix_s = sum(self.round_s)
            self.prefix_rss_mb = peak_rss_mb()
        done = len(self.round_s) >= self.min_rounds and now - self.t0 >= self.seconds
        self.calibration.sample()
        self.last = time.perf_counter()
        return done


class _TimeUp(Exception):
    """Raised from the round subscriber to end a scheduler campaign."""


# -- inputs -----------------------------------------------------------------------


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def fresh_inputs(seed: int) -> dict:
    """Per-tenant RR series with no value repeated anywhere.

    The values walk a 9001-point grid over [0.05, 0.95] with a
    golden-ratio stride from a seeded start, so any run of consecutive
    windows spreads evenly over the range whatever the seed.
    """
    rng = _rng(seed, "tune-fresh")
    points = 9001                       # prime, so the stride visits every point
    stride = round(points * 0.6180339887)
    index = (int(rng.integers(points)) + stride * np.arange(TUNE_FRESH.tenants * HORIZON)) % points
    values = np.round(0.05 + 1e-4 * index, 4)
    return {
        # Window k of tenant t takes value k * tenants + t.
        "rr_series": values.reshape(HORIZON, TUNE_FRESH.tenants).T.tolist(),
        "tenant_seeds": rng.integers(2**31, size=TUNE_FRESH.tenants).tolist(),
    }


def mgrast_inputs(seed: int) -> dict:
    """Per-tenant RR series from the MG-RAST trace generator."""
    rng = _rng(seed, "serve-mgrast")
    tenant_seeds = rng.integers(2**31, size=SERVE_MGRAST.tenants).tolist()
    return {
        "rr_series": [
            MGRastTraceGenerator(seed=s)
            .read_ratio_series(HORIZON * SERVE_MGRAST.window_seconds)
            .tolist()
            for s in tenant_seeds
        ],
        "tenant_seeds": tenant_seeds,
    }


def engine_inputs(seed: int) -> dict:
    """An episode's per-block read ratios, cycling through RR_CYCLE from
    a seeded phase, plus the op seed of each episode and the read-back
    sample seed."""
    rng = _rng(seed, "engine-mixed")
    offset = int(rng.integers(RR_DWELL_BLOCKS * len(RR_CYCLE)))
    blocks = offset + np.arange(EPISODE_BLOCKS)
    return {
        "rr_schedule": [RR_CYCLE[b // RR_DWELL_BLOCKS % len(RR_CYCLE)] for b in blocks],
        "op_seeds": rng.integers(2**31, size=MAX_EPISODES).tolist(),
        "sample_seed": int(rng.integers(2**31)),
    }


INPUTS = {
    "tune-fresh": fresh_inputs,
    "serve-mgrast": mgrast_inputs,
    "engine-mixed": engine_inputs,
}


# -- instrumentation ------------------------------------------------------------------


def _count_rows(tracer: Tracer):
    def on_call(_args, _kwargs, result):
        rows = result[0] if isinstance(result, tuple) else result
        tracer.count("ensemble.rows", len(rows))

    return on_call


def _count_evals(tracer: Tracer):
    return lambda _a, _k, result: tracer.count("search.evals", result.evaluations)


def instrument_rafiki(tracer: Tracer, rafiki: Rafiki) -> None:
    """Search and ensemble spans on a rafiki living in this process."""
    tracer.wrap(rafiki.optimizer, "optimize", "search.optimize", _count_evals(tracer))
    for method in ("predict_features", "predict_mean_std"):
        tracer.wrap(rafiki.surrogate, method, "ensemble.predict", _count_rows(tracer))


def instrument_session(tracer: Tracer, session: TenantSession) -> list:
    """A span per tenant-window, per session phase and per adapter run."""
    step, advance = session.step, session.advance_phase

    def traced_step(*args, **kwargs):
        tracer.request = f"{session.tenant_id}/w{session.windows_completed}"
        with tracer.span("session.window"):
            return step(*args, **kwargs)

    def traced_advance():
        with tracer.span(f"session.{session.phase}"):
            return advance()

    session.step, session.advance_phase = traced_step, traced_advance
    return [
        lambda: delattr(session, "step"),
        lambda: delattr(session, "advance_phase"),
        tracer.wrap(
            session.adapter,
            "run",
            "adapter.run",
            lambda _a, _k, steps: tracer.count("analytic.steps", len(steps)),
        ),
    ]


@contextmanager
def instrument_shard_task(tracer: Tracer, task):
    """Worker-side tracing of one sharded window task.

    The session travels inside the task and is wrapped per object; the
    rafiki copy is unpickled inside the task, so search and ensemble are
    wrapped at class level, in the worker only, for the task's duration.
    """
    undo = []
    for item in task:
        if isinstance(item, TenantSession):
            undo += instrument_session(tracer, item)
    targets = [
        (ConfigurationOptimizer, "optimize", "search.optimize", _count_evals(tracer)),
        (SurrogateModel, "predict_features", "ensemble.predict", _count_rows(tracer)),
        (SurrogateModel, "predict_mean_std", "ensemble.predict", _count_rows(tracer)),
    ]
    try:
        with patched_class_methods(tracer, targets):
            yield
    finally:
        for fn in undo:
            fn()


# -- serve workloads ------------------------------------------------------------------


def _trained_rafiki(tracer: Optional[Tracer]) -> Rafiki:
    datastore = CassandraLike()
    pipeline = RafikiPipeline(
        datastore,
        mgrast_workload(0.5),
        benchmark=YCSBBenchmark(datastore, run_seconds=PIPELINE_SAMPLE_SECONDS),
        ensemble_config=EnsembleConfig(max_epochs=PIPELINE_EPOCHS),
        seed=PIPELINE_SEED,
        **PIPELINE,
    )
    if tracer is not None:
        tracer.wrap(pipeline, "identify_key_parameters", "pipeline.anova")
        tracer.wrap(
            pipeline,
            "collect",
            "pipeline.collect",
            lambda _a, _k, dataset: tracer.count("collect.samples", len(dataset)),
        )
        tracer.wrap(pipeline, "train", "pipeline.train")
    rafiki, _report = pipeline.run()
    return rafiki


def run_serve(
    shape: ServeShape, inputs: dict, seed: int, seconds: float, tracer: Optional[Tracer]
) -> Outcome:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        trained = _trained_rafiki(tracer)
        setup_s.append(time.perf_counter() - t0)
    datastore = trained.datastore
    # A serving rafiki without an event bus: sharded rounds need it unset,
    # and both serve workloads are built the same way.
    rafiki = Rafiki(
        datastore,
        trained.surrogate,
        trained.key_parameters,
        seed=seed,
        rr_cache_resolution=shape.rr_resolution,
    )
    events = EventBus()
    clock = RoundClock(seconds, shape.min_rounds)
    fallbacks = []
    events.subscribe(clock.start, "scheduler.start")
    events.subscribe(fallbacks.append, "scheduler.serial_fallback")

    def on_round(_event):
        if clock.lap():
            raise _TimeUp

    events.subscribe(on_round, "scheduler.window")

    backend = ProcessPoolBackend(nproc()) if shape.sharded else None
    try:
        if backend is not None:
            backend.warm()
        scheduler = MiddlewareScheduler(datastore, rafiki, events=events, backend=backend)
        for index, (series, tenant_seed) in enumerate(
            zip(inputs["rr_series"], inputs["tenant_seeds"])
        ):
            scheduler.add_tenant(
                TenantSpec(
                    tenant_id=f"t{index}",
                    rr_series=series,
                    base_workload=mgrast_workload(0.5),
                    seed=int(tenant_seed),
                    window_seconds=shape.window_seconds,
                    policy=OraclePolicy(),
                )
            )
        if tracer is not None:
            tracer.wrap(scheduler, "run", "scheduler.run")
            if backend is not None:
                trace_backend(tracer, backend, instrument_shard_task)
            else:
                instrument_rafiki(tracer, rafiki)
                for tenant_id in scheduler.tenant_ids:
                    instrument_session(tracer, scheduler.session(tenant_id))
        cpu0, worker_cpu0 = self_cpu_s(), children_cpu_s()
        try:
            scheduler.run()
            finished = True
        except _TimeUp:
            finished = False
        parent_cpu = self_cpu_s() - cpu0
        worker_cpu = children_cpu_s() - worker_cpu0
        state = scheduler.state_report() or {}
    finally:
        if backend is not None:
            backend.close()
    windows = {
        tenant_id: scheduler.session(tenant_id).result.events
        for tenant_id in scheduler.tenant_ids
    }
    if not finished:
        for tenant_id in scheduler.tenant_ids:
            scheduler.session(tenant_id).finish()
    rounds = len(clock.round_s)
    prefix = [e.mean_throughput for ev in windows.values() for e in ev[: shape.min_rounds]]
    failed = sum(
        1 for ev in windows.values() for e in ev if e.degraded or e.shed or e.quarantined
    )
    stats = rafiki.cache.stats
    tasks = tracer.counters["backend.tasks"] if tracer is not None else 0
    return Outcome(
        setup_s=setup_s,
        round_s=clock.round_s,
        calibration_s=clock.calibration.samples,
        units=rounds * shape.tenants,
        prefix_s=clock.prefix_s,
        sim_kops=float(np.mean(prefix)) / 1e3,
        peak_rss_mb=clock.prefix_rss_mb,
        attempted=rounds * shape.tenants,
        failed=failed,
        problems=check_serve(windows, rounds, datastore),
        layers={
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "cache.hit_rate": stats.hit_rate,
            "stateship.payload_bytes": state.get("payload_bytes", 0),
            "stateship.blob_ships": state.get("blob_ships", 0),
            "stateship.hit_frac": state.get("state_hits", 0) / tasks if tasks else 0.0,
            "scheduler.serial_fallbacks": len(fallbacks),
            "parent_cpu_s": parent_cpu,
            "worker_cpu_s": worker_cpu,
        },
        info={"rounds": rounds, "tenants": shape.tenants, "workers": nproc() if backend else 0},
        records={
            tenant_id: [
                (e.window_index, e.read_ratio, e.reconfigured, e.mean_throughput,
                 e.configuration.fingerprint())
                for e in events
            ]
            for tenant_id, events in windows.items()
        },
    )


def check_serve(windows: Dict[str, list], rounds: int, datastore) -> List[str]:
    """Every tenant served every window, cleanly, with a valid config."""
    problems = []
    for tenant_id, events in windows.items():
        if len(events) != rounds:
            problems.append(f"{tenant_id}: {len(events)} windows, expected {rounds}")
        for event in events:
            where = f"{tenant_id} window {event.window_index}"
            if event.degraded or event.shed or event.quarantined:
                problems.append(f"{where}: degraded, shed or quarantined")
            if not event.mean_throughput > 0:
                problems.append(f"{where}: no throughput")
            try:
                datastore.validate_configuration(event.configuration)
                for name in event.configuration:
                    datastore.space[name].validate(event.configuration[name])
            except ReproError as exc:
                problems.append(f"{where}: invalid configuration ({exc})")
    return problems


# -- engine workload --------------------------------------------------------------------


def _loaded_engine(op_seed: int):
    datastore = CassandraLike()
    config = datastore.default_configuration().with_updates(**ENGINE_CONFIG)
    engine = datastore.new_engine_instance(config)
    generator = OperationGenerator(ENGINE_SPEC, np.random.default_rng(op_seed))
    load = generator.load_batch(LOAD_KEYS)
    engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
    engine.idle_until_compact(max_seconds=3600.0)
    return engine, generator, load.key_ids


def _count_calls(tracer: Tracer, obj, method: str, counter: str) -> None:
    inner = getattr(obj, method)

    def counted(*args, **kwargs):
        tracer.count(counter)
        return inner(*args, **kwargs)

    setattr(obj, method, counted)


def instrument_engine(tracer: Tracer, engine, generator) -> None:
    def on_batch(_args, _kwargs, batch):
        tracer.count("opgen.ops", len(batch))
        tracer.wrap(batch, "key_names", "opgen.key_names")

    tracer.wrap(generator, "operation_batch", "opgen.batch", on_batch)
    tracer.wrap(engine, "execute_batch", "engine.execute")
    # Ops that fell off the vectorized path re-enter through put/delete.
    _count_calls(tracer, engine, "put", "engine.scalar_ops")
    _count_calls(tracer, engine, "delete", "engine.scalar_ops")


@dataclass
class _Episode:
    block_s: List[float]
    raised: int
    stats: Dict[str, float]       # EngineStats deltas over the episode's blocks
    disk_bytes: float             # device bytes written over the blocks
    sim_s: float                  # simulated seconds the blocks took
    problems: List[str]


def _run_episode(
    engine,
    generator,
    loaded_ids,
    inputs: dict,
    tracer: Optional[Tracer],
    episode: int,
    calibration: HostCalibration,
) -> _Episode:
    if tracer is not None:
        instrument_engine(tracer, engine, generator)
    block_span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    stats0 = replace(engine.stats)
    disk0 = engine.disk.stats.seq_bytes_written
    sim0 = engine.clock.now
    issued, raised = LOAD_KEYS, 0
    written = [loaded_ids]
    block_s = []
    for index, rr in enumerate(inputs["rr_schedule"]):
        if tracer is not None:
            tracer.request = f"e{episode}/b{index}"
        t0 = time.perf_counter()
        with block_span("bench.block"):
            batch = generator.operation_batch(BLOCK_OPS, read_ratio=rr)
            try:
                engine.execute_batch(batch.kinds, batch.key_names(), batch.value_sizes)
            except ReproError:
                raised += 1
        block_s.append(time.perf_counter() - t0)
        calibration.sample()
        issued += len(batch)
        written.append(batch.key_ids[batch.kinds == OP_WRITE])
    stats = {k: getattr(engine.stats, k) - getattr(stats0, k) for k in vars(stats0)}
    return _Episode(
        block_s=block_s,
        raised=raised,
        stats=stats,
        disk_bytes=engine.disk.stats.seq_bytes_written - disk0,
        sim_s=engine.clock.now - sim0,
        problems=check_engine(engine, issued, np.concatenate(written), inputs["sample_seed"]),
    )


def run_engine(inputs: dict, seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    setup_s, setup_wall_s = [], []
    for _ in range(ENGINE_SETUP_REPEATS):
        first = None
        around = HostCalibration()
        for _ in range(SETUP_CALIBRATION_SAMPLES):
            around.sample()
        t0 = time.perf_counter()
        first = _loaded_engine(inputs["op_seeds"][0])
        setup_wall_s.append(time.perf_counter() - t0)
        for _ in range(SETUP_CALIBRATION_SAMPLES):
            around.sample()
        setup_s.append(setup_wall_s[-1] * speed_factor(around.samples))
    episodes: List[_Episode] = []
    calibration = HostCalibration()
    prefix_rss = float("nan")
    cpu0 = self_cpu_s()
    start = time.perf_counter()
    for op_seed in inputs["op_seeds"]:
        loaded = first if not episodes else _loaded_engine(op_seed)
        first = None
        episodes.append(_run_episode(*loaded, inputs, tracer, len(episodes), calibration))
        if len(episodes) == 1:
            prefix_rss = peak_rss_mb()
        del loaded
        if time.perf_counter() - start >= seconds:
            break
    parent_cpu = self_cpu_s() - cpu0
    totals = {k: sum(e.stats[k] for e in episodes) for k in episodes[0].stats}
    user_bytes = totals["writes"] * (ENGINE_SPEC.key_bytes + ENGINE_SPEC.value_bytes)
    block_s = [t for e in episodes for t in e.block_s]
    blocks_ms = np.asarray(block_s) * 1e3
    rrs = np.asarray(inputs["rr_schedule"] * len(episodes))
    problems = [p for e in episodes for p in e.problems]
    return Outcome(
        setup_s=setup_s,
        round_s=block_s,
        calibration_s=calibration.samples,
        units=len(block_s) * BLOCK_OPS,
        prefix_s=sum(episodes[0].block_s),
        sim_kops=EPISODE_BLOCKS * BLOCK_OPS / episodes[0].sim_s / 1e3,
        peak_rss_mb=prefix_rss,
        attempted=len(block_s) + 3 * len(episodes),
        failed=sum(e.raised for e in episodes) + len(problems),
        problems=problems,
        layers={
            "engine.read_heavy_block_ms": float(np.median(blocks_ms[rrs >= 0.8])),
            "engine.write_heavy_block_ms": float(np.median(blocks_ms[rrs <= 0.6])),
            "engine.flushes": totals["flushes"],
            "engine.compactions": totals["compactions_completed"],
            "engine.write_amp": sum(e.disk_bytes for e in episodes) / user_bytes,
            "engine.cache_hit_rate": totals["cache_hits"]
            / max(1, totals["cache_hits"] + totals["cache_misses"]),
            "engine.tables_per_read": totals["tables_probed"] / max(1, totals["reads"]),
            "engine.write_stall_s": totals["write_stall_seconds"],
            "engine.mutations": totals["writes"] + totals["deletes"],
            "parent_cpu_s": parent_cpu,
        },
        info={
            "episodes": len(episodes),
            "blocks": len(block_s),
            "block_ops": BLOCK_OPS,
            "setup_wall_s": setup_wall_s,
        },
    )


def check_engine(engine, issued: int, written_ids: np.ndarray, sample_seed: int) -> List[str]:
    """Stats account for every op, sstables scrub clean, and a seeded
    sample of written keys reads back at full value size."""
    problems = []
    stats = engine.stats
    counted = stats.reads + stats.writes + stats.deletes
    if counted != issued:
        problems.append(f"engine stats count {counted} ops, {issued} were issued")
    corrupt = engine.scrub()
    if corrupt:
        problems.append(f"scrub found corrupt sstables {corrupt}")
    ids = np.unique(written_ids)
    rng = np.random.default_rng(sample_seed)
    sample = rng.choice(ids, size=min(READBACK_SAMPLE, len(ids)), replace=False)
    names = OperationBatch(
        kinds=np.full(len(sample), OP_WRITE, dtype=np.int8),
        key_ids=sample,
        value_sizes=np.zeros(len(sample), dtype=np.int64),
    ).key_names()
    lost = [n for n in names if len(engine.get(n) or b"") != ENGINE_SPEC.value_bytes]
    if lost:
        problems.append(f"{len(lost)} of {len(names)} written keys did not read back")
    return problems


def run_workload(name: str, seed: int, seconds: float, tracer: Optional[Tracer] = None) -> Outcome:
    inputs = INPUTS[name](seed)
    if name == "engine-mixed":
        return run_engine(inputs, seed, seconds, tracer)
    shape = TUNE_FRESH if name == "tune-fresh" else SERVE_MGRAST
    return run_serve(shape, inputs, seed, seconds, tracer)
