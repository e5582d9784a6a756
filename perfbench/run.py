"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tune-fresh --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs the workload's fixed prefix untraced, then the whole
workload traced, and prints the per-layer metrics of the traced pass
plus the tracing overhead on the prefix.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when an output check fails.  Spans and a full result record are
written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune-fresh", "serve-mgrast", "engine-mixed")

#: name -> (unit, better, bound); the bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "round_p50_ms": ("ms", "lower", 0.25),
    "round_tail_ms": ("ms", "lower", 0.25),
    "work_per_s": ("1/s", "higher", 0.25),
    "sim_kops": ("kops", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

SESSION_PHASES = ("observe", "decide", "actuate", "reconcile", "execute", "canary", "record")

#: name -> (unit, better)
PER_LAYER = {
    "search.calls": ("count", "lower"),
    "search.self_s": ("s", "lower"),
    "search.call_p50_ms": ("ms", "lower"),
    "search.evals": ("count", "lower"),
    "ensemble.calls": ("count", "lower"),
    "ensemble.rows": ("count", "lower"),
    "ensemble.rows_per_call": ("count", "higher"),
    "ensemble.self_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    **{f"session.{phase}.self_s": ("s", "lower") for phase in SESSION_PHASES},
    "analytic.steps": ("count", "higher"),
    "analytic.step_us": ("us", "lower"),
    "adapter.run.self_s": ("s", "lower"),
    "backend.map_calls": ("count", "lower"),
    "backend.map.s": ("s", "lower"),
    "backend.task_bytes": ("B", "lower"),
    "backend.result_bytes": ("B", "lower"),
    "stateship.payload_bytes": ("B", "lower"),
    "stateship.blob_ships": ("count", "lower"),
    "stateship.hit_frac": ("ratio", "higher"),
    "scheduler.serial_fallbacks": ("count", "lower"),
    "parent_cpu_s": ("s", "lower"),
    "worker_cpu_s": ("s", "lower"),
    "anova.s": ("s", "lower"),
    "collect.s": ("s", "lower"),
    "collect.samples": ("count", "higher"),
    "train.s": ("s", "lower"),
    "blas.threads": ("count", "lower"),
    "opgen.self_s": ("s", "lower"),
    "opgen.ops": ("count", "higher"),
    "engine.execute.self_s": ("s", "lower"),
    "engine.scalar_put_frac": ("ratio", "lower"),
    "engine.read_heavy_block_ms": ("ms", "lower"),
    "engine.write_heavy_block_ms": ("ms", "lower"),
    "engine.flushes": ("count", "lower"),
    "engine.compactions": ("count", "lower"),
    "engine.write_amp": ("ratio", "lower"),
    "engine.cache_hit_rate": ("ratio", "higher"),
    "engine.tables_per_read": ("count", "lower"),
    "engine.write_stall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

#: Span names of the measured loop, grouped by the layer they time.
LAYER_GROUPS = {
    "core.search + ml.ensemble": ("search.optimize", "ensemble.predict"),
    "session execute + datastore.adapter": ("session.execute", "adapter.run"),
    "other session phases": tuple(
        f"session.{p}" for p in SESSION_PHASES if p != "execute"
    ) + ("session.window",),
    "runtime.backend": ("backend.map",),
    "middleware.scheduler": ("scheduler.run",),
    "workload.generator + lsm.engine": ("opgen.batch", "opgen.key_names", "engine.execute"),
    "benchmark loop": ("bench.block",),
}
#: The layers each workload exists to load: they should hold most of the
#: measured loop's self time.
PREDICTED = {
    "tune-fresh": ("core.search + ml.ensemble",),
    "serve-mgrast": ("session execute + datastore.adapter", "runtime.backend"),
    "engine-mixed": ("workload.generator + lsm.engine",),
}


def _import_library() -> None:
    """Put the checkout's own ``src`` first, and refuse any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


#: The tail percentile.  A run on the reference host makes about 100
#: rounds or more, so about ten or more lie beyond it.  It is fixed rather
#: than chosen per run: a host that fits more rounds into a run would
#: otherwise report a higher percentile.
TAIL_PCT = 90


def tail(values):
    """The nearest-rank ``TAIL_PCT`` percentile, as ``(value, rounds
    beyond it)``."""
    ordered = sorted(values)
    index = math.ceil(TAIL_PCT / 100 * len(ordered)) - 1
    return ordered[index], len(ordered) - 1 - index


def end_to_end(outcome):
    """The end-to-end metrics, and what else the run shows about them.

    Round times and the work rate are in reference-host time: each
    round's wall time scaled by the host speed around it (see
    ``perfbench.host.calibration_kernel``).  The raw wall figures are
    returned alongside.  So is the engine's set-up time; the serve
    workloads' set-up is wall time as measured, because the kernel does
    not follow the speed of its multi-threaded BLAS training.
    """
    from perfbench.host import speed_factors

    factors = speed_factors(outcome.calibration_s)
    reference_s = [t * f for t, f in zip(outcome.round_s, factors)]
    tail_value, beyond = tail(reference_s)
    values = {
        "setup_s": statistics.median(outcome.setup_s),
        "round_p50_ms": statistics.median(reference_s) * 1e3,
        "round_tail_ms": tail_value * 1e3,
        "work_per_s": outcome.units / sum(reference_s),
        "sim_kops": outcome.sim_kops,
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    wall = {
        "round_p50_ms": statistics.median(outcome.round_s) * 1e3,
        "round_tail_ms": tail(outcome.round_s)[0] * 1e3,
        "work_per_s": outcome.units / sum(outcome.round_s),
    }
    info = {
        "round_tail_pct": TAIL_PCT,
        "rounds_beyond_tail": beyond,
        "rounds": len(outcome.round_s),
        "host_speed_factor": statistics.median(factors),
        "wall": wall,
    }
    return values, info


def layer_metrics(outcome, tracer, overhead_s):
    from perfbench.host import blas_threads
    from perfbench.tracing import summarize

    summary = summarize(tracer.spans)
    counters = tracer.counters

    def calls(name):
        return summary[name].calls if name in summary else 0

    def self_s(*names):
        return sum(summary[n].self_s for n in names if n in summary)

    def total_s(name):
        return summary[name].total_s if name in summary else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    search = summary.get("search.optimize")
    values = {
        "search.calls": calls("search.optimize"),
        "search.self_s": self_s("search.optimize"),
        "search.call_p50_ms": statistics.median(search.durations) * 1e3 if search else 0.0,
        "search.evals": counters["search.evals"],
        "ensemble.calls": calls("ensemble.predict"),
        "ensemble.rows": counters["ensemble.rows"],
        "ensemble.rows_per_call": ratio(counters["ensemble.rows"], calls("ensemble.predict")),
        "ensemble.self_s": self_s("ensemble.predict"),
        **{f"session.{p}.self_s": self_s(f"session.{p}") for p in SESSION_PHASES},
        "analytic.steps": counters["analytic.steps"],
        "analytic.step_us": ratio(total_s("adapter.run"), counters["analytic.steps"]) * 1e6,
        "adapter.run.self_s": self_s("adapter.run"),
        "backend.map_calls": counters["backend.map_calls"],
        "backend.map.s": total_s("backend.map"),
        "backend.task_bytes": counters["backend.task_bytes"],
        "backend.result_bytes": counters["backend.result_bytes"],
        "anova.s": ratio(total_s("pipeline.anova"), calls("pipeline.anova")),
        "collect.s": ratio(total_s("pipeline.collect"), calls("pipeline.collect")),
        "collect.samples": ratio(counters["collect.samples"], calls("pipeline.collect")),
        "train.s": ratio(total_s("pipeline.train"), calls("pipeline.train")),
        "blas.threads": blas_threads() or 0,
        "opgen.self_s": self_s("opgen.batch", "opgen.key_names"),
        "opgen.ops": counters["opgen.ops"],
        "engine.execute.self_s": self_s("engine.execute"),
        "engine.scalar_put_frac": ratio(
            counters["engine.scalar_ops"], outcome.layers.get("engine.mutations", 0)
        ),
        "trace.overhead_s": overhead_s,
    }
    values.update({k: v for k, v in outcome.layers.items() if k in PER_LAYER})
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}, summary


def dominance(workload, summary):
    """Self time of the measured loop by layer group, and whether the
    predicted layers hold most of it."""
    groups = {
        group: sum(summary[n].self_s for n in names if n in summary)
        for group, names in LAYER_GROUPS.items()
    }
    total = sum(groups.values())
    predicted = sum(groups[g] for g in PREDICTED[workload])
    return groups, predicted / total if total else 0.0


def _metric_block(values, table):
    return {name: {"value": values[name], "unit": table[name][0]} for name in table}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_library()
    from perfbench.host import host_record
    from perfbench.tracing import Tracer
    from perfbench.workloads import run_workload

    host = host_record(ROOT, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    # A traced run reports per-layer metrics only; its untraced pass just
    # gives the overhead baseline, so it stops after the fixed prefix.
    outcome = run_workload(args.workload, args.seed, 0 if args.trace else args.seconds)
    e2e, e2e_info = end_to_end(outcome)
    passes = [outcome]
    record = {
        "workload": args.workload,
        "host": host,
        "info": {**outcome.info, **e2e_info},
        "end_to_end": e2e,
    }
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        tracer = Tracer()
        traced = run_workload(args.workload, args.seed, args.seconds, tracer)
        passes.append(traced)
        overhead = traced.prefix_s - outcome.prefix_s
        values, summary = layer_metrics(traced, tracer, overhead)
        metrics = _metric_block(values, PER_LAYER)
        groups, share = dominance(args.workload, summary)
        tracer.dump(out_dir / f"{stem}.trace.jsonl")
        print(f"tracing overhead on the fixed prefix: {overhead:+.3f} s "
              f"({overhead / outcome.prefix_s:+.1%} of {outcome.prefix_s:.3f} s untraced)")
        print(f"{'span':32} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for entry in sorted(summary.values(), key=lambda e: -e.self_s):
            print(f"{entry.name:32} {entry.calls:8d} {entry.total_s:10.3f} {entry.self_s:10.3f}")
        for group, seconds in sorted(groups.items(), key=lambda kv: -kv[1]):
            print(f"layer {group:40} self {seconds:9.3f} s")
        verdict = "holds" if share > 0.5 else "DOES NOT HOLD"
        print(f"predicted dominant layers {' + '.join(PREDICTED[args.workload])}: "
              f"{share:.1%} of loop self time, prediction {verdict}")
        record.update(
            overhead_s=overhead,
            dominant_share=share,
            layer_self_s=groups,
            spans={e.name: [e.calls, e.total_s, e.self_s] for e in summary.values()},
        )
    else:
        metrics = _metric_block(e2e, END_TO_END)
    for name, entry in metrics.items():
        print(f"{name:28} {entry['value']:14.6g} {entry['unit']}")
    print(f"round tail is p{e2e_info['round_tail_pct']} of {e2e_info['rounds']} rounds, "
          f"{e2e_info['rounds_beyond_tail']} beyond it")
    wall = e2e_info["wall"]
    print(f"median host speed factor {e2e_info['host_speed_factor']:.4f}; as wall time: "
          f"round_p50 {wall['round_p50_ms']:.3f} ms, round_tail {wall['round_tail_ms']:.3f} ms, "
          f"work {wall['work_per_s']:.6g} 1/s")
    problems = [p for run in passes for p in run.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(run.attempted for run in passes),
        "failed": sum(run.failed for run in passes),
        "metrics": metrics,
    }
    print(f"failed_frac {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    record["result"] = result
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, allow_nan=False)
    )
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
