"""Tests of the benchmark itself: inputs, trace arithmetic, output checks.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import run

run._import_library()

from repro.core.controller import ControllerEvent  # noqa: E402
from repro.datastore import CassandraLike  # noqa: E402
from repro.middleware.session import SESSION_PHASES  # noqa: E402
from repro.workload.generator import OperationGenerator  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.host import CALIBRATION_REFERENCE_S, speed_factors  # noqa: E402
from perfbench.tracing import Span, Tracer, self_times, summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


# -- inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.INPUTS))
def test_same_seed_same_inputs(name):
    make = workloads.INPUTS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_fresh_inputs_never_repeat_a_regime():
    series = np.asarray(workloads.fresh_inputs(3)["rr_series"])
    keys = np.round(series / workloads.TUNE_FRESH.rr_resolution).astype(int)
    assert len(np.unique(keys)) == keys.size


# -- serial and sharded serve agree --------------------------------------------


@pytest.fixture
def quick_setup(monkeypatch):
    """One small set-up instead of three paper-sized ones."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "PIPELINE_EPOCHS", 3)


def _short(shape, sharded):
    return replace(shape, tenants=3, min_rounds=3, sharded=sharded)


def test_sharded_serve_reproduces_serial_records(quick_setup):
    inputs = workloads.mgrast_inputs(5)
    inputs = {key: value[:3] for key, value in inputs.items()}
    serial = workloads.run_serve(_short(workloads.SERVE_MGRAST, False), inputs, 5, 0, None)
    sharded = workloads.run_serve(_short(workloads.SERVE_MGRAST, True), inputs, 5, 0, None)
    traced = workloads.run_serve(
        _short(workloads.SERVE_MGRAST, True), inputs, 5, 0, Tracer()
    )
    assert len(serial.round_s) == 3
    assert serial.records == sharded.records == traced.records
    assert serial.problems == sharded.problems == []


# -- trace arithmetic ---------------------------------------------------------------


def _span(name, start, end, parent):
    return Span(name, start, end, parent, None, 0)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),     # overlaps b: parallel workers
        _span("b", 3.0, 6.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # runs past its parent: clipped to 9..10
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    summary = summarize(spans + [_span("a", 20.0, 21.0, None)])
    assert summary["a"].calls == 2
    assert summary["a"].total_s == pytest.approx(4.0)
    assert summary["a"].self_s == pytest.approx(3.0)


def test_adopted_worker_spans_hang_under_the_given_parent():
    worker = Tracer()
    with worker.span("outer"):
        with worker.span("inner"):
            pass
    parent = Tracer()
    with parent.span("map"):
        parent.adopt(worker.spans, parent.current())
    assert [(s.name, s.parent) for s in parent.spans] == [
        ("map", None), ("outer", 0), ("inner", 1)
    ]


def test_tail_is_the_nearest_rank_p90():
    assert run.tail(list(range(100, 0, -1))) == (90, 10)
    assert run.tail(list(range(1, 201))) == (180, 20)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 0)


def test_speed_factors_follow_the_local_kernel_median():
    slow, fast = 2 * CALIBRATION_REFERENCE_S, CALIBRATION_REFERENCE_S
    samples = [fast] * 10 + [slow] * 10
    factors = speed_factors(samples, radius=3)
    assert factors[:7] == [1.0] * 7 and factors[-7:] == [0.5] * 7
    # A single slow sample is outvoted by its neighbours.
    assert speed_factors([fast] * 3 + [5 * fast] + [fast] * 3, radius=1) == [1.0] * 7


# -- output checks fail on doctored results -------------------------------------------


def _windows(datastore, rounds=2):
    config = datastore.default_configuration()
    return {
        "t0": [
            ControllerEvent(w, 0.5, False, config, 1000.0) for w in range(rounds)
        ]
    }


def _out_of_range(datastore):
    config = datastore.space.configuration()
    config._values["concurrent_writes"] = 10**6     # bypasses construction checks
    return config


def test_serve_check_passes_clean_windows():
    datastore = CassandraLike()
    assert workloads.check_serve(_windows(datastore), 2, datastore) == []


@pytest.mark.parametrize(
    "doctor",
    [
        lambda ev, ds: ev.pop(),
        lambda ev, ds: setattr(ev[0], "degraded", True),
        lambda ev, ds: setattr(ev[0], "shed", True),
        lambda ev, ds: setattr(ev[0], "quarantined", True),
        lambda ev, ds: setattr(ev[1], "mean_throughput", 0.0),
        lambda ev, ds: setattr(
            ev[1], "configuration", ds.space.subspace(["concurrent_writes"]).configuration()
        ),
        lambda ev, ds: setattr(ev[1], "configuration", _out_of_range(ds)),
    ],
    ids=["missing", "degraded", "shed", "quarantined", "idle", "foreign-space", "out-of-range"],
)
def test_serve_check_fails_doctored_windows(doctor):
    datastore = CassandraLike()
    windows = _windows(datastore)
    doctor(windows["t0"], datastore)
    assert workloads.check_serve(windows, 2, datastore)


@pytest.fixture
def small_engine():
    datastore = CassandraLike()
    engine = datastore.new_engine_instance(datastore.default_configuration())
    generator = OperationGenerator(workloads.ENGINE_SPEC, np.random.default_rng(1))
    load = generator.load_batch(300)
    engine.execute_batch(load.kinds, load.key_names(), load.value_sizes)
    engine.flush()
    return engine, load.key_ids


def test_engine_check_passes_clean_engine(small_engine):
    engine, ids = small_engine
    assert workloads.check_engine(engine, 300, ids, 0) == []


def test_engine_check_fails_on_unaccounted_ops(small_engine):
    engine, ids = small_engine
    assert workloads.check_engine(engine, 301, ids, 0)


def test_engine_check_fails_on_corrupt_sstable(small_engine):
    engine, ids = small_engine
    engine.layout.all_tables()[0].checksum ^= 0xDEADBEEF
    assert workloads.check_engine(engine, 300, ids, 0)


def test_engine_check_fails_on_lost_writes(small_engine):
    engine, _ids = small_engine
    assert workloads.check_engine(engine, 300, np.array([10**9]), 0)


# -- the command ----------------------------------------------------------------------


def test_manifest_matches_the_metric_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]} == run.PER_LAYER
    assert run.SESSION_PHASES == SESSION_PHASES


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
