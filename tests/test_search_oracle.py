"""The surrogate GA search reproduces its frozen oracle bit for bit.

``tests/fixtures/search_oracle.json`` holds what
``ConfigurationOptimizer.optimize`` returned before the ensemble stacked
its members and the GA folded each generation's winner into the next
batch: for every case, the chosen configuration's fingerprint,
``float.hex`` of the predicted throughput and of every history entry,
the evaluation count, and the ``(topic, payload)`` sequence of the
``search.*`` events.  The cases cross four read ratios, two uncertainty
penalties, and runs with and without seed configurations, plus two
short-budget runs that end at the generation limit.

The surrogate is built from seeded random weights, not trained, so the
fixture does not depend on the host's BLAS.  ``tanh`` and ``einsum``
kernels can still differ between CPUs; the fixture records the
reference member outputs on a probe matrix, and the bit-for-bit
comparison only runs where the host reproduces them.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.search import ConfigurationOptimizer
from repro.core.surrogate import SurrogateModel
from repro.ml.ensemble import EnsembleConfig
from repro.ml.network import FeedForwardNetwork
from repro.runtime.events import EventBus
from tests.reference import forward_rows

PARAMS = list(CASSANDRA_KEY_PARAMETERS)
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "search_oracle.json"
PROBE_ROWS = np.linspace(-2.0, 2.0, 8 * (1 + len(PARAMS))).reshape(8, -1)

SEED_CONFIGS = (
    {},
    {
        "compaction_method": "LeveledCompactionStrategy",
        "concurrent_writes": 64,
        "file_cache_size_in_mb": 1536,
        "memtable_cleanup_threshold": 0.35,
        "concurrent_compactors": 6,
    },
    {
        "concurrent_writes": 17,
        "file_cache_size_in_mb": 96,
        "memtable_cleanup_threshold": 0.48,
        "concurrent_compactors": 1,
    },
)


def build_cases():
    cases = {}
    index = 0
    for rr in (0.05, 0.37, 0.6, 0.93):
        for penalty in (0.0, 0.5):
            for seeded in (False, True):
                name = f"rr{rr}-k{penalty}-{'seeded' if seeded else 'fresh'}"
                cases[name] = dict(
                    read_ratio=rr, penalty=penalty, seeded=seeded, seed=index
                )
                index += 1
    for penalty in (0.0, 0.5):
        cases[f"short-k{penalty}"] = dict(
            read_ratio=0.5,
            penalty=penalty,
            seeded=True,
            seed=index,
            population_size=12,
            generations=4,
        )
        index += 1
    return cases


CASES = build_cases()


def build_surrogate():
    """A 14-member surrogate with seeded random weights and fixed scalers."""
    n_features = 1 + len(PARAMS)
    surrogate = SurrogateModel(cassandra_space(), PARAMS, EnsembleConfig())
    ensemble = surrogate.ensemble
    ensemble.x_scaler.mean_ = np.full(n_features, 0.5)
    ensemble.x_scaler.scale_ = np.full(n_features, 0.3)
    ensemble.y_scaler.mean_ = np.array([60_000.0])
    ensemble.y_scaler.scale_ = np.array([12_000.0])
    networks = []
    for member in range(14):
        net = FeedForwardNetwork(
            [n_features, 14, 4, 1], rng=np.random.default_rng(1000 + member)
        )
        net.set_weights(2.0 * net.get_weights())
        networks.append(net)
    ensemble.networks = networks
    return surrogate


def encode_value(value):
    return float.hex(value) if isinstance(value, float) else value


def run_case(surrogate, case):
    """One search, encoded as the fixture stores it."""
    bus = EventBus()
    events = []
    bus.subscribe(events.append, topic="search")
    optimizer = ConfigurationOptimizer(
        surrogate,
        population_size=case.get("population_size", 48),
        generations=case.get("generations", 70),
        uncertainty_penalty=case["penalty"],
        bus=bus,
    )
    seed_configs = None
    if case["seeded"]:
        seed_configs = [surrogate.space.configuration(**c) for c in SEED_CONFIGS]
    result = optimizer.optimize(
        case["read_ratio"], seed=case["seed"], seed_configs=seed_configs
    )
    return {
        "configuration": result.configuration.fingerprint(),
        "predicted_throughput": float.hex(float(result.predicted_throughput)),
        "evaluations": result.evaluations,
        "history": [float.hex(float(h)) for h in result.history],
        "events": [
            [e.topic, {k: encode_value(v) for k, v in sorted(e.payload.items())}]
            for e in events
        ],
    }


def probe(surrogate):
    """Reference member outputs on a fixed matrix: the host's kernels."""
    return [
        [float.hex(float(v)) for v in forward_rows(net, PROBE_ROWS)]
        for net in surrogate.ensemble.networks
    ]


def capture():
    """The fixture's content for the code under test."""
    surrogate = build_surrogate()
    return {
        "probe": probe(surrogate),
        "cases": {name: run_case(surrogate, case) for name, case in CASES.items()},
    }


@pytest.fixture(scope="module")
def oracle():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def surrogate(oracle):
    surrogate = build_surrogate()
    if probe(surrogate) != oracle["probe"]:
        pytest.skip("this host's tanh/einsum kernels differ from the capture host's")
    return surrogate


def test_fixture_covers_every_case(oracle):
    assert sorted(oracle["cases"]) == sorted(CASES)


def test_cases_cover_both_stopping_rules(oracle):
    generations = [
        case["events"][-1][1]["generations"] for case in oracle["cases"].values()
    ]
    assert any(g < 70 for g in generations)  # stagnation stop
    assert 4 in generations  # generation limit


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_matches_oracle(surrogate, oracle, name):
    assert run_case(surrogate, CASES[name]) == oracle["cases"][name]
