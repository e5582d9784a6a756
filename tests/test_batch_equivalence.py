"""Batch-vs-scalar equivalence of the vectorized search fast path.

The batched evaluation stack (``features_batch``/``violation_batch``,
``predict_mean_std``, the GA's ``fitness_batch_fn``, the chunked
baseline searchers) must be *numerically identical* to the scalar
reference path: the inference forward pass is row-stable by
construction (einsum contraction + sequential member accumulation), so
scoring a row alone or inside a batch gives the same bits.  These tests
pin that contract.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.dataset import PerformanceDataset, PerformanceSample
from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.core.persistence import surrogate_from_dict, surrogate_to_dict
from repro.core.search import ConfigurationOptimizer, GreedySearch, RandomSearch
from repro.core.surrogate import SurrogateModel
from repro.ga.algorithm import GeneticAlgorithm
from repro.ga.encoding import ConfigurationEncoder
from repro.ml.ensemble import EnsembleConfig, NetworkEnsemble
from repro.ml.network import FeedForwardNetwork
from repro.runtime.events import EventBus
from repro.workload.spec import WorkloadSpec
from tests.reference import ensemble_mean_std_scaled, forward_rows

PARAMS = list(CASSANDRA_KEY_PARAMETERS)
SPACE = cassandra_space()
ENCODER = ConfigurationEncoder(SPACE, PARAMS)


def gene_matrices(max_rows: int = 64):
    """Random (n, n_genes) matrices, including out-of-bounds genes."""
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda n: st.integers(min_value=0, max_value=2**31 - 1).map(
            lambda s: np.random.default_rng(s).uniform(
                ENCODER.lower - 3.0, ENCODER.upper + 3.0, size=(n, ENCODER.n_genes)
            )
        )
    )


class TestEncoderBatchEquivalence:
    @given(genes=gene_matrices())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_features_batch_matches_rows_bitwise(self, genes):
        batch = ENCODER.features_batch(genes, 0.42)
        for i in range(genes.shape[0]):
            assert np.array_equal(batch[i], ENCODER.features(genes[i], 0.42))

    @given(genes=gene_matrices())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_violation_batch_matches_rows_bitwise(self, genes):
        batch = ENCODER.violation_batch(genes)
        for i in range(genes.shape[0]):
            assert batch[i] == ENCODER.violation(genes[i])

    def test_row_count_validated(self):
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            ENCODER.features_batch(np.zeros((3, ENCODER.n_genes + 1)), 0.5)
        with pytest.raises(SearchError):
            ENCODER.violation_batch(np.zeros((3, ENCODER.n_genes + 1)))


def make_ensemble(n_features: int, n_networks: int = 5, seed: int = 0) -> NetworkEnsemble:
    """A prediction-ready ensemble without the training cost: random
    member weights, scalers fitted on random data."""
    rng = np.random.default_rng(seed)
    ens = NetworkEnsemble(EnsembleConfig(n_networks=n_networks))
    ens.x_scaler.fit(rng.standard_normal((32, n_features)))
    ens.y_scaler.fit(rng.standard_normal(32) * 1e4)
    ens.networks = [
        FeedForwardNetwork([n_features, 14, 4, 1], rng=np.random.default_rng(seed + i))
        for i in range(n_networks)
    ]
    return ens


class TestEnsembleBatchEquivalence:
    @given(
        n_rows=st.integers(min_value=1, max_value=96),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_predict_mean_std_matches_per_row_bitwise(self, n_rows, seed):
        ens = make_ensemble(n_features=6, seed=17)
        x = np.random.default_rng(seed).standard_normal((n_rows, 6))
        mean, std = ens.predict_mean_std(x)
        assert mean.shape == (n_rows,) and std.shape == (n_rows,)
        for i in range(n_rows):
            m_i, s_i = ens.predict_mean_std(x[i : i + 1])
            assert mean[i] == m_i[0]
            assert std[i] == s_i[0]

    def test_one_pass_agrees_with_predict_and_predict_std(self):
        ens = make_ensemble(n_features=6, seed=3)
        x = np.random.default_rng(5).standard_normal((48, 6))
        mean, std = ens.predict_mean_std(x)
        assert np.array_equal(mean, ens.predict(x))
        assert np.array_equal(std, ens.predict_std(x))

    def test_forward_rows_row_stable(self):
        net = FeedForwardNetwork([6, 14, 4, 1], rng=np.random.default_rng(9))
        x = np.random.default_rng(11).standard_normal((200, 6))
        full = forward_rows(net, x)
        rows = np.array([forward_rows(net, x[i])[0] for i in range(200)])
        assert np.array_equal(full, rows)


def reference_mean_std(ens, x):
    """``predict_mean_std`` computed by the per-member reference walk."""
    mean, std = ensemble_mean_std_scaled(ens, ens.x_scaler.transform(x))
    return ens.y_scaler.inverse_transform(mean), std * ens.y_scaler.scale_[0]


def assert_predicts_like_reference(ens, x):
    mean, std = ens.predict_mean_std(x)
    ref_mean, ref_std = reference_mean_std(ens, x)
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(std, ref_std)


class TestStackedEnsemble:
    """The ensemble runs its members as one stacked contraction per
    layer; it must give the per-member reference walk's bits."""

    @given(
        n_rows=st.integers(min_value=1, max_value=500),
        n_networks=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @example(n_rows=1, n_networks=14, seed=23)
    @example(n_rows=2, n_networks=14, seed=23)
    @example(n_rows=47, n_networks=14, seed=23)
    @example(n_rows=48, n_networks=14, seed=23)
    @example(n_rows=49, n_networks=14, seed=23)
    @example(n_rows=500, n_networks=14, seed=23)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_rows_are_stable_and_match_reference(self, n_rows, n_networks, seed):
        ens = make_ensemble(n_features=6, n_networks=n_networks, seed=seed % 1000)
        x = np.random.default_rng(seed).standard_normal((n_rows, 6))
        assert_predicts_like_reference(ens, x)
        mean, std = ens.predict_mean_std(x)
        for i in np.random.default_rng(seed).choice(n_rows, min(n_rows, 8), replace=False):
            m_i, s_i = ens.predict_mean_std(x[i])
            assert mean[i] == m_i[0]
            assert std[i] == s_i[0]

    def test_reassigning_members_restacks(self):
        ens = make_ensemble(n_features=6, n_networks=4, seed=2)
        x = np.random.default_rng(0).standard_normal((9, 6))
        before = ens.predict(x)
        members = [net.clone() for net in ens.networks]
        members[0].set_weights(members[0].get_weights() * 1.5)
        ens.networks = members
        assert not np.array_equal(ens.predict(x), before)
        assert_predicts_like_reference(ens, x)

    def test_stack_stays_off_the_wire(self):
        surrogate = SurrogateModel(SPACE, PARAMS)
        surrogate.ensemble = make_ensemble(n_features=6, n_networks=14, seed=4)
        blob = pickle.dumps(surrogate)
        surrogate.ensemble.predict_mean_std(np.random.default_rng(1).standard_normal((48, 6)))
        assert pickle.dumps(surrogate) == blob
        assert b"_stack" not in blob

    def test_round_trips_predict_bit_identically(self):
        surrogate = SurrogateModel(SPACE, PARAMS)
        surrogate.ensemble = make_ensemble(n_features=6, n_networks=14, seed=8)
        x = np.random.default_rng(2).standard_normal((49, 6))
        expected = surrogate.predict_mean_std(x)
        restored = [
            pickle.loads(pickle.dumps(surrogate)),
            surrogate_from_dict(surrogate_to_dict(surrogate), SPACE),
        ]
        for copy in restored:
            for got, want in zip(copy.predict_mean_std(x), expected):
                assert np.array_equal(got, want)


def elementwise_fitness(weights):
    """A (scalar, batch) fitness pair whose rows agree bitwise."""

    def scalar(genes: np.ndarray) -> float:
        return float(np.sum(np.tanh(genes * weights), axis=-1))

    def batch(matrix: np.ndarray) -> np.ndarray:
        return np.sum(np.tanh(matrix * weights), axis=-1)

    return scalar, batch


class TestGABatchDeterminism:
    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batched_ga_result_bitwise_identical(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal(ENCODER.n_genes) / np.maximum(ENCODER.upper, 1.0)
        scalar, batch = elementwise_fitness(weights)

        kwargs = dict(population_size=16, generations=12, stagnation_limit=6)
        a = GeneticAlgorithm(ENCODER, fitness_fn=scalar, **kwargs).run(seed=seed)
        b = GeneticAlgorithm(ENCODER, fitness_batch_fn=batch, **kwargs).run(seed=seed)

        assert a.best_configuration == b.best_configuration
        assert a.best_fitness == b.best_fitness  # bitwise: no tolerance
        assert a.evaluations == b.evaluations
        assert a.generations == b.generations
        assert a.history == b.history

    def test_needs_some_fitness(self):
        from repro.errors import SearchError

        with pytest.raises(SearchError):
            GeneticAlgorithm(ENCODER)

    def test_batch_row_count_validated(self):
        from repro.errors import SearchError

        ga = GeneticAlgorithm(
            ENCODER,
            fitness_batch_fn=lambda m: np.zeros(m.shape[0] + 1),
            population_size=8,
            generations=2,
        )
        with pytest.raises(SearchError):
            ga.run(seed=0)


class TestSearchEvents:
    def test_ga_publishes_lifecycle_events(self):
        bus = EventBus()
        events = []
        bus.subscribe(events.append, topic="search")
        scalar, batch = elementwise_fitness(np.ones(ENCODER.n_genes))
        ga = GeneticAlgorithm(
            ENCODER, fitness_batch_fn=batch, population_size=8, generations=4, bus=bus
        )
        ga.run(seed=0)
        topics = [e.topic for e in events]
        assert topics[0] == "search.start"
        assert topics[-1] == "search.done"
        gens = [e for e in events if e.topic == "search.generation"]
        assert 1 <= len(gens) <= 4
        assert gens[0].payload["generation"] == 1
        assert "evaluations" in gens[0].payload

    def test_no_bus_is_noop(self):
        scalar, _ = elementwise_fitness(np.ones(ENCODER.n_genes))
        result = GeneticAlgorithm(
            ENCODER, fitness_fn=scalar, population_size=8, generations=2
        ).run(seed=1)
        assert result.evaluations > 0


@pytest.fixture(scope="module")
def surrogate():
    """Small trained surrogate shared by the optimizer equivalence tests."""
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(18):
        config = SPACE.sample_configuration(rng, PARAMS)
        vec = config.to_vector(PARAMS)
        for rr in (0.1, 0.5, 0.9):
            target = 50_000 + 25_000 * vec[2] - 15_000 * (vec[1] - 0.4) ** 2 + 4_000 * rr
            samples.append(
                PerformanceSample(
                    workload=WorkloadSpec(read_ratio=float(rr)),
                    configuration=config,
                    throughput=float(target),
                )
            )
    dataset = PerformanceDataset(samples, PARAMS)
    model = SurrogateModel(SPACE, PARAMS, EnsembleConfig(n_networks=3, max_epochs=40))
    return model.fit(dataset, seed=4)


class TestOptimizerBatchEquivalence:
    @pytest.mark.parametrize("penalty", [0.0, 0.5])
    def test_batched_and_scalar_paths_identical(self, surrogate, penalty):
        common = dict(population_size=16, generations=10, uncertainty_penalty=penalty)
        fast = ConfigurationOptimizer(surrogate, batched=True, **common).optimize(
            0.6, seed=9
        )
        ref = ConfigurationOptimizer(surrogate, batched=False, **common).optimize(
            0.6, seed=9
        )
        assert fast.configuration == ref.configuration
        assert fast.predicted_throughput == ref.predicted_throughput  # bitwise
        assert fast.evaluations == ref.evaluations
        assert fast.history == ref.history

    def test_uncertainty_penalty_single_ensemble_walk(self, surrogate):
        """The penalized fitness must not re-run the ensemble for the
        spread: n_queries grows by the row count once, not twice."""
        before = surrogate.stats.n_queries
        rows = np.atleast_2d(surrogate.encode(0.5, SPACE.default_configuration()))
        surrogate.predict_mean_std(rows)
        assert surrogate.stats.n_queries == before + 1

    def test_optimizer_emits_events(self, surrogate):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, topic="search")
        ConfigurationOptimizer(
            surrogate, population_size=12, generations=4, bus=bus
        ).optimize(0.5, seed=0)
        assert any(e.topic == "search.start" for e in seen)
        assert any(e.topic == "search.done" for e in seen)


class TestBaselineSearcherEquivalence:
    def test_greedy_matches_per_config_reference(self, surrogate):
        result = GreedySearch(surrogate, resolution=5).optimize(0.5)

        # Reference: the old one-predict-per-candidate loop.
        space = surrogate.space
        current = space.default_configuration()
        evaluations = 0
        for name in surrogate.feature_parameters:
            best_value, best_tp = current[name], -np.inf
            for value in space[name].grid(5):
                candidate = current.with_updates(**{name: value})
                tp = surrogate.predict(0.5, candidate)
                evaluations += 1
                if tp > best_tp:
                    best_value, best_tp = value, tp
            current = current.with_updates(**{name: best_value})
        final_tp = surrogate.predict(0.5, current)
        evaluations += 1

        assert result.configuration == current
        assert result.predicted_throughput == float(final_tp)  # bitwise
        assert result.evaluations == evaluations

    @pytest.mark.parametrize("chunk_size", [7, 64, 1000])
    def test_random_matches_per_config_reference(self, surrogate, chunk_size):
        budget = 60
        result = RandomSearch(surrogate, budget=budget, chunk_size=chunk_size).optimize(
            0.4, seed=3
        )

        from repro.sim.rng import derive_rng

        rng = derive_rng(3)
        space = surrogate.space
        names = surrogate.feature_parameters
        best_config, best_tp = None, -np.inf
        history = []
        for _ in range(budget):
            config = space.sample_configuration(rng, names)
            tp = surrogate.predict(0.4, config)
            if tp > best_tp:
                best_config, best_tp = config, tp
            history.append(best_tp)

        assert result.configuration == best_config
        assert result.predicted_throughput == float(best_tp)  # bitwise
        assert result.evaluations == budget
        assert result.history == [float(h) for h in history]
