import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CASSANDRA_KEY_PARAMETERS, cassandra_space
from repro.config.parameter import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
)
from repro.config.space import ConfigurationSpace
from repro.errors import SearchError
from repro.ga.encoding import ConfigurationEncoder


@pytest.fixture(scope="module")
def encoder():
    return ConfigurationEncoder(cassandra_space(), CASSANDRA_KEY_PARAMETERS)


class TestEncoder:
    def test_gene_count(self, encoder):
        assert encoder.n_genes == 5

    def test_needs_parameters(self):
        with pytest.raises(SearchError):
            ConfigurationEncoder(cassandra_space(), [])

    def test_bounds_match_specs(self, encoder):
        space = cassandra_space()
        cw_idx = list(encoder.names).index("concurrent_writes")
        assert encoder.lower[cw_idx] == space["concurrent_writes"].low
        assert encoder.upper[cw_idx] == space["concurrent_writes"].high

    def test_categorical_encoded_as_index(self, encoder):
        cm_idx = list(encoder.names).index("compaction_method")
        assert encoder.lower[cm_idx] == 0.0
        assert encoder.upper[cm_idx] == 1.0
        assert encoder.integral[cm_idx]

    def test_decode_valid_configuration(self, encoder, rng):
        genes = encoder.random_genes(rng)
        config = encoder.decode(genes)
        for name in encoder.names:
            encoder.space[name].validate(config[name])

    def test_decode_wrong_length(self, encoder):
        with pytest.raises(SearchError):
            encoder.decode(np.zeros(3))

    def test_encode_decode_round_trip(self, encoder, rng):
        config = encoder.space.sample_configuration(rng, encoder.names)
        back = encoder.decode(encoder.encode(config))
        for name in encoder.names:
            assert back[name] == config[name]

    def test_decode_clips_out_of_bounds(self, encoder):
        genes = encoder.upper + 100.0
        config = encoder.decode(genes)
        for name, hi in zip(encoder.names, encoder.upper):
            spec = encoder.space[name]
            spec.validate(config[name])

    def test_features_include_read_ratio(self, encoder, rng):
        genes = encoder.random_genes(rng)
        row = encoder.features(genes, read_ratio=0.7)
        assert row[0] == 0.7
        assert len(row) == 1 + encoder.n_genes
        assert (row[1:] >= 0).all() and (row[1:] <= 1).all()


class TestViolation:
    def test_feasible_point_zero(self, encoder):
        config = encoder.space.default_configuration()
        assert encoder.violation(encoder.encode(config)) == 0.0

    def test_fractional_integer_violates(self, encoder):
        genes = encoder.encode(encoder.space.default_configuration())
        cw_idx = list(encoder.names).index("concurrent_writes")
        genes[cw_idx] += 0.4
        assert encoder.violation(genes) == pytest.approx(0.4)

    def test_out_of_bounds_violates(self, encoder):
        genes = encoder.encode(encoder.space.default_configuration())
        genes[0] = encoder.upper[0] + (encoder.upper[0] - encoder.lower[0])
        assert encoder.violation(genes) >= 1.0

    def test_float_parameters_never_integral_violation(self, encoder):
        genes = encoder.encode(encoder.space.default_configuration())
        mt_idx = list(encoder.names).index("memtable_cleanup_threshold")
        genes[mt_idx] = 0.237  # arbitrary in-range float
        assert encoder.violation(genes) == 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_decode_always_feasible(self, encoder, seed):
        rng = np.random.default_rng(seed)
        genes = rng.uniform(encoder.lower - 5, encoder.upper + 5)
        config = encoder.decode(genes)
        snapped = encoder.encode(config)
        assert encoder.violation(snapped) == 0.0


#: Cassandra's key parameters all have non-negative bounds; this toy
#: space adds negative and zero-straddling ranges, where rounding can
#: produce ``-0.0``.
SIGNED_SPACE = ConfigurationSpace(
    "signed",
    [
        IntegerParameter("offset", default=0, low=-6, high=5),
        FloatParameter("skew", default=0.0, low=-1.5, high=2.0),
        CategoricalParameter("mode", default="b", choices=("a", "b", "c", "d")),
        IntegerParameter("level", default=-3, low=-9, high=-1),
    ],
)
SNAP_ENCODERS = (
    ConfigurationEncoder(cassandra_space(), CASSANDRA_KEY_PARAMETERS),
    ConfigurationEncoder(SIGNED_SPACE, SIGNED_SPACE.names),
)


@st.composite
def encoder_and_genes(draw):
    """An encoder and a gene vector mixing in-range values, overshoots,
    exact ``.5`` ties, and signed zeros."""
    encoder = draw(st.sampled_from(SNAP_ENCODERS))
    genes = []
    for low, high in zip(encoder.lower, encoder.upper):
        span = high - low
        tie = draw(st.integers(int(low) - 2, int(high) + 2)) + 0.5
        genes.append(
            draw(
                st.one_of(
                    st.floats(low - 2 * span, high + 2 * span),
                    st.just(tie),
                    st.sampled_from([0.0, -0.0, -0.4, 0.4, low, high]),
                )
            )
        )
    return encoder, np.array(genes)


class TestSnap:
    @given(case=encoder_and_genes())
    @example(case=(SNAP_ENCODERS[1], np.array([2.5, 0.5, 1.5, -4.5])))
    @example(case=(SNAP_ENCODERS[1], np.array([-0.4, -0.0, 0.5, -1.5])))
    @settings(max_examples=300, deadline=None)
    def test_snap_is_encode_of_decode_bitwise(self, case):
        encoder, genes = case
        expected = encoder.encode(encoder.decode(genes))
        got = encoder.snap(genes)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in expected]
