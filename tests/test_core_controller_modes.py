"""Decision-policy behaviour of the online loop on one tenant."""

import pytest

from repro.core.policies import (
    ForecastPolicy,
    HysteresisPolicy,
    OraclePolicy,
    ReactivePolicy,
    make_policy,
)
from repro.datastore import CassandraLike
from repro.errors import SearchError
from repro.workload.forecast import LastValueForecaster, MarkovRegimeForecaster
from repro.workload.spec import WorkloadSpec

from tests.conftest import run_one_tenant


@pytest.fixture(scope="module")
def cassandra():
    return CassandraLike()


@pytest.fixture(scope="module")
def workload():
    return WorkloadSpec(read_ratio=0.5, n_keys=2_000_000)


def damped(inner, min_change=0.01):
    return HysteresisPolicy(inner, min_change=min_change)


class RecordingRafiki:
    """Records the RRs it was asked about; returns the default config."""

    def __init__(self, datastore):
        self.datastore = datastore
        self.asked = []

    def recommend(self, read_ratio, use_cache=True):
        from repro.core.search import OptimizationResult

        self.asked.append(round(read_ratio, 4))
        return OptimizationResult(
            configuration=self.datastore.default_configuration(),
            predicted_throughput=0.0,
            evaluations=1,
            equivalent_wall_seconds=0.0,
            strategy="recording",
        )


class TestDecisionModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(SearchError):
            make_policy("psychic")

    def test_forecast_mode_needs_forecaster(self):
        with pytest.raises(SearchError):
            make_policy("forecast")

    def test_oracle_sees_current_window(self, cassandra, workload):
        rafiki = RecordingRafiki(cassandra)
        run_one_tenant(
            cassandra, rafiki, workload, [0.2, 0.8], window_seconds=30,
            policy=damped(OraclePolicy()), load=False,
        )
        assert rafiki.asked == [0.2, 0.8]

    def test_reactive_lags_one_window(self, cassandra, workload):
        rafiki = RecordingRafiki(cassandra)
        run_one_tenant(
            cassandra, rafiki, workload, [0.2, 0.8, 0.8], window_seconds=30,
            policy=damped(ReactivePolicy()), load=False,
        )
        # First window: no information yet -> no consult.  Then it uses
        # the previous window's RR.
        assert rafiki.asked == [0.2, 0.8]

    def test_forecast_consults_prediction(self, cassandra, workload):
        rafiki = RecordingRafiki(cassandra)
        forecaster = LastValueForecaster(initial=0.5)
        run_one_tenant(
            cassandra, rafiki, workload, [0.2, 0.9, 0.4], window_seconds=30,
            policy=damped(ForecastPolicy(forecaster)), load=False,
        )
        # Window 0: the forecaster has seen nothing -> no consult (cold
        # start, like reactive mode's first window); window 1: last
        # value (0.2); window 2: last value (0.9).
        assert rafiki.asked == [0.2, 0.9]

    def test_forecast_cold_start_skips_first_window(self, cassandra, workload):
        """An unfitted forecaster's prior must not drive a reconfiguration."""
        rafiki = RecordingRafiki(cassandra)
        run = run_one_tenant(
            cassandra, rafiki, workload, [0.9], window_seconds=30,
            policy=damped(ForecastPolicy(MarkovRegimeForecaster())), load=False,
        )
        assert rafiki.asked == []
        assert not run.events[0].reconfigured

    def test_forecaster_updated_with_observations(self, cassandra, workload):
        forecaster = MarkovRegimeForecaster()
        run_one_tenant(
            cassandra, None, workload, [0.9, 0.9, 0.9], window_seconds=30,
            policy=damped(ForecastPolicy(forecaster), min_change=0.08),
            load=False,
        )
        assert forecaster.predict() > 0.6

    def test_forecast_mode_skips_downtime(self, cassandra, workload):
        """Proactive reconfiguration at the boundary costs no window time."""

        class SwitchingRafiki(RecordingRafiki):
            def recommend(self, read_ratio, use_cache=True):
                result = super().recommend(read_ratio)
                if read_ratio > 0.5:
                    result.configuration = self.datastore.space.configuration(
                        file_cache_size_in_mb=1024
                    )
                return result

        def run_policy(policy):
            return run_one_tenant(
                cassandra, SwitchingRafiki(cassandra), workload, [0.2, 0.9],
                window_seconds=30, reconfiguration_penalty_s=15.0,
                policy=damped(policy), seed=3, load=False,
            )

        reactive = run_policy(OraclePolicy())
        proactive = run_policy(ForecastPolicy(LastValueForecaster(initial=0.2)))
        # Note: both switch configurations; only the oracle/reactive one
        # pays the in-window penalty.
        assert proactive.events[-1].mean_throughput >= reactive.events[-1].mean_throughput
