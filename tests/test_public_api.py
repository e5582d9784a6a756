"""The documented public API stays importable from the package root."""

import importlib.util
import inspect

import repro
import repro.core
import repro.core.controller
import repro.runtime
from repro.bench.collection import DataCollectionCampaign
from repro.core.anova import rank_parameters
from repro.core.rafiki import RafikiPipeline
from repro.middleware import DriftReconciler, TenantSession, TenantSpec
from repro.runtime.stateship import StateShipper
from repro.errors import (
    ConfigurationError,
    DatastoreError,
    KeyNotFound,
    ReproError,
    SearchError,
    TrainingError,
    WorkloadError,
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_classes_exported(self):
        for name in [
            "CassandraLike",
            "ScyllaLike",
            "Cluster",
            "Rafiki",
            "RafikiPipeline",
            "SurrogateModel",
            "YCSBBenchmark",
            "MGRastTraceGenerator",
            "WorkloadSpec",
        ]:
            assert name in repro.__all__

    def test_quickstart_docstring_present(self):
        assert "Quickstart" in repro.__doc__


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in [
            ConfigurationError,
            WorkloadError,
            DatastoreError,
            TrainingError,
            SearchError,
        ]:
            assert issubclass(exc, ReproError)

    def test_key_not_found_is_datastore_error(self):
        assert issubclass(KeyNotFound, DatastoreError)
        err = KeyNotFound("abc")
        assert err.key == "abc"
        assert "abc" in str(err)


class TestRemovedNames:
    """Names deliberately removed with the single-tenant controller shim.

    One online loop remains: a ``MiddlewareScheduler`` with one
    ``TenantSpec`` per tenant.  The deprecation funnel went with it.
    """

    REMOVED = [
        "OnlineController",
        "warn_deprecated",
        "reset_deprecation_registry",
        "callback_subscriber",
    ]

    def test_removed_names_are_not_exported(self):
        for module in (repro, repro.core, repro.core.controller, repro.runtime):
            for name in self.REMOVED:
                assert name not in getattr(module, "__all__", ()), name
                assert not hasattr(module, name), (module.__name__, name)

    def test_deprecation_module_is_gone(self):
        assert importlib.util.find_spec("repro.runtime.deprecation") is None

    def test_removed_parameters(self):
        removed = [
            (RafikiPipeline.__init__, "progress"),
            (DataCollectionCampaign.__init__, "progress"),
            (rank_parameters, "progress"),
            (TenantSession.__init__, "passive_forecaster"),
            (TenantSession.__init__, "trace_phases"),
            (TenantSpec, "decision_mode"),
            (TenantSpec, "trace_phases"),
            (StateShipper.__init__, "events"),
        ]
        for fn, name in removed:
            assert name not in inspect.signature(fn).parameters, (fn, name)

    def test_removed_internals(self):
        """Sharded serve holds each tenant's event channel instead of
        rewiring buses; the reconciler budgets repairs with the guard's
        bulkhead; scipy's triangular solve has no numpy fallback."""
        removed = [
            ("repro.middleware.scheduler", "_RecordingBus"),
            ("repro.middleware.scheduler", "_attach_session_bus"),
            ("repro.ml.train", "_solve_triangular"),
        ]
        for module, name in removed:
            assert not hasattr(importlib.import_module(module), name), name
        for name in ("repairs_used", "allow_repair"):
            assert not hasattr(DriftReconciler, name), name
