"""Tests for the deterministic fault injector."""

import math
import time

import numpy as np
import pytest

from repro.core.boundary import as_linear
from repro.core.mappings import LinearMapping
from repro.exceptions import ConvergenceError, SpecificationError
from repro.resilience import FaultInjector, FaultSpec, InjectedFaultError


class TestFaultSpecValidation:
    def test_defaults_are_transparent(self):
        spec = FaultSpec()
        assert spec.exception_rate == 0.0
        assert spec.nan_rate == 0.0

    @pytest.mark.parametrize("field", ["exception_rate", "nan_rate",
                                       "inf_rate", "latency_rate",
                                       "nonconvergence_rate"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(SpecificationError):
            FaultSpec(**{field: 1.5})
        with pytest.raises(SpecificationError):
            FaultSpec(**{field: -0.1})

    def test_negative_latency_rejected(self):
        with pytest.raises(SpecificationError):
            FaultSpec(latency=-1.0)

    def test_injector_rejects_non_spec(self):
        with pytest.raises(SpecificationError):
            FaultInjector(spec="high")


class TestWrapMapping:
    def test_transparent_injector_passes_through(self):
        mapping = LinearMapping([2.0, 3.0])
        faulty = FaultInjector(seed=0).wrap_mapping(mapping)
        x = np.array([1.0, 1.0])
        assert faulty.value(x) == mapping.value(x)
        np.testing.assert_allclose(faulty.gradient(x), mapping.gradient(x))

    def test_structure_is_hidden(self):
        # A faulty linear mapping must not be routed to the closed-form
        # solver, which would read clean coefficients and bypass faults.
        faulty = FaultInjector(seed=0).wrap_mapping(LinearMapping([1.0]))
        assert as_linear(faulty) is None

    def test_nan_faults_fire(self):
        injector = FaultInjector(FaultSpec(nan_rate=0.5), seed=42)
        faulty = injector.wrap_mapping(LinearMapping([1.0]))
        values = [faulty.value(np.array([1.0])) for _ in range(200)]
        n_nan = sum(math.isnan(v) for v in values)
        assert 0 < n_nan < 200
        assert injector.counts["mapping:nan"] == n_nan

    def test_inf_faults_fire(self):
        injector = FaultInjector(FaultSpec(inf_rate=0.5), seed=42)
        faulty = injector.wrap_mapping(LinearMapping([1.0]))
        values = [faulty.value(np.array([1.0])) for _ in range(200)]
        assert any(math.isinf(v) for v in values)

    def test_exception_faults_fire(self):
        injector = FaultInjector(FaultSpec(exception_rate=1.0), seed=0)
        faulty = injector.wrap_mapping(LinearMapping([1.0]))
        with pytest.raises(InjectedFaultError):
            faulty.value(np.array([1.0]))
        assert injector.counts["mapping:exception"] == 1

    def test_mappings_skip_nonconvergence(self):
        # non-convergence is a solver-only fault kind
        injector = FaultInjector(FaultSpec(nonconvergence_rate=1.0), seed=0)
        faulty = injector.wrap_mapping(LinearMapping([1.0]))
        assert faulty.value(np.array([2.0])) == 2.0

    def test_value_many_corrupts_per_row(self):
        injector = FaultInjector(FaultSpec(nan_rate=0.3), seed=9)
        faulty = injector.wrap_mapping(LinearMapping([1.0, 1.0]))
        xs = np.ones((500, 2))
        values = faulty.value_rows(xs)
        n_nan = int(np.isnan(values).sum())
        assert 0 < n_nan < 500  # partial corruption, like a flaky batch
        clean = values[~np.isnan(values)]
        np.testing.assert_allclose(clean, 2.0)

    def test_deterministic_under_seed(self):
        def run():
            injector = FaultInjector(
                FaultSpec(nan_rate=0.3, exception_rate=0.2), seed=7)
            faulty = injector.wrap_mapping(LinearMapping([1.0]))
            out = []
            for _ in range(100):
                try:
                    out.append(faulty.value(np.array([1.0])))
                except InjectedFaultError:
                    out.append("raised")
            return out, dict(injector.counts)

        a, counts_a = run()
        b, counts_b = run()
        assert counts_a == counts_b
        assert [repr(v) for v in a] == [repr(v) for v in b]

    def test_rejects_non_mapping(self):
        with pytest.raises(SpecificationError):
            FaultInjector().wrap_mapping(lambda x: x)


class TestWrapCallable:
    def test_passthrough_preserves_arguments(self):
        wrapped = FaultInjector(seed=0).wrap_callable(
            lambda a, b=1: a + b, name="adder")
        assert wrapped(2, b=3) == 5

    def test_exception_raised_before_call(self):
        calls = []
        injector = FaultInjector(FaultSpec(exception_rate=1.0), seed=0)
        wrapped = injector.wrap_callable(lambda: calls.append(1), name="s")
        with pytest.raises(InjectedFaultError):
            wrapped()
        assert calls == []  # the real callable never ran
        assert injector.counts["s:exception"] == 1

    def test_nonconvergence_raises_convergence_error(self):
        injector = FaultInjector(FaultSpec(nonconvergence_rate=1.0), seed=0)
        wrapped = injector.wrap_callable(lambda: 1, name="s")
        with pytest.raises(ConvergenceError):
            wrapped()

    def test_latency_fault_delays(self):
        injector = FaultInjector(
            FaultSpec(latency_rate=1.0, latency=0.05), seed=0)
        wrapped = injector.wrap_callable(lambda: 1, name="s")
        t0 = time.perf_counter()
        assert wrapped() == 1
        assert time.perf_counter() - t0 >= 0.05
        assert injector.counts["s:latency"] == 1

    def test_total_injected_sums_counts(self):
        injector = FaultInjector(FaultSpec(exception_rate=1.0), seed=0)
        wrapped = injector.wrap_callable(lambda: 1)
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                wrapped()
        assert injector.total_injected() == 3
