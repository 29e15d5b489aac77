"""Tests for repro.core.mappings (FePIA step 3)."""

import numpy as np
import pytest

from repro.core.mappings import (
    CallableMapping,
    LinearMapping,
    MaxMapping,
    ProductMapping,
    QuadraticMapping,
    RestrictedMapping,
    ReweightedMapping,
    SumMapping,
)
from repro.exceptions import DimensionMismatchError, SpecificationError


class TestLinearMapping:
    def test_value(self):
        m = LinearMapping([2.0, 3.0], constant=1.0)
        assert m.value(np.array([1.0, 1.0])) == 6.0

    def test_value_many_matches_value(self, rng):
        m = LinearMapping(rng.normal(size=5), constant=0.7)
        xs = rng.normal(size=(20, 5))
        batch = m.value_many(xs)
        np.testing.assert_allclose(batch, [m.value(x) for x in xs])

    def test_value_rows_is_row_exact(self, rng):
        """``value_rows`` matches ``value`` bit for bit on every row,
        across dimensions, batch shapes and coefficient scales."""
        for _ in range(200):
            dim = int(rng.integers(1, 65))
            rows = int(rng.integers(1, 81))
            m = LinearMapping(rng.normal(size=dim) * 10.0 ** rng.integers(
                -3, 4, size=dim), constant=float(rng.normal()))
            xs = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(
                -3, 4, size=(rows, dim))
            batch = m.value_rows(xs)
            assert batch.shape == (rows,)
            for x, got in zip(xs, batch):
                assert np.float64(m.value(x)).tobytes() == got.tobytes()

    def test_value_rows_checks_width(self):
        with pytest.raises(DimensionMismatchError):
            LinearMapping([1.0, 2.0]).value_rows(np.ones((3, 4)))

    def test_gradient_is_coefficients(self):
        k = np.array([1.0, -2.0])
        m = LinearMapping(k)
        np.testing.assert_array_equal(m.gradient(np.zeros(2)), k)

    def test_gradient_returns_copy(self):
        m = LinearMapping([1.0])
        g = m.gradient(np.zeros(1))
        g[0] = 99.0
        assert m.coefficients[0] == 1.0

    def test_dimension_check(self):
        m = LinearMapping([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            m.value(np.zeros(3))

    def test_boundary_hyperplane(self):
        m = LinearMapping([1.0, 1.0], constant=2.0)
        normal, offset = m.boundary_hyperplane(10.0)
        np.testing.assert_array_equal(normal, [1.0, 1.0])
        assert offset == 8.0

    def test_nan_coefficients_rejected(self):
        with pytest.raises(SpecificationError):
            LinearMapping([1.0, float("nan")])

    def test_callable_protocol(self):
        m = LinearMapping([2.0])
        assert m(np.array([3.0])) == 6.0


class TestQuadraticMapping:
    def test_pure_quadratic(self):
        m = QuadraticMapping(np.eye(2))
        assert m.value(np.array([3.0, 4.0])) == 25.0

    def test_full_form(self):
        m = QuadraticMapping(np.eye(2), [1.0, 0.0], constant=2.0)
        assert m.value(np.array([1.0, 1.0])) == pytest.approx(5.0)

    def test_symmetrisation(self):
        Q = np.array([[0.0, 1.0], [0.0, 0.0]])
        m = QuadraticMapping(Q)
        # x'Qx with asymmetric Q equals x'(Q+Q')/2 x
        x = np.array([2.0, 3.0])
        assert m.value(x) == pytest.approx(6.0)
        np.testing.assert_allclose(m.quadratic, m.quadratic.T)

    def test_gradient_finite_difference(self, rng):
        Q = rng.normal(size=(4, 4))
        m = QuadraticMapping(Q, rng.normal(size=4), 1.0)
        x = rng.normal(size=4)
        g = m.gradient(x)
        eps = 1e-6
        for i in range(4):
            dx = np.zeros(4)
            dx[i] = eps
            fd = (m.value(x + dx) - m.value(x - dx)) / (2 * eps)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_value_many(self, rng):
        m = QuadraticMapping(rng.normal(size=(3, 3)), rng.normal(size=3))
        xs = rng.normal(size=(10, 3))
        np.testing.assert_allclose(m.value_many(xs),
                                   [m.value(x) for x in xs], rtol=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(SpecificationError, match="square"):
            QuadraticMapping(np.zeros((2, 3)))

    def test_linear_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticMapping(np.eye(2), [1.0])


class TestProductMapping:
    def test_ratio_form(self):
        # size / bandwidth as a monomial
        m = ProductMapping([1.0, -1.0])
        assert m.value(np.array([10.0, 2.0])) == 5.0

    def test_coefficient(self):
        m = ProductMapping([2.0], coefficient=3.0)
        assert m.value(np.array([2.0])) == 12.0

    def test_gradient(self):
        m = ProductMapping([1.0, -1.0])
        x = np.array([10.0, 2.0])
        g = m.gradient(x)
        np.testing.assert_allclose(g, [0.5, -2.5])

    def test_nonpositive_input_rejected(self):
        m = ProductMapping([1.0])
        with pytest.raises(SpecificationError, match="positive"):
            m.value(np.array([0.0]))

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(SpecificationError):
            ProductMapping([1.0], coefficient=0.0)

    def test_value_many(self, rng):
        m = ProductMapping([0.5, 2.0], coefficient=1.5)
        xs = rng.uniform(0.5, 2.0, size=(8, 2))
        np.testing.assert_allclose(m.value_many(xs),
                                   [m.value(x) for x in xs])


class TestCallableMapping:
    def test_value(self):
        m = CallableMapping(lambda x: float(np.sum(x ** 2)), 3)
        assert m.value(np.array([1.0, 2.0, 2.0])) == 9.0

    def test_gradient_none_by_default(self):
        m = CallableMapping(lambda x: 0.0, 2)
        assert m.gradient(np.zeros(2)) is None

    def test_gradient_fn(self):
        m = CallableMapping(lambda x: float(x @ x), 2,
                            gradient_fn=lambda x: 2 * x)
        np.testing.assert_array_equal(m.gradient(np.array([1.0, 2.0])),
                                      [2.0, 4.0])

    def test_gradient_length_checked(self):
        m = CallableMapping(lambda x: 0.0, 2,
                            gradient_fn=lambda x: np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            m.gradient(np.zeros(2))

    def test_non_callable_rejected(self):
        with pytest.raises(SpecificationError):
            CallableMapping("not callable", 2)

    def test_value_many_fallback_loop(self):
        m = CallableMapping(lambda x: float(x[0]), 2)
        out = m.value_many(np.array([[1.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_array_equal(out, [1.0, 2.0])


class TestMaxMapping:
    def test_is_max(self):
        m = MaxMapping([LinearMapping([1.0, 0.0]), LinearMapping([0.0, 1.0])])
        assert m.value(np.array([2.0, 5.0])) == 5.0

    def test_argmax_component(self):
        m = MaxMapping([LinearMapping([1.0, 0.0]), LinearMapping([0.0, 1.0])])
        assert m.argmax_component(np.array([2.0, 5.0])) == 1

    def test_gradient_of_active(self):
        m = MaxMapping([LinearMapping([1.0, 0.0]), LinearMapping([0.0, 1.0])])
        np.testing.assert_array_equal(m.gradient(np.array([2.0, 5.0])),
                                      [0.0, 1.0])

    def test_value_many(self, rng):
        comps = [LinearMapping(rng.normal(size=3)) for _ in range(4)]
        m = MaxMapping(comps)
        xs = rng.normal(size=(12, 3))
        np.testing.assert_allclose(m.value_many(xs), [m.value(x) for x in xs])

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            MaxMapping([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            MaxMapping([LinearMapping([1.0]), LinearMapping([1.0, 2.0])])


class TestSumMapping:
    def test_sum(self):
        m = SumMapping([LinearMapping([1.0, 0.0]), LinearMapping([0.0, 2.0])])
        assert m.value(np.array([1.0, 1.0])) == 3.0

    def test_gradient_sum(self):
        m = SumMapping([LinearMapping([1.0, 0.0]), LinearMapping([0.0, 2.0])])
        np.testing.assert_array_equal(m.gradient(np.zeros(2)), [1.0, 2.0])

    def test_gradient_none_propagates(self):
        m = SumMapping([LinearMapping([1.0]),
                        CallableMapping(lambda x: 0.0, 1)])
        assert m.gradient(np.zeros(1)) is None

    def test_value_many(self, rng):
        m = SumMapping([QuadraticMapping(np.eye(2)), LinearMapping([1.0, 1.0])])
        xs = rng.normal(size=(6, 2))
        np.testing.assert_allclose(m.value_many(xs), [m.value(x) for x in xs])


class TestRestrictedMapping:
    def test_freezes_other_coordinates(self):
        base = LinearMapping([1.0, 10.0, 100.0])
        r = RestrictedMapping(base, [1], np.array([1.0, 2.0, 3.0]))
        # vary only index 1; indices 0 and 2 frozen at 1 and 3
        assert r.value(np.array([5.0])) == 1.0 + 50.0 + 300.0

    def test_embed(self):
        base = LinearMapping([1.0, 1.0, 1.0])
        r = RestrictedMapping(base, [0, 2], np.array([9.0, 8.0, 7.0]))
        np.testing.assert_array_equal(r.embed(np.array([1.0, 2.0])),
                                      [1.0, 8.0, 2.0])

    def test_embed_many(self):
        base = LinearMapping([1.0, 1.0])
        r = RestrictedMapping(base, [1], np.array([5.0, 0.0]))
        out = r.embed_many(np.array([[1.0], [2.0]]))
        np.testing.assert_array_equal(out, [[5.0, 1.0], [5.0, 2.0]])

    def test_gradient_restricted(self):
        base = LinearMapping([1.0, 10.0, 100.0])
        r = RestrictedMapping(base, [0, 2], np.zeros(3))
        np.testing.assert_array_equal(r.gradient(np.zeros(2)), [1.0, 100.0])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(SpecificationError, match="unique"):
            RestrictedMapping(LinearMapping([1.0, 1.0]), [0, 0], np.zeros(2))

    def test_out_of_range_rejected(self):
        with pytest.raises(SpecificationError, match="range"):
            RestrictedMapping(LinearMapping([1.0]), [1], np.zeros(1))

    def test_reference_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            RestrictedMapping(LinearMapping([1.0, 1.0]), [0], np.zeros(3))


class TestBaseValueRows:
    def test_loops_over_value(self, rng):
        """The base implementation is row-exact by construction."""
        m = QuadraticMapping(rng.normal(size=(6, 6)), rng.normal(size=6),
                             constant=0.3)
        xs = rng.normal(size=(25, 6))
        batch = m.value_rows(xs)
        for x, got in zip(xs, batch):
            assert np.float64(m.value(x)).tobytes() == got.tobytes()


class TestReweightedMapping:
    def test_reparameterisation(self):
        base = LinearMapping([2.0, 4.0])
        alphas = np.array([2.0, 4.0])
        m = ReweightedMapping(base, alphas)
        # g(P) = f(P/alpha): coefficients become k/alpha = (1, 1)
        assert m.value(np.array([1.0, 1.0])) == 2.0

    def test_gradient_chain_rule(self):
        base = LinearMapping([2.0, 4.0])
        m = ReweightedMapping(base, np.array([2.0, 4.0]))
        np.testing.assert_allclose(m.gradient(np.ones(2)), [1.0, 1.0])

    def test_roundtrip_with_quadratic(self, rng):
        base = QuadraticMapping(rng.normal(size=(3, 3)), rng.normal(size=3))
        alphas = rng.uniform(0.5, 2.0, size=3)
        m = ReweightedMapping(base, alphas)
        x = rng.normal(size=3)
        assert m.value(alphas * x) == pytest.approx(base.value(x))

    def test_zero_alpha_rejected(self):
        with pytest.raises(SpecificationError, match="nonzero"):
            ReweightedMapping(LinearMapping([1.0]), [0.0])

    def test_value_many(self, rng):
        base = QuadraticMapping(np.eye(2))
        m = ReweightedMapping(base, np.array([2.0, 3.0]))
        xs = rng.normal(size=(5, 2))
        np.testing.assert_allclose(m.value_many(xs), [m.value(x) for x in xs])
