"""Row-exact batch evaluation: every ``value_rows`` override vs ``value``.

``FeatureMapping.value_rows`` promises that element ``i`` is
bit-identical to ``value(xs[i])`` whatever the batch shape.  The solver
kernels rely on it: their sign tests, ray tables, certificate probes and
lock-step Brent steps all evaluate through ``value_rows``, and the tensor
kernel returns its batched Brent roots as results.  Whether a stacked
``matmul`` takes the same BLAS kernel per row as the scalar product
depends on the NumPy/BLAS build, so this suite is the guard: it pins
every override row by row over random dimensions (1–33) and batch sizes
(one row, odd sizes, and 2000+ rows, where BLAS blocking kicks in).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from repro.core.solvers.bench import CallCountingMapping
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.systems.selfhost import SelfhostMapping, SelfhostSystem

DIMS = st.integers(min_value=1, max_value=33)
ROWS = st.one_of(st.just(1),
                 st.integers(min_value=1, max_value=200).map(
                     lambda k: 2 * k + 1),
                 st.integers(min_value=2000, max_value=2080))
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _assert_row_exact(mapping, xs):
    got = np.asarray(mapping.value_rows(xs), dtype=np.float64)
    want = np.array([mapping.value(x) for x in xs], dtype=np.float64)
    assert got.shape == want.shape
    mismatched = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert mismatched.size == 0, (
        f"{type(mapping).__name__}: {mismatched.size} of {len(xs)} rows "
        f"differ, first at row {mismatched[0]}: "
        f"{got[mismatched[0]]!r} != {want[mismatched[0]]!r}")


def _linear(rng, n):
    return LinearMapping(rng.standard_normal(n), rng.standard_normal())


def _quadratic_full(rng, n):
    return QuadraticMapping(rng.standard_normal((n, n)),
                            rng.standard_normal(n), rng.standard_normal())


def _quadratic_diag(rng, n):
    return QuadraticMapping(np.diag(1.0 + rng.random(n)),
                            rng.standard_normal(n), 0.5)


def _max(rng, n):
    return MaxMapping([_quadratic_full(rng, n), _linear(rng, n),
                       _quadratic_diag(rng, n)])


def _sum(rng, n):
    return SumMapping([_quadratic_diag(rng, n), _linear(rng, n),
                       _quadratic_full(rng, n)])


def _product(rng, n):
    return ProductMapping(rng.uniform(-2.0, 2.0, n), 1.5)


def _restricted(rng, n):
    full = n + 3
    return RestrictedMapping(_quadratic_full(rng, full),
                             rng.permutation(full)[:n],
                             rng.standard_normal(full))


def _reweighted(rng, n):
    alphas = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return ReweightedMapping(_max(rng, n), alphas)


def _counting(rng, n):
    return CallCountingMapping(_max(rng, n))


def _faulting(rng, n):
    # Zero rates: the wrapper draws but never corrupts, so its batched
    # rows must be the base's exact floats.
    return FaultInjector(FaultSpec(), seed=0).wrap_mapping(_sum(rng, n))


BUILDERS = {
    "linear": _linear,
    "quadratic_full": _quadratic_full,
    "quadratic_diag": _quadratic_diag,
    "max": _max,
    "sum": _sum,
    "product": _product,
    "restricted": _restricted,
    "reweighted": _reweighted,
    "counting": _counting,
    "faulting": _faulting,
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@settings(max_examples=12, deadline=None)
@given(n=DIMS, m=ROWS, seed=SEEDS)
@example(n=1, m=1, seed=1)
@example(n=12, m=2001, seed=2)
@example(n=33, m=2048, seed=3)
def test_value_rows_is_row_exact(kind, n, m, seed):
    rng = np.random.default_rng(seed)
    mapping = BUILDERS[kind](rng, n)
    xs = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
    if kind == "product":
        xs = np.abs(xs) + 0.1  # the monomial's positive domain
    _assert_row_exact(mapping, xs)


@settings(max_examples=8, deadline=None)
@given(m=ROWS, seed=SEEDS,
       feature=st.sampled_from(["makespan", "max_load", "recovery"]))
@example(m=2001, seed=1, feature="recovery")
def test_selfhost_value_rows_is_row_exact(m, seed, feature):
    system = SelfhostSystem(costs=np.array([1.0, 2.0, 3.0, 4.0]),
                            fail_rates=np.array([0.2, 0.3]))
    mapping = ReweightedMapping(SelfhostMapping(system.model, feature),
                                np.array([1.0, 0.5, 2.0, 1.0, 4.0, 3.0]))
    rng = np.random.default_rng(seed)
    xs = np.abs(rng.normal(1.0, 0.5, size=(m, 6)))
    _assert_row_exact(mapping, xs)


def test_max_follows_python_max_on_nan():
    # Python's max keeps the running value unless a later one compares
    # greater, so a NaN first component wins and a later NaN is skipped;
    # np.max would return NaN for both rows.
    nan_first = CallableMapping(
        lambda x: float("nan") if x[0] > 0 else 0.0, 2)
    mapping = MaxMapping([nan_first, LinearMapping([1.0, 1.0]),
                          CallableMapping(lambda x: float("nan"), 2)])
    xs = np.array([[1.0, 2.0], [-1.0, 2.0]])
    got = mapping.value_rows(xs)
    assert np.isnan(got[0]) and np.isnan(mapping.value(xs[0]))
    assert got[1] == mapping.value(xs[1]) == 1.0


def test_sum_follows_python_sum_on_negative_zero():
    # value's fold starts from integer 0, as sum() does, so an
    # all-(-0.0) sum is +0.0.
    mapping = SumMapping([CallableMapping(lambda x: -0.0, 1)] * 2)
    got = mapping.value_rows(np.zeros((3, 1)))
    want = mapping.value(np.zeros(1))
    assert not np.signbit(want)
    assert not np.any(np.signbit(got))


def test_counting_wrapper_counts_one_batched_call():
    mapping = CallCountingMapping(_quadratic_full(np.random.default_rng(0), 4))
    mapping.value_rows(np.ones((7, 4)))
    mapping.value_rows(np.ones((5, 4)))
    mapping.value(np.ones(4))
    assert (mapping.value_calls, mapping.batch_calls, mapping.rows) \
        == (1, 2, 12)
    assert mapping.calls == 3
    mapping.reset()
    assert mapping.calls == mapping.rows == 0
