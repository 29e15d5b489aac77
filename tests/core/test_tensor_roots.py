"""The tensor kernel's batched Brent roots are the scalar SciPy floats.

The bisection tier returns each unit's winning crossing straight from
:func:`~repro.core.solvers.brent.batched_brentq`; the numeric tier seeds
SLSQP with the same roots.  That is sound only because every batched
evaluation goes through the row-exact ``value_rows``: then each refined
bracket's root must equal ``scipy.optimize.brentq`` on the same bracket
through ``mapping.value``.  The groups here are shaped like the
``radii-batch`` benchmark's: three shared 12-dimensional mappings (two
near-isotropic diagonal quadratics and a max of four unit-norm affine
pieces) under the 1- and sup-norms.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.core.features import ToleranceBounds
from repro.core.mappings import LinearMapping, MaxMapping, QuadraticMapping
from repro.core.radius import RadiusProblem, compute_radius
from repro.core.solvers import bisection, brent, tensor
from repro.core.solvers.tensor import ProblemTensor, solve_group

DIM = 12


def _mappings(rng):
    rows = rng.standard_normal((4, DIM))
    return [
        QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(DIM))),
        QuadraticMapping(np.diag(1.0 + 0.2 * rng.random(DIM))),
        MaxMapping([LinearMapping(row / np.linalg.norm(row), 0.1 * k)
                    for k, row in enumerate(rows)]),
    ]


def _groups(seed, members=8):
    rng = np.random.default_rng(seed)
    for mapping in _mappings(rng):
        for norm in (1, np.inf):
            problems = []
            for _ in range(members):
                origin = 0.05 * rng.standard_normal(DIM)
                bounds = ToleranceBounds(beta_max=mapping.value(origin) + 3.0)
                problems.append(RadiusProblem(mapping, origin, bounds,
                                              norm=norm))
            yield ProblemTensor.pack(problems, "bisection")


def _units(group):
    value0s = [p.original_value for p in group.problems]
    units = [(pi, j, float(b)) for pi, p in enumerate(group.problems)
             for j, b in enumerate(p.bounds.finite_bounds)]
    h0s = [value0s[pi] - b for pi, _, b in units]
    return units, h0s


@pytest.fixture
def no_scalar_fallback(monkeypatch):
    """Fail if the batched kernel flags any bracket for the scalar
    refinement, so the roots under test are its own."""
    def checked(*args, **kwargs):
        roots, ok = brent.batched_brentq(*args, **kwargs)
        if not ok.all():
            raise AssertionError("a bracket fell back to scalar brentq")
        return roots, ok

    monkeypatch.setattr(bisection, "batched_brentq", checked)


@pytest.mark.parametrize("seed", [1, 7])
def test_every_batched_root_equals_scipy(seed, no_scalar_fallback):
    compared = 0
    for group in _groups(seed):
        units, h0s = _units(group)
        directions = bisection._bisection_directions(group.dim, group.norm,
                                                     seed)
        t_stops = tensor._unit_t_stops(group, units, directions)
        brackets = bisection._expand_units(group.problems[0].mapping,
                                           group.origins, directions, units,
                                           h0s, t_stops)
        roots = bisection._refine_brackets(group.problems[0].mapping,
                                           group.origins, units, h0s,
                                           directions, brackets)
        for u, row, lo, hi, root in zip(brackets[0], brackets[1],
                                        brackets[2], brackets[3], roots):
            pi, _, bound = units[u]
            problem = group.problems[pi]
            direction = directions[row]

            def h(t):
                return problem.mapping.value(problem.origin
                                             + t * direction) - bound

            want = brentq(h, lo, hi, xtol=1e-12)
            assert root == want, (u, row, root, want)
            compared += 1
    # most rays of every unit bracket a crossing in these groups
    assert compared >= 6 * 8 * 128


@pytest.mark.parametrize("seed", [1, 7])
def test_group_winners_match_compute_radius(seed, no_scalar_fallback):
    for group in _groups(seed, members=5):
        got = solve_group(group.problems, method="bisection", seed=seed,
                          cache=False)
        for problem, result in zip(group.problems, got):
            want = compute_radius(problem, method="bisection", seed=seed,
                                  cache=False)
            assert result.radius == want.radius
            assert result.per_bound == want.per_bound
            np.testing.assert_array_equal(result.boundary_point,
                                          want.boundary_point)
