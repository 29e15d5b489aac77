"""Exact radii for positive-definite quadratics (the ellipsoid tier).

Any ``x'Qx + k.x + c`` with ``Q`` positive definite has ellipsoidal level
sets, shifted to the centre ``-Q^{-1} k / 2`` and rotated by ``Q``'s
eigenvectors, so under ``auto`` (unboxed, Euclidean) it takes the exact
secular-equation projection in that frame.  Under test here: the
trust-region *hard case* (origin inside with nothing on the top axes),
the ladder cases that keep their old tiers, and a property suite that
pins the exact radius between the forced numeric and bisection tiers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.boundary import as_ellipsoid
from repro.core.diagnostics import Quality
from repro.core.features import ToleranceBounds
from repro.core.mappings import QuadraticMapping, ReweightedMapping
from repro.core.radius import RadiusProblem, _tier_ladder, compute_radius
from repro.core.solvers.ellipsoid import (
    LEVEL_RTOL,
    solve_ellipsoid_frame,
    solve_ellipsoid_radius,
)
from repro.exceptions import SolverError


def _on_level(mapping, point, bound) -> bool:
    return abs(mapping.value(point) - bound) <= LEVEL_RTOL * (1 + abs(bound))


class TestHardCase:
    """Origin inside, (almost) nothing on the largest-``d`` axes: the
    root of the secular equation sits on the pole ``-1/(2 d_max)``."""

    @pytest.mark.parametrize("tail", [0.0, 1e-15, 1e-12, 1e-8])
    def test_small_top_component(self, tail):
        mapping = QuadraticMapping(np.diag([1.0, 2.0]))
        problem = RadiusProblem(mapping, [0.5, tail],
                                ToleranceBounds.upper(4.0))
        result = compute_radius(problem, cache=False)
        assert (result.method, result.quality) == ("ellipsoid", Quality.EXACT)
        # x* = (1, +-sqrt(3/2)): the level left after the other axis
        # moves to x0_i / (1 - d_i / d_max) goes on the top axis.
        assert result.radius == pytest.approx(np.sqrt(1.75), rel=1e-7)
        assert _on_level(mapping, result.boundary_point, 4.0)
        assert np.linalg.norm(result.boundary_point - problem.origin) \
            == result.radius
        numeric = compute_radius(problem, method="numeric", seed=0,
                                 cache=False)
        bisection = compute_radius(problem, method="bisection", seed=0,
                                   cache=False)
        assert result.radius == pytest.approx(numeric.radius, rel=1e-6)
        assert result.radius <= bisection.radius

    def test_exact_zero_is_closed_form(self):
        crossing = solve_ellipsoid_radius(QuadraticMapping(np.diag([1.0, 2.0])),
                                          np.array([0.5, 0.0]), 4.0)
        np.testing.assert_array_equal(crossing.point,
                                      [1.0, np.sqrt(1.5)])

    def test_tie_between_top_axes(self):
        # d = (2, 2, 1) with nothing on either top axis: the minimisers
        # form a circle; the witness takes the first top axis.
        mapping = QuadraticMapping(np.diag([2.0, 2.0, 1.0]))
        crossing = solve_ellipsoid_radius(mapping, np.array([0.0, 0.0, 0.5]),
                                          4.0)
        np.testing.assert_array_equal(crossing.point,
                                      [np.sqrt(1.5), 0.0, 1.0])
        assert crossing.distance == pytest.approx(np.sqrt(1.75), rel=1e-15)
        assert _on_level(mapping, crossing.point, 4.0)

    def test_top_axis_follows_the_origin(self):
        mapping = QuadraticMapping(np.diag([2.0, 2.0, 1.0]))
        crossing = solve_ellipsoid_radius(
            mapping, np.array([0.0, -1e-300, 0.5]), 4.0)
        assert crossing.point[0] == 0.0 and crossing.point[1] < 0.0
        assert crossing.distance == pytest.approx(np.sqrt(1.75), rel=1e-12)

    def test_rotated_and_shifted(self):
        # The same hard case seen through a rotation and a centre shift.
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        Q = rot @ np.diag([1.0, 2.0]) @ rot.T
        centre = np.array([0.3, -1.2])
        mapping = QuadraticMapping(Q, -2.0 * Q @ centre,
                                   float(centre @ Q @ centre) + 0.25)
        origin = centre + 0.5 * rot[:, 0]
        bound = 4.25
        result = compute_radius(RadiusProblem(
            mapping, origin, ToleranceBounds.upper(bound)), cache=False)
        assert (result.method, result.quality) == ("ellipsoid", Quality.EXACT)
        assert result.radius == pytest.approx(np.sqrt(1.75), rel=1e-7)
        assert _on_level(mapping, result.boundary_point, bound)


class TestFrameGuard:
    """A centre far beyond the problem's own scale (a nearly flat axis
    under a linear term) rounds ``x0 - m`` and ``V y* + m`` far coarser
    than the radius: such problems keep the numeric tier."""

    FAR = [(np.diag([1e-15, 1.0]), [1.0, 0.0]),
           (np.diag([1e-10, 1e-10]), [1.0, 0.0]),
           (np.diag([1e-8, 1.0]), [1.0, 0.0])]

    @staticmethod
    def _problem(Q, k):
        return RadiusProblem(QuadraticMapping(Q, k), [0.1, 0.1],
                             ToleranceBounds.upper(1.0))

    @pytest.mark.parametrize("Q,k", FAR, ids=["1e-15", "1e-10I", "1e-8"])
    def test_far_centre_stays_numeric(self, Q, k):
        problem = self._problem(Q, k)
        assert as_ellipsoid(problem.mapping) is not None
        assert _tier_ladder(problem, "auto")[0] == ("numeric",)
        result = compute_radius(problem, seed=0, cache=False)
        numeric = compute_radius(problem, method="numeric", seed=0,
                                 cache=False)
        assert (result.method, result.quality) \
            == ("numeric", Quality.CONVERGED)
        assert result.radius == numeric.radius

    @pytest.mark.parametrize("Q,k", FAR[:2], ids=["1e-15", "1e-10I"])
    def test_frame_refuses_a_witness_off_its_level(self, Q, k):
        # Forced through the frame, the centring's rounding puts the
        # witness off its level set (by 2e-3 and 1e-6); the solver
        # raises rather than answer.
        problem = self._problem(Q, k)
        with pytest.raises(SolverError, match="misses its level"):
            solve_ellipsoid_frame(as_ellipsoid(problem.mapping),
                                  problem.origin, 1.0)

    def test_witness_off_level_frame_stays_numeric(self):
        # The centring error (1.4e-10, centre at 3.1e5) is within
        # FRAME_RTOL of the radius, but times the gradient (about 29) it
        # would put the witness 2.5e-9 off its level, beyond LEVEL_RTOL:
        # the guard refuses the frame instead of the solver raising.
        problem = RadiusProblem(
            QuadraticMapping([[4.760025253061779e-05]],
                             [-29.310023868032136], 0.27929714915443626),
            [1.0139371378096484], ToleranceBounds.upper(1.2750193167032293))
        assert as_ellipsoid(problem.mapping) is not None
        assert _tier_ladder(problem, "auto")[0] == ("numeric",)
        result = compute_radius(problem, seed=0, cache=False)
        numeric = compute_radius(problem, method="numeric", seed=0,
                                 cache=False)
        assert (result.method, result.quality) \
            == ("numeric", Quality.CONVERGED)
        assert result.radius == numeric.radius == 1.0479092054236667

    def test_near_centre_keeps_the_exact_tier(self):
        problem = self._problem(np.diag([1e-5, 1.0]), [1.0, 0.0])
        result = compute_radius(problem, cache=False)
        assert (result.method, result.quality) == ("ellipsoid", Quality.EXACT)
        numeric = compute_radius(problem, method="numeric", seed=0,
                                 cache=False)
        assert result.radius == pytest.approx(numeric.radius, rel=1e-8)
        assert _on_level(problem.mapping, result.boundary_point, 1.0)


def _ladder_problem(mapping, norm=2, boxed=False) -> RadiusProblem:
    origin = np.array([0.1, 0.2, 0.3])
    phi0 = mapping.value(origin)
    box = dict(lower=origin - 5.0, upper=origin + 5.0) if boxed else {}
    return RadiusProblem(mapping, origin, ToleranceBounds(phi0 - 1.0,
                                                          phi0 + 1.0),
                         norm=norm, **box)


PD = QuadraticMapping([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]],
                      [0.3, -0.2, 0.1], 0.4)
_ROT, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 1.0],
                                 [0.2, 0.3, -1.5]]))


class TestLadder:
    def test_pd_quadratic_takes_the_ellipsoid(self):
        assert _tier_ladder(_ladder_problem(PD), "auto")[0] == ("ellipsoid",)
        rew = ReweightedMapping(PD, [2.0, -0.5, 3.0])
        assert _tier_ladder(_ladder_problem(rew), "auto")[0] \
            == ("ellipsoid",)

    def test_diagonal_without_linear_term_is_its_own_frame(self):
        diag = QuadraticMapping(np.diag([1.0, 1e-18, 3.0]))
        frame = as_ellipsoid(diag)
        assert frame.rotation is None and frame.diagonal is diag

    @pytest.mark.parametrize("mapping,norm,boxed", [
        (PD, 2, True),
        (PD, 1, False),
        (PD, np.inf, False),
        (QuadraticMapping(_ROT @ np.diag([0.0, 1.0, 2.0]) @ _ROT.T), 2,
         False),
        (QuadraticMapping(_ROT @ np.diag([-1.0, 1.0, 2.0]) @ _ROT.T), 2,
         False),
        (QuadraticMapping(_ROT @ np.diag([1e-17, 1.0, 2.0]) @ _ROT.T), 2,
         False),
    ], ids=["boxed", "norm1", "norminf", "semidefinite", "indefinite",
            "ill-conditioned"])
    def test_other_cases_keep_their_tiers(self, mapping, norm, boxed):
        problem = _ladder_problem(mapping, norm, boxed)
        expected = ("numeric",) if norm == 2 else ("bisection",)
        assert _tier_ladder(problem, "auto")[0] == expected


@st.composite
def pd_problems(draw):
    """A random positive-definite quadratic problem ``Q = AA' + delta I``,
    in P-space through a reweighting or not, with its origin drawn
    anywhere or on a principal plane through the centre (which reaches
    the hard case)."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    Q = a @ a.T + draw(st.floats(0.1, 2.0)) * np.eye(n)
    k = rng.standard_normal(n) if draw(st.booleans()) else np.zeros(n)
    c = float(rng.standard_normal())
    d, V = np.linalg.eigh(Q)
    centre = -0.5 * np.linalg.solve(Q, k)
    if draw(st.booleans()):
        # On the plane spanned by every eigenvector but the top one.
        origin = centre + V[:, :-1] @ (0.5 * rng.standard_normal(n - 1))
    else:
        origin = centre + rng.standard_normal(n)
    mapping = QuadraticMapping(Q, k, c)
    if draw(st.booleans()):
        # The P-space form is Q, k: build the base it came from.
        alphas = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        mapping = ReweightedMapping(
            QuadraticMapping(Q * np.outer(alphas, alphas), k * alphas, c),
            alphas)
    value = mapping.value(origin)
    upper = value + draw(st.floats(0.05, 20.0))
    lower = value - draw(st.floats(0.05, 20.0)) if draw(st.booleans()) \
        else -np.inf
    return RadiusProblem(mapping, origin, ToleranceBounds(lower, upper))


@st.composite
def wide_problems(draw):
    """A positive-definite quadratic with eigenvalues spread over up to
    15 decades and a linear term from small to large, so its centre lies
    anywhere from near the origin to far beyond it."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = 10.0 ** rng.uniform(-draw(st.floats(0.0, 15.0)), 0.0, n)
    k = rng.standard_normal(n) * 10.0 ** draw(st.floats(-2.0, 2.0))
    mapping = QuadraticMapping(V @ np.diag(d) @ V.T, k,
                               float(rng.standard_normal()))
    origin = rng.standard_normal(n)
    value = mapping.value(origin)
    gap = 10.0 ** draw(st.floats(-2.0, 1.0)) * (1.0 + abs(value))
    return RadiusProblem(mapping, origin, ToleranceBounds.upper(value + gap))


class TestProperties:
    @given(problem=pd_problems())
    @settings(max_examples=60, deadline=None)
    def test_exact_between_numeric_and_bisection(self, problem):
        result = compute_radius(problem, cache=False)
        assert (result.method, result.quality) == ("ellipsoid", Quality.EXACT)
        point, r = result.boundary_point, result.radius
        assert _on_level(problem.mapping, point, result.bound_hit)
        assert np.linalg.norm(point - problem.origin) == r
        bisection = compute_radius(problem, method="bisection", seed=0,
                                   cache=False)
        assert r <= bisection.radius + 1e-12 * (1.0 + r)
        numeric = compute_radius(problem, method="numeric", seed=0,
                                 cache=False)
        # SLSQP accepts a point within its constraint tolerance of the
        # level set; where f is flat that slack moves its distance more
        # than 1e-6 relative, by the level error over the gradient.
        x = numeric.boundary_point
        slack = abs(problem.mapping.value(x) - numeric.bound_hit) \
            / np.linalg.norm(problem.mapping.gradient(x))
        assert abs(r - numeric.radius) <= 1e-6 * numeric.radius + slack

    @given(problem=wide_problems())
    @example(problem=RadiusProblem(
        QuadraticMapping([[4.760025253061779e-05]], [-29.310023868032136],
                         0.27929714915443626),
        [1.0139371378096484], ToleranceBounds.upper(1.2750193167032293)))
    @settings(max_examples=60, deadline=None)
    def test_exact_or_numeric_at_any_conditioning(self, problem):
        # Down to d_min/d_max = 1e-15, centres near and far: the frame
        # either holds (exact, on the level set, where SLSQP lands) or
        # refuses, and the problem takes the numeric tier.
        result = compute_radius(problem, seed=0, cache=False)
        numeric = compute_radius(problem, method="numeric", seed=0,
                                 cache=False)
        if result.method == "numeric":
            assert result.radius == numeric.radius
            return
        assert (result.method, result.quality) == ("ellipsoid", Quality.EXACT)
        assert _on_level(problem.mapping, result.boundary_point,
                         result.bound_hit)
        x = numeric.boundary_point
        slack = abs(problem.mapping.value(x) - numeric.bound_hit) \
            / np.linalg.norm(problem.mapping.gradient(x))
        assert abs(result.radius - numeric.radius) \
            <= 1e-6 * numeric.radius + slack
