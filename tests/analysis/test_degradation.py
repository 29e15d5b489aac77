"""Tests for warm-started degradation curves.

The contract under test: a :func:`degradation_curve` walk reports, at
every operating point, exactly the radii a fresh cold analysis at that
requirement would — bit-identically, for any weighting, worker count,
and warm flag.  Plus the frontend behaviours: feasibility-boundary
points, single-point sweeps, feature selection, and stats accounting.
"""

from __future__ import annotations

import pytest

from repro.analysis.degradation import degradation_curve
from repro.analysis.linear_case import analysis_for_case
from repro.core.degeneracy import LinearCase
from repro.core.features import ToleranceBounds
from repro.core.fepia import RobustnessAnalysis
from repro.core.weighting import NormalizedWeighting, SensitivityWeighting
from repro.exceptions import SpecificationError
from repro.observability import Observability, observing
from repro.systems.heuristics import MCT
from repro.systems.independent import generate_etc_gamma
from repro.systems.independent.makespan import MakespanSystem

BETAS = (1.1, 1.4, 1.8, 2.5)


def _makespan_analysis(seed=2005, **kw):
    etc = generate_etc_gamma(10, 3, seed=seed)
    system = MakespanSystem(etc, MCT().allocate(etc))
    base = system.robustness_analysis(beta=BETAS[0], seed=seed)
    if not kw:
        return base
    return RobustnessAnalysis(list(base.features), list(base.params),
                              weighting=base.weighting, seed=seed, **kw)


def _cold_points(analysis, betas, specs=None):
    """The per-beta answers of fresh, warm-free analyses."""
    specs = list(analysis.features) if specs is None else specs
    phi = {s.name: float(s.mapping.value(analysis.pi_orig)) for s in specs}
    out = []
    for beta in betas:
        clone = analysis.with_feature_bounds(
            {s.name: ToleranceBounds.upper(beta * phi[s.name])
             for s in specs})
        out.append({s.name: clone.radius(s.name).radius for s in specs})
    return out


class TestCurveMatchesColdRebuild:
    def test_identity_weighting_multi_feature(self):
        analysis = _makespan_analysis()
        curve = degradation_curve(analysis, None, BETAS)
        expected = _cold_points(_makespan_analysis(), BETAS)
        for point, radii in zip(curve.points, expected):
            assert point.radii == radii
            assert point.rho == min(radii.values())
            assert point.critical in radii
            assert radii[point.critical] == point.rho

    def test_radius_dependent_weighting(self):
        case = LinearCase([2.0, 3.0, 0.5], [4.0, 2.0, 10.0], BETAS[0])
        curve = degradation_curve(
            analysis_for_case(case, NormalizedWeighting()), "phi", BETAS)
        expected = _cold_points(
            analysis_for_case(case, NormalizedWeighting()), BETAS)
        assert [p.radii["phi"] for p in curve.points] \
            == [r["phi"] for r in expected]

    def test_sensitivity_weighting_is_flat(self):
        case = LinearCase([2.0, 3.0, 0.5], [4.0, 2.0, 10.0], BETAS[0])
        curve = degradation_curve(
            analysis_for_case(case, SensitivityWeighting()), "phi", BETAS)
        rhos = curve.rhos()
        assert max(rhos) - min(rhos) < 1e-12

    def test_warm_flag_changes_nothing(self):
        warm = degradation_curve(
            _makespan_analysis(method="bisection"), None, BETAS)
        cold = degradation_curve(
            _makespan_analysis(method="bisection"), None, BETAS, warm=False)
        assert [p.radii for p in warm.points] == [p.radii for p in cold.points]
        assert warm.stats["warm_starts"] == warm.stats["solves"]
        assert cold.stats["warm_starts"] == 0

    def test_cascade_branch_matches(self):
        analysis = _makespan_analysis(solver_timeout=30.0)
        assert analysis.cascade is not None
        curve = degradation_curve(analysis, None, BETAS)
        expected = _cold_points(_makespan_analysis(), BETAS)
        for point, radii in zip(curve.points, expected):
            assert point.radii == pytest.approx(radii)


class TestNumericFamilies:
    def test_numeric_curve_rides_the_tensor_kernel(self):
        # A numeric-tier family under a stateless seed is one tensor
        # group, solved bit-identically to its per-point cold walk, and
        # keeps no warm state.
        analysis = _makespan_analysis(method="numeric", radius_cache=False)
        obs = Observability()
        with observing(obs):
            curve = degradation_curve(analysis, None, BETAS)
        names = [s.name for s in obs.recorder.spans()]
        assert names.count("curve.family") == len(analysis.features)
        assert "curve.point" not in names
        assert curve.stats["warm_starts"] == 0
        expected = _cold_points(
            _makespan_analysis(method="numeric", radius_cache=False), BETAS)
        assert [p.radii for p in curve.points] == expected


class TestWorkerInvariance:
    def test_fanned_out_curve_is_bit_identical(self):
        from repro.parallel.executor import ParallelExecutor

        serial = degradation_curve(_makespan_analysis(), None, BETAS)
        with ParallelExecutor(2) as pool:
            fanned = degradation_curve(_makespan_analysis(), None, BETAS,
                                       executor=pool)
        assert [p.radii for p in serial.points] \
            == [p.radii for p in fanned.points]
        assert serial.stats == fanned.stats


class TestCurveFrontend:
    def test_betas_validated(self):
        with pytest.raises(SpecificationError):
            degradation_curve(_makespan_analysis(), None, ())

    def test_unknown_feature_rejected(self):
        with pytest.raises(SpecificationError):
            degradation_curve(_makespan_analysis(), "no_such_feature", BETAS)

    def test_single_point_curve(self):
        curve = degradation_curve(_makespan_analysis(), None, (1.3,))
        assert len(curve.points) == 1
        assert curve.stats["points"] == 1
        with pytest.raises(SpecificationError):
            curve.plot()

    def test_plot_renders(self):
        curve = degradation_curve(_makespan_analysis(), None, BETAS)
        art = curve.plot()
        assert "beta" in art and "rho" in art

    def test_feasibility_boundary_points(self):
        """Requirements at or below the original value: rho = 0, no solve."""
        curve = degradation_curve(_makespan_analysis(), None,
                                  (0.5, 0.95, 1.5, 2.0))
        flags = [p.feasible for p in curve.points]
        assert flags == [False, False, True, True]
        for p in curve.points[:2]:
            assert p.rho == 0.0
            assert p.radii == {}
            assert p.critical is None
        assert curve.stats["feasible"] == 2
        # Only feasible points are solved.
        n_specs = len(_makespan_analysis().features)
        assert curve.stats["solves"] == 2 * n_specs

    def test_bounds_for_override(self):
        analysis = _makespan_analysis()
        tau0 = 1.01 * max(
            float(s.mapping.value(analysis.pi_orig))
            for s in analysis.features)

        def bounds_for(spec, beta):
            return ToleranceBounds.upper(beta * tau0)

        curve = degradation_curve(analysis, None, BETAS,
                                  bounds_for=bounds_for)
        expected = []
        for beta in BETAS:
            clone = _makespan_analysis().with_feature_bounds(
                {s.name: ToleranceBounds.upper(beta * tau0)
                 for s in analysis.features})
            expected.append(min(clone.radius(s).radius
                                for s in clone.features))
        assert curve.rhos() == expected

    def test_stats_accounting(self):
        analysis = _makespan_analysis(method="bisection")
        curve = degradation_curve(analysis, None, BETAS)
        stats = curve.stats
        n_specs = len(analysis.features)
        assert stats["points"] == len(BETAS)
        assert stats["families"] == n_specs
        assert stats["solves"] == len(BETAS) * n_specs
        assert stats["warm_starts"] == stats["solves"]
        assert 0 <= stats["warm_hits"] <= stats["warm_starts"]

    def test_feature_selection_by_spec(self):
        analysis = _makespan_analysis()
        spec = analysis.features[0]
        curve = degradation_curve(analysis, spec, BETAS)
        assert curve.feature == spec.name
        assert all(set(p.radii) == {spec.name} for p in curve.points)


class TestWithFeatureBounds:
    def test_returns_independent_clone(self):
        analysis = _makespan_analysis()
        name = analysis.features[0].name
        old = analysis.features[0].feature.bounds
        clone = analysis.with_feature_bounds(
            {name: ToleranceBounds.upper(old.beta_max * 2.0)})
        assert clone is not analysis
        assert analysis.features[0].feature.bounds == old
        assert clone._get_spec(name).feature.bounds.beta_max \
            == old.beta_max * 2.0

    def test_unknown_feature_rejected(self):
        with pytest.raises(SpecificationError):
            _makespan_analysis().with_feature_bounds(
                {"nope": ToleranceBounds.upper(1.0)})
