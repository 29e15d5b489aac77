"""Tests for the self-hosting executor system's FePIA wiring."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core.fepia import RobustnessAnalysis
from repro.core.perturbation import PerturbationParameter
from repro.core.weighting import IdentityWeighting
from repro.exceptions import SpecificationError
from repro.systems.selfhost import (
    SELFHOST_FEATURES,
    SelfhostMapping,
    SelfhostSystem,
)


@pytest.fixture
def system():
    return SelfhostSystem(costs=np.array([1.0, 2.0, 3.0, 4.0]),
                          fail_rates=np.array([0.2, 0.3]))


class TestValidation:
    def test_nonpositive_costs_rejected(self):
        with pytest.raises(SpecificationError, match="positive"):
            SelfhostSystem(costs=np.array([1.0, 0.0]),
                           fail_rates=np.array([0.1]))

    def test_rates_outside_unit_interval_rejected(self):
        with pytest.raises(SpecificationError, match="probabilities"):
            SelfhostSystem(costs=np.array([1.0]),
                           fail_rates=np.array([1.0]))
        with pytest.raises(SpecificationError, match="probabilities"):
            SelfhostSystem(costs=np.array([1.0]),
                           fail_rates=np.array([-0.1]))

    def test_beta_must_exceed_one(self, system):
        with pytest.raises(SpecificationError, match="beta"):
            system.feature_specs(1.0)

    def test_zero_origin_feature_refused(self):
        # Fault-free origin: recovery is 0, which admits no relative
        # bound — the spec builder must say so rather than divide.
        faultfree = SelfhostSystem(costs=np.array([1.0, 2.0]),
                                   fail_rates=np.zeros(2))
        with pytest.raises(SpecificationError, match="recovery"):
            faultfree.feature_specs(1.5)

    def test_mapping_unknown_feature_rejected(self, system):
        with pytest.raises(SpecificationError, match="unknown selfhost"):
            SelfhostMapping(system.model, "throughput")


class TestPlainQuantities:
    def test_shapes_and_origin(self, system):
        assert system.n_tasks == 4
        assert system.workers == 2
        np.testing.assert_array_equal(
            system.pi_orig(), [1.0, 2.0, 3.0, 4.0, 0.2, 0.3])
        origin = system.origin_metrics()
        for name in SELFHOST_FEATURES:
            assert origin.value(name) > 0

    def test_two_perturbation_kinds(self, system):
        params = system.perturbation_parameters()
        assert [p.name for p in params] == ["task_costs",
                                            "worker_fail_rates"]
        assert params[0].unit == "s"
        assert params[1].unit == "probability"
        np.testing.assert_array_equal(params[1].upper, np.ones(2))

    def test_baseline_is_seed_deterministic(self):
        a = SelfhostSystem.baseline(seed=11)
        b = SelfhostSystem.baseline(seed=11)
        c = SelfhostSystem.baseline(seed=12)
        np.testing.assert_array_equal(a.costs, b.costs)
        np.testing.assert_array_equal(a.fail_rates, b.fail_rates)
        assert not np.array_equal(a.costs, c.costs)
        assert a.n_tasks == 96 and a.workers == 3
        assert a.breaker_threshold == 48.0


class TestMapping:
    def test_value_splits_cost_and_rate_blocks(self, system):
        mapping = SelfhostMapping(system.model, "makespan")
        value = mapping.value(system.pi_orig())
        assert value == system.origin_metrics().makespan

    def test_value_many_bit_identical_to_value(self, system):
        mapping = SelfhostMapping(system.model, "recovery")
        rng = np.random.default_rng(3)
        xs = np.abs(rng.normal(1.0, 0.5, size=(9, 6)))
        batched = mapping.value_rows(xs)
        for r in range(9):
            assert batched[r] == mapping.value(xs[r]), f"row {r}"

    def test_mapping_pickles(self, system):
        mapping = SelfhostMapping(system.model, "max_load")
        clone = pickle.loads(pickle.dumps(mapping))
        x = system.pi_orig()
        assert clone.value(x) == mapping.value(x)
        assert clone.structure_key() == mapping.structure_key()

    def test_structure_key_discriminates_policy(self, system):
        base = SelfhostMapping(system.model, "makespan").structure_key()
        other_feature = SelfhostMapping(system.model,
                                        "recovery").structure_key()
        other_policy = SelfhostMapping(
            SelfhostSystem(costs=system.costs, fail_rates=system.fail_rates,
                           max_task_retries=5).model,
            "makespan").structure_key()
        assert base != other_feature
        assert base != other_policy
        assert base[0] == "selfhost"


class TestAnalyticAnchor:
    def test_closed_form_formula(self):
        # Worker 0: load 11 over {2, 9}; worker 1: load 4 over {4}.
        # tau = 1.5 * 11; radii (tau-11)/sqrt(2) and (tau-4)/1.
        sys_ = SelfhostSystem(costs=np.array([2.0, 4.0, 9.0]),
                              fail_rates=np.zeros(2))
        radii = sys_.analytic_cost_radii(1.5)
        assert radii[0] == pytest.approx(5.5 / math.sqrt(2))
        assert radii[1] == pytest.approx(12.5)

    def test_closed_form_guards(self, system):
        with pytest.raises(SpecificationError, match="zero failure rates"):
            system.analytic_cost_radii(1.5)
        faultfree = SelfhostSystem(costs=np.array([1.0]),
                                   fail_rates=np.zeros(1))
        with pytest.raises(SpecificationError, match="beta"):
            faultfree.analytic_cost_radii(1.0)
        deadlined = SelfhostSystem(costs=np.array([1.0]),
                                   fail_rates=np.zeros(1), deadline=5.0)
        with pytest.raises(SpecificationError, match="zero failure rates"):
            deadlined.analytic_cost_radii(1.5)

    def test_generic_solver_matches_closed_form(self):
        # Pin the failure-rate kind at zero: the model degenerates to
        # single-wave makespan and the numeric solver must land on the
        # TPDS 2004 closed form.
        sys_ = SelfhostSystem(costs=np.array([2.0, 4.0, 9.0, 1.0]),
                              fail_rates=np.zeros(2))
        pinned = PerturbationParameter(
            "worker_fail_rates", sys_.fail_rates,
            lower=np.zeros(2), upper=np.zeros(2))
        ana = RobustnessAnalysis(
            sys_.feature_specs(1.5, ("makespan",)),
            [sys_.cost_parameter(), pinned],
            weighting=IdentityWeighting(),
            respect_physical_bounds=True, method="auto", seed=0)
        assert ana.rho() == pytest.approx(
            sys_.analytic_cost_radii(1.5).min(), rel=1e-6)


class TestRobustnessAnalysis:
    def test_two_kind_analysis_solves_all_features(self, system):
        ana = system.robustness_analysis(1.5, seed=0)
        radii = ana.radii()
        assert set(radii) == {f"selfhost_{n}" for n in SELFHOST_FEATURES}
        for result in radii.values():
            assert np.isfinite(result.radius) and result.radius > 0
        assert ana.rho() == min(r.radius for r in radii.values())
        per_param = ana.per_parameter_radii(ana.critical_feature())
        assert set(per_param) == {"task_costs", "worker_fail_rates"}

    def test_default_weighting_is_normalized(self, system):
        from repro.core.weighting import NormalizedWeighting

        ana = system.robustness_analysis(1.5, seed=0)
        assert isinstance(ana.weighting, NormalizedWeighting)
