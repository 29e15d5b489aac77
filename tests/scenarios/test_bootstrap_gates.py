"""Block bootstrap and robustness gates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SpecificationError
from repro.scenarios.bootstrap import (
    GateResult,
    RobustnessGates,
    block_bootstrap_violation_rate,
    parse_gate,
)
from tests.scenarios.gather_bootstrap import gather_bootstrap_violation_rate


class TestBootstrap:
    def test_mean_is_observed_pooled_rate(self):
        series = [np.array([0, 0, 1, 1], dtype=bool),
                  np.array([0, 1, 1, 1], dtype=bool)]
        ci = block_bootstrap_violation_rate(series, n_boot=50, block=2,
                                            seed=0)
        assert ci["mean"] == pytest.approx(5 / 8)
        assert 0.0 <= ci["lo"] <= ci["mean"] <= ci["hi"] <= 1.0

    def test_seeded_and_deterministic(self):
        rng = np.random.default_rng(3)
        series = [rng.random(30) < 0.4 for _ in range(5)]
        a = block_bootstrap_violation_rate(series, n_boot=100, block=7,
                                           seed=11)
        b = block_bootstrap_violation_rate(series, n_boot=100, block=7,
                                           seed=11)
        assert a == b
        c = block_bootstrap_violation_rate(series, n_boot=100, block=7,
                                           seed=12)
        assert c != a

    def test_degenerate_series_gives_degenerate_ci(self):
        series = [np.zeros(20, dtype=bool)] * 3
        ci = block_bootstrap_violation_rate(series, n_boot=50, seed=0)
        assert ci == {**ci, "mean": 0.0, "lo": 0.0, "hi": 0.0}

    def test_mixed_series_gives_informative_ci(self):
        """Autocorrelated half-violating series: CI straddles the mean
        with nonzero width (the block resampling moves mass around)."""
        series = [np.arange(40) >= 20 for _ in range(4)]
        ci = block_bootstrap_violation_rate(series, n_boot=200, block=8,
                                            seed=5)
        assert ci["lo"] < ci["mean"] < ci["hi"]

    def test_block_clamped_to_series_length(self):
        series = [np.array([1, 0, 1], dtype=bool)]
        ci = block_bootstrap_violation_rate(series, n_boot=20, block=99,
                                            seed=0)
        assert ci["block"] == 3

    @pytest.mark.parametrize("kwargs", [
        {"n_boot": 0}, {"block": 0}, {"level": 0.0}, {"level": 1.0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        series = [np.array([0, 1], dtype=bool)]
        with pytest.raises(SpecificationError):
            block_bootstrap_violation_rate(series, **kwargs)

    def test_empty_and_ragged_series_rejected(self):
        with pytest.raises(SpecificationError):
            block_bootstrap_violation_rate([])
        with pytest.raises(SpecificationError):
            block_bootstrap_violation_rate(
                [np.array([True]), np.array([True, False])])


@st.composite
def _bootstrap_cases(draw):
    """Series, block (up to past the series length, so the clamp and a
    ragged last block both occur), replicates and a seed."""
    n_traj = draw(st.integers(1, 40))
    n_steps = draw(st.integers(1, 80))
    fill = draw(st.sampled_from(["mixed", "all-false", "all-true"]))
    if fill == "mixed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        stacked = rng.random((n_traj, n_steps)) < draw(
            st.floats(0.0, 1.0))
    else:
        stacked = np.full((n_traj, n_steps), fill == "all-true")
    return dict(series=list(stacked),
                block=draw(st.integers(1, n_steps + 5)),
                n_boot=draw(st.integers(1, 300)),
                seed=draw(st.one_of(st.integers(0, 2**16),
                                    st.integers(2**32, 2**70))))


class TestPrefixSumBootstrap:
    """The prefix-sum counts equal the per-replicate gather, dict for
    dict: same draws, exact integer counts, the same float64 rates."""

    @given(case=_bootstrap_cases())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_gather_oracle(self, case):
        assert block_bootstrap_violation_rate(**case) == \
            gather_bootstrap_violation_rate(**case)

    def test_lab_sized_case(self):
        rng = np.random.default_rng(2005)
        series = [np.arange(60) >= rng.integers(0, 60) for _ in range(32)]
        kwargs = dict(n_boot=200, block=10, seed=2005)
        assert block_bootstrap_violation_rate(series, **kwargs) == \
            gather_bootstrap_violation_rate(series, **kwargs)


class TestParseGate:
    def test_all_operators(self):
        assert parse_gate("violation_rate<=0.6") == \
            ("violation_rate", ("<=", 0.6))
        assert parse_gate("ci_lo>=0.1") == ("ci_lo", (">=", 0.1))
        assert parse_gate("worst_drawdown<1.5") == \
            ("worst_drawdown", ("<", 1.5))
        assert parse_gate("rate> 0") == ("rate", (">", 0.0))

    @pytest.mark.parametrize("bad", ["", "rate", "rate<=x", "<=0.5"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(SpecificationError):
            parse_gate(bad)


class TestGates:
    def test_conjunction_verdict(self):
        gates = RobustnessGates({"violation_rate": ("<=", 0.5),
                                 "worst_drawdown": ("<", 2.0)})
        ok = gates.evaluate({"violation_rate": 0.4, "worst_drawdown": 1.0})
        assert isinstance(ok, GateResult) and ok.passed
        bad = gates.evaluate({"violation_rate": 0.6, "worst_drawdown": 1.0})
        assert not bad.passed
        verdicts = {c.metric: c.passed for c in bad.checks}
        assert verdicts == {"violation_rate": False, "worst_drawdown": True}

    def test_to_dict_is_json_safe(self):
        gates = RobustnessGates({"violation_rate": ("<=", 0.5)})
        payload = gates.evaluate({"violation_rate": 0.25}).to_dict()
        assert payload["passed"] is True
        (check,) = payload["checks"]
        assert check == {"metric": "violation_rate", "op": "<=",
                         "threshold": 0.5, "value": 0.25, "passed": True}

    def test_missing_metric_rejected(self):
        gates = RobustnessGates({"nonesuch": ("<=", 1.0)})
        with pytest.raises(SpecificationError, match="nonesuch"):
            gates.evaluate({"violation_rate": 0.1})

    def test_bad_thresholds_rejected(self):
        with pytest.raises(SpecificationError):
            RobustnessGates({})
        with pytest.raises(SpecificationError, match="operator"):
            RobustnessGates({"rate": ("==", 1.0)})
        with pytest.raises(SpecificationError, match="pair"):
            RobustnessGates({"rate": 1.0})
