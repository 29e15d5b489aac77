"""Shock catalogue: seeded purity, kinds, and the --shock grammar."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.perturbation import PerturbationParameter
from repro.exceptions import SpecGrammarError, SpecificationError
from repro.scenarios.shocks import SHOCK_KINDS, ShockScenario, parse_shock_spec

PARAMS = [
    PerturbationParameter.nonnegative("exec_times", [2.0, 3.0, 4.0]),
    PerturbationParameter.nonnegative("loads", [10.0, 20.0]),
]


def _scenario(kind: str, **kwargs) -> ShockScenario:
    defaults = dict(name=f"test-{kind}", kind=kind, magnitude=1.0,
                    n_steps=8)
    defaults.update(kwargs)
    return ShockScenario(**defaults)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError, match="unknown shock kind"):
            _scenario("tsunami")

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_magnitude_rejected(self, bad):
        with pytest.raises(SpecificationError, match="magnitude"):
            _scenario("spike", magnitude=bad)

    def test_bad_rate_and_jitter_rejected(self):
        with pytest.raises(SpecificationError, match="rate"):
            _scenario("spike", rate=1.5)
        with pytest.raises(SpecificationError, match="jitter"):
            _scenario("drift", jitter=1.0)

    def test_unknown_param_name_rejected(self):
        sc = _scenario("spike", params=("nonesuch",))
        with pytest.raises(SpecificationError, match="nonesuch"):
            sc.displacements(0, 0, 0, PARAMS)

    def test_step_out_of_range_rejected(self):
        sc = _scenario("spike")
        with pytest.raises(SpecificationError, match="step"):
            sc.displacements(0, 0, sc.n_steps, PARAMS)

    @pytest.mark.parametrize("kind", SHOCK_KINDS)
    @pytest.mark.parametrize("steps", [(8,), (7, 8, 500), (-1,),
                                       (2**31 - 1,)])
    def test_block_steps_out_of_range_rejected(self, kind, steps):
        """No row past the 8-step trajectory, and no step sharing the
        static cell's stream, comes back from a block draw."""
        sc = _stochastic(kind)
        with pytest.raises(SpecificationError, match="step must be in"):
            sc.displacement_block(0, 0, PARAMS, steps=steps)

    @pytest.mark.parametrize("kind", SHOCK_KINDS)
    @pytest.mark.parametrize("trajectory", [-1, 2**32, 2**40])
    def test_trajectory_out_of_range_rejected(self, kind, trajectory):
        sc = _stochastic(kind)
        with pytest.raises(SpecificationError, match="trajectory"):
            sc.displacement_block(0, trajectory, PARAMS)
        with pytest.raises(SpecificationError, match="trajectory"):
            sc.displacement_blocks(0, [0, trajectory], PARAMS)

    @pytest.mark.parametrize("kind", SHOCK_KINDS)
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(SpecificationError, match="seed"):
            _stochastic(kind).displacement_block(-1, 0, PARAMS)

    def test_n_steps_stays_below_static_step(self):
        with pytest.raises(SpecificationError, match="n_steps"):
            _scenario("correlated", n_steps=2**31 - 1)


def _stochastic(kind: str) -> ShockScenario:
    """A scenario of the kind with its randomness switched on (a
    jitter-free drift is deliberately deterministic)."""
    return _scenario(kind, jitter=0.5 if kind == "drift" else 0.0)


@pytest.mark.parametrize("kind", SHOCK_KINDS)
class TestPurity:
    """Draws are pure functions of (seed, scenario, trajectory, step)."""

    def test_same_cell_same_bits(self, kind):
        sc = _stochastic(kind)
        a = sc.displacements(7, 1, 3, PARAMS)
        b = sc.displacements(7, 1, 3, PARAMS)
        assert sorted(a) == sorted(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_cells_and_seeds_are_independent(self, kind):
        sc = _stochastic(kind)
        base = sc.displacements(7, 1, 3, PARAMS)
        for other in (sc.displacements(8, 1, 3, PARAMS),
                      sc.displacements(7, 2, 3, PARAMS)):
            assert any(not np.array_equal(base[n], other[n]) for n in base)

    def test_names_decorrelate_scenarios(self, kind):
        jitter = 0.5 if kind == "drift" else 0.0
        a = _scenario(kind, name="alpha", jitter=jitter)
        b = _scenario(kind, name="beta", jitter=jitter)
        da = a.displacements(7, 0, 0, PARAMS)
        db = b.displacements(7, 0, 0, PARAMS)
        # Spikes may both not fire (all zeros) at step 0; probe a few
        # steps so at least one cell draws noise.
        if all(np.array_equal(da[n], db[n]) for n in da):
            da = a.displacements(7, 0, 1, PARAMS)
            db = b.displacements(7, 0, 1, PARAMS)
        assert any(not np.array_equal(da[n], db[n]) for n in da)


class TestKinds:
    def test_spike_silent_steps_are_zero(self):
        sc = _scenario("spike", rate=0.0)
        disp = sc.displacements(0, 0, 0, PARAMS)
        for name, block in disp.items():
            np.testing.assert_array_equal(block, 0.0)

    def test_drift_ramp_reaches_magnitude(self):
        sc = _scenario("drift", magnitude=2.0, n_steps=10)
        final = sc.displacements(0, 0, 9, PARAMS)
        flat = np.concatenate([final[p.name] for p in PARAMS])
        assert np.linalg.norm(flat) == pytest.approx(2.0)

    def test_drift_explicit_direction_is_used_verbatim(self):
        sc = _scenario("drift", magnitude=1.0, n_steps=4,
                       params=("exec_times",),
                       directions={"exec_times": (1.0, 0.0, 0.0)})
        disp = sc.displacements(0, 0, 3, PARAMS)
        np.testing.assert_allclose(disp["exec_times"], [1.0, 0.0, 0.0])
        assert "loads" not in disp

    def test_drift_direction_length_mismatch_rejected(self):
        sc = _scenario("drift", params=("exec_times",),
                       directions={"exec_times": (1.0,)})
        with pytest.raises(SpecificationError, match="length"):
            sc.displacements(0, 0, 0, PARAMS)

    def test_correlated_comoves_all_params(self):
        sc = _scenario("correlated", magnitude=1.0)
        disp = sc.displacements(0, 0, 0, PARAMS)
        assert set(disp) == {"exec_times", "loads"}
        # Same trajectory, different steps: loadings are static, only
        # the scalar factor changes -> blocks are parallel across steps.
        later = sc.displacements(0, 0, 5, PARAMS)
        a = np.concatenate([disp[p.name] for p in PARAMS])
        b = np.concatenate([later[p.name] for p in PARAMS])
        cos = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos == pytest.approx(1.0)


#: One scenario per draw routine, with its randomness switched on.
BLOCK_CASES = {
    "spike": _scenario("spike", rate=0.5),
    "drift": _scenario("drift"),
    "jittered-drift": _scenario("drift", jitter=0.5),
    "explicit-directions": _scenario(
        "drift", jitter=0.3,
        directions={"exec_times": (0.6, 0.0, 0.8), "loads": (0.0, 1.0)}),
    "correlated": _scenario("correlated"),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_are_the_per_trajectory_blocks(case):
    """Trajectory ``i`` of a multi-trajectory draw is
    :meth:`ShockScenario.displacement_block` of that trajectory, over
    any step subset; the scalar oracle agrees cell by cell."""
    from tests.scenarios.scalar_replay import scalar_displacements

    sc = BLOCK_CASES[case]
    trajectories = [5, 0, 2**32 - 1, 3]
    for steps in (None, [7, 0, 3]):
        blocks = sc.displacement_blocks(11, trajectories, PARAMS,
                                        steps=steps)
        rows = range(sc.n_steps) if steps is None else steps
        for i, trajectory in enumerate(trajectories):
            one = sc.displacement_block(11, trajectory, PARAMS, steps=steps)
            for p in PARAMS:
                assert blocks[p.name].shape == (
                    len(trajectories), len(rows), p.dimension)
                assert blocks[p.name][i].tobytes() == one[p.name].tobytes()
            for j, step in enumerate(rows):
                oracle = scalar_displacements(sc, 11, trajectory, step,
                                              PARAMS)
                for p in PARAMS:
                    assert blocks[p.name][i, j].tobytes() == \
                        oracle[p.name].tobytes()


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_rows_are_the_per_step_draws(case):
    """Row ``s`` of the block draw is step ``s`` drawn on its own — by
    :meth:`ShockScenario.displacements` and by the scalar oracle."""
    from tests.scenarios.scalar_replay import scalar_displacements

    sc = BLOCK_CASES[case]
    for trajectory in (0, 3):
        block = sc.displacement_block(11, trajectory, PARAMS)
        assert sorted(block) == ["exec_times", "loads"]
        assert np.any(block["exec_times"])
        for step in range(sc.n_steps):
            one = sc.displacements(11, trajectory, step, PARAMS)
            oracle = scalar_displacements(sc, 11, trajectory, step, PARAMS)
            for p in PARAMS:
                assert block[p.name].shape == (sc.n_steps, p.dimension)
                for other in (one[p.name], oracle[p.name]):
                    assert block[p.name][step].tobytes() == other.tobytes()


class TestSpecGrammar:
    def test_round_trip(self):
        sc = parse_shock_spec(
            "kind=spike,magnitude=0.5,steps=12,rate=0.4,name=surge")
        assert sc == ShockScenario(name="surge", kind="spike",
                                   magnitude=0.5, n_steps=12, rate=0.4)

    def test_mag_alias_and_params(self):
        sc = parse_shock_spec("kind=drift,mag=1.5,params=exec_times:loads")
        assert sc.magnitude == 1.5
        assert sc.params == ("exec_times", "loads")
        assert sc.name == "custom-drift"

    def test_unknown_key_names_token_and_grammar(self):
        with pytest.raises(SpecGrammarError) as err:
            parse_shock_spec("kind=spike,magnitude=1,frobnicate=3")
        assert err.value.token == "frobnicate=3"
        assert "magnitude" in err.value.grammar

    def test_missing_required_keys_is_grammar_error(self):
        with pytest.raises(SpecGrammarError, match="magnitude"):
            parse_shock_spec("kind=spike")

    def test_semantically_bad_value_is_grammar_error(self):
        err = pytest.raises(SpecGrammarError,
                            parse_shock_spec, "kind=vortex,magnitude=1")
        assert isinstance(err.value, ValueError)
        assert "vortex" in str(err.value)

    def test_invalid_kind_lists_valid_kinds_and_token(self):
        # Regression: the message must name every accepted kind and the
        # offending token, so a CLI typo reads as a usage line.
        with pytest.raises(SpecGrammarError) as err:
            parse_shock_spec("kind=frobnicate,magnitude=1")
        msg = str(err.value)
        for kind in ("spike", "drift", "correlated"):
            assert kind in msg
        assert err.value.token == "kind=frobnicate"
        assert "kind=frobnicate" in msg

    def test_unknown_key_message_lists_described_keys(self):
        with pytest.raises(SpecGrammarError) as err:
            parse_shock_spec("kind=spike,magnitude=1,wibble=2")
        msg = str(err.value)
        assert "unknown key 'wibble'" in msg
        assert "magnitude (alias mag)" in msg
        assert "kind=spike|drift|correlated" in msg

    def test_invalid_value_message_includes_hint(self):
        with pytest.raises(SpecGrammarError) as err:
            parse_shock_spec("kind=spike,magnitude=big")
        assert "a shock scale in pi-space units" in str(err.value)
        assert err.value.token == "magnitude=big"


@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_spike_edge_rates_match_the_oracle(rate):
    """A spike that never (rate 0) or always (rate 1) fires: the firing
    test reads each cell's first draw without a generator, and the
    firing cells' generators carry on past it as the oracle's do."""
    from tests.scenarios.scalar_replay import scalar_displacements

    sc = _scenario("spike", rate=rate)
    trajectories = [0, 3, 2**32 - 1]
    blocks = sc.displacement_blocks(11, trajectories, PARAMS)
    for i, trajectory in enumerate(trajectories):
        for step in range(sc.n_steps):
            oracle = scalar_displacements(sc, 11, trajectory, step, PARAMS)
            for p in PARAMS:
                assert blocks[p.name][i, step].tobytes() == \
                    oracle[p.name].tobytes()
    fired = any(np.any(blocks[p.name]) for p in PARAMS)
    assert fired == (rate == 1.0)
