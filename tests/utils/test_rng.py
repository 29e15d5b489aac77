"""Tests for repro.utils.rng."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SpecificationError
from repro.utils.rng import (
    default_rng,
    first_randoms,
    spawn_key_rngs,
    spawn_key_states,
    spawn_rngs,
    state_rng,
)


class TestDefaultRng:
    def test_none_gives_generator(self):
        assert isinstance(default_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = default_rng(42).random(5)
        b = default_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passed_through(self):
        g = np.random.default_rng(0)
        assert default_rng(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        g = default_rng(ss)
        assert isinstance(g, np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero_streams(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_streams_differ(self):
        a, b = spawn_rngs(123, 2)
        assert not np.allclose(a.random(10), b.random(10))

    def test_reproducible_across_calls(self):
        a1, b1 = spawn_rngs(9, 2)
        a2, b2 = spawn_rngs(9, 2)
        np.testing.assert_array_equal(a1.random(4), a2.random(4))
        np.testing.assert_array_equal(b1.random(4), b2.random(4))

    def test_spawn_from_generator(self):
        g = np.random.default_rng(3)
        kids = spawn_rngs(g, 3)
        assert len(kids) == 3

    def test_spawn_from_seed_sequence(self):
        kids = spawn_rngs(np.random.SeedSequence(1), 2)
        assert len(kids) == 2


#: Entropy below, at and past each word boundary of SeedSequence's pool.
ENTROPIES = st.one_of(st.just(0), st.integers(1, 2**16),
                      st.integers(2**32, 2**64 - 1),
                      st.integers(2**64, 2**160))
#: Key entries at the edges of the one-word range.
KEY_ENTRIES = st.sampled_from([0, 1, 2**31 - 1, 2**32 - 1])


@st.composite
def _keys(draw):
    """A spawn key of 0-4 entries over 1-6 cells; each entry is shared
    (an int) or per cell (an array)."""
    n_cells = draw(st.integers(1, 6))
    key, rows = [], [[] for _ in range(n_cells)]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            value = draw(KEY_ENTRIES)
            key.append(value)
            for row in rows:
                row.append(value)
        else:
            column = draw(st.lists(KEY_ENTRIES, min_size=n_cells,
                                   max_size=n_cells))
            key.append(np.array(column, dtype=np.int64))
            for row, value in zip(rows, column):
                row.append(value)
    return tuple(key), [tuple(row) for row in rows]


class TestSpawnKeyKernel:
    """The array kernel is NumPy's SeedSequence, cell for cell."""

    @given(entropy=ENTROPIES, keys=_keys(), n=st.integers(1, 7))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_words_and_draws_equal_seed_sequence(self, entropy, keys, n):
        key, rows = keys
        states = spawn_key_states(entropy, key)
        rngs = list(spawn_key_rngs(entropy, key))
        assert states.dtype == np.uint64
        if any(isinstance(entry, np.ndarray) for entry in key):
            assert states.shape == (len(rows), 4)
            assert len(rngs) == len(rows)
        for i, (row, rng) in enumerate(zip(rows, rngs)):
            seq = np.random.SeedSequence(entropy=entropy, spawn_key=row)
            assert states[i].tobytes() == \
                seq.generate_state(4, np.uint64).tobytes()
            ref = np.random.default_rng(seq)
            assert rng.random() == ref.random()
            assert rng.standard_normal(n).tobytes() == \
                ref.standard_normal(n).tobytes()
            assert rng.random(n).tobytes() == ref.random(n).tobytes()

    def test_lab_shaped_chunk(self):
        """A replay chunk: one scenario key, trajectories by steps plus a
        static cell, one shared entropy."""
        trajectories = np.repeat(np.arange(16), 61)
        steps = np.tile(np.r_[2**31 - 1, np.arange(60)], 16)
        states = spawn_key_states(2005, (123456789, trajectories, steps))
        for i in range(0, states.shape[0], 37):
            seq = np.random.SeedSequence(
                2005, spawn_key=(123456789, int(trajectories[i]),
                                 int(steps[i])))
            assert states[i].tobytes() == \
                seq.generate_state(4, np.uint64).tobytes()

    @pytest.mark.parametrize("key", [
        (2**32,), (0, np.array([1, 2**32])), (-1,), (0, np.array([3, -2])),
    ])
    def test_entries_outside_one_word_rejected(self, key):
        with pytest.raises(SpecificationError, match=r"\[0, 2\*\*32\)"):
            spawn_key_states(7, key)

    @pytest.mark.parametrize("entropy", [-1, 1.5, "7"])
    def test_bad_entropy_rejected(self, entropy):
        with pytest.raises(SpecificationError, match="entropy"):
            spawn_key_states(entropy, (1,))

    @pytest.mark.parametrize("key", [(1.0,), (np.zeros((2, 2), int),)])
    def test_non_integer_entries_rejected(self, key):
        with pytest.raises(SpecificationError, match="integers"):
            spawn_key_states(7, key)

    def test_generators_are_built_lazily(self):
        rngs = spawn_key_rngs(7, (1, np.arange(3)))
        first = next(rngs)
        assert isinstance(first, np.random.Generator)
        assert len(list(rngs)) == 2


#: Entropy at every size class, up to past 2**128.
FIRST_DRAW_ENTROPIES = st.one_of(ENTROPIES, st.integers(2**128, 2**192))


def _numpy_first_draw(entropy, key) -> float:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=entropy, spawn_key=key)).random()


class TestFirstRandoms:
    """The PCG64 first-draw kernel is NumPy's first ``random()``."""

    @given(entropy=FIRST_DRAW_ENTROPIES, keys=_keys())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_first_draw_equals_numpy(self, entropy, keys):
        key, rows = keys
        states = spawn_key_states(entropy, key)
        draws = first_randoms(states)
        assert draws.dtype == np.float64
        assert draws.shape == (len(states),)
        for row, draw in zip(rows, draws):
            assert draw.tobytes() == \
                np.float64(_numpy_first_draw(entropy, row)).tobytes()

    @given(entropy=FIRST_DRAW_ENTROPIES,
           column=st.lists(st.one_of(KEY_ENTRIES,
                                     st.integers(0, 2**32 - 1)),
                           min_size=0, max_size=50))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batches_equal_numpy(self, entropy, column):
        """A batch of cells under one scenario-like key, empty included."""
        states = spawn_key_states(
            entropy, (2**31 - 1, np.array(column, dtype=np.int64)))
        draws = first_randoms(states)
        assert draws.shape == (len(column),)
        expected = np.array([_numpy_first_draw(entropy, (2**31 - 1, entry))
                             for entry in column], dtype=np.float64)
        assert draws.tobytes() == expected.tobytes()

    def test_empty_batch(self):
        states = spawn_key_states(7, (1, np.array([], dtype=np.int64)))
        assert states.shape == (0, 4)
        draws = first_randoms(states)
        assert draws.shape == (0,)
        assert draws.dtype == np.float64

    def test_equals_state_rng_and_leaves_its_stream(self):
        """The kernel reads the words without advancing anything: a
        generator built from them afterwards starts at the same draw."""
        states = spawn_key_states(2005, (123456789, np.arange(64)))
        draws = first_randoms(states)
        for words, draw in zip(states, draws):
            rng = state_rng(words)
            assert rng.random() == draw
            assert rng.random() != draw
