"""Tests for atomic checkpoint/resume of long chunked runs.

The acceptance-level tests simulate a mid-run kill (a thunk or a mapping
that raises partway through) and check that resuming from the checkpoint
produces results identical to an uninterrupted seeded run.
"""

import json
import math

import numpy as np
import pytest

from repro.core.features import ToleranceBounds
from repro.core.mappings import CallableMapping, LinearMapping
from repro.core.radius import RadiusProblem, compute_radius
from repro.exceptions import CheckpointError, SpecificationError
from repro.montecarlo import validate_radius
from repro.resilience import Checkpoint, run_checkpointed
from repro.utils.rng import spawn_rngs


class TestCheckpoint:
    def test_missing_file_loads_empty(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "none.json")
        assert not ckpt.exists()
        assert ckpt.load() == {}

    def test_save_load_roundtrip(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck.json")
        ckpt.save({"a": 1, "b": [2, 3]}, {"seed": 7})
        assert ckpt.exists()
        assert ckpt.load(expect_meta={"seed": 7}) == {"a": 1, "b": [2, 3]}

    def test_save_creates_parent_dirs(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "deep" / "nested" / "ck.json")
        ckpt.save({"x": 0}, None)
        assert ckpt.load() == {"x": 0}

    def test_meta_mismatch_refuses(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck.json")
        ckpt.save({"a": 1}, {"seed": 7})
        with pytest.raises(CheckpointError, match="different run"):
            ckpt.load(expect_meta={"seed": 8})

    def test_corrupt_file_refuses(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{ not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="unreadable"):
            Checkpoint(path).load()

    def test_foreign_json_refuses(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"hello": "world"}), encoding="utf-8")
        with pytest.raises(CheckpointError, match="not a"):
            Checkpoint(path).load()

    def test_delete_is_idempotent(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck.json")
        ckpt.save({}, None)
        ckpt.delete()
        assert not ckpt.exists()
        ckpt.delete()  # no error on a missing file

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck.json")
        for i in range(3):
            ckpt.save({"i": i}, None)
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


class TestRunCheckpointed:
    def test_runs_all_items_without_path(self):
        out = run_checkpointed([("a", lambda: 1), ("b", lambda: 2)])
        assert out == {"a": 1, "b": 2}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SpecificationError, match="duplicate"):
            run_checkpointed([("a", lambda: 1), ("a", lambda: 2)])

    def test_bad_every_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="every"):
            run_checkpointed([("a", lambda: 1)], path=tmp_path / "c.json",
                             every=0)

    def test_completed_items_skipped_on_resume(self, tmp_path):
        path = tmp_path / "ck.json"
        calls = []

        def make(key, value):
            def thunk():
                calls.append(key)
                return value
            return (key, thunk)

        first = run_checkpointed([make("a", 1), make("b", 2)], path=path)
        assert first == {"a": 1, "b": 2}
        assert calls == ["a", "b"]
        second = run_checkpointed(
            [make("a", 10), make("b", 20), make("c", 3)], path=path)
        # a and b come from the checkpoint, only c runs
        assert second == {"a": 1, "b": 2, "c": 3}
        assert calls == ["a", "b", "c"]

    def test_resume_false_discards_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        run_checkpointed([("a", lambda: 1)], path=path)
        out = run_checkpointed([("a", lambda: 99)], path=path, resume=False)
        assert out == {"a": 99}

    def test_encode_decode_bridge(self, tmp_path):
        path = tmp_path / "ck.json"
        run_checkpointed(
            [("v", lambda: np.array([1.0, 2.0]))], path=path,
            encode=lambda a: a.tolist(), decode=np.asarray)
        out = run_checkpointed(
            [("v", lambda: pytest.fail("must resume, not rerun"))],
            path=path, encode=lambda a: a.tolist(), decode=np.asarray)
        np.testing.assert_allclose(out["v"], [1.0, 2.0])

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        """A run killed mid-way resumes to the exact uninterrupted result."""
        seed = 2005
        keys = [f"item-{i}" for i in range(8)]

        def items(kill_at=None):
            # each item draws from its own spawned stream, so partial
            # execution cannot shift any other item's randomness
            rngs = spawn_rngs(seed, len(keys))

            def make(i):
                def thunk():
                    if kill_at is not None and i >= kill_at:
                        raise KeyboardInterrupt  # simulated kill
                    return float(rngs[i].random())
                return (keys[i], thunk)

            return [make(i) for i in range(len(keys))]

        uninterrupted = run_checkpointed(
            items(), path=tmp_path / "full.json", meta={"seed": seed})

        partial_path = tmp_path / "partial.json"
        with pytest.raises(KeyboardInterrupt):
            run_checkpointed(items(kill_at=5), path=partial_path,
                             meta={"seed": seed})
        stored = Checkpoint(partial_path).load(expect_meta={"seed": seed})
        assert sorted(stored) == keys[:5]

        resumed = run_checkpointed(items(), path=partial_path,
                                   meta={"seed": seed})
        assert resumed == uninterrupted


class TestCheckpointedValidation:
    """Chunked Monte-Carlo validation: kill mid-run, resume, identical."""

    @staticmethod
    def problem_and_result(mapping=None):
        if mapping is None:
            mapping = LinearMapping([3.0, 4.0])
        problem = RadiusProblem(mapping, np.array([1.0, 1.0]),
                                ToleranceBounds.upper(12.0))
        return problem, compute_radius(problem)

    def test_chunked_matches_itself(self, tmp_path):
        problem, result = self.problem_and_result()
        a = validate_radius(problem, result, n_samples=2000, seed=7,
                            chunk_size=500)
        b = validate_radius(problem, result, n_samples=2000, seed=7,
                            chunk_size=500,
                            checkpoint_path=tmp_path / "ck.json")
        assert a == b
        assert a.n_samples == 2000
        assert a.sound

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        problem, result = self.problem_and_result()
        uninterrupted = validate_radius(problem, result, n_samples=2000,
                                        seed=7, chunk_size=400)

        calls = {"n": 0}
        base = problem.mapping

        def flaky_value_rows(xs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt  # killed mid-run after 3 chunks
            return base.value_rows(xs)

        flaky = CallableMapping(base.value, 2, name="flaky")
        flaky.value_rows = flaky_value_rows
        killed_problem = RadiusProblem(flaky, problem.origin,
                                       problem.bounds)
        path = tmp_path / "mc.json"
        with pytest.raises(KeyboardInterrupt):
            validate_radius(killed_problem, result, n_samples=2000, seed=7,
                            chunk_size=400, checkpoint_path=path)
        stored = Checkpoint(path).load()
        assert 0 < len(stored) < 5  # genuinely partial

        resumed = validate_radius(problem, result, n_samples=2000, seed=7,
                                  chunk_size=400, checkpoint_path=path)
        assert resumed == uninterrupted

    def test_mismatched_seed_refuses_resume(self, tmp_path):
        problem, result = self.problem_and_result()
        path = tmp_path / "ck.json"
        validate_radius(problem, result, n_samples=1000, seed=7,
                        chunk_size=500, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            validate_radius(problem, result, n_samples=1000, seed=8,
                            chunk_size=500, checkpoint_path=path)

    def test_infinite_radius_chunked(self, tmp_path):
        mapping = LinearMapping([0.0, 0.0], constant=1.0)
        problem = RadiusProblem(mapping, np.array([1.0, 1.0]),
                                ToleranceBounds.upper(5.0))
        result = compute_radius(problem)
        assert math.isinf(result.radius)
        validation = validate_radius(problem, result, n_samples=1000,
                                     seed=3, chunk_size=250,
                                     checkpoint_path=tmp_path / "inf.json")
        assert validation.sound
        assert validation.n_samples == 1000


class TestCheckpointRegressions:
    """Regression tests for PR-1 checkpoint bugs."""

    def test_tuple_valued_meta_resumes(self, tmp_path):
        # Regression: stored meta goes through a JSON round-trip, so tuple
        # values come back as lists; comparing the raw expectation made
        # resume with tuple-valued meta *always* fail.
        ckpt = Checkpoint(tmp_path / "ck.json")
        meta = {"seed": 7, "shape": (3, 2), "scales": ((1.0, 2.0), (3.0, 4.0))}
        ckpt.save({"a": 1}, meta)
        assert ckpt.load(expect_meta=meta) == {"a": 1}

    def test_tuple_valued_meta_mismatch_still_refuses(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck.json")
        ckpt.save({"a": 1}, {"shape": (3, 2)})
        with pytest.raises(CheckpointError, match="different run"):
            ckpt.load(expect_meta={"shape": (3, 3)})

    def test_unserialisable_expect_meta_raises_checkpoint_error(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "ck.json")
        ckpt.save({"a": 1}, {"seed": 7})
        with pytest.raises(CheckpointError, match="JSON"):
            ckpt.load(expect_meta={"seed": object()})

    def test_run_checkpointed_resumes_with_tuple_meta(self, tmp_path):
        path = tmp_path / "ck.json"
        meta = {"chunks": (4, 5), "seed": 3}
        run_checkpointed([("a", lambda: 1)], path=path, meta=meta)
        out = run_checkpointed(
            [("a", lambda: pytest.fail("must resume, not rerun")),
             ("b", lambda: 2)],
            path=path, meta=meta)
        assert out == {"a": 1, "b": 2}

    @pytest.mark.parametrize("umask,expected", [(0o022, 0o644), (0o077, 0o600)])
    def test_checkpoint_file_honors_umask(self, tmp_path, umask, expected):
        # Regression: mkstemp creates the temp file 0600 and os.replace
        # preserved that, so checkpoints ignored the umask and were
        # unreadable by group CI caches.
        import os

        old = os.umask(umask)
        try:
            ckpt = Checkpoint(tmp_path / "ck.json")
            ckpt.save({"a": 1}, None)
            mode = ckpt.path.stat().st_mode & 0o777
        finally:
            os.umask(old)
        assert mode == expected
