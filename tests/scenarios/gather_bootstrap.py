"""The per-replicate gather bootstrap, kept as the oracle of the
prefix-sum bootstrap.

This is how :func:`~repro.scenarios.bootstrap.block_bootstrap_violation_rate`
resampled before it counted violations from prefix sums: every replicate
builds the ``(n_traj, n_steps)`` index array of its circular blocks and
takes the mean of the gathered boolean cells.  Both draw the same
``2 * n_boot`` integer arrays from the same stream, so their result dicts
must be equal.
"""

from __future__ import annotations

import math

import numpy as np

from repro.scenarios.bootstrap import _BOOTSTRAP_KEY


def gather_bootstrap_violation_rate(series, *, n_boot: int = 200,
                                    block: int = 10, seed: int = 0,
                                    level: float = 0.95) -> dict:
    """The bootstrap CI of the pooled violation rate, one gather per
    replicate."""
    stacked = np.stack([np.asarray(s, dtype=bool).ravel() for s in series])
    n_traj, n_steps = stacked.shape
    block = min(block, n_steps)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=(_BOOTSTRAP_KEY,)))
    n_blocks = math.ceil(n_steps / block)
    offsets = np.arange(block)
    rates = np.empty(n_boot)
    for b in range(n_boot):
        chosen = rng.integers(0, n_traj, size=n_traj)
        starts = rng.integers(0, n_steps, size=(n_traj, n_blocks))
        # Circular blocks: indices (start + offset) mod n_steps,
        # concatenated and truncated back to the series length.
        idx = (starts[:, :, None] + offsets[None, None, :]) % n_steps
        idx = idx.reshape(n_traj, -1)[:, :n_steps]
        rates[b] = stacked[chosen[:, None], idx].mean()
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(rates, [alpha, 1.0 - alpha])
    return {
        "mean": float(stacked.mean()),
        "lo": float(lo),
        "hi": float(hi),
        "n_boot": int(n_boot),
        "block": int(block),
        "level": float(level),
    }
