"""Wiring the self-hosting executor model into the FePIA framework.

The third example system beside makespan and HiPer-D — and the one that
closes the reproduction's loop, because the allocation under study is
the :class:`~repro.resilience.supervisor.SupervisedExecutor` policy this
library itself dispatches radius solves with.

* **Perturbation parameters** (two genuinely different *kinds*, the
  IPDPS'05 core setting): ``task_costs`` — per-task execution costs in
  seconds — and ``worker_fail_rates`` — per-worker failure
  probabilities, dimensionless and in ``[0, 1]``.
* **Performance features**: the batch ``makespan``, the ``max_load``
  any single worker accumulates (max queue backlog), and the
  ``recovery`` time spent beyond the ideal first wave — all produced by
  the deterministic :class:`~repro.systems.selfhost.model.DispatchModel`
  fluid simulation of waves, deadlines, retries, quarantine drain and
  breaker-degraded serial mode.
* **Robustness requirement**: each feature must not exceed ``beta``
  times its original (fault-free-rate) value.

Because the two kinds have different units, the default weighting is
the paper's :class:`~repro.core.weighting.NormalizedWeighting` (Eq. 5),
which needs strictly positive originals — so a self-host system under
analysis must declare *non-zero* origin failure rates (a fault-free
origin also has zero recovery time, which admits no relative bound).

With zero failure rates and no deadline the model degenerates to the
classic single-wave makespan, giving the same closed form the TPDS 2004
paper proves — :meth:`SelfhostSystem.analytic_cost_radii` exposes it as
the validation anchor for the generic solver on this substrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import PerformanceFeature, ToleranceBounds
from repro.core.fepia import FeatureSpec, RobustnessAnalysis
from repro.core.mappings import FeatureMapping
from repro.core.perturbation import PerturbationParameter
from repro.core.weighting import NormalizedWeighting, WeightingScheme
from repro.exceptions import SpecificationError
from repro.utils.validation import as_2d_float_array
from repro.systems.selfhost.model import (
    SELFHOST_FEATURES,
    DispatchModel,
    SelfhostMetrics,
)

__all__ = ["SelfhostMapping", "SelfhostSystem"]


class SelfhostMapping(FeatureMapping):
    """One dispatch-model feature as a function of ``[costs, fail_rates]``.

    The flat input is the concatenation of the ``task_costs`` block
    (length ``n_tasks``) and the ``worker_fail_rates`` block (length
    ``workers``).  The mapping is picklable (plain data fields only) so
    radius solves fan out across processes, and exposes a
    :meth:`structure_key` so deterministic solves are shared through the
    :class:`~repro.parallel.cache.RadiusCache`.
    """

    def __init__(self, model: DispatchModel, feature: str) -> None:
        if feature not in SELFHOST_FEATURES:
            raise SpecificationError(
                f"unknown selfhost feature {feature!r}; expected one of "
                f"{SELFHOST_FEATURES}")
        super().__init__(model.n_tasks + model.workers)
        self.model = model
        self.feature = feature

    def value(self, x: np.ndarray) -> float:
        x = self._check_input(x)
        n = self.model.n_tasks
        metrics = self.model.simulate(x[:n], x[n:])
        return float(metrics.value(self.feature))

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised batch evaluation (one wave recursion for all rows).

        Row-for-row bit-identical with :meth:`value` — both routes go
        through the same batched accounting kernel, whose per-row
        reduction order is independent of the batch size.
        """
        xs = self._check_input(as_2d_float_array(xs, name="xs"))
        n = self.model.n_tasks
        out = self.model.simulate_many(xs[:, :n], xs[:, n:])
        return out[self.feature]

    def structure_key(self) -> tuple:
        m = self.model
        return ("selfhost", self.feature, m.n_tasks, m.workers,
                m.max_task_retries, m.deadline, m.breaker_threshold,
                m.breaker_cooldown)

    def __repr__(self) -> str:
        return (f"SelfhostMapping(feature={self.feature!r}, "
                f"model={self.model!r})")


@dataclass
class SelfhostSystem:
    """A (costs, fail-rates, policy) triple exposing FePIA analyses.

    Attributes
    ----------
    costs:
        Per-task execution costs in seconds (positive).
    fail_rates:
        Per-worker failure probabilities in ``[0, 1)``; the pool size is
        their length.  Must be strictly positive to use the default
        normalized weighting and the ``recovery`` feature.
    max_task_retries / deadline / breaker_threshold / breaker_cooldown:
        The supervisor policy under study (see
        :class:`~repro.systems.selfhost.model.DispatchModel`).
    """

    costs: np.ndarray
    fail_rates: np.ndarray
    max_task_retries: int = 2
    deadline: float | None = None
    breaker_threshold: float = 3.0
    breaker_cooldown: int = 2
    _model: DispatchModel = field(init=False, repr=False)

    def __post_init__(self) -> None:
        costs = np.asarray(self.costs, dtype=np.float64).ravel()
        rates = np.asarray(self.fail_rates, dtype=np.float64).ravel()
        if costs.size < 1 or np.any(costs <= 0):
            raise SpecificationError(
                "costs must be a non-empty vector of positive seconds")
        if rates.size < 1 or np.any(rates < 0) or np.any(rates >= 1):
            raise SpecificationError(
                "fail_rates must be a non-empty vector of probabilities "
                "in [0, 1)")
        self.costs = costs
        self.fail_rates = rates
        self._model = DispatchModel(
            n_tasks=costs.size, workers=rates.size,
            max_task_retries=self.max_task_retries, deadline=self.deadline,
            breaker_threshold=self.breaker_threshold,
            breaker_cooldown=self.breaker_cooldown)

    # ------------------------------------------------------------------
    # plain performance quantities
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of tasks in the modelled batch."""
        return self._model.n_tasks

    @property
    def workers(self) -> int:
        """Modelled pool size (the allocation under study)."""
        return self._model.workers

    @property
    def model(self) -> DispatchModel:
        """The frozen dispatch-policy model."""
        return self._model

    def origin_metrics(self) -> SelfhostMetrics:
        """Features at the original operating point."""
        return self._model.simulate(self.costs, self.fail_rates)

    def pi_orig(self) -> np.ndarray:
        """The flat original perturbation vector ``[costs, fail_rates]``."""
        return np.concatenate([self.costs, self.fail_rates])

    # ------------------------------------------------------------------
    # FePIA wiring
    # ------------------------------------------------------------------
    def cost_parameter(self) -> PerturbationParameter:
        """The per-task execution-cost perturbation parameter (seconds)."""
        return PerturbationParameter.nonnegative(
            "task_costs", self.costs, unit="s",
            description="actual per-task execution costs")

    def failure_parameter(self) -> PerturbationParameter:
        """The per-worker failure-rate parameter (dimensionless kind)."""
        return PerturbationParameter(
            "worker_fail_rates", self.fail_rates, unit="probability",
            lower=np.zeros(self.workers), upper=np.ones(self.workers),
            description="per-worker attempt failure probabilities")

    def perturbation_parameters(self) -> list[PerturbationParameter]:
        """Both kinds, in flat-vector order."""
        return [self.cost_parameter(), self.failure_parameter()]

    def feature_specs(self, beta: float,
                      features: tuple[str, ...] = SELFHOST_FEATURES
                      ) -> list[FeatureSpec]:
        """Relative-bound feature specs ``phi <= beta * phi_orig``.

        ``features`` selects a subset (the zero-failure-rate validation
        anchor uses ``("makespan",)`` because a fault-free origin has
        zero recovery, which admits no relative bound).
        """
        if beta <= 1.0:
            raise SpecificationError(f"beta must be > 1, got {beta}")
        origin = self.origin_metrics()
        specs: list[FeatureSpec] = []
        for name in features:
            orig = origin.value(name)
            if orig <= 0:
                raise SpecificationError(
                    f"feature {name!r} is {orig:g} at the origin; a "
                    "relative bound needs a positive original value "
                    "(declare non-zero origin failure rates, or select "
                    "other features)")
            feature = PerformanceFeature(
                name=f"selfhost_{name}",
                bounds=ToleranceBounds.upper(beta * orig),
                unit="s",
                description=f"dispatch-model {name} (origin {orig:g}s)")
            specs.append(FeatureSpec(feature, SelfhostMapping(self._model,
                                                              name)))
        return specs

    def robustness_analysis(
        self,
        beta: float = 1.3,
        *,
        features: tuple[str, ...] = SELFHOST_FEATURES,
        weighting: WeightingScheme | None = None,
        respect_physical_bounds: bool = True,
        method: str = "auto",
        norm: float = 2,
        seed=None,
        solver_timeout: float | None = None,
        workers: int = 1,
        executor=None,
        service=None,
        radius_cache=None,
    ) -> RobustnessAnalysis:
        """Build the full two-kind FePIA analysis for this policy.

        Defaults differ from the other systems where the substrate
        demands it: the weighting is :class:`NormalizedWeighting` (the
        two kinds have different units, so identity weighting is
        refused), physical bounds are respected (failure rates live in
        ``[0, 1]``), and the solver defaults to ``auto`` — the fluid
        simulation is piecewise-smooth, so the numeric projection solver
        (finite-difference Jacobians) converges to the exact boundary
        where directional bisection only brackets it from above.
        """
        if weighting is None:
            weighting = NormalizedWeighting()
        return RobustnessAnalysis(
            self.feature_specs(beta, features),
            self.perturbation_parameters(),
            weighting=weighting,
            respect_physical_bounds=respect_physical_bounds,
            method=method, norm=norm, seed=seed,
            solver_timeout=solver_timeout,
            workers=workers, executor=executor, service=service,
            radius_cache=radius_cache)

    # ------------------------------------------------------------------
    # validation anchor
    # ------------------------------------------------------------------
    def analytic_cost_radii(self, beta: float) -> np.ndarray:
        """Closed-form cost-only radii per worker, for the degenerate case.

        With all failure rates zero and no deadline the model collapses
        to a single wave — classic makespan over the round-robin
        allocation — so the identity-weighted Euclidean radius of worker
        ``w`` is ``(tau - load_w) / sqrt(n_w)``, the TPDS 2004 closed
        form.  Used to validate the generic solver on this substrate.
        """
        if np.any(self.fail_rates != 0) or self.deadline is not None:
            raise SpecificationError(
                "the closed form holds only for zero failure rates and "
                "no deadline (single-wave degenerate case)")
        if beta <= 1.0:
            raise SpecificationError(f"beta must be > 1, got {beta}")
        assigned = self._model.worker_of()
        loads = np.bincount(assigned, weights=self.costs,
                            minlength=self.workers)
        tau = beta * float(loads.max())
        radii = np.empty(self.workers)
        for w in range(self.workers):
            n_w = self._model.tasks_on(w).size
            radii[w] = math.inf if n_w == 0 \
                else (tau - loads[w]) / math.sqrt(n_w)
        return radii

    # ------------------------------------------------------------------
    # canonical workload
    # ------------------------------------------------------------------
    @classmethod
    def baseline(cls, n_tasks: int = 96, workers: int = 3, *,
                 seed: int = 2005, max_task_retries: int = 2,
                 deadline: float | None = None) -> "SelfhostSystem":
        """The canonical seeded self-host workload used by CLI and tests.

        Sized so that *realized* chaos runs concentrate around the fluid
        prediction: the batch is large enough (32 tasks per modelled
        worker) that the retry-wave load has a small coefficient of
        variation, cost heterogeneity is gamma-distributed around 1s
        with bounded tail (one extra retry cannot dwarf a tolerance
        margin), and origin failure rates sit near 20% so the recovery
        feature has a scale well above single-retry granularity.  The
        breaker threshold scales with the batch — the real breaker
        counts pool-level incidents, not individual task failures, so a
        fixed small threshold would keep the model permanently serial.
        """
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=int(seed), spawn_key=(ord("s"), ord("h"))))
        costs = rng.gamma(shape=16.0, scale=1.0 / 16.0, size=n_tasks)
        rates = 0.15 + 0.1 * rng.random(workers)
        return cls(costs=costs, fail_rates=rates,
                   max_task_retries=max_task_retries, deadline=deadline,
                   breaker_threshold=max(3.0, n_tasks / 2.0))
