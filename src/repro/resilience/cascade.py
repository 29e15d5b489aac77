"""Fault-tolerant solver cascade with graceful degradation.

:class:`SolverCascade` computes robustness radii through the same solver
stack as :func:`~repro.core.radius.compute_radius`, but hardened for long
unattended sweeps: every solver runs under a wall-clock timeout, stochastic
solvers are retried with jittered exponential backoff and fresh RNG
streams, candidate boundary points are re-verified against the mapping
before being trusted, and — instead of raising when everything fails — the
cascade returns the best *rigorous upper bound* on the radius it obtained,
tagged with an honest :class:`~repro.core.diagnostics.Quality` grade and a
full :class:`~repro.core.diagnostics.SolverAttempt` trail.

The degradation ladder per tolerance bound is the plain dispatcher's tier
ladder (:func:`~repro.core.radius._tier_ladder`, with the same solver per
tier) extended by the directional fallbacks

    analytic / analytic-box / ellipsoid  →  numeric  →  bisection

(numeric in the Euclidean norm only), with a whole-interval Monte-Carlo
violation search as the final fallback when no bound yields a verified
crossing.  Soundness of the degraded answers rests on one fact: any
verified point *on or beyond* the boundary lies at distance ``>=`` the
true radius, so the minimum over whatever bounds were resolved is always
a valid upper bound.

The only exceptions that escape :meth:`SolverCascade.compute` are genuine
specification problems (an infeasible original operating point, malformed
inputs) — never solver failures, injected or otherwise.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.boundary import BoundaryCrossing
from repro.core.diagnostics import Quality, SolverAttempt, quality_of_method
from repro.core.radius import (
    _CLOSED_FORM,
    _SOLVERS,
    RadiusProblem,
    RadiusResult,
    _tier_ladder,
)
from repro.core.solvers.sampling import sampling_upper_bound
from repro.exceptions import (
    BoundaryNotFoundError,
    DegradedResultWarning,
    InfeasibleAllocationError,
    SolverTimeoutError,
    SpecificationError,
)
from repro.observability import emit_event, get_metrics, span
from repro.resilience.retry import RetryPolicy
from repro.resilience.timeouts import call_with_timeout

__all__ = ["CascadeConfig", "SolverCascade"]

logger = logging.getLogger(__name__)

#: Quality severity order (worst last), used to combine per-bound grades.
_SEVERITY = [Quality.EXACT, Quality.CONVERGED, Quality.UPPER_BOUND,
             Quality.FAILED]


@dataclass(frozen=True)
class CascadeConfig:
    """Tuning knobs of a :class:`SolverCascade`.

    Attributes
    ----------
    solver_timeout:
        Wall-clock budget per solver invocation, in seconds (``None``
        disables timeouts).
    retry:
        Retry policy applied to failing solver invocations.
    verify_rtol:
        A candidate boundary point is accepted only if
        ``|f(point) - bound| <= verify_rtol * (1 + |bound|)`` in a fresh
        evaluation (guards against answers corrupted by transient faults).
    verify_attempts:
        Fresh evaluations tried per verification — a single confirming
        evaluation accepts, so transient NaN faults cannot veto a genuine
        boundary point.
    sampling_samples:
        Monte-Carlo points for the final violation-search fallback.
    sampling_distance_scale:
        The fallback searches within
        ``scale * max(1, ||origin||)`` of the origin.
    warn_on_degraded:
        Emit a :class:`~repro.exceptions.DegradedResultWarning` whenever
        the final quality is ``UPPER_BOUND`` or ``FAILED``.
    """

    solver_timeout: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    verify_rtol: float = 1e-6
    verify_attempts: int = 3
    sampling_samples: int = 8192
    sampling_distance_scale: float = 10.0
    warn_on_degraded: bool = True

    def __post_init__(self) -> None:
        if self.solver_timeout is not None and not self.solver_timeout > 0:
            raise SpecificationError(
                f"solver_timeout must be positive or None, got "
                f"{self.solver_timeout}")
        if self.verify_attempts < 1:
            raise SpecificationError("verify_attempts must be >= 1")
        if self.sampling_samples < 1:
            raise SpecificationError("sampling_samples must be >= 1")
        if self.sampling_distance_scale <= 0:
            raise SpecificationError("sampling_distance_scale must be > 0")


@dataclass
class _BoundOutcome:
    """What the cascade learned about one tolerance bound."""

    crossing: BoundaryCrossing | None = None
    quality: Quality | None = None
    #: "solved" | "proven" (unreachable, exactly) | "evidence" (unreachable
    #: per a best-effort solver) | "failed" (no information at all)
    status: str = "failed"
    method: str = ""


class SolverCascade:
    """Graceful-degradation radius computation.

    Parameters
    ----------
    config:
        Cascade configuration; defaults to no timeout, 2 retries.
    seed:
        Root seed for the per-attempt solver RNG streams and the retry
        jitter.  Identical seeds and call sequences reproduce identical
        results (modulo wall-clock-dependent timeouts).
    fault_injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` whose
        :meth:`~repro.resilience.faults.FaultInjector.wrap_callable` is
        applied to every solver invocation — used by the fault-tolerance
        test suite and benchmarks to force each degradation path.
    """

    def __init__(self, config: CascadeConfig | None = None, *, seed=None,
                 fault_injector=None) -> None:
        self.config = config if config is not None else CascadeConfig()
        if not isinstance(self.config, CascadeConfig):
            raise SpecificationError(
                f"config must be a CascadeConfig, got "
                f"{type(self.config).__name__}")
        self._root_ss = np.random.SeedSequence(seed) if seed is not None \
            else np.random.SeedSequence()
        self._fault_injector = fault_injector

    # ------------------------------------------------------------------
    # attempt plumbing
    # ------------------------------------------------------------------
    def _invoke(self, solver: str, bound: float | None, fn, rng,
                trail: list[SolverAttempt], attempt: int):
        """One timed, timeout-guarded solver invocation.

        Returns ``(outcome, value)`` with outcome in ``{"ok",
        "unreachable", "timeout", "error"}``.
        """
        call = fn
        if self._fault_injector is not None:
            call = self._fault_injector.wrap_callable(fn, name=solver)
        t0 = time.perf_counter()
        with span("cascade.tier", solver=solver,
                  bound=None if bound is None else float(bound),
                  attempt=attempt) as sp:
            try:
                value = call_with_timeout(
                    lambda: call(rng), timeout=self.config.solver_timeout,
                    name=solver)
            except BoundaryNotFoundError as exc:
                outcome, value, detail = "unreachable", None, str(exc)
            except SolverTimeoutError as exc:
                outcome, value, detail = "timeout", None, str(exc)
            except Exception as exc:  # injected or numerical: degrade
                outcome, value = "error", None
                detail = f"{type(exc).__name__}: {exc}"
            else:
                outcome, detail = "ok", ""
            if sp is not None:
                sp.tags["outcome"] = outcome
        self._record(trail, solver, bound, attempt, t0, outcome, detail)
        get_metrics().inc(f"cascade.tier.{outcome}")
        emit_event("cascade.tier", solver=solver, bound=bound,
                   attempt=attempt, outcome=outcome)
        return outcome, value

    @staticmethod
    def _record(trail: list[SolverAttempt], solver: str, bound: float | None,
                attempt: int, t0: float, outcome: str,
                detail: str = "") -> None:
        trail.append(SolverAttempt(
            solver=solver, bound=bound, attempt=attempt,
            elapsed=time.perf_counter() - t0, outcome=outcome,
            detail=detail))

    def _run_with_retries(self, solver: str, bound: float | None, fn,
                          trail: list[SolverAttempt], jitter_rng,
                          seed_stream):
        """Run a solver with bounded retries; returns (outcome, value).

        ``unreachable`` is definitive for the solver and never retried;
        ``timeout`` is assumed persistent (the budget does not grow) and
        not retried either.  Every retry gets a fresh RNG stream so a
        stochastic solver actually re-rolls.
        """
        policy = self.config.retry
        attempts = 1 + policy.max_retries
        for i in range(attempts):
            rng = np.random.default_rng(seed_stream.spawn(1)[0])
            outcome, value = self._invoke(solver, bound, fn, rng, trail,
                                          attempt=i + 1)
            if outcome in ("ok", "unreachable", "timeout"):
                return outcome, value
            if i + 1 < attempts:
                delay = policy.delay(i, jitter_rng)
                get_metrics().inc("cascade.retries")
                emit_event("retry", solver=solver, attempt=i + 1,
                           delay=delay)
                logger.warning(
                    "solver %s failed (attempt %d/%d); retrying in %.3g s",
                    solver, i + 1, attempts, delay)
                if delay > 0:
                    time.sleep(delay)
        logger.warning("solver %s exhausted its %d attempts", solver,
                       attempts)
        return "error", None

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def _robust_value(self, mapping, point: np.ndarray) -> float | None:
        """Evaluate ``mapping`` at ``point``, shrugging off transient faults.

        Returns the first finite value obtained in ``verify_attempts``
        tries, or ``None``.
        """
        for _ in range(self.config.verify_attempts):
            try:
                v = float(call_with_timeout(
                    lambda: mapping.value(point),
                    timeout=self.config.solver_timeout, name="verify"))
            except Exception:
                continue
            if math.isfinite(v):
                return v
        return None

    def _verify_crossing(self, problem: RadiusProblem, bound: float,
                         crossing) -> bool:
        """Whether a candidate crossing is a genuine boundary point."""
        if not isinstance(crossing, BoundaryCrossing):
            return False
        point = np.asarray(crossing.point, dtype=np.float64)
        if point.shape != problem.origin.shape or \
                not np.all(np.isfinite(point)):
            return False
        if not math.isfinite(crossing.distance) or crossing.distance < 0:
            return False
        value = self._robust_value(problem.mapping, point)
        if value is None:
            return False
        return abs(value - bound) <= self.config.verify_rtol * \
            (1.0 + abs(bound))

    # ------------------------------------------------------------------
    # stage plans
    # ------------------------------------------------------------------
    def _stages(self, problem: RadiusProblem, bound: float):
        """The (name, is_exact, fn) degradation ladder for one bound.

        The plain ``auto`` tier ladder (see
        :func:`~repro.core.radius._tier_ladder`) extended by the numeric
        projection (Euclidean norm only) and directional bisection.  A
        closed-form tier is definitive — its "unreachable" a proof — only
        where the plain ladder ends at it; an unboxed hyperplane with
        bisection behind it is evidence, not proof.
        """
        ladder, form = _tier_ladder(problem, "auto")
        fallbacks = ("numeric", "bisection") if problem.norm == 2 \
            else ("bisection",)
        tiers = ladder + tuple(t for t in fallbacks if t not in ladder)
        return [(tier, tier in _CLOSED_FORM and tier == ladder[-1],
                 lambda rng, tier=tier: _SOLVERS[tier](problem, form, bound,
                                                       rng, None))
                for tier in tiers]

    # ------------------------------------------------------------------
    # the cascade
    # ------------------------------------------------------------------
    def _solve_bound(self, problem: RadiusProblem, bound: float,
                     trail: list[SolverAttempt], jitter_rng,
                     seed_stream) -> _BoundOutcome:
        outcome = _BoundOutcome()
        for name, is_exact, fn in self._stages(problem, bound):
            status, crossing = self._run_with_retries(
                name, bound, fn, trail, jitter_rng, seed_stream)
            if status == "ok":
                if is_exact or self._verify_crossing(problem, bound,
                                                     crossing):
                    return _BoundOutcome(
                        crossing=crossing,
                        quality=quality_of_method(name),
                        status="solved", method=name)
                self._record(trail, name, bound, 0, time.perf_counter(),
                             "rejected",
                             "candidate failed boundary re-verification")
                logger.warning(
                    "solver %s answer at bound %g failed verification; "
                    "degrading", name, bound)
                continue
            if status == "unreachable":
                if is_exact:
                    return _BoundOutcome(status="proven", method=name)
                outcome.status = "evidence"
                outcome.method = name
                # keep cascading: a later solver may still find a crossing
                continue
            # timeout / error: fall through to the next, cheaper solver
            logger.warning("solver %s degraded at bound %g (%s)",
                           name, bound, status)
        return outcome

    def _sampling_fallback(self, problem: RadiusProblem,
                           trail: list[SolverAttempt], jitter_rng,
                           seed_stream):
        """Whole-interval violation search; returns a crossing or None."""
        cfg = self.config
        max_distance = cfg.sampling_distance_scale * \
            max(1.0, float(np.linalg.norm(problem.origin)))

        def run(rng):
            return sampling_upper_bound(
                problem.mapping, problem.origin, problem.bounds,
                max_distance=max_distance, n_samples=cfg.sampling_samples,
                norm=problem.norm, lower=problem.lower, upper=problem.upper,
                seed=rng)

        status, report = self._run_with_retries(
            "sampling", None, run, trail, jitter_rng, seed_stream)
        if status != "ok" or report is None:
            return None, status
        if report.n_violations == 0:
            return None, "no-violations"
        point = np.asarray(report.closest_violation, dtype=np.float64)
        distance = float(report.min_violation_distance)
        if not np.all(np.isfinite(point)) or not math.isfinite(distance):
            return None, "rejected"
        # Re-verify that the point genuinely violates (a NaN-corrupted
        # batch can fake violations); one confirming evaluation suffices.
        value = self._robust_value(problem.mapping, point)
        if value is None or problem.bounds.contains(value):
            self._record(trail, "sampling", None, 0, time.perf_counter(),
                         "rejected", "closest violation did not re-verify")
            return None, "rejected"
        return BoundaryCrossing(point=point, bound=float(value),
                                distance=distance), "ok"

    def compute(self, problem: RadiusProblem, *,
                method: str = "auto") -> RadiusResult:
        """Compute a radius, degrading gracefully instead of raising.

        One ``cascade.compute`` span (with per-tier ``cascade.tier``
        child spans), a ``cascade.quality.*`` counter, and per-tier
        events are recorded when an observability session is active.

        Parameters
        ----------
        problem:
            The radius computation to perform.
        method:
            Accepted for interface compatibility with
            :func:`~repro.core.radius.compute_radius`; the cascade always
            runs its own ``auto`` degradation ladder.

        Returns
        -------
        RadiusResult
            With an honest ``quality`` tag: ``EXACT``/``CONVERGED`` when
            the ladder's upper stages succeeded for every bound,
            ``UPPER_BOUND`` when only degraded answers survived (the true
            radius is at most the reported value), and ``FAILED`` (radius
            NaN) when nothing usable was obtained.

        Raises
        ------
        InfeasibleAllocationError
            If the feature genuinely violates its tolerance interval at
            the original operating point.  This is a property of the
            *problem*, not a solver failure, so it is not absorbed.
        """
        if method != "auto":
            logger.debug("SolverCascade ignores method=%r and runs its own "
                         "degradation ladder", method)
        if not isinstance(problem, RadiusProblem):
            raise SpecificationError(
                f"problem must be a RadiusProblem, got "
                f"{type(problem).__name__}")
        with span("cascade.compute") as sp:
            result = self._compute(problem)
            if sp is not None:
                sp.tags["quality"] = result.quality.name
                sp.tags["method"] = result.method
        get_metrics().inc(f"cascade.quality.{result.quality.name}")
        return result

    def _compute(self, problem: RadiusProblem) -> RadiusResult:
        call_ss = self._root_ss.spawn(1)[0]
        jitter_rng = np.random.default_rng(call_ss.spawn(1)[0])
        trail: list[SolverAttempt] = []

        # --- original operating point (retried: the mapping may fault) ---
        t0 = time.perf_counter()
        value0 = self._robust_value(problem.mapping, problem.origin)
        if value0 is None:
            self._record(trail, "origin", None, 1, t0, "error",
                         "could not evaluate the original operating point")
            return self._finish(
                RadiusResult(
                    radius=math.nan, boundary_point=None, bound_hit=None,
                    method="none", original_value=math.nan, per_bound={},
                    quality=Quality.FAILED, diagnostics=tuple(trail)))
        if not problem.bounds.contains(value0):
            raise InfeasibleAllocationError(
                f"feature value {value0:g} violates the tolerance interval "
                f"[{problem.bounds.beta_min:g}, {problem.bounds.beta_max:g}]"
                " at the original operating point; robustness is undefined")

        finite_bounds = problem.bounds.finite_bounds
        for b in finite_bounds:
            if value0 == b:
                return RadiusResult(
                    radius=0.0, boundary_point=problem.origin.copy(),
                    bound_hit=b, method="degenerate", original_value=value0,
                    per_bound={b: 0.0}, quality=Quality.EXACT,
                    diagnostics=tuple(trail))

        # --- per-bound degradation ladders --------------------------------
        outcomes: dict[float, _BoundOutcome] = {}
        for b in finite_bounds:
            outcomes[b] = self._solve_bound(problem, b, trail, jitter_rng,
                                            call_ss)

        per_bound = {b: (o.crossing.distance if o.crossing is not None
                         else math.inf)
                     for b, o in outcomes.items()}
        solved = {b: o for b, o in outcomes.items() if o.status == "solved"}

        if solved:
            best_bound = min(solved, key=lambda b: solved[b].crossing.distance)
            best = solved[best_bound]
            grades = []
            for o in outcomes.values():
                if o.status == "solved":
                    grades.append(o.quality)
                elif o.status == "proven":
                    grades.append(Quality.EXACT)
                elif o.status == "evidence":
                    grades.append(Quality.CONVERGED)
                else:  # no information for this bound: the reported
                    # minimum is still an upper bound on the true radius
                    grades.append(Quality.UPPER_BOUND)
            quality = max(grades, key=_SEVERITY.index)
            return self._finish(RadiusResult(
                radius=best.crossing.distance,
                boundary_point=best.crossing.point,
                bound_hit=best.crossing.bound, method=best.method,
                original_value=value0, per_bound=per_bound,
                quality=quality, diagnostics=tuple(trail)))

        # --- nothing crossed: proven/evidence infinity, or sample --------
        statuses = {o.status for o in outcomes.values()}
        if statuses <= {"proven"}:
            return self._finish(RadiusResult(
                radius=math.inf, boundary_point=None, bound_hit=None,
                method="analytic", original_value=value0,
                per_bound=per_bound, quality=Quality.EXACT,
                diagnostics=tuple(trail)))
        crossing, sample_status = self._sampling_fallback(
            problem, trail, jitter_rng, call_ss)
        if crossing is not None:
            return self._finish(RadiusResult(
                radius=crossing.distance, boundary_point=crossing.point,
                bound_hit=None, method="sampling", original_value=value0,
                per_bound=per_bound, quality=Quality.UPPER_BOUND,
                diagnostics=tuple(trail)))
        if "failed" in statuses and sample_status != "no-violations":
            # Every ladder errored out and sampling produced nothing:
            # there is no evidence in any direction.
            return self._finish(RadiusResult(
                radius=math.nan, boundary_point=None, bound_hit=None,
                method="none", original_value=value0, per_bound=per_bound,
                quality=Quality.FAILED, diagnostics=tuple(trail)))
        # Consistent no-boundary evidence from best-effort solvers (and
        # possibly exact proofs for some bounds): report infinity as a
        # converged, non-rigorous answer.
        return self._finish(RadiusResult(
            radius=math.inf, boundary_point=None, bound_hit=None,
            method="bisection", original_value=value0, per_bound=per_bound,
            quality=Quality.CONVERGED, diagnostics=tuple(trail)))

    def _finish(self, result: RadiusResult) -> RadiusResult:
        if result.is_degraded:
            emit_event("cascade.degraded", quality=result.quality.name,
                       radius=(result.radius
                               if math.isfinite(result.radius) else
                               repr(result.radius)),
                       method=result.method)
            logger.warning("radius computation degraded to %s (radius=%g)",
                           result.quality, result.radius)
            if self.config.warn_on_degraded:
                warnings.warn(
                    f"radius computation degraded to quality="
                    f"{result.quality}: radius={result.radius:g} is "
                    f"{'an upper bound' if result.quality is Quality.UPPER_BOUND else 'unusable'}",
                    DegradedResultWarning, stacklevel=3)
        return result
