"""The FePIA procedure, orchestrated end-to-end.

:class:`RobustnessAnalysis` binds together the four FePIA steps:

1. performance **Fe**atures ``phi_i`` with tolerance bounds
   (:class:`~repro.core.features.PerformanceFeature`);
2. **P**erturbation parameters ``pi_j``
   (:class:`~repro.core.perturbation.PerturbationParameter`);
3. **I**mpact mappings ``f_i`` over the flat concatenation of all
   parameters (:class:`~repro.core.mappings.FeatureMapping`);
4. **A**nalysis: robustness radii — per single parameter
   (``r_mu(phi_i, pi_j)``, Eq. 1, others frozen at their originals) and in
   the weighted P-space (``r_mu(phi_i, P)``, Eq. 2) — and the system metric
   ``rho_mu(Phi, P) = min_i r_mu(phi_i, P)``.

For sensitivity weighting the alphas depend on the feature under analysis
(``alpha_j = 1/r_mu(phi_i, pi_j)``), so P-space is constructed per feature;
for the identity/normalized/custom schemes it is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.features import PerformanceFeature
from repro.core.mappings import FeatureMapping, RestrictedMapping
from repro.core.perturbation import PerturbationParameter
from repro.core.pspace import ConcatenatedPerturbation
from repro.core.radius import (
    RadiusProblem,
    RadiusResult,
    compute_radii,
    compute_radius,
)
from repro.core.weighting import NormalizedWeighting, WeightingScheme
from repro.exceptions import SpecificationError
from repro.observability import span
from repro.parallel.executor import ParallelExecutor

__all__ = ["FeatureSpec", "RobustnessAnalysis"]


@dataclass(frozen=True)
class FeatureSpec:
    """A performance feature paired with its impact mapping ``f_i``.

    The mapping is over the *flat pi-space*: the concatenation of every
    perturbation parameter of the analysis, in declaration order.
    """

    feature: PerformanceFeature
    mapping: FeatureMapping

    def __post_init__(self) -> None:
        if not isinstance(self.feature, PerformanceFeature):
            raise SpecificationError("feature must be a PerformanceFeature")
        if not isinstance(self.mapping, FeatureMapping):
            raise SpecificationError("mapping must be a FeatureMapping")

    @property
    def name(self) -> str:
        """The underlying feature's name."""
        return self.feature.name


class RobustnessAnalysis:
    """End-to-end FePIA robustness analysis of one resource allocation.

    Parameters
    ----------
    features:
        The feature specifications (``Phi`` with impact functions).
    params:
        Perturbation parameters (``Pi``) in concatenation order; every
        mapping must accept the flat concatenation of these.
    weighting:
        Scheme converting unlike parameters into the dimensionless P-space;
        defaults to the paper's proposal, :class:`NormalizedWeighting`.
    respect_physical_bounds:
        When ``True``, boundary searches are restricted to each parameter's
        physical box (e.g. non-negative execution times).  The paper's
        derivations are unconstrained, so the default is ``False``.
    method:
        Radius solver selection passed to
        :func:`~repro.core.radius.compute_radius`.
    norm:
        Distance norm for radii (the paper uses 2).
    seed:
        Seed for stochastic solver components.
    solver_timeout:
        When set, radii are computed through a fault-tolerant
        :class:`~repro.resilience.cascade.SolverCascade` with this
        per-solver wall-clock budget (seconds) instead of the plain
        dispatcher: solver failures degrade to rigorous upper bounds
        (tagged on each :class:`~repro.core.radius.RadiusResult`) rather
        than raising.
    cascade:
        An explicit pre-configured
        :class:`~repro.resilience.cascade.SolverCascade` to route every
        radius computation through; overrides ``solver_timeout``.
    workers:
        When ``> 1``, independent radius solves (the per-parameter radii
        behind sensitivity weighting and the per-feature P-space radii
        behind :meth:`rho`) fan out over a process pool.  Results are
        bit-identical to ``workers=1`` for any stateless ``seed``; a
        stateful :class:`numpy.random.Generator` seed forces the serial
        path to preserve its stream order.
    executor:
        An explicit :class:`~repro.parallel.executor.ParallelExecutor`
        to reuse (overrides ``workers``); the caller owns its lifetime.
    service:
        A running :class:`~repro.service.RadiusService` to route every
        batched radius solve through (overrides ``executor`` and
        ``workers`` for those solves; the caller owns its lifetime).
        Results stay bit-identical to the in-process path.
    radius_cache:
        A :class:`~repro.parallel.cache.RadiusCache` consulted before
        every radius solve, ``None`` to defer to the installed default
        cache, or ``False`` to disable caching for this analysis.  A
        ``cascade`` solve never reads or writes it.
    """

    def __init__(
        self,
        features: Sequence[FeatureSpec],
        params: Sequence[PerturbationParameter],
        *,
        weighting: WeightingScheme | None = None,
        respect_physical_bounds: bool = False,
        method: str = "auto",
        norm: float = 2,
        seed=None,
        solver_timeout: float | None = None,
        cascade=None,
        workers: int = 1,
        executor: ParallelExecutor | None = None,
        service=None,
        radius_cache=None,
    ) -> None:
        self.features = list(features)
        self.params = list(params)
        if not self.features:
            raise SpecificationError("need at least one feature")
        if not self.params:
            raise SpecificationError("need at least one perturbation parameter")
        names = [s.name for s in self.features]
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate feature names in {names}")
        pnames = [p.name for p in self.params]
        if len(set(pnames)) != len(pnames):
            raise SpecificationError(f"duplicate parameter names in {pnames}")
        self.weighting = weighting if weighting is not None else NormalizedWeighting()
        self.respect_physical_bounds = bool(respect_physical_bounds)
        self.method = method
        self.norm = norm
        self.seed = seed
        self.solver_timeout = solver_timeout
        if cascade is None and solver_timeout is not None:
            # Imported lazily: repro.resilience imports repro.core.radius.
            from repro.resilience.cascade import CascadeConfig, SolverCascade
            cascade = SolverCascade(
                CascadeConfig(solver_timeout=solver_timeout), seed=seed)
        self.cascade = cascade
        if executor is None and workers > 1:
            executor = ParallelExecutor(workers)
        self.executor = executor
        self.service = service
        self.radius_cache = radius_cache

        self._dim = sum(p.dimension for p in self.params)
        for spec in self.features:
            if spec.mapping.n_inputs != self._dim:
                raise SpecificationError(
                    f"mapping of feature {spec.name!r} expects "
                    f"{spec.mapping.n_inputs} inputs but the flat "
                    f"concatenation has {self._dim}")
        self._slices: dict[str, slice] = {}
        offset = 0
        for p in self.params:
            self._slices[p.name] = slice(offset, offset + p.dimension)
            offset += p.dimension
        self.pi_orig = np.concatenate([p.original for p in self.params])
        self._per_param_cache: dict[tuple[str, str], RadiusResult] = {}
        self._pspace_cache: dict[str, ConcatenatedPerturbation] = {}
        self._radius_cache: dict[str, RadiusResult] = {}

    def with_feature_bounds(
        self, bounds: Mapping[str, "ToleranceBounds"]
    ) -> "RobustnessAnalysis":
        """A sibling analysis with some features' tolerance bounds replaced.

        Everything else — parameters, weighting, solver configuration,
        norm, seed, cascade, and the radius cache — is shared with this
        analysis; the executor and service are *not* (the clone solves
        serially unless the caller wires its own).  This is the operating-point move of a
        degradation curve: walking the requirement ``beta`` only moves
        the boundary level sets, so sibling analyses share every mapping
        and origin and their solves can warm-start each other (see
        :func:`repro.analysis.degradation.degradation_curve`).
        """
        unknown = set(bounds) - {s.name for s in self.features}
        if unknown:
            raise SpecificationError(
                f"unknown feature(s) {sorted(unknown)}; have "
                f"{[s.name for s in self.features]}")
        specs = [
            replace(spec, feature=replace(spec.feature,
                                          bounds=bounds[spec.name]))
            if spec.name in bounds else spec
            for spec in self.features
        ]
        return RobustnessAnalysis(
            specs, self.params,
            weighting=self.weighting,
            respect_physical_bounds=self.respect_physical_bounds,
            method=self.method, norm=self.norm, seed=self.seed,
            cascade=self.cascade,
            radius_cache=self.radius_cache,
        )

    def _solve(self, problem: RadiusProblem) -> RadiusResult:
        """Route a radius computation through the configured solver path.

        A cascade solve bypasses the radius cache: the cascade draws a
        fresh child stream from its own seed on every call, so no cache
        key can make a stored answer equal a fresh one.
        """
        if self.cascade is None:
            return compute_radius(problem, method=self.method,
                                  seed=self.seed, cache=self.radius_cache)
        return self.cascade.compute(problem, method=self.method)

    def _can_batch(self) -> bool:
        """Whether independent solves may go through the batched frontend.

        The cascade path stays serial (its timeout threads and retry
        state are not worth shipping across processes); everything else
        routes through :func:`~repro.core.radius.compute_radii`, which
        itself decides whether to fan groups out (executor present,
        stateless seed) or solve them in-process.
        """
        return self.cascade is None

    def _fan_out(self, problems: Sequence[RadiusProblem]
                 ) -> list[RadiusResult]:
        """Solve independent problems through the batched radius frontend.

        The whole batch is fingerprinted against the cache first (worker
        processes keep their own caches), the misses are grouped by
        solver structure, and each group ships as a single task — so
        sweeps revisiting operating points skip the dispatch entirely
        and fresh solves amortise the pickling of the shared mapping.
        With a :class:`~repro.service.RadiusService` wired, the batch is
        submitted there instead (same results, persistent pool).
        """
        return compute_radii(problems, method=self.method, seed=self.seed,
                             cache=self.radius_cache, executor=self.executor,
                             service=self.service)

    # ------------------------------------------------------------------
    # flat-space helpers
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Total dimension of the flat perturbation space."""
        return self._dim

    def _flat_bounds(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        if not self.respect_physical_bounds:
            return None, None
        lo = np.full(self._dim, -np.inf)
        hi = np.full(self._dim, np.inf)
        any_lo = any_hi = False
        for p in self.params:
            sl = self._slices[p.name]
            if p.lower is not None:
                lo[sl] = p.lower
                any_lo = True
            if p.upper is not None:
                hi[sl] = p.upper
                any_hi = True
        return (lo if any_lo else None), (hi if any_hi else None)

    def _get_spec(self, feature: "FeatureSpec | str") -> FeatureSpec:
        if isinstance(feature, FeatureSpec):
            return feature
        for spec in self.features:
            if spec.name == feature:
                return spec
        raise SpecificationError(
            f"unknown feature {feature!r}; have {[s.name for s in self.features]}")

    def _get_param(self, param: "PerturbationParameter | str") -> PerturbationParameter:
        if isinstance(param, PerturbationParameter):
            return param
        for p in self.params:
            if p.name == param:
                return p
        raise SpecificationError(
            f"unknown parameter {param!r}; have {[p.name for p in self.params]}")

    # ------------------------------------------------------------------
    # Eq. 1 — single-parameter radii r_mu(phi_i, pi_j)
    # ------------------------------------------------------------------
    def single_parameter_radius(
        self, feature: "FeatureSpec | str", param: "PerturbationParameter | str"
    ) -> RadiusResult:
        """Radius of one feature against one parameter, others frozen.

        Implements Equation 1: the minimum distance (in the parameter's own
        units) from ``pi_j^orig`` to the feature's boundary, with every
        other parameter held at its original value — the paper's Step 1 for
        sensitivity weighting.
        """
        spec = self._get_spec(feature)
        p = self._get_param(param)
        key = (spec.name, p.name)
        if key not in self._per_param_cache:
            self._per_param_cache[key] = self._solve(
                self._single_parameter_problem(spec, p))
        return self._per_param_cache[key]

    def _single_parameter_problem(
        self, spec: FeatureSpec, p: PerturbationParameter
    ) -> RadiusProblem:
        """The Eq. 1 problem: one parameter free, the others frozen."""
        sl = self._slices[p.name]
        idx = np.arange(sl.start, sl.stop)
        restricted = RestrictedMapping(spec.mapping, idx, self.pi_orig)
        lo, hi = self._flat_bounds()
        return RadiusProblem(
            mapping=restricted,
            origin=p.original,
            bounds=spec.feature.bounds,
            lower=None if lo is None else lo[sl],
            upper=None if hi is None else hi[sl],
            norm=self.norm,
        )

    def per_parameter_radii(self, feature: "FeatureSpec | str") -> dict[str, float]:
        """All single-parameter radii of a feature, keyed by parameter name."""
        spec = self._get_spec(feature)
        pending = [p for p in self.params
                   if (spec.name, p.name) not in self._per_param_cache]
        with span("analysis.per_parameter_radii", feature=spec.name,
                  pending=len(pending)):
            if len(pending) > 1 and self._can_batch():
                problems = [self._single_parameter_problem(spec, p)
                            for p in pending]
                for p, result in zip(pending, self._fan_out(problems)):
                    self._per_param_cache[(spec.name, p.name)] = result
            return {p.name: self.single_parameter_radius(spec, p).radius
                    for p in self.params}

    # ------------------------------------------------------------------
    # Section 3 — P-space and Eq. 2 radii
    # ------------------------------------------------------------------
    def _effective_params(
        self, spec: FeatureSpec
    ) -> tuple[list[PerturbationParameter], "dict[str, float] | None"]:
        """The parameters that enter a feature's P-space, plus radii.

        For radius-dependent weightings (sensitivity), parameters with an
        *infinite* single-parameter radius are excluded: the feature cannot
        be driven out of specification along them alone, ``alpha = 1/inf``
        is undefined, and — for the affine/monotone features this library
        targets — an infinite restricted radius means the boundary set is a
        cylinder along those coordinates, so the minimum distance (hence
        the radius) is unchanged by dropping them.
        """
        if not self.weighting.requires_radii:
            return self.params, None
        radii = self.per_parameter_radii(spec)
        kept = [p for p in self.params if math.isfinite(radii[p.name])]
        if not kept:
            return [], None
        return kept, {p.name: radii[p.name] for p in kept}

    def pspace(self, feature: "FeatureSpec | str | None" = None
               ) -> ConcatenatedPerturbation:
        """The weighted concatenation P for a feature.

        For radius-dependent weightings (sensitivity) the alphas are
        feature-specific and ``feature`` must identify one; for the other
        schemes the same P-space is shared and ``feature`` may be omitted.
        """
        if self.weighting.requires_radii:
            if feature is None:
                raise SpecificationError(
                    f"{type(self.weighting).__name__} builds a per-feature "
                    "P-space; pass the feature")
            spec = self._get_spec(feature)
            key = spec.name
            params, radii = self._effective_params(spec)
            if not params:
                raise SpecificationError(
                    f"feature {spec.name!r} is insensitive to every "
                    "perturbation parameter; its P-space is empty and its "
                    "radius is infinite")
        else:
            key = "__shared__"
            params, radii = self.params, None
        if key not in self._pspace_cache:
            self._pspace_cache[key] = ConcatenatedPerturbation.from_weighting(
                params, self.weighting, radii)
        return self._pspace_cache[key]

    def radius(self, feature: "FeatureSpec | str") -> RadiusResult:
        """The P-space robustness radius ``r_mu(phi_i, P)`` (Equation 2)."""
        spec = self._get_spec(feature)
        if spec.name not in self._radius_cache:
            self._radius_cache[spec.name] = self._compute_pspace_radius(spec)
        return self._radius_cache[spec.name]

    def radii(self) -> dict[str, RadiusResult]:
        """Every feature's P-space radius, keyed by feature name.

        With a parallel executor configured, the independent per-feature
        solves fan out over the process pool (after the per-parameter
        radii any radius-dependent weighting needs are in place); the
        results are identical to calling :meth:`radius` feature by
        feature.
        """
        pending = [s for s in self.features
                   if s.name not in self._radius_cache]
        with span("analysis.radii", pending=len(pending)):
            if len(pending) > 1 and self._can_batch():
                solvable: list[FeatureSpec] = []
                problems: list[RadiusProblem] = []
                for spec in pending:
                    if self.weighting.requires_radii \
                            and not self._effective_params(spec)[0]:
                        self._radius_cache[spec.name] = \
                            self._insensitive_result(spec)
                        continue
                    solvable.append(spec)
                    problems.append(self.pspace_problem(spec))
                for spec, result in zip(solvable, self._fan_out(problems)):
                    self._radius_cache[spec.name] = result
            return {spec.name: self.radius(spec) for spec in self.features}

    def pspace_problem(self, feature: "FeatureSpec | str") -> RadiusProblem:
        """The exact P-space :class:`RadiusProblem` behind :meth:`radius`.

        Exposed so external validators (the Monte-Carlo harness) examine
        precisely the geometry the solver solved — including, under
        sensitivity weighting, the restriction to the parameters the
        feature is sensitive to.

        Raises
        ------
        SpecificationError
            If the feature is insensitive to every parameter (its P-space
            is empty; :meth:`radius` reports ``inf`` for it directly).
        """
        spec = self._get_spec(feature)
        if self.weighting.requires_radii:
            params, _ = self._effective_params(spec)
            if not params:
                raise SpecificationError(
                    f"feature {spec.name!r} is insensitive to every "
                    "perturbation parameter; there is no P-space problem")
            if len(params) < len(self.params):
                # Restrict the mapping to the kept parameters' coordinates
                # (the dropped ones are frozen at their originals, which is
                # exact because the feature does not depend on them).
                idx = np.concatenate([
                    np.arange(self._slices[p.name].start,
                              self._slices[p.name].stop)
                    for p in params])
                mapping = RestrictedMapping(spec.mapping, idx, self.pi_orig)
            else:
                mapping = spec.mapping
        else:
            mapping = spec.mapping
        ps = self.pspace(spec)
        mapping_p = ps.transform_mapping(mapping)
        lo = ps.p_lower() if self.respect_physical_bounds else None
        hi = ps.p_upper() if self.respect_physical_bounds else None
        return RadiusProblem(
            mapping=mapping_p,
            origin=ps.p_orig,
            bounds=spec.feature.bounds,
            lower=lo,
            upper=hi,
            norm=self.norm,
        )

    def _insensitive_result(self, spec: FeatureSpec) -> RadiusResult:
        """The degenerate infinite radius of an all-insensitive feature."""
        return RadiusResult(
            radius=math.inf, boundary_point=None, bound_hit=None,
            method="degenerate",
            original_value=spec.mapping.value(self.pi_orig),
            per_bound={})

    def _compute_pspace_radius(self, spec: FeatureSpec) -> RadiusResult:
        with span("analysis.radius", feature=spec.name):
            if self.weighting.requires_radii:
                params, _ = self._effective_params(spec)
                if not params:
                    # Insensitive to everything: no perturbation of any
                    # kind can violate the feature.
                    return self._insensitive_result(spec)
            return self._solve(self.pspace_problem(spec))

    def rho(self) -> float:
        """The robustness metric ``rho_mu(Phi, P) = min_i r_mu(phi_i, P)``."""
        return min(result.radius for result in self.radii().values())

    def critical_feature(self) -> FeatureSpec:
        """The feature whose radius attains the minimum (ties: first)."""
        self.radii()
        best = None
        best_r = math.inf
        for spec in self.features:
            r = self.radius(spec).radius
            if r < best_r:
                best, best_r = spec, r
        assert best is not None  # features is non-empty by construction
        return best

    # ------------------------------------------------------------------
    # direct evaluation
    # ------------------------------------------------------------------
    def feature_values(
        self, values: Mapping[str, Sequence[float]] | np.ndarray | None = None
    ) -> dict[str, float]:
        """Evaluate every feature at an operating point (default: original).

        ``values`` may be a per-parameter mapping (missing parameters stay
        at their originals) or a flat pi-space vector.
        """
        if values is None:
            flat = self.pi_orig
        elif isinstance(values, np.ndarray):
            flat = np.asarray(values, dtype=np.float64)
            if flat.size != self._dim:
                raise SpecificationError(
                    f"flat vector has length {flat.size}, expected {self._dim}")
        else:
            flat = self.flatten_values(values)
        return {spec.name: spec.mapping.value(flat) for spec in self.features}

    def flatten_values(
        self, values: Mapping[str, Sequence[float]]
    ) -> np.ndarray:
        """Assemble a flat pi-space vector from per-parameter values.

        Missing parameters default to their originals.  Unlike a P-space's
        flattening, this always covers *every* declared parameter — it does
        not depend on the weighting scheme.
        """
        unknown = set(values) - set(self._slices)
        if unknown:
            raise SpecificationError(
                f"unknown perturbation parameter(s) {sorted(unknown)}")
        flat = self.pi_orig.copy()
        for name, vals in values.items():
            block = np.asarray(vals, dtype=np.float64).ravel()
            sl = self._slices[name]
            if block.size != sl.stop - sl.start:
                raise SpecificationError(
                    f"values for {name!r} have length {block.size}, expected "
                    f"{sl.stop - sl.start}")
            flat[sl] = block
        return flat

    def all_satisfied(
        self, values: Mapping[str, Sequence[float]] | np.ndarray | None = None
    ) -> bool:
        """Whether every feature meets its bounds at an operating point."""
        vals = self.feature_values(values)
        return all(self._get_spec(name).feature.is_satisfied(v)
                   for name, v in vals.items())
