"""Impact functions ``f_ij`` mapping perturbation values to feature values
(FePIA step 3).

A :class:`FeatureMapping` is a scalar-valued function of a flat perturbation
vector ``x`` (the concatenation of one or more perturbation parameters in a
declared order) together with optional analytic gradient information.  The
radius solvers dispatch on the mapping's structure:

* :class:`LinearMapping` — ``f(x) = k . x + c``; the boundary set is a
  hyperplane and the radius has the closed form of the paper's Equation 4.
* :class:`QuadraticMapping` — ``f(x) = x' Q x + k . x + c``; solved
  numerically (with exact gradients) or, in special diagonal cases,
  analytically.
* :class:`ProductMapping` — ``f(x) = c * prod_i x_i^{p_i}``; models
  communication times of the form ``(message size) / (bandwidth)`` and other
  ratio/monomial costs.
* :class:`CallableMapping` — escape hatch wrapping any Python callable.
* :class:`MaxMapping` — ``f(x) = max_i f_i(x)``; models makespan as the
  maximum machine finish time.
* :class:`RestrictedMapping` — a view of a mapping with all but a chosen
  block of coordinates frozen at reference values; used to compute the
  per-parameter radii ``r_mu(phi_i, pi_j)`` that sensitivity weighting
  needs ("setting ``pi_m``, ``m != j``, to ``pi_m^orig``").
* :class:`ReweightedMapping` — a mapping reparameterised by an elementwise
  scaling ``P_l = alpha_l x_l``; this is how an analysis is transported into
  the dimensionless P-space of Section 3.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, SpecificationError
from repro.utils.validation import as_1d_float_array, as_2d_float_array, check_finite

__all__ = [
    "FeatureMapping",
    "LinearMapping",
    "QuadraticMapping",
    "ProductMapping",
    "CallableMapping",
    "MaxMapping",
    "SumMapping",
    "RestrictedMapping",
    "ReweightedMapping",
]


class FeatureMapping(abc.ABC):
    """Scalar function of a flat perturbation vector, with optional gradient.

    Subclasses must implement :meth:`value`; they should implement
    :meth:`gradient` whenever an analytic gradient exists, because the
    numeric boundary-projection solver converges far faster with exact
    Jacobians.
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs < 1:
            raise SpecificationError(f"n_inputs must be >= 1, got {n_inputs}")
        self._n_inputs = int(n_inputs)

    @property
    def n_inputs(self) -> int:
        """Dimension of the flat input vector this mapping accepts."""
        return self._n_inputs

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self._n_inputs:
            raise DimensionMismatchError(
                f"{type(self).__name__} expects vectors of length "
                f"{self._n_inputs}, got shape {x.shape}")
        return x

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float:
        """Evaluate ``f(x)`` for a single input vector."""

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate ``f`` for a batch of rows, **row-exact**.

        Element ``i`` is bit-identical to ``value(xs[i])`` whatever the
        batch shape.  The solver kernels and the scenario replay evaluate
        through it.  The base implementation loops over :meth:`value`;
        subclasses override it only with a vectorised kernel that keeps
        the contract.
        """
        xs = as_2d_float_array(xs, name="xs")
        return np.array([self.value(row) for row in xs], dtype=np.float64)

    def gradient(self, x: np.ndarray) -> np.ndarray | None:
        """Analytic gradient ``df/dx`` at ``x``, or ``None`` if unavailable."""
        return None

    def structure_key(self) -> tuple | None:
        """A stable fingerprint of the mapping's exact structure, or ``None``.

        Two mappings with equal structure keys compute the same function,
        so a radius solved for one is valid for the other — this is what
        :class:`~repro.parallel.cache.RadiusCache` keys on.  Mappings that
        cannot guarantee this (arbitrary callables) return ``None`` and
        are never cached.  Composite mappings are fingerprintable only
        when every component is.
        """
        return None

    def __call__(self, x: np.ndarray) -> float:
        return self.value(x)


class LinearMapping(FeatureMapping):
    """Affine impact function ``f(x) = k . x + c``.

    This is the form under which the paper derives all of its closed-form
    results; machine finish times (sum of execution times of tasks mapped to
    the machine) and path latencies (sum of computation plus communication
    times along a route) are of this form.

    Parameters
    ----------
    coefficients:
        The gradient vector ``k``.
    constant:
        The constant offset ``c`` (defaults to 0).
    """

    def __init__(self, coefficients, constant: float = 0.0) -> None:
        k = check_finite(as_1d_float_array(coefficients, name="coefficients"),
                         name="coefficients")
        super().__init__(k.size)
        self.coefficients = k
        self.constant = float(constant)

    def value(self, x: np.ndarray) -> float:
        x = self._check_input(x)
        return float(self.coefficients @ x) + self.constant

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        # A stacked matmul takes one BLAS dot per row, the kernel
        # ``value`` uses, where a gemv may round differently (the
        # ``vector_norm_many`` trick).
        xs = self._check_input(as_2d_float_array(xs, name="xs"))
        return np.matmul(self.coefficients, xs[:, :, None])[:, 0] \
            + self.constant

    def gradient(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        return self.coefficients.copy()

    def boundary_hyperplane(self, bound: float) -> tuple[np.ndarray, float]:
        """The boundary set ``{x : f(x) = bound}`` as ``(normal, offset)``.

        Returns the pair ``(k, bound - c)`` such that the boundary is the
        hyperplane ``k . x = bound - c`` — the form consumed by
        :func:`repro.utils.linalg.point_to_hyperplane_distance` (Eq. 4).
        """
        return self.coefficients.copy(), float(bound) - self.constant

    def structure_key(self) -> tuple:
        return ("linear", self.coefficients.tobytes(), self.constant)

    def __repr__(self) -> str:
        return (f"LinearMapping(n={self.n_inputs}, "
                f"constant={self.constant:g})")


class QuadraticMapping(FeatureMapping):
    """Quadratic impact function ``f(x) = x' Q x + k . x + c``.

    ``Q`` is symmetrised on construction (only the symmetric part of a
    quadratic form is observable).  Models, e.g., computation times with a
    quadratic dependence on sensor load, as used for curved boundary sets
    like the one sketched in the paper's Figure 1.
    """

    def __init__(self, quadratic, linear=None, constant: float = 0.0) -> None:
        Q = check_finite(as_2d_float_array(quadratic, name="quadratic"),
                         name="quadratic")
        if Q.shape[0] != Q.shape[1]:
            raise SpecificationError(f"quadratic must be square, got {Q.shape}")
        n = Q.shape[0]
        super().__init__(n)
        self.quadratic = 0.5 * (Q + Q.T)
        if linear is None:
            self.linear = np.zeros(n)
        else:
            k = check_finite(as_1d_float_array(linear, name="linear"), name="linear")
            if k.size != n:
                raise DimensionMismatchError(
                    f"linear term has length {k.size}, expected {n}")
            self.linear = k
        self.constant = float(constant)

    def value(self, x: np.ndarray) -> float:
        x = self._check_input(x)
        return float(x @ self.quadratic @ x + self.linear @ x) + self.constant

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        # Stacked matmuls in ``value``'s operation order: one gemv and
        # one dot per row, ``((x @ Q) @ x + k @ x) + c``.
        xs = self._check_input(as_2d_float_array(xs, name="xs"))
        rows = xs[:, None, :]
        quad = np.matmul(np.matmul(rows, self.quadratic), xs[:, :, None])
        lin = np.matmul(rows, self.linear[:, None])
        return (quad + lin)[:, 0, 0] + self.constant

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        return 2.0 * (self.quadratic @ x) + self.linear

    def structure_key(self) -> tuple:
        return ("quadratic", self.quadratic.tobytes(), self.linear.tobytes(),
                self.constant)

    def __repr__(self) -> str:
        return f"QuadraticMapping(n={self.n_inputs}, constant={self.constant:g})"


class ProductMapping(FeatureMapping):
    """Monomial impact function ``f(x) = c * prod_i x_i^{p_i}``.

    Only defined for strictly positive inputs (as is physically the case for
    message sizes, bandwidths and loads).  A communication time
    ``size / bandwidth`` is the monomial with powers ``(+1, -1)``.

    Parameters
    ----------
    powers:
        Exponent ``p_i`` per input element; zero entries make the mapping
        independent of that element.
    coefficient:
        The positive multiplier ``c``.
    """

    def __init__(self, powers, coefficient: float = 1.0) -> None:
        p = check_finite(as_1d_float_array(powers, name="powers"), name="powers")
        super().__init__(p.size)
        if coefficient <= 0:
            raise SpecificationError(
                f"coefficient must be positive, got {coefficient}")
        self.powers = p
        self.coefficient = float(coefficient)

    def _check_positive(self, x: np.ndarray) -> None:
        if np.any(x <= 0):
            raise SpecificationError(
                "ProductMapping requires strictly positive inputs")

    def value(self, x: np.ndarray) -> float:
        x = self._check_input(x)
        self._check_positive(x)
        return self.coefficient * float(np.prod(x ** self.powers))

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        # Elementwise powers and one product per row, as in ``value``.
        xs = self._check_input(as_2d_float_array(xs, name="xs"))
        self._check_positive(xs)
        return self.coefficient * np.prod(xs ** self.powers, axis=1)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_input(x)
        self._check_positive(x)
        f = self.value(x)
        return f * self.powers / x

    def structure_key(self) -> tuple:
        return ("product", self.powers.tobytes(), self.coefficient)

    def __repr__(self) -> str:
        return f"ProductMapping(n={self.n_inputs}, coefficient={self.coefficient:g})"


class CallableMapping(FeatureMapping):
    """Wrap an arbitrary Python callable as a feature mapping.

    Parameters
    ----------
    fn:
        ``fn(x) -> float`` evaluated on 1-D float arrays.
    n_inputs:
        Input dimension.
    gradient_fn:
        Optional ``grad(x) -> ndarray``; supply one when you can, the
        numeric solvers are substantially more reliable with it.
    name:
        Label used in ``repr`` and reports.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], n_inputs: int,
                 gradient_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                 name: str = "callable") -> None:
        super().__init__(n_inputs)
        if not callable(fn):
            raise SpecificationError("fn must be callable")
        if gradient_fn is not None and not callable(gradient_fn):
            raise SpecificationError("gradient_fn must be callable or None")
        self._fn = fn
        self._gradient_fn = gradient_fn
        self.name = str(name)

    def value(self, x: np.ndarray) -> float:
        x = self._check_input(x)
        return float(self._fn(x))

    def gradient(self, x: np.ndarray) -> np.ndarray | None:
        if self._gradient_fn is None:
            return None
        x = self._check_input(x)
        g = as_1d_float_array(self._gradient_fn(x), name="gradient")
        if g.size != self.n_inputs:
            raise DimensionMismatchError(
                f"gradient_fn returned length {g.size}, expected {self.n_inputs}")
        return g

    def __repr__(self) -> str:
        return f"CallableMapping(name={self.name!r}, n={self.n_inputs})"


class MaxMapping(FeatureMapping):
    """Pointwise maximum of component mappings: ``f(x) = max_i f_i(x)``.

    The canonical instance is *makespan*: the maximum over machines of the
    machine finish time.  The boundary set ``{x : f(x) = b}`` is the union of
    the components' boundary pieces clipped to where that component attains
    the max, so the radius solvers treat each component separately and take
    the minimum radius (a point where *any* finish time crosses the limit
    already violates the requirement when each component carries its own
    bound; see :class:`repro.core.fepia.RobustnessAnalysis`, which expands a
    max-feature into per-component features exactly for this reason).
    """

    def __init__(self, components: Sequence[FeatureMapping]) -> None:
        components = list(components)
        if not components:
            raise SpecificationError("MaxMapping needs at least one component")
        n = components[0].n_inputs
        for comp in components:
            if not isinstance(comp, FeatureMapping):
                raise SpecificationError(
                    f"components must be FeatureMapping, got {type(comp).__name__}")
            if comp.n_inputs != n:
                raise DimensionMismatchError(
                    "all MaxMapping components must share the input dimension")
        super().__init__(n)
        self.components = components

    def value(self, x: np.ndarray) -> float:
        x = self._check_input(x)
        return max(comp.value(x) for comp in self.components)

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        # Python ``max``'s fold, NaN included (``np.max`` propagates NaN).
        xs = self._check_input(as_2d_float_array(xs, name="xs"))
        acc = self.components[0].value_rows(xs)
        for comp in self.components[1:]:
            v = comp.value_rows(xs)
            acc = np.where(v > acc, v, acc)
        return acc

    def argmax_component(self, x: np.ndarray) -> int:
        """Index of the component attaining the maximum at ``x``."""
        x = self._check_input(x)
        vals = [comp.value(x) for comp in self.components]
        return int(np.argmax(vals))

    def gradient(self, x: np.ndarray) -> np.ndarray | None:
        """Gradient of the active component (a subgradient at ties)."""
        comp = self.components[self.argmax_component(x)]
        return comp.gradient(x)

    def structure_key(self) -> tuple | None:
        keys = [comp.structure_key() for comp in self.components]
        if any(k is None for k in keys):
            return None
        return ("max", tuple(keys))

    def __repr__(self) -> str:
        return f"MaxMapping({len(self.components)} components, n={self.n_inputs})"


class SumMapping(FeatureMapping):
    """Sum of component mappings: ``f(x) = sum_i f_i(x)``.

    Useful for composing, e.g., end-to-end latency as computation plus
    communication stages with heterogeneous functional forms.
    """

    def __init__(self, components: Sequence[FeatureMapping]) -> None:
        components = list(components)
        if not components:
            raise SpecificationError("SumMapping needs at least one component")
        n = components[0].n_inputs
        for comp in components:
            if comp.n_inputs != n:
                raise DimensionMismatchError(
                    "all SumMapping components must share the input dimension")
        super().__init__(n)
        self.components = components

    def value(self, x: np.ndarray) -> float:
        # A plain left fold, not ``sum()``: from Python 3.12 ``sum()``
        # compensates float rounding, which no array fold reproduces.
        x = self._check_input(x)
        total = 0
        for comp in self.components:
            total = total + comp.value(x)
        return float(total)

    def value_rows(self, xs: np.ndarray) -> np.ndarray:
        # ``value``'s left fold from integer zero, row by row.
        xs = self._check_input(as_2d_float_array(xs, name="xs"))
        total = 0
        for comp in self.components:
            total = total + comp.value_rows(xs)
        return total

    def gradient(self, x: np.ndarray) -> np.ndarray | None:
        grads = [comp.gradient(x) for comp in self.components]
        if any(g is None for g in grads):
            return None
        return np.sum(grads, axis=0)

    def structure_key(self) -> tuple | None:
        keys = [comp.structure_key() for comp in self.components]
        if any(k is None for k in keys):
            return None
        return ("sum", tuple(keys))

    def __repr__(self) -> str:
        return f"SumMapping({len(self.components)} components, n={self.n_inputs})"


class RestrictedMapping(FeatureMapping):
    """A mapping with all but a chosen block of inputs frozen.

    Given a full mapping ``f`` over ``n`` inputs, a reference vector
    ``x_ref`` and a set of free indices ``I``, this mapping is

        g(y) = f(x) where x[I] = y and x[~I] = x_ref[~I].

    This realises the paper's Step 1: "determine the robustness radius with
    respect to ``pi_j`` by setting ``pi_m``, ``m != j``, to ``pi_m^orig`` in
    the ``phi_i`` function".
    """

    def __init__(self, base: FeatureMapping, free_indices,
                 reference: np.ndarray) -> None:
        if not isinstance(base, FeatureMapping):
            raise SpecificationError("base must be a FeatureMapping")
        idx = np.asarray(free_indices, dtype=np.intp).ravel()
        if idx.size == 0:
            raise SpecificationError("free_indices must be non-empty")
        if np.unique(idx).size != idx.size:
            raise SpecificationError("free_indices must be unique")
        if np.any(idx < 0) or np.any(idx >= base.n_inputs):
            raise SpecificationError(
                f"free_indices out of range for base with {base.n_inputs} inputs")
        ref = as_1d_float_array(reference, name="reference")
        if ref.size != base.n_inputs:
            raise DimensionMismatchError(
                f"reference has length {ref.size}, expected {base.n_inputs}")
        super().__init__(idx.size)
        self.base = base
        self.free_indices = idx
        self.reference = ref.copy()

    def embed(self, y: np.ndarray) -> np.ndarray:
        """Lift the reduced vector ``y`` into the full input space."""
        y = self._check_input(y)
        x = self.reference.copy()
        x[self.free_indices] = y
        return x

    def embed_many(self, ys: np.ndarray) -> np.ndarray:
        """Lift a batch of reduced row vectors into the full input space."""
        ys = self._check_input(as_2d_float_array(ys, name="ys"))
        xs = np.tile(self.reference, (ys.shape[0], 1))
        xs[:, self.free_indices] = ys
        return xs

    def value(self, y: np.ndarray) -> float:
        return self.base.value(self.embed(y))

    def value_rows(self, ys: np.ndarray) -> np.ndarray:
        return self.base.value_rows(self.embed_many(ys))

    def gradient(self, y: np.ndarray) -> np.ndarray | None:
        g = self.base.gradient(self.embed(y))
        if g is None:
            return None
        return g[self.free_indices]

    def structure_key(self) -> tuple | None:
        base_key = self.base.structure_key()
        if base_key is None:
            return None
        return ("restricted", base_key, self.free_indices.tobytes(),
                self.reference.tobytes())

    def __repr__(self) -> str:
        return (f"RestrictedMapping(base={self.base!r}, "
                f"n_free={self.n_inputs})")


class ReweightedMapping(FeatureMapping):
    """A mapping reparameterised by an elementwise scaling into P-space.

    Section 3 of the paper builds the dimensionless vector
    ``P = (alpha_1 * pi_1) . ... . (alpha_k * pi_k)`` (elementwise weights
    after flattening).  With ``P_l = alpha_l x_l`` the feature becomes

        g(P) = f(P / alpha)           (elementwise division),

    and by the chain rule ``dg/dP = (df/dx) / alpha``.
    """

    def __init__(self, base: FeatureMapping, alphas) -> None:
        if not isinstance(base, FeatureMapping):
            raise SpecificationError("base must be a FeatureMapping")
        a = check_finite(as_1d_float_array(alphas, name="alphas"), name="alphas")
        if a.size != base.n_inputs:
            raise DimensionMismatchError(
                f"alphas has length {a.size}, expected {base.n_inputs}")
        if np.any(a == 0.0):
            raise SpecificationError("alphas must be nonzero")
        super().__init__(base.n_inputs)
        self.base = base
        self.alphas = a

    def value(self, p: np.ndarray) -> float:
        p = self._check_input(p)
        return self.base.value(p / self.alphas)

    def value_rows(self, ps: np.ndarray) -> np.ndarray:
        ps = self._check_input(as_2d_float_array(ps, name="ps"))
        return self.base.value_rows(ps / self.alphas)

    def gradient(self, p: np.ndarray) -> np.ndarray | None:
        p = self._check_input(p)
        g = self.base.gradient(p / self.alphas)
        if g is None:
            return None
        return g / self.alphas

    def structure_key(self) -> tuple | None:
        base_key = self.base.structure_key()
        if base_key is None:
            return None
        return ("reweighted", base_key, self.alphas.tobytes())

    def __repr__(self) -> str:
        return f"ReweightedMapping(base={self.base!r})"
