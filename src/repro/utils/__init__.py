"""Shared utilities: input validation, RNG handling, geometry, and reporting
primitives used across the :mod:`repro` package."""

from repro.utils.validation import (
    as_1d_float_array,
    as_2d_float_array,
    check_finite,
    check_positive,
    check_probability,
    check_same_length,
)
from repro.utils.rng import (
    default_rng,
    first_randoms,
    spawn_key_rngs,
    spawn_key_states,
    spawn_rngs,
    state_rng,
)
from repro.utils.linalg import (
    point_to_hyperplane_distance,
    project_point_to_hyperplane,
    vector_norm,
    unit_vector,
)
from repro.utils.tables import format_table
from repro.utils.ascii_plot import AsciiCanvas, scatter_plot, line_plot

__all__ = [
    "as_1d_float_array",
    "as_2d_float_array",
    "check_finite",
    "check_positive",
    "check_probability",
    "check_same_length",
    "default_rng",
    "spawn_rngs",
    "spawn_key_rngs",
    "spawn_key_states",
    "state_rng",
    "first_randoms",
    "point_to_hyperplane_distance",
    "project_point_to_hyperplane",
    "vector_norm",
    "unit_vector",
    "format_table",
    "AsciiCanvas",
    "scatter_plot",
    "line_plot",
]
