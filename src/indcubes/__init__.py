"""Exact combinatorics of independent subsets of path and cycle powers."""

from .counting import (
    binom,
    convolve_self,
    cycle_count,
    cycle_count_k,
    cycle_count_rec,
    cycle_hasse_edges,
    cycle_hasse_edges_closed,
    fibonacci,
    hfib,
    indices_to_subset,
    lucas,
    path_count,
    path_count_clamped,
    path_count_k,
    path_count_k_clamped,
    path_count_k_containing,
    path_count_rec,
    path_hasse_edges,
    path_hasse_edges_conv,
    subset_to_indices,
)
from .cubes import (
    avoiding_strings,
    fibonacci_cube,
    fibonacci_strings,
    generalized_cube,
    hasse_diagram,
    lucas_cube,
    lucas_strings,
    power_patterns,
)
from .graphs import (
    CapacityError,
    SimpleGraph,
    VertexSubset,
    contains_pattern,
    enumerate_independent,
    is_independent,
    power_cycle,
    power_path,
)

__version__ = "0.1.0"

# The public API is every name imported above, kept in one place: the
# imports. Importing them also binds the three submodules, which are not in it.
__all__ = sorted(
    name for name in dir() if not name.startswith("_") and name not in ("counting", "cubes", "graphs")
)
