"""Exact combinatorics of independent subsets of path and cycle powers.

The public names are resolved on first access (PEP 562), so importing the
package, or one of its submodules, loads no other submodule: a CLI command
pays only for the code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public API: each name, and the submodule that defines it.
_SOURCES = {
    **dict.fromkeys(
        (
            "binom",
            "convolve_self",
            "cycle_count",
            "cycle_count_k",
            "cycle_count_rec",
            "cycle_hasse_edges",
            "cycle_hasse_edges_closed",
            "fibonacci",
            "hfib",
            "indices_to_subset",
            "lucas",
            "path_count",
            "path_count_clamped",
            "path_count_k",
            "path_count_k_clamped",
            "path_count_k_containing",
            "path_count_rec",
            "path_hasse_edges",
            "path_hasse_edges_conv",
            "subset_to_indices",
        ),
        "counting",
    ),
    **dict.fromkeys(
        (
            "avoiding_strings",
            "fibonacci_cube",
            "fibonacci_strings",
            "generalized_cube",
            "hasse_diagram",
            "lucas_cube",
            "lucas_strings",
            "power_patterns",
        ),
        "cubes",
    ),
    **dict.fromkeys(
        (
            "CapacityError",
            "SimpleGraph",
            "VertexSubset",
            "contains_pattern",
            "enumerate_independent",
            "is_independent",
            "power_cycle",
            "power_path",
        ),
        "graphs",
    ),
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str) -> object:
    """Import the submodule that defines a public name, and keep the name
    here, so later lookups skip this hook."""
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{source}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _negative(**values: int) -> ValueError:
    """The error for arguments that must be nonnegative, naming each value;
    callers compare inline and build it only on failure (hot paths)."""
    names = ", ".join(values)
    got = ", ".join(f"{name}={value}" for name, value in values.items())
    return ValueError(f"{names} must be nonnegative (got {got})")
