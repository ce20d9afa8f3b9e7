"""Inclusion posets of independent subsets and their cube-shaped cover graphs.

The Hasse diagram of the independent subsets of a path power, read as binary
strings, is a Fibonacci-cube-like graph; the cycle-power analogue is a
Lucas-cube-like graph. This module builds the diagrams, the classic cubes,
and the pattern-avoidance cubes, each as a SimpleGraph whose nodes are its
strings in canonical (cardinality, mask) order, so the structural identities
between them are plain graph equality.
"""

from __future__ import annotations

from typing import Sequence

from . import _negative
from .graphs import CapacityError, SimpleGraph, VertexSubset, _check_pattern, _independent_masks

#: Node counts grow like the total independent-subset count, so diagram and
#: cube construction is capped well below the 64-bit mask limit.
MAX_CUBE_ORDER = 20


def _check_cube_order(n: int) -> None:
    if n < 0:
        raise _negative(n=n)
    if n > MAX_CUBE_ORDER:
        raise CapacityError(f"n={n} exceeds the cube cap of {MAX_CUBE_ORDER}")


def _hasse_masks(g: SimpleGraph) -> tuple[list[int], list[list[int]]]:
    """The independent masks of g in canonical order, and their up-lists:
    ups[i] holds the indices of the masks that cover masks[i], ascending.

    Covers are exactly the pairs (s, s + v): adding one non-conflicting
    vertex to an independent set is the only way to go up one level. Taking
    v upward gives each up-list ascending, since the sets s + v of one level
    sit in mask order.
    """
    _check_cube_order(g.n)
    masks = _independent_masks(g)
    index = {m: i for i, m in enumerate(masks)}
    closed = [(row | (1 << v), 1 << v) for v, row in enumerate(g.adj)]
    # An explicit loop: on Python 3.11 a nested comprehension makes a function
    # object and a frame per mask (3.12+ inlines comprehensions).
    ups = []
    for m in masks:
        up = []
        for row, bit in closed:
            if not row & m:
                up.append(index[m | bit])
        ups.append(up)
    return masks, ups


def hasse_diagram(g: SimpleGraph) -> SimpleGraph:
    """Cover graph of the independent subsets of g ordered by inclusion.

    Node i is enumerate_independent(g)[i - 1], and each edge (i, j) with
    i < j is a cover whose smaller set is node i: the canonical order puts
    the smaller set first.
    """
    return _up_graph(_hasse_masks(g)[1])


def _up_graph(ups: Sequence[Sequence[int]]) -> SimpleGraph:
    """Graph on len(ups) nodes joining node i + 1 to node j + 1 for each j in
    ups[i] (up-lists of 0-based indices, as the builders here return them)."""
    edges = ((i, j + 1) for i, js in enumerate(ups, 1) for j in js)
    return SimpleGraph.from_edges(len(ups), edges)


def _hamming_pairs(masks: Sequence[int]) -> list[list[int]]:
    """Up-lists of the masks at Hamming distance one: ups[i] holds the
    indices j with masks[j] equal to masks[i] plus one bit.

    They are filled from above, one lookup per set bit of each mask, so a
    set need not be closed under clearing a bit. Taking j upward gives each
    up-list ascending.
    """
    index = {m: i for i, m in enumerate(masks)}
    ups: list[list[int]] = [[] for _ in masks]
    for j, m in enumerate(masks):
        rest = m
        while rest:
            low = rest & -rest
            rest ^= low
            i = index.get(m ^ low)
            if i is not None:
                ups[i].append(j)
    return ups


def _fibonacci_masks(n: int) -> list[int]:
    """Masks of the length-n strings with no two consecutive ones, canonical order.

    Length-k strings are the length-(k-1) ones followed by 0, plus the
    length-(k-2) ones followed by 01, so the cost follows the answer, not 2^n.
    The 01-extended half lies above the rest, so each length comes out
    ascending by value, and one stable sort by cardinality makes it canonical.
    """
    _check_cube_order(n)
    masks, longer = [0], [0, 1]  # lengths 0 and 1
    for k in range(1, n):  # lengths (k - 1, k) -> (k, k + 1)
        masks, longer = longer, longer + [m | 1 << k for m in masks]
    return sorted(longer if n else masks, key=int.bit_count)


def _lucas_masks(n: int) -> list[int]:
    """Fibonacci masks whose first and last bits are not both one."""
    return [m for m in _fibonacci_masks(n) if not (m & 1 and m >> (n - 1) & 1)]


def _avoiding_masks(n: int, patterns: Sequence[str], circular: bool = False) -> list[int]:
    """Masks of the length-n strings containing none of the patterns, canonical order.

    Strings grow one bit at a time, and a prefix is dropped as soon as it ends
    with a pattern, so the cost follows the number of avoiders, not 2^n.
    Patterns longer than n cannot occur and are ignored. In circular mode the
    string grows L - 1 more bits copied from its start (L the longest pattern
    kept), so the same test catches occurrences across the wrap; the copies
    are trimmed at the end.
    """
    _check_cube_order(n)
    if isinstance(patterns, str):
        raise ValueError(f"patterns must be a list of strings, not the string {patterns!r}")
    if not patterns:
        raise ValueError("pattern list must be nonempty")
    for p in patterns:
        _check_pattern(p)
    # (length, pattern as a mask with b_1 at bit 0): a length-k prefix has no bit above k - 1
    kept = [(len(p), int(p[::-1], 2)) for p in patterns if len(p) <= n]
    wrap = max(size for size, _ in kept) - 1 if circular and kept else 0
    masks = [0]
    for k in range(1, n + wrap + 1):  # grow every surviving prefix to length k
        if k <= n:  # the 1-extended half last, so each length stays ascending
            masks += [m | 1 << (k - 1) for m in masks]
        else:  # a wrap step: bit k - 1 copies bit k - 1 - n from the start
            masks = [m | (m >> (k - 1 - n) & 1) << (k - 1) for m in masks]
        for size, p in kept:
            if size <= k:  # drop every prefix that now ends with the pattern
                masks = [m for m in masks if m >> (k - size) != p]
    return sorted([m & ((1 << n) - 1) for m in masks], key=int.bit_count)


def fibonacci_strings(n: int) -> list[VertexSubset]:
    """Binary strings of length n with no two consecutive ones, canonical order."""
    return [VertexSubset(m, n) for m in _fibonacci_masks(n)]


def lucas_strings(n: int) -> list[VertexSubset]:
    """Fibonacci strings whose first and last bits are not both one."""
    return [VertexSubset(m, n) for m in _lucas_masks(n)]


def avoiding_strings(n: int, patterns: Sequence[str], circular: bool = False) -> list[VertexSubset]:
    """Length-n strings avoiding every pattern (linearly or circularly), canonical order."""
    return [VertexSubset(m, n) for m in _avoiding_masks(n, patterns, circular)]


def fibonacci_cube(n: int) -> SimpleGraph:
    """Hamming-distance-1 graph on the Fibonacci strings of length n."""
    return _up_graph(_hamming_pairs(_fibonacci_masks(n)))


def lucas_cube(n: int) -> SimpleGraph:
    """Hamming-distance-1 graph on the circularly 11-avoiding strings."""
    return _up_graph(_hamming_pairs(_lucas_masks(n)))


def generalized_cube(n: int, patterns: Sequence[str], circular: bool = False) -> SimpleGraph:
    """Hamming-distance-1 graph on the strings avoiding every pattern,
    linearly or circularly."""
    return _up_graph(_hamming_pairs(_avoiding_masks(n, patterns, circular)))


def power_patterns(h: int) -> list[str]:
    """The forbidden substrings for h-power independence strings: two ones
    separated by fewer than h zeros."""
    if h < 1:
        raise ValueError(f"h must be at least 1 (got h={h})")
    return ["1" + "0" * j + "1" for j in range(h)]
