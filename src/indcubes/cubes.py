"""Inclusion posets of independent subsets and their cube-shaped cover graphs.

The Hasse diagram of the independent subsets of a path power, read as binary
strings, is a Fibonacci-cube-like graph; the cycle-power analogue is a
Lucas-cube-like graph. This module builds the diagrams, the classic cubes,
and the pattern-avoidance cubes, so the structural identities between them
can be checked vertex for vertex and edge for edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import (
    CapacityError,
    SimpleGraph,
    VertexSubset,
    _canonical,
    _check_pattern,
    enumerate_independent,
)

#: Node counts grow like the total independent-subset count, so diagram and
#: cube construction is capped well below the 64-bit mask limit.
MAX_CUBE_ORDER = 20


@dataclass(frozen=True)
class PosetDiagram:
    """Hasse diagram of independent subsets ordered by inclusion.

    levels[k] holds the size-k subsets in canonical order; covers are the
    ordered pairs (smaller, larger) with the larger one element bigger,
    sorted by the smaller's canonical position, then the larger's mask.
    """

    n: int
    levels: tuple[tuple[VertexSubset, ...], ...]
    covers: tuple[tuple[VertexSubset, VertexSubset], ...]

    def nodes(self) -> tuple[VertexSubset, ...]:
        """All nodes, flattened in canonical (cardinality, mask) order."""
        return tuple(s for level in self.levels for s in level)

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def cover_count(self) -> int:
        return len(self.covers)


def _hasse_masks(g: SimpleGraph) -> tuple[list[int], list[tuple[int, int]]]:
    """The independent masks of g in canonical order, and the covers as
    0-based index pairs into them.

    Covers are exactly the pairs (s, s + v): adding one non-conflicting
    vertex to an independent set is the only way to go up one level. Taking
    s in canonical order and v upward yields them already sorted.
    """
    if g.n > MAX_CUBE_ORDER:
        raise CapacityError(f"n={g.n} exceeds the diagram cap of {MAX_CUBE_ORDER}")
    masks = [s.bits for s in enumerate_independent(g)]
    index = {m: i for i, m in enumerate(masks)}
    closed = [(row | (1 << v), 1 << v) for v, row in enumerate(g.adj)]
    covers = [
        (i, index[m | bit]) for i, m in enumerate(masks) for row, bit in closed if not (row & m)
    ]
    return masks, covers


def hasse_diagram(g: SimpleGraph) -> PosetDiagram:
    """Diagram of the independent subsets of g ordered by inclusion."""
    masks, covers = _hasse_masks(g)
    nodes = [VertexSubset(m, g.n) for m in masks]
    levels: list[list[VertexSubset]] = [[] for _ in range(masks[-1].bit_count() + 1)]
    for s in nodes:
        levels[s.cardinality].append(s)
    return PosetDiagram(
        g.n,
        tuple(tuple(level) for level in levels),
        tuple((nodes[i], nodes[j]) for i, j in covers),
    )


def diagram_as_graph(d: PosetDiagram) -> SimpleGraph:
    """Undirected view of the diagram: one vertex per node (in canonical
    order), one edge per cover pair."""
    nodes = d.nodes()
    index = {s.bits: i for i, s in enumerate(nodes)}
    rows = [0] * len(nodes)
    for low, high in d.covers:
        i, j = index[low.bits], index[high.bits]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return SimpleGraph(len(nodes), tuple(rows))


def _check_cube_order(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_CUBE_ORDER:
        raise CapacityError(f"n={n} exceeds the cube cap of {MAX_CUBE_ORDER}")


def _hamming_pairs(masks: Sequence[int], n: int) -> list[tuple[int, int]]:
    """0-based index pairs (i, j) of the width-n masks at Hamming distance one,
    masks[i] being the one with the bit cleared. For masks in canonical order
    the pairs come out ascending: masks[j] sits one level above masks[i], and
    raising bit v upward gives ascending j."""
    index = {m: i for i, m in enumerate(masks)}
    bits = [1 << v for v in range(n)]
    return [
        (i, j)
        for i, m in enumerate(masks)
        for bit in bits
        if not m & bit and (j := index.get(m | bit)) is not None
    ]


def _hamming_cube(vertices: Sequence[VertexSubset]) -> SimpleGraph:
    """Graph on the given strings with edges at Hamming distance one."""
    n = vertices[0].n if vertices else 0
    pairs = _hamming_pairs([s.bits for s in vertices], n)
    return SimpleGraph.from_edges(len(vertices), ((i + 1, j + 1) for i, j in pairs))


def fibonacci_strings(n: int) -> list[VertexSubset]:
    """Binary strings of length n with no two consecutive ones, canonical order."""
    _check_cube_order(n)
    return _canonical([m for m in range(1 << n) if not (m & (m >> 1))], n)


def lucas_strings(n: int) -> list[VertexSubset]:
    """Fibonacci strings whose first and last bits are not both one."""
    return [s for s in fibonacci_strings(n) if not (s.bits & 1 and s.bits >> (n - 1) & 1)]


def avoiding_strings(n: int, patterns: Sequence[str], circular: bool = False) -> list[VertexSubset]:
    """Length-n strings containing none of the patterns, canonical order.

    Strings grow one bit at a time, and a prefix is dropped as soon as it ends
    with a pattern, so the cost follows the number of avoiders, not 2^n.
    Patterns longer than n cannot occur and are ignored. In circular mode each
    finished string is also tested across the wrap, on the string followed by
    its first L - 1 bits (L the longest pattern kept).
    """
    _check_cube_order(n)
    if not patterns:
        raise ValueError("pattern list must be nonempty")
    for p in patterns:
        _check_pattern(p)
    # (length, window mask, pattern as a mask with b_1 at bit 0)
    kept = [(len(p), (1 << len(p)) - 1, int(p[::-1], 2)) for p in patterns if len(p) <= n]
    masks = [0]
    for k in range(1, n + 1):  # grow every surviving prefix to length k
        masks = [
            m
            for base in masks
            for m in (base, base | 1 << (k - 1))
            if not any(size <= k and (m >> (k - size)) & window == p for size, window, p in kept)
        ]
    if circular and kept:
        head = (1 << (max(size for size, _, _ in kept) - 1)) - 1
        wraps = [(window, p, range(n - size + 1, n)) for size, window, p in kept]
        survivors = []
        for m in masks:
            wide = m | ((m & head) << n)  # the string, then its first L - 1 bits
            if not any((wide >> start) & window == p for window, p, starts in wraps for start in starts):
                survivors.append(m)
        masks = survivors
    return _canonical(masks, n)


def fibonacci_cube(n: int) -> SimpleGraph:
    """Hamming-distance-1 graph on the Fibonacci strings of length n."""
    return _hamming_cube(fibonacci_strings(n))


def lucas_cube(n: int) -> SimpleGraph:
    """Hamming-distance-1 graph on the circularly 11-avoiding strings."""
    return _hamming_cube(lucas_strings(n))


def generalized_cube(n: int, patterns: Sequence[str], circular: bool = False) -> SimpleGraph:
    """Hamming-distance-1 graph on the strings avoiding every pattern,
    linearly or circularly."""
    return _hamming_cube(avoiding_strings(n, patterns, circular))


def power_patterns(h: int) -> list[str]:
    """The forbidden substrings for h-power independence strings: two ones
    separated by fewer than h zeros."""
    if h < 1:
        raise ValueError("h must be at least 1")
    return ["1" + "0" * j + "1" for j in range(h)]


def same_labeled_graph(
    a: SimpleGraph,
    a_labels: Sequence[str],
    b: SimpleGraph,
    b_labels: Sequence[str],
    label_map: Mapping[str, str] | None = None,
) -> bool:
    """Whether label_map carries a's labeled vertices and edges exactly onto b's.

    label_map defaults to the identity. Labels must be unique per graph and
    the map must be defined and injective on a's labels; anything else is a
    caller error. A mapped label missing from b, or any edge mismatch, makes
    the graphs differ and returns False.
    """
    if len(a_labels) != a.n or len(b_labels) != b.n:
        raise ValueError("label list length must match the vertex count")
    if len(set(a_labels)) != a.n or len(set(b_labels)) != b.n:
        raise ValueError("labels must be unique")
    if label_map is None:
        mapped = list(a_labels)
    else:
        try:
            mapped = [label_map[lab] for lab in a_labels]
        except KeyError as exc:
            raise ValueError(f"label map undefined for {exc.args[0]!r}") from None
        if len(set(mapped)) != len(mapped):
            raise ValueError("label map is not injective")
    if a.n != b.n:
        return False
    b_index = {lab: i for i, lab in enumerate(b_labels)}
    perm = []
    for lab in mapped:
        i = b_index.get(lab)
        if i is None:
            return False
        perm.append(i)
    a_edges = {(min(perm[i - 1], perm[j - 1]), max(perm[i - 1], perm[j - 1])) for i, j in a.edges()}
    b_edges = {(i - 1, j - 1) for i, j in b.edges()}
    return a_edges == b_edges
