"""Cross-checks between the brute-force enumerator, the closed formulas, the
recurrences, and the cube constructions.

Every check sweeps a parameter range and reports the first counterexample it
finds, so a broken formula fails loudly with concrete inputs instead of a
bare boolean. The `verify` CLI command and the test suite both run these.

run_all runs the checks across the CPUs the process may use, in forked
workers; a run pinned to one CPU prints the same report. Each check a lost
worker ran fails, naming the worker's exit status (with several lost, that
of the last one forked).
"""

from __future__ import annotations

import itertools
import marshal
import operator
import os
import sys
from collections import Counter
from typing import Iterable, Iterator

from . import _negative, counting, cubes, graphs
from .graphs import Record, _set_field


class CheckResult(Record):
    __slots__ = ("name", "params", "ok", "counterexample")

    def __init__(self, name: str, params: str, ok: bool, counterexample: str | None = None) -> None:
        _set_field(self, "name", name)
        _set_field(self, "params", params)
        _set_field(self, "ok", ok)
        _set_field(self, "counterexample", counterexample)


class VerificationReport(Record):
    __slots__ = ("checks",)

    def __init__(self, checks: Iterable[CheckResult]) -> None:
        _set_field(self, "checks", tuple(checks))

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        checks = [dict(zip(c.__slots__, c._values())) for c in self.checks]
        return {"overall": self.overall, "checks": checks}

    def render_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            line = f"{status}  {c.name}  [{c.params}]"
            if not c.ok:
                line += f"  counterexample: {c.counterexample}"
            lines.append(line)
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _powers(hs: range, n_max: int) -> Iterator[tuple[int, int, bool, graphs.SimpleGraph]]:
    """(n, h, cyclic, graph) for each h in hs and n <= n_max: the h-power of
    the n-path, then of the n-cycle."""
    for h in hs:
        for n in range(n_max + 1):
            yield n, h, False, graphs.power_path(n, h)
            yield n, h, True, graphs.power_cycle(n, h)


# Shared sweep bodies. Each check passes its routes in, read from their
# modules when the check runs, so a route rebound there (a test's monkeypatch,
# perfbench's tracer) is the one compared.


def _oracle_sweep(h_max: int, n_max: int, build, total, count_k) -> str | None:
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            masks = graphs._independent_masks(build(n, h))
            if len(masks) != total(n, h):
                return f"n={n} h={h}: total {len(masks)} != {total(n, h)}"
            hist = Counter(map(int.bit_count, masks))
            for k in range(counting._max_size(n, h) + 2):
                if hist[k] != count_k(n, h, k):
                    return f"n={n} h={h} k={k}: enumerated {hist[k]} != {count_k(n, h, k)}"
    return None


def _routes_agree(h_max: int, n_max: int, routes, template: str) -> str | None:
    """Evaluate each route(n, h) for every h <= h_max, n <= n_max; at the first
    disagreement return `n=.. h=..: ` plus template.format(*values)."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            values = [route(n, h) for route in routes]
            if len(set(values)) > 1:
                return f"n={n} h={h}: " + template.format(*values)
    return None


def _totals_agree(h_max: int, n_max: int, family: str, total) -> str | None:
    """Compare total(n, h) with the totals of counting._rows(family, h), one
    walk of the rows per h; at the first disagreement return
    `n=.. h=..: total != rows total`."""
    for h in range(h_max + 1):
        for n, (rec, _) in zip(range(n_max + 1), counting._rows(family, h)):
            value = total(n, h)
            if value != rec:
                return f"n={n} h={h}: {value} != {rec}"
    return None


def _cover_pairs(g: graphs.SimpleGraph) -> int:
    """The number of cover pairs (S, S + v) among the independent sets of g:
    for each vertex v, the enumerated masks that hold neither v nor a
    neighbour of v, i.e. that share no bit with v's closed neighbourhood.
    Counted from the enumerator and the rows alone, so it shares no code with
    the diagram builder cubes._hasse_masks."""
    masks = graphs._independent_masks(g)
    return sum(
        list(map(operator.and_, masks, itertools.repeat(row | 1 << v))).count(0)
        for v, row in enumerate(g.adj)
    )


def _cover_count(build):
    """Route: the number of cover pairs in the inclusion order of the
    independent sets of build(n, h), counted per vertex by _cover_pairs
    without building the diagram."""
    return lambda n, h: _cover_pairs(build(n, h))


def _containing_table(n: int, h: int) -> list[list[int]]:
    """path_count_k_containing(n, h, k, i): one row per k = 1..max size + 1,
    one column per vertex i = 1..n."""
    return [
        [counting.path_count_k_containing(n, h, k, i) for i in range(1, n + 1)]
        for k in range(1, counting._max_size(n, h) + 2)
    ]


def _grading_fault(n: int, diagram: tuple[list[int], list[list[int]]]) -> str | None:
    """What is wrong with one mask-level diagram on n vertices, or None. A
    cover adds one vertex: step = high ^ low is one bit, and not one of low's."""
    masks, ups = diagram
    if masks.count(0) != 1:
        return "level 0 is not [empty]"
    for low, js in zip(masks, ups):
        for j in js:
            high = masks[j]
            step = high ^ low
            if low & step or not step or step & (step - 1):
                return f"bad cover {graphs._mask_string(low, n)} -> {graphs._mask_string(high, n)}"
    covers = sum(map(len, ups))
    weighted = sum(map(int.bit_count, masks))
    if covers != weighted:
        return f"covers {covers} != weighted levels {weighted}"
    return None


# --- oracle-scale checks (bounded by n_max_oracle) -------------------------


def check_path_oracle(h_max: int, n_max: int) -> str | None:
    """Enumerated totals and per-size histograms match the path formulas."""
    return _oracle_sweep(
        h_max, n_max, graphs.power_path, counting.path_count, counting.path_count_k
    )


def check_cycle_oracle(h_max: int, n_max: int) -> str | None:
    """Enumerated totals and per-size histograms match the cycle formulas."""
    return _oracle_sweep(
        h_max, n_max, graphs.power_cycle, counting.cycle_count, counting.cycle_count_k
    )


def check_path_subgraph_of_cycle(h_max: int, n_max: int) -> str | None:
    """Every path-power edge is a cycle-power edge."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            pa = graphs.power_path(n, h)
            cy = graphs.power_cycle(n, h)
            for i in range(n):
                if pa.adj[i] & ~cy.adj[i]:
                    return f"n={n} h={h}: row {i + 1} not contained in cycle row"
    return None


def check_cycle_regularity(h_max: int, n_max: int) -> str | None:
    """For n > 2h+1 every cycle-power vertex has degree exactly 2h."""
    for h in range(h_max + 1):
        for n in range(2 * h + 2, n_max + 1):
            g = graphs.power_cycle(n, h)
            for i in range(1, n + 1):
                if g.degree(i) != 2 * h:
                    return f"n={n} h={h}: degree(v_{i}) = {g.degree(i)} != {2 * h}"
    return None


def check_enumeration_order(h_max: int, n_max: int) -> str | None:
    """Enumerated masks are strictly sorted by (cardinality, mask value), the
    canonical order of the subsets that enumerate_independent wraps them in.
    Every mask is below 2^n, so the integer (cardinality << n) | mask orders
    the masks exactly as that pair does."""
    for n, h, cyclic, g in _powers(range(h_max + 1), n_max):
        keys = [(m.bit_count() << n) | m for m in graphs._independent_masks(g)]
        if any(map(operator.ge, keys, keys[1:])):
            return f"n={n} h={h} cyclic={cyclic}: output not strictly sorted"
    return None


def check_membership_equivalence(h_max: int, n_max: int) -> str | None:
    """The independence test agrees with membership in the enumeration, over
    the full power set of small graphs. Reads the mask core that
    is_independent wraps, so no mask is wrapped in a VertexSubset."""
    is_independent = graphs._is_independent_mask
    for n, h, cyclic, g in _powers(range(h_max + 1), n_max):
        enumerated = set(graphs._independent_masks(g))
        adj = g.adj
        for m in range(1 << n):
            if is_independent(adj, m) != (m in enumerated):
                return f"n={n} h={h} cyclic={cyclic} mask={graphs._mask_string(m, n)}"
    return None


def check_containing_row_sum(h_max: int, n_max: int) -> str | None:
    """Summing the per-vertex counts over all vertices counts each k-subset
    k times."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for k, row in enumerate(_containing_table(n, h), 1):
                expect = k * counting.path_count_k(n, h, k)
                if sum(row) != expect:
                    return f"n={n} h={h} k={k}: {sum(row)} != {expect}"
    return None


def check_containing_column_sum(h_max: int, n_max: int) -> str | None:
    """Summing the per-vertex counts over all sizes splits at the vertex into
    two independent path segments."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for i, column in enumerate(zip(*_containing_table(n, h)), 1):
                total = sum(column)
                expect = counting.path_count_clamped(i - h - 1, h) * counting.path_count_clamped(
                    n - h - i, h
                )
                if total != expect:
                    return f"n={n} h={h} i={i}: {total} != {expect}"
    return None


def check_bijection_roundtrip(h_max: int, n_max: int) -> str | None:
    """Subsets -> indices -> subsets and indices -> subsets -> indices are
    both the identity, and every forward image is independent. Walks the
    enumerated masks through the mask cores that subset_to_indices and
    indices_to_subset wrap, so no subset is wrapped in a VertexSubset."""
    is_independent, mask_string = graphs._is_independent_mask, graphs._mask_string
    to_indices, to_mask = counting._mask_to_indices, counting._indices_to_mask
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            g = graphs.power_path(n, h)
            for m in graphs._independent_masks(g):
                back = to_mask(n, h, to_indices(h, m))
                if back != m:
                    s, back = mask_string(m, n), mask_string(back, n)
                    return f"n={n} h={h} subset={s}: roundtrip gave {back}"
            for k in range(counting._max_size(n, h) + 1):
                upper = n - h * k + h
                for combo in itertools.combinations(range(1, upper + 1), k):
                    indices = list(combo)
                    image = to_mask(n, h, indices)
                    if not is_independent(g.adj, image):
                        return f"n={n} h={h} indices={indices}: image not independent"
                    if to_indices(h, image) != indices:
                        return f"n={n} h={h} indices={indices}: inverse mismatch"
    return None


def check_hasse_grading(h_max: int, n_max: int) -> str | None:
    """Diagram levels start at the empty set, covers go up one level within
    inclusion, and the cover count is the k-weighted sum of level sizes. Each
    diagram lives only in the call that checks it, so one is held at a time."""
    for n, h, cyclic, g in _powers(range(h_max + 1), n_max):
        if fault := _grading_fault(n, cubes._hasse_masks(g)):
            return f"n={n} h={h} cyclic={cyclic}: {fault}"
    return None


def check_path_cover_counts(h_max: int, n_max: int) -> str | None:
    """Path-poset cover counts, counted as cover pairs per vertex from the
    enumerated masks, match both edge formulas."""
    routes = (
        _cover_count(graphs.power_path),
        counting.path_hasse_edges,
        counting.path_hasse_edges_conv,
    )
    return _routes_agree(h_max, n_max, routes, "covers={} sum={} conv={}")


def check_cycle_cover_counts(h_max: int, n_max: int) -> str | None:
    """Cycle-poset cover counts, counted as cover pairs per vertex from the
    enumerated masks, match the sum and closed forms."""
    routes = (
        _cover_count(graphs.power_cycle),
        counting.cycle_hasse_edges,
        counting.cycle_hasse_edges_closed,
    )
    return _routes_agree(h_max, n_max, routes, "covers={} sum={} closed={}")


def check_fibonacci_cube(h_max: int, n_max: int) -> str | None:
    """Fibonacci cubes have the path-power counts and are the path-power
    diagrams under the string encoding."""
    if h_max < 1:
        return None
    for n in range(n_max + 1):
        masks = cubes._fibonacci_masks(n)
        ups = cubes._hamming_pairs(masks)
        if len(masks) != counting.fibonacci(n + 2):
            return f"n={n}: {len(masks)} vertices != F_{n + 2}"
        edges = sum(map(len, ups))
        edges_expected = sum(
            counting.fibonacci(i) * counting.fibonacci(n - i + 1) for i in range(1, n + 1)
        )
        if edges != edges_expected:
            return f"n={n}: {edges} edges != {edges_expected}"
        if (masks, ups) != cubes._hasse_masks(graphs.power_path(n, 1)):
            return f"n={n}: cube differs from the path-power diagram"
    return None


def check_lucas_cube(h_max: int, n_max: int) -> str | None:
    """Lucas cubes have the cycle-power counts and are the cycle-power
    diagrams under the string encoding, for n >= 2."""
    if h_max < 1:
        return None
    for n in range(2, n_max + 1):
        masks = cubes._lucas_masks(n)
        ups = cubes._hamming_pairs(masks)
        if len(masks) != counting.lucas(n):
            return f"n={n}: {len(masks)} vertices != L_{n}"
        edges = sum(map(len, ups))
        if edges != n * counting.fibonacci(n - 1):
            return f"n={n}: {edges} edges != {n * counting.fibonacci(n - 1)}"
        if (masks, ups) != cubes._hasse_masks(graphs.power_cycle(n, 1)):
            return f"n={n}: cube differs from the cycle-power diagram"
    return None


def check_pattern_cubes(h_max: int, n_max: int) -> str | None:
    """Avoiding the h-power pattern set linearly (circularly) yields exactly
    the independence strings of the path (cycle) power, for 2 <= h <= h_max."""
    for n, h, cyclic, g in _powers(range(2, h_max + 1), n_max):
        got = cubes._avoiding_masks(n, cubes.power_patterns(h), cyclic)
        if got != graphs._independent_masks(g):
            return f"n={n} h={h} circular={cyclic}: vertex sets differ"
    return None


def check_single_pattern_cubes(h_max: int, n_max: int) -> str | None:
    """Avoiding 11 linearly (circularly) gives the Fibonacci (Lucas, n >= 2)
    strings, and generalized_cube joins them as the covers of the order-1
    path (cycle) diagram do: a route sharing no code with the cube builders."""
    if h_max < 1:
        return None
    halves = (
        ("linear", False, "Fibonacci", cubes._fibonacci_masks, graphs.power_path),
        ("circular", True, "Lucas", cubes._lucas_masks, graphs.power_cycle),
    )
    for n in range(n_max + 1):
        for mode, circular, name, strings, power in halves:
            if circular and n < 2:
                continue
            masks = cubes._avoiding_masks(n, cubes.power_patterns(1), circular)
            if masks != strings(n):
                return f"n={n}: {mode} 11-avoiders differ from {name} strings"
            ups = cubes._hasse_masks(power(n, 1))[1]
            rows = [0] * len(ups)
            for i, js in enumerate(ups):
                for j in js:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            if cubes.generalized_cube(n, cubes.power_patterns(1), circular).adj != tuple(rows):
                return f"n={n}: {mode} 11-cube differs from the {name} cube"
    return None


def check_cube_edges_comparable(h_max: int, n_max: int) -> str | None:
    """Every Fibonacci-cube edge joins bitwise-comparable strings, and the
    edges number the covers, sum |S| (a string less any one 1 is a string),
    so the Hamming-1 adjacency coincides with the diagram covers."""
    if h_max < 1:
        return None
    for n in range(n_max + 1):
        masks = cubes._fibonacci_masks(n)
        edges = list(cubes.fibonacci_cube(n).edges())
        for i, j in edges:
            a, b = masks[i - 1], masks[j - 1]
            if (a | b) not in (a, b):
                a, b = graphs._mask_string(a, n), graphs._mask_string(b, n)
                return f"n={n}: edge joins incomparable strings {a}, {b}"
        if len(edges) != (covers := sum(map(int.bit_count, masks))):
            return f"n={n}: {len(edges)} edges walked != {covers} covers"
    return None


# --- formula-scale checks (bounded by n_max_formula) ------------------------


def check_path_recurrence(h_max: int, n_max: int) -> str | None:
    """Closed-sum path totals equal the recurrence-only evaluation."""
    return _totals_agree(h_max, n_max, "path", counting.path_count)


def check_cycle_recurrence(h_max: int, n_max: int) -> str | None:
    """Closed-sum cycle totals equal the recurrence-only evaluation."""
    return _totals_agree(h_max, n_max, "cycle", counting.cycle_count)


def check_convolution_agreement(h_max: int, n_max: int) -> str | None:
    """Weighted-sum, self-convolution and linear-recurrence (the column that
    `table` and `seq` print) path edge counts agree. Each h builds the
    sequence once and convolves its prefixes."""
    for h in range(h_max + 1):
        seq = counting.hfib(h, n_max)
        for n, (_, linear) in zip(range(n_max + 1), counting._rows("path", h)):
            by_sum = counting.path_hasse_edges(n, h)
            by_conv = counting.convolve_self(seq, n)
            if not by_sum == by_conv == linear:
                return f"n={n} h={h}: sum {by_sum}, conv {by_conv}, linear {linear}"
    return None


def check_closed_form_agreement(h_max: int, n_max: int) -> str | None:
    """Weighted-sum, closed-form and recurrence (the column that `table` and
    `seq` print) cycle edge counts agree, each stream walked once per h."""
    for h in range(h_max + 1):
        streams = counting._rows("cycle", h), counting._cycle_edges_closed(h)
        for n, (_, rows), closed in zip(range(n_max + 1), *streams):
            by_sum = counting.cycle_hasse_edges(n, h)
            if by_sum != closed:
                return f"n={n} h={h}: sum {by_sum} != closed {closed}"
            if by_sum != rows:
                return f"n={n} h={h}: sum {by_sum} != rows {rows}"
    return None


def check_hfib_prefix(h_max: int, n_max: int) -> str | None:
    """The order-h sequence is h ones followed by the path totals, i.e. its
    i-th term is the clamped total at n = i - h - 1."""
    for h in range(h_max + 1):
        terms = counting.hfib(h, n_max)
        for i, term in enumerate(terms, 1):
            if term != counting.path_count_clamped(i - h - 1, h):
                return f"h={h} i={i}: {term} != clamped total"
        for i, term in enumerate(terms[:h], 1):
            if term != 1:
                return f"h={h} i={i}: leading term is {term}, not 1"
    return None


def check_order_reduction(h_max: int, n_max: int) -> str | None:
    """Per-size path counts drop one power order when n shrinks by k - 1."""
    path_count_k = counting.path_count_k
    for h in range(1, h_max + 1):
        for n in range(n_max + 1):
            for k in range(n + 1):
                lhs = path_count_k(n, h, k)
                rhs = path_count_k(n - k + 1, h - 1, k)
                if lhs != rhs:
                    return f"n={n} h={h} k={k}: {lhs} != {rhs}"
    return None


def check_cycle_decomposition(h_max: int, n_max: int) -> str | None:
    """Cycle per-size counts split into the subsets through a fixed vertex
    and those through a wrap pair."""
    path_count_k, cycle_count_k = counting.path_count_k, counting.cycle_count_k
    # per cell, not over the columns: no other check reads binom at cells such as (30, 7)
    for h in range(h_max + 1):
        for n in range(3 * h + 3, n_max + 1):
            for k in range(2, counting._max_size(n, h) + 2):
                lhs = path_count_k(n - 2 * h - 1, h, k - 1) + h * path_count_k(n - 3 * h - 2, h, k - 2)
                rhs = cycle_count_k(n - h - 1, h, k - 1)
                if lhs != rhs:
                    return f"n={n} h={h} k={k}: {lhs} != {rhs}"
    return None


def check_classic_identities(h_max: int, n_max: int) -> str | None:
    """Order-1 counts reduce to Fibonacci and Lucas numbers."""
    if h_max < 1:
        return None
    fib = [counting.fibonacci(i) for i in range(1, n_max + 3)]
    for n in range(n_max + 1):
        if counting.path_count(n, 1) != fib[n + 1]:
            return f"n={n}: path total != F_{n + 2}"
        conv = sum(fib[i - 1] * fib[n - i] for i in range(1, n + 1))
        if counting.path_hasse_edges(n, 1) != conv:
            return f"n={n}: path edges != Fibonacci convolution"
    for n in range(2, n_max + 1):
        if counting.cycle_count(n, 1) != counting.lucas(n):
            return f"n={n}: cycle total != L_{n}"
        if counting.cycle_hasse_edges(n, 1) != n * fib[n - 2]:
            return f"n={n}: cycle edges != n * F_{n - 1}"
    return None


def check_boolean_lattice(h_max: int, n_max: int) -> str | None:
    """Order 0 collapses to the Boolean lattice: 2^n subsets and n*2^(n-1)
    cover edges, for both families."""
    for n in range(n_max + 1):
        if counting.path_count(n, 0) != 2**n or counting.cycle_count(n, 0) != 2**n:
            return f"n={n}: totals != 2^n"
        edges = n * 2 ** (n - 1) if n else 0
        if counting.path_hasse_edges(n, 0) != edges or counting.cycle_hasse_edges(n, 0) != edges:
            return f"n={n}: edge counts != n*2^(n-1)"
    return None


def check_divisibility(h_max: int, n_max: int) -> str | None:
    """k always divides n * C(n - h*k - 1, k - 1) for k >= 2.

    For each h, column k keeps C(m, j), m = n - h*k - 1 and j = k - 1, at the
    current n. It is seeded from binom where it enters the sweep. Each step
    of n raises m by one, and the value steps exactly: it stays (at 0) while
    m < j, gains one at m = j, and is multiplied by m / (m - j) above. Every
    step reads the previous value, so a wrong seed reaches the close, where
    each column is compared with binom again at n_max.
    """
    binom = counting.binom
    for h in range(h_max + 1):
        column = []  # column[k - 2] is C(n - h*k - 1, k - 1)
        for n in range(n_max + 1):
            for k in range(2, n // (h + 1) + 1):  # the columns with m >= j
                d = n - (h + 1) * k  # m - j, so m = d + k - 1
                column[k - 2] = column[k - 2] * (d + k - 1) // d if d else column[k - 2] + 1
            k = len(column) + 2
            if k <= counting._max_size(n, h) + 1:  # column k enters the sweep
                column.append(binom(n - h * k - 1, k - 1))
            for k, value in enumerate(column, 2):
                if n * value % k:
                    return f"n={n} h={h} k={k}"
        for k, value in enumerate(column, 2):
            expect = binom(n_max - h * k - 1, k - 1)
            if value != expect:
                return f"n={n_max} h={h} k={k}: walked {value} != binom {expect}"
    return None


_CUBE_N_MAX = 14  # largest n of the bijection and cube sweeps, whatever is requested


def _cube_bounds(h_cap: int):
    """Bounds of the bijection and cube sweeps: h <= h_cap, n <= _CUBE_N_MAX."""
    return lambda h, f, o: (min(h, h_cap), min(o, _CUBE_N_MAX))


# Registry: (name, bounds, check function). bounds maps the requested h_max,
# n_max_formula and n_max_oracle (h, f, o) to the (h_max, n_max) passed to the
# check, applying the check's own limits: the order-1 cube checks and the
# classic identities test h = 1 only, the Boolean lattice h = 0 only, and the
# cube, bijection and order-reduction sweeps keep their documented ranges
# whatever is requested. Order is the report order and must stay
# deterministic.
CHECKS = (
    ("path-oracle-agreement", lambda h, f, o: (h, o), check_path_oracle),
    ("cycle-oracle-agreement", lambda h, f, o: (h, o), check_cycle_oracle),
    ("path-subgraph-of-cycle", lambda h, f, o: (h, o), check_path_subgraph_of_cycle),
    ("cycle-degree-regular", lambda h, f, o: (h, o), check_cycle_regularity),
    ("enumeration-order-strict", lambda h, f, o: (h, o), check_enumeration_order),
    ("independence-matches-enumeration", lambda h, f, o: (h, o), check_membership_equivalence),
    ("containing-vertex-row-sum", lambda h, f, o: (h, o), check_containing_row_sum),
    ("containing-vertex-column-sum", lambda h, f, o: (h, o), check_containing_column_sum),
    ("bijection-roundtrip", _cube_bounds(3), check_bijection_roundtrip),
    ("hasse-cover-grading", lambda h, f, o: (h, o), check_hasse_grading),
    ("path-cover-counts", lambda h, f, o: (h, o), check_path_cover_counts),
    ("cycle-cover-counts", lambda h, f, o: (h, o), check_cycle_cover_counts),
    ("fibonacci-cube-structure", _cube_bounds(1), check_fibonacci_cube),
    ("lucas-cube-structure", _cube_bounds(1), check_lucas_cube),
    ("pattern-cube-identity", _cube_bounds(3), check_pattern_cubes),
    ("single-pattern-cube-identity", _cube_bounds(1), check_single_pattern_cubes),
    ("cube-edges-comparable", _cube_bounds(1), check_cube_edges_comparable),
    ("path-recurrence-agreement", lambda h, f, o: (h, f), check_path_recurrence),
    ("cycle-recurrence-agreement", lambda h, f, o: (h, f), check_cycle_recurrence),
    ("edge-convolution-agreement", lambda h, f, o: (h, f), check_convolution_agreement),
    ("edge-closed-form-agreement", lambda h, f, o: (h, f), check_closed_form_agreement),
    ("hfib-prefix-structure", lambda h, f, o: (h, f), check_hfib_prefix),
    ("order-reduction-identity", lambda h, f, o: (min(h, 6), min(f, 50)), check_order_reduction),
    ("cycle-decomposition-identity", lambda h, f, o: (h, f), check_cycle_decomposition),
    ("classic-sequence-identities", lambda h, f, o: (min(h, 1), f), check_classic_identities),
    ("boolean-lattice-counts", lambda h, f, o: (0, f), check_boolean_lattice),
    ("divisibility", lambda h, f, o: (h, 2 * f), check_divisibility),
)


def run_all(h_max: int = 4, n_max_formula: int = 200, n_max_oracle: int = 14) -> VerificationReport:
    """Run every check over the bounds its CHECKS row derives from the
    requested ones; each report line shows exactly the bounds its check swept.

    Negative bounds raise ValueError, and an n_max_oracle above the cube cap
    raises CapacityError, before any check runs. The report is in CHECKS
    order, however many CPUs run the checks (see _counterexamples).
    """
    if min(h_max, n_max_formula, n_max_oracle) < 0:
        raise _negative(h_max=h_max, n_max_formula=n_max_formula, n_max_oracle=n_max_oracle)
    if n_max_oracle > cubes.MAX_CUBE_ORDER:
        raise graphs.CapacityError(
            f"n_max_oracle={n_max_oracle} exceeds the cube cap of {cubes.MAX_CUBE_ORDER}"
        )
    swept = [bounds(h_max, n_max_formula, n_max_oracle) for _, bounds, _ in CHECKS]
    found = _counterexamples([(fn, h, n) for (_, _, fn), (h, n) in zip(CHECKS, swept)])
    return VerificationReport(
        CheckResult(
            name=name,
            params=f"h<={h}, n<={n}",
            ok=counterexample is None,
            counterexample=counterexample,
        )
        for (name, _, _), (h, n), counterexample in zip(CHECKS, swept, found)
    )


def _counterexamples(jobs: list) -> list:
    """The counterexample of each job (check, h_max, n_max), in job order:
    what check(h_max, n_max) returned, or `exception: ...` if it raised.

    The jobs run in this process and in forked workers: one process per CPU
    this process may use, at most one per job. Every worker is forked before
    any job runs, so each process starts with nothing found; then each runs
    the same loop, taking the next job index, one byte at a time, from a
    shared pipe, so no job's cost is assumed. A worker whose pipe runs dry
    writes what it found, marshalled, once on a pipe of its own, and leaves
    by os._exit: it flushes none of this process's buffers and runs none of
    its exit code. This process merges the results of each worker that
    exited 0 and sent them. A job missing from the merge was run by a lost
    worker (killed, exiting nonzero, or exiting before it sent), and fails
    naming that worker's exit status (minus the signal number, if killed);
    if several were lost, the status of the last one forked. Every worker
    is waited for, on every path. With one usable CPU, no os.fork, or other
    threads running (a fork copies only the calling thread), no worker is
    forked and the jobs run here, in order.
    """
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    processes = min(len(usable), len(jobs))
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        processes = 1
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(jobs))))  # at most 256 bytes, so one write into an empty pipe
    os.close(feed)
    found = {}  # job index -> counterexample
    workers = {}  # pid -> read end of the worker's report pipe; None in a worker
    try:
        for _ in range(processes - 1):
            report, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: go on with the workers forked so far
                os.close(report)
                os.close(out)
                break
            if pid == 0:
                workers = None
                break
            os.close(out)
            workers[pid] = report
        while index := os.read(tasks, 1):
            check, h, n = jobs[index[0]]
            try:
                found[index[0]] = check(h, n)
            except Exception as exc:  # a blown invariant inside a check is a failure
                found[index[0]] = f"exception: {exc}"
        if workers is None:
            with os.fdopen(out, "wb") as sink:
                sink.write(marshal.dumps(found))
            os._exit(0)
    finally:
        if workers is None:  # a worker that failed before its report was written
            os._exit(1)
        os.read(tasks, len(jobs))  # on an abnormal exit, leave the workers no job to start
        os.close(tasks)
        for pid, report in workers.items():
            with os.fdopen(report, "rb") as source:
                sent = source.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0 and sent:
                found.update(marshal.loads(sent))
            else:
                lost = f"worker process lost: exit status {code}"
    # only a lost worker leaves a job out of the merge, so `lost` is bound when one is
    return [found[i] if i in found else lost for i in range(len(jobs))]
