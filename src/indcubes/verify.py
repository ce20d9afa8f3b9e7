"""Cross-checks between the brute-force enumerator, the closed formulas, the
recurrences, and the cube constructions.

Every check sweeps a parameter range and reports the first counterexample it
finds, so a broken formula fails loudly with concrete inputs instead of a
bare boolean. The `verify` CLI command and the test suite both run these.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import counting, cubes, graphs


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: str
    ok: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "checks": [
                {
                    "name": c.name,
                    "params": c.params,
                    "ok": c.ok,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
        }

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


def _powers(n: int, h: int) -> tuple[tuple[bool, graphs.SimpleGraph], ...]:
    """(cyclic, graph) for the h-power of the n-path, then of the n-cycle."""
    return ((False, graphs.power_path(n, h)), (True, graphs.power_cycle(n, h)))


# Shared sweep bodies. Each check passes its routes in, read from their
# modules when the check runs, so a route rebound there (a test's monkeypatch,
# perfbench's tracer) is the one compared.


def _oracle_sweep(h_max: int, n_max: int, build, total, count_k) -> str | None:
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            subsets = graphs.enumerate_independent(build(n, h))
            if len(subsets) != total(n, h):
                return f"n={n} h={h}: total {len(subsets)} != {total(n, h)}"
            hist = Counter(s.cardinality for s in subsets)
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


def _cover_count(build):
    """Route: the number of covers in the mask-level diagram of build(n, h)."""
    return lambda n, h: len(cubes._hasse_masks(build(n, h))[1])


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
    """Enumeration output is strictly sorted by (cardinality, mask value)."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for cyclic, g in _powers(n, h):
                subsets = graphs.enumerate_independent(g)
                keys = [s.sort_key() for s in subsets]
                if any(a >= b for a, b in zip(keys, keys[1:])):
                    return f"n={n} h={h} cyclic={cyclic}: output not strictly sorted"
    return None


def check_membership_equivalence(h_max: int, n_max: int) -> str | None:
    """is_independent agrees with membership in the enumeration, over the
    full power set of small graphs."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for cyclic, g in _powers(n, h):
                enumerated = {s.bits for s in graphs.enumerate_independent(g)}
                for m in range(1 << n):
                    s = graphs.VertexSubset(m, n)
                    if graphs.is_independent(g, s) != (m in enumerated):
                        return f"n={n} h={h} cyclic={cyclic} mask={m:b}"
    return None


def check_containing_row_sum(h_max: int, n_max: int) -> str | None:
    """Summing the per-vertex counts over all vertices counts each k-subset
    k times."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for k in range(1, counting._max_size(n, h) + 2):
                total = sum(
                    counting.path_count_k_containing(n, h, k, i) for i in range(1, n + 1)
                )
                if total != k * counting.path_count_k(n, h, k):
                    return (
                        f"n={n} h={h} k={k}: {total} != "
                        f"{k * counting.path_count_k(n, h, k)}"
                    )
    return None


def check_containing_column_sum(h_max: int, n_max: int) -> str | None:
    """Summing the per-vertex counts over all sizes splits at the vertex into
    two independent path segments."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for i in range(1, n + 1):
                total = sum(
                    counting.path_count_k_containing(n, h, k, i)
                    for k in range(1, counting._max_size(n, h) + 2)
                )
                expect = counting.path_count_clamped(i - h - 1, h) * counting.path_count_clamped(
                    n - h - i, h
                )
                if total != expect:
                    return f"n={n} h={h} i={i}: {total} != {expect}"
    return None


def check_bijection_roundtrip(h_max: int, n_max: int) -> str | None:
    """Subsets -> indices -> subsets and indices -> subsets -> indices are
    both the identity, and every forward image is independent."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            g = graphs.power_path(n, h)
            for s in graphs.enumerate_independent(g):
                idx = counting.subset_to_indices(n, h, s)
                back = counting.indices_to_subset(n, h, idx)
                if back != s:
                    return f"n={n} h={h} subset={s.to_string()}: roundtrip gave {back.to_string()}"
            for k in range(counting._max_size(n, h) + 1):
                upper = n - h * k + h
                for combo in itertools.combinations(range(1, upper + 1), k):
                    image = counting.indices_to_subset(n, h, list(combo))
                    if not graphs.is_independent(g, image):
                        return f"n={n} h={h} indices={list(combo)}: image not independent"
                    if counting.subset_to_indices(n, h, image) != list(combo):
                        return f"n={n} h={h} indices={list(combo)}: inverse mismatch"
    return None


def check_hasse_grading(h_max: int, n_max: int) -> str | None:
    """Diagram levels start at the empty set, covers go up one level within
    inclusion, and the cover count is the k-weighted sum of level sizes."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for cyclic, g in _powers(n, h):
                masks, covers = cubes._hasse_masks(g)
                if masks.count(0) != 1:
                    return f"n={n} h={h} cyclic={cyclic}: level 0 is not [empty]"
                for i, j in covers:
                    low, high = masks[i], masks[j]
                    if low & ~high or high.bit_count() != low.bit_count() + 1:
                        return (
                            f"n={n} h={h} cyclic={cyclic}: bad cover "
                            f"{graphs._mask_string(low, n)} -> {graphs._mask_string(high, n)}"
                        )
                weighted = sum(m.bit_count() for m in masks)
                if len(covers) != weighted:
                    return (
                        f"n={n} h={h} cyclic={cyclic}: covers {len(covers)} "
                        f"!= weighted levels {weighted}"
                    )
    return None


def check_path_cover_counts(h_max: int, n_max: int) -> str | None:
    """Constructed path-poset cover counts match both edge formulas."""
    routes = (
        _cover_count(graphs.power_path),
        counting.path_hasse_edges,
        counting.path_hasse_edges_conv,
    )
    return _routes_agree(h_max, n_max, routes, "covers={} sum={} conv={}")


def check_cycle_cover_counts(h_max: int, n_max: int) -> str | None:
    """Constructed cycle-poset cover counts match the sum and closed forms."""
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
        strings = cubes.fibonacci_strings(n)
        cube = cubes.fibonacci_cube(n)
        if cube.n != counting.fibonacci(n + 2):
            return f"n={n}: {cube.n} vertices != F_{n + 2}"
        edges_expected = sum(
            counting.fibonacci(i) * counting.fibonacci(n - i + 1) for i in range(1, n + 1)
        )
        if cube.edge_count() != edges_expected:
            return f"n={n}: {cube.edge_count()} edges != {edges_expected}"
        d = cubes.hasse_diagram(graphs.power_path(n, 1))
        labels = [s.to_string() for s in strings]
        d_labels = [s.to_string() for s in d.nodes()]
        if not cubes.same_labeled_graph(cube, labels, cubes.diagram_as_graph(d), d_labels):
            return f"n={n}: cube differs from the path-power diagram"
    return None


def check_lucas_cube(h_max: int, n_max: int) -> str | None:
    """Lucas cubes have the cycle-power counts and are the cycle-power
    diagrams under the string encoding, for n >= 2."""
    if h_max < 1:
        return None
    for n in range(2, n_max + 1):
        strings = cubes.lucas_strings(n)
        cube = cubes.lucas_cube(n)
        if cube.n != counting.lucas(n):
            return f"n={n}: {cube.n} vertices != L_{n}"
        if cube.edge_count() != n * counting.fibonacci(n - 1):
            return f"n={n}: {cube.edge_count()} edges != {n * counting.fibonacci(n - 1)}"
        d = cubes.hasse_diagram(graphs.power_cycle(n, 1))
        labels = [s.to_string() for s in strings]
        d_labels = [s.to_string() for s in d.nodes()]
        if not cubes.same_labeled_graph(cube, labels, cubes.diagram_as_graph(d), d_labels):
            return f"n={n}: cube differs from the cycle-power diagram"
    return None


def check_pattern_cubes(h_max: int, n_max: int) -> str | None:
    """Avoiding the h-power pattern set linearly (circularly) yields exactly
    the independence strings of the path (cycle) power, for 2 <= h <= h_max."""
    for h in range(2, h_max + 1):
        patterns = cubes.power_patterns(h)
        for n in range(n_max + 1):
            for cyclic, g in _powers(n, h):
                want = [s.to_string() for s in graphs.enumerate_independent(g)]
                got = [s.to_string() for s in cubes.avoiding_strings(n, patterns, cyclic)]
                if got != want:
                    return f"n={n} h={h} circular={cyclic}: vertex sets differ"
    return None


def check_single_pattern_cubes(h_max: int, n_max: int) -> str | None:
    """Avoiding 11 linearly gives the Fibonacci cube; avoiding it circularly
    gives the Lucas cube for n >= 2."""
    if h_max < 1:
        return None
    for n in range(n_max + 1):
        lin = [s.to_string() for s in cubes.avoiding_strings(n, ["11"], circular=False)]
        fib = [s.to_string() for s in cubes.fibonacci_strings(n)]
        if lin != fib:
            return f"n={n}: linear 11-avoiders differ from Fibonacci strings"
        if not cubes.same_labeled_graph(
            cubes.generalized_cube(n, ["11"]), lin, cubes.fibonacci_cube(n), fib
        ):
            return f"n={n}: linear 11-cube differs from the Fibonacci cube"
        if n >= 2:
            circ = [s.to_string() for s in cubes.avoiding_strings(n, ["11"], circular=True)]
            luc = [s.to_string() for s in cubes.lucas_strings(n)]
            if circ != luc:
                return f"n={n}: circular 11-avoiders differ from Lucas strings"
            if not cubes.same_labeled_graph(
                cubes.generalized_cube(n, ["11"], circular=True), circ, cubes.lucas_cube(n), luc
            ):
                return f"n={n}: circular 11-cube differs from the Lucas cube"
    return None


def check_cube_edges_comparable(h_max: int, n_max: int) -> str | None:
    """Every Fibonacci-cube edge joins bitwise-comparable strings, so the
    Hamming-1 adjacency coincides with the diagram covers."""
    if h_max < 1:
        return None
    for n in range(n_max + 1):
        strings = cubes.fibonacci_strings(n)
        cube = cubes.fibonacci_cube(n)
        for i, j in cube.edges():
            a, b = strings[i - 1].bits, strings[j - 1].bits
            if (a | b) not in (a, b):
                return f"n={n}: edge joins incomparable strings {a:b}, {b:b}"
    return None


# --- formula-scale checks (bounded by n_max_formula) ------------------------


def check_path_recurrence(h_max: int, n_max: int) -> str | None:
    """Closed-sum path totals equal the recurrence-only evaluation."""
    routes = (counting.path_count, counting.path_count_rec)
    return _routes_agree(h_max, n_max, routes, "{} != {}")


def check_cycle_recurrence(h_max: int, n_max: int) -> str | None:
    """Closed-sum cycle totals equal the recurrence-only evaluation."""
    routes = (counting.cycle_count, counting.cycle_count_rec)
    return _routes_agree(h_max, n_max, routes, "{} != {}")


def check_convolution_agreement(h_max: int, n_max: int) -> str | None:
    """Weighted-sum, self-convolution and linear-recurrence (the column that
    `table` and `seq` print) path edge counts agree."""
    for h in range(h_max + 1):
        for n, (_, linear) in zip(range(n_max + 1), counting._rows("path", h)):
            by_sum = counting.path_hasse_edges(n, h)
            by_conv = counting.path_hasse_edges_conv(n, h)
            if not by_sum == by_conv == linear:
                return f"n={n} h={h}: sum {by_sum}, conv {by_conv}, linear {linear}"
    return None


def check_closed_form_agreement(h_max: int, n_max: int) -> str | None:
    """Weighted-sum and closed-form cycle edge counts agree."""
    routes = (counting.cycle_hasse_edges, counting.cycle_hasse_edges_closed)
    return _routes_agree(h_max, n_max, routes, "sum {} != closed {}")


def check_hfib_prefix(h_max: int, n_max: int) -> str | None:
    """The order-h sequence is h ones followed by the path totals, i.e. its
    i-th term is the clamped total at n = i - h - 1."""
    for h in range(h_max + 1):
        seq = counting.hfib(h, n_max)
        for i in range(1, len(seq) + 1):
            if seq.term(i) != counting.path_count_clamped(i - h - 1, h):
                return f"h={h} i={i}: {seq.term(i)} != clamped total"
        for i in range(1, h + 1):
            if seq.term(i) != 1:
                return f"h={h} i={i}: leading term is {seq.term(i)}, not 1"
        for offset in range(n_max - h):
            if seq.term(h + 1 + offset) != counting.path_count(offset, h):
                return f"h={h} offset={offset}: suffix term != path total"
    return None


def check_order_reduction(h_max: int, n_max: int) -> str | None:
    """Per-size path counts drop one power order when n shrinks by k - 1."""
    for h in range(1, h_max + 1):
        for n in range(n_max + 1):
            for k in range(n + 1):
                lhs = counting.path_count_k(n, h, k)
                rhs = counting.path_count_k(n - k + 1, h - 1, k)
                if lhs != rhs:
                    return f"n={n} h={h} k={k}: {lhs} != {rhs}"
    return None


def check_cycle_decomposition(h_max: int, n_max: int) -> str | None:
    """Cycle per-size counts split into the subsets through a fixed vertex
    and those through a wrap pair."""
    for h in range(h_max + 1):
        for n in range(3 * h + 3, n_max + 1):
            for k in range(2, counting._max_size(n, h) + 2):
                lhs = counting.path_count_k(n - 2 * h - 1, h, k - 1) + h * counting.path_count_k(
                    n - 3 * h - 2, h, k - 2
                )
                rhs = counting.cycle_count_k(n - h - 1, h, k - 1)
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
    """k always divides n * C(n - h*k - 1, k - 1) for k >= 2."""
    for h in range(h_max + 1):
        for n in range(n_max + 1):
            for k in range(2, counting._max_size(n, h) + 2):
                if (n * counting.binom(n - h * k - 1, k - 1)) % k:
                    return f"n={n} h={h} k={k}"
    return None


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
    ("bijection-roundtrip", lambda h, f, o: (min(h, 3), min(o, 14)), check_bijection_roundtrip),
    ("hasse-cover-grading", lambda h, f, o: (h, o), check_hasse_grading),
    ("path-cover-counts", lambda h, f, o: (h, o), check_path_cover_counts),
    ("cycle-cover-counts", lambda h, f, o: (h, o), check_cycle_cover_counts),
    ("fibonacci-cube-structure", lambda h, f, o: (min(h, 1), min(o, 14)), check_fibonacci_cube),
    ("lucas-cube-structure", lambda h, f, o: (min(h, 1), min(o, 14)), check_lucas_cube),
    ("pattern-cube-identity", lambda h, f, o: (min(h, 3), min(o, 14)), check_pattern_cubes),
    (
        "single-pattern-cube-identity",
        lambda h, f, o: (min(h, 1), min(o, 14)),
        check_single_pattern_cubes,
    ),
    ("cube-edges-comparable", lambda h, f, o: (min(h, 1), min(o, 14)), check_cube_edges_comparable),
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
    raises CapacityError, before any check runs.
    """
    if min(h_max, n_max_formula, n_max_oracle) < 0:
        raise ValueError("h_max, n_max_formula and n_max_oracle must be nonnegative")
    if n_max_oracle > cubes.MAX_CUBE_ORDER:
        raise graphs.CapacityError(
            f"n_max_oracle={n_max_oracle} exceeds the cube cap of {cubes.MAX_CUBE_ORDER}"
        )
    results = []
    for name, bounds, fn in CHECKS:
        h, n = bounds(h_max, n_max_formula, n_max_oracle)
        try:
            counterexample = fn(h, n)
        except Exception as exc:  # a blown invariant inside a check is a failure
            counterexample = f"exception: {exc}"
        results.append(
            CheckResult(
                name=name,
                params=f"h<={h}, n<={n}",
                ok=counterexample is None,
                counterexample=counterexample,
            )
        )
    return VerificationReport(tuple(results))
