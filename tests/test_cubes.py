import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indcubes import counting, verify
from indcubes.cubes import (
    _avoiding_masks,
    _fibonacci_masks,
    _hamming_pairs,
    _hasse_masks,
    _lucas_masks,
    avoiding_strings,
    fibonacci_cube,
    fibonacci_strings,
    generalized_cube,
    hasse_diagram,
    lucas_cube,
    lucas_strings,
    power_patterns,
)
from indcubes.graphs import (
    CapacityError,
    SimpleGraph,
    VertexSubset,
    contains_pattern,
    enumerate_independent,
    power_cycle,
    power_path,
)

from conftest import brute_cover_count, brute_independent_sets


def _labels(subsets):
    return [s.to_string() for s in subsets]


class TestHasseDiagram:
    def test_boolean_lattice(self):
        d = hasse_diagram(power_path(3, 0))
        assert (d.n, d.edge_count()) == (8, 12)

    def test_small_path(self):
        d = hasse_diagram(power_path(3, 1))
        assert (d.n, d.edge_count()) == (5, 5)

    def test_small_cycle(self):
        d = hasse_diagram(power_cycle(5, 1))
        assert (d.n, d.edge_count()) == (11, 15)

    def test_trivial(self):
        d = hasse_diagram(power_path(0, 1))
        assert (d.n, d.edge_count()) == (1, 0)

    def test_level_zero_is_empty_set(self):
        assert enumerate_independent(power_path(4, 2))[0] == VertexSubset(0, 4)
        assert hasse_diagram(power_path(4, 2)).degree(1) == 4

    def test_covers_go_up_one_level(self):
        for build in (power_path, power_cycle):
            for n in range(11):
                for h in range(4):
                    g = build(n, h)
                    nodes = enumerate_independent(g)
                    d = hasse_diagram(g)
                    assert d.n == len(nodes)
                    for i, j in d.edges():
                        low, high = nodes[i - 1], nodes[j - 1]
                        assert low.bits & ~high.bits == 0, (build.__name__, n, h)
                        assert high.cardinality == low.cardinality + 1, (build.__name__, n, h)

    def test_cover_count_is_weighted_level_sum(self):
        for n, h in [(6, 1), (7, 2), (5, 0)]:
            g = power_path(n, h)
            d = hasse_diagram(g)
            assert d.edge_count() == sum(s.cardinality for s in enumerate_independent(g))

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("n,h", [(6, 1), (7, 2), (5, 0), (8, 3)])
    def test_against_brute_force(self, n, h, cyclic):
        g = power_cycle(n, h) if cyclic else power_path(n, h)
        d = hasse_diagram(g)
        sets = brute_independent_sets(n, h, cyclic)
        assert d.n == len(sets)
        assert d.edge_count() == brute_cover_count(sets)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            hasse_diagram(power_path(21, 1))

    @pytest.mark.parametrize("build", [power_path, power_cycle])
    def test_is_a_valid_simple_graph(self, build):
        # rebuilding from the rows re-runs SimpleGraph's validation: no
        # self-loop, symmetric rows, nothing beyond the last node
        for n in range(9):
            for h in range(4):
                d = hasse_diagram(build(n, h))
                assert SimpleGraph(d.n, d.adj) == d, (build.__name__, n, h)

    def test_empty_set_is_covered_by_every_singleton(self):
        for build in (power_path, power_cycle):
            for n in range(1, 10):
                for h in range(4):
                    g = build(n, h)
                    nodes = enumerate_independent(g)
                    up = [nodes[j - 1] for i, j in hasse_diagram(g).edges() if i == 1]
                    assert up == [VertexSubset(1 << v, n) for v in range(n)]


class TestFibonacciCube:
    def test_order_one(self):
        g = fibonacci_cube(1)
        assert (g.n, g.edge_count()) == (2, 1)

    def test_vertex_counts(self):
        assert fibonacci_cube(4).n == 8
        assert _labels(fibonacci_strings(3)) == ["000", "100", "010", "001", "101"]
        assert fibonacci_cube(3).edge_count() == 5

    def test_counts_match_path_formulas(self):
        for n in range(0, 12):
            g = fibonacci_cube(n)
            assert g.n == counting.path_count(n, 1)
            assert g.edge_count() == counting.path_hasse_edges(n, 1)

    def test_strings_match_bit_scan(self):
        # reference: test every mask of width n for two adjacent ones
        for n in range(0, 21):
            want = sorted(
                (m for m in range(1 << n) if not (m & (m >> 1))), key=lambda m: (m.bit_count(), m)
            )
            strings = fibonacci_strings(n)
            assert [s.bits for s in strings] == want
            assert all(s.n == n for s in strings)


class TestLucasCube:
    def test_vertex_counts(self):
        assert lucas_cube(4).n == 7
        g = lucas_cube(5)
        assert (g.n, g.edge_count()) == (11, 15)

    def test_order_two(self):
        assert _labels(lucas_strings(2)) == ["00", "10", "01"]

    def test_first_and_last_excluded_at_order_one(self):
        assert _labels(lucas_strings(1)) == ["0"]

    def test_counts_match_cycle_formulas(self):
        for n in range(2, 12):
            g = lucas_cube(n)
            assert g.n == counting.cycle_count(n, 1)
            assert g.edge_count() == counting.cycle_hasse_edges(n, 1)


class TestGeneralizedCube:
    def test_single_pattern_is_fibonacci(self):
        for n in range(0, 10):
            assert _labels(avoiding_strings(n, ["11"])) == _labels(fibonacci_strings(n))

    def test_single_pattern_circular_is_lucas(self):
        for n in range(2, 10):
            got = _labels(avoiding_strings(n, ["11"], circular=True))
            assert got == _labels(lucas_strings(n))

    def test_two_patterns(self):
        got = _labels(avoiding_strings(4, ["11", "101"]))
        assert got == ["0000", "1000", "0100", "0010", "0001", "1001"]
        assert generalized_cube(4, ["11", "101"]).n == counting.path_count(4, 2)

    def test_rejects_empty_pattern_list(self):
        with pytest.raises(ValueError):
            avoiding_strings(4, [])
        with pytest.raises(ValueError):
            generalized_cube(4, ["11", ""])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            generalized_cube(21, ["11"])

    @pytest.mark.parametrize("circular", [False, True])
    @pytest.mark.parametrize("h", [2, 3])
    def test_pattern_sets_give_independence_strings(self, h, circular):
        patterns = power_patterns(h)
        for n in range(0, 10):
            g = power_cycle(n, h) if circular else power_path(n, h)
            want = sorted(
                "".join("1" if i in s else "0" for i in range(1, n + 1))
                for s in brute_independent_sets(n, h, circular)
            )
            got = sorted(_labels(avoiding_strings(n, patterns, circular)))
            assert got == want, f"n={n} h={h} circular={circular}"

    def test_avoiders_not_closed_downward(self):
        assert _labels(avoiding_strings(3, ["0"])) == ["111"]
        assert _labels(avoiding_strings(3, ["0"], circular=True)) == ["111"]
        assert _labels(avoiding_strings(3, ["10"])) == ["000", "001", "011", "111"]
        assert _labels(avoiding_strings(3, ["10"], circular=True)) == ["000", "111"]
        assert _labels(avoiding_strings(4, ["01", "1"])) == ["0000"]

    def test_patterns_longer_than_n_are_ignored(self):
        for circular in (False, True):
            assert _labels(avoiding_strings(0, ["1"], circular)) == [""]
            assert _labels(avoiding_strings(2, ["111"], circular)) == ["00", "10", "01", "11"]
            assert _labels(avoiding_strings(2, ["0110", "11"], circular)) == ["00", "10", "01"]
        # the wrap window is as long as the longest pattern that is kept
        assert _labels(avoiding_strings(3, ["11", "1001"], circular=True)) == [
            "000", "100", "010", "001",
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_contains_pattern_scan(self, seed):
        rng = random.Random(seed)
        for _ in range(15):
            patterns = [
                "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            ]
            for n in range(11):
                for circular in (False, True):
                    scan = [VertexSubset(m, n) for m in range(1 << n)]
                    want = [
                        s
                        for s in sorted(scan, key=lambda s: (s.cardinality, s.bits))
                        if not any(contains_pattern(s, p, circular) for p in patterns)
                    ]
                    got = avoiding_strings(n, patterns, circular)
                    assert got == want, (patterns, n, circular)

    def test_rejects_bad_patterns(self):
        for n in (0, 3):
            with pytest.raises(ValueError, match="^empty pattern$"):
                avoiding_strings(n, ["0", ""])
            with pytest.raises(ValueError, match=r"^not a binary pattern: '1x1'$"):
                avoiding_strings(n, ["1", "1x1"], circular=True)

    @pytest.mark.parametrize("build", [avoiding_strings, generalized_cube])
    @pytest.mark.parametrize("pattern", ["11", "101"])
    def test_rejects_a_bare_string(self, build, pattern):
        # a string is a sequence of one-letter strings; it must not be read as one
        message = rf"^patterns must be a list of strings, not the string '{pattern}'$"
        with pytest.raises(ValueError, match=message):
            build(5, pattern)

    def test_a_tuple_of_patterns_is_a_pattern_set(self):
        assert len(avoiding_strings(5, ("11",))) == 13
        assert generalized_cube(4, ("101",)).n == 12

    def test_power_patterns(self):
        assert power_patterns(1) == ["11"]
        assert power_patterns(2) == ["11", "101"]
        assert power_patterns(3) == ["11", "101", "1001"]
        with pytest.raises(ValueError):
            power_patterns(0)


class TestCubeIsDiagram:
    """At order 1 the diagram is the classic cube: both index their nodes in
    canonical order, so the identity is plain graph equality."""

    def test_fibonacci_cube_is_path_diagram(self):
        for n in range(0, 15):
            g = power_path(n, 1)
            d = hasse_diagram(g)
            assert fibonacci_cube(n) == d
            assert fibonacci_strings(n) == enumerate_independent(g)
            assert d.edge_count() == counting.path_hasse_edges(n, 1)
            assert d.edge_count() == brute_cover_count(brute_independent_sets(n, 1, False))

    def test_lucas_cube_is_cycle_diagram(self):
        for n in range(2, 15):
            g = power_cycle(n, 1)
            d = hasse_diagram(g)
            assert lucas_cube(n) == d
            assert lucas_strings(n) == enumerate_independent(g)
            assert d.edge_count() == counting.cycle_hasse_edges(n, 1)
            assert d.edge_count() == brute_cover_count(brute_independent_sets(n, 1, True))

    def test_equality_sees_the_node_count(self):
        fib = fibonacci_cube(2)  # 00, 10, 01
        square = generalized_cube(2, ["000"])  # nothing excluded: the 2-cube
        assert (fib.n, square.n) == (3, 4)
        assert fib != square

    def test_same_size_other_strings_is_another_graph(self):
        # both cubes have three strings, but 11 replaces 10: a path, not a star
        assert _labels(fibonacci_strings(2)) == ["00", "10", "01"]
        assert _labels(avoiding_strings(2, ["10"])) == ["00", "01", "11"]
        assert fibonacci_cube(2) != generalized_cube(2, ["10"])
        assert generalized_cube(2, ["10"]) == SimpleGraph.from_edges(3, [(1, 2), (2, 3)])

    @pytest.mark.parametrize("circular", [False, True])
    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_diagram_is_the_power_pattern_cube(self, h, circular):
        """At every order the diagram is the cube on the strings avoiding
        1 0^j 1 for j < h, read circularly for the cycle."""
        patterns = power_patterns(h)
        for n in range(13):
            g = power_cycle(n, h) if circular else power_path(n, h)
            assert enumerate_independent(g) == avoiding_strings(n, patterns, circular), n
            assert hasse_diagram(g) == generalized_cube(n, patterns, circular), n

    def test_equality_sees_one_edge(self):
        fib = fibonacci_cube(2)  # star at 00: edges 00-10, 00-01
        chain = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])  # path 00-10-01
        assert fib.n == chain.n and fib.edge_count() == chain.edge_count()
        assert fib != chain
        assert hasse_diagram(power_path(3, 1)) != fibonacci_cube(2)


def _canonical_order(masks):
    return sorted(masks, key=lambda m: (m.bit_count(), m))


@settings(deadline=None, max_examples=50)  # up to ~40,000 avoiders wrapped per example
@given(
    st.integers(0, 16),
    st.lists(st.text("01", min_size=1, max_size=4), min_size=1, max_size=3),
    st.booleans(),
)
def test_mask_generators_are_canonical_and_back_the_string_views(n, patterns, circular):
    """Each private generator's masks strictly increase in (cardinality,
    mask), and the public strings are exactly those masks, wrapped."""
    for masks, strings in (
        (_fibonacci_masks(n), fibonacci_strings(n)),
        (_lucas_masks(n), lucas_strings(n)),
        (_avoiding_masks(n, patterns, circular), avoiding_strings(n, patterns, circular)),
    ):
        keys = [(m.bit_count(), m) for m in masks]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert masks == [s.bits for s in strings]


@st.composite
def random_graphs(draw):
    """A SimpleGraph on at most 9 vertices with an arbitrary edge set."""
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph.from_edges(n, edges)


@st.composite
def canonical_mask_sets(draw):
    """Any set of masks of one width up to 8, in canonical order."""
    n = draw(st.integers(0, 8))
    return _canonical_order(draw(st.sets(st.integers(0, (1 << n) - 1))))


def _ascending(ups):
    return all(a < b for js in ups for a, b in zip(js, js[1:]))


def _brute_hamming_ups(masks):
    """For each mask, the indices of the masks equal to it plus one bit."""
    return [
        [j for j, b in enumerate(masks) if b & ~a and (a ^ b).bit_count() == 1] for a in masks
    ]


class TestUpLists:
    """The mask-level up-lists against relations computed from all pairs."""

    @given(random_graphs())
    def test_hasse_masks_are_the_brute_force_covers(self, g):
        masks, ups = _hasse_masks(g)
        edges = [1 << (i - 1) | 1 << (j - 1) for i, j in g.edges()]
        independent = [m for m in range(1 << g.n) if all(m & e != e for e in edges)]
        assert masks == _canonical_order(independent)
        covers = [
            [j for j, b in enumerate(masks) if a & b == a and (a ^ b).bit_count() == 1]
            for a in masks
        ]
        assert ups == covers
        assert _ascending(ups)

    @given(random_graphs())
    def test_cover_pairs_count_the_diagram_covers(self, g):
        # verify's per-vertex cover-pair count, the diagram's up-lists and a
        # count over all subsets of the edge list are three routes to one number
        edges = set(g.edges())
        sets = [
            frozenset(s)
            for k in range(g.n + 1)
            for s in combinations(range(1, g.n + 1), k)
            if edges.isdisjoint(combinations(s, 2))
        ]
        covers = verify._cover_pairs(g)
        assert covers == sum(map(len, _hasse_masks(g)[1])) == brute_cover_count(sets)

    @given(canonical_mask_sets())
    def test_hamming_pairs_are_the_brute_force_hamming_one_relation(self, masks):
        ups = _hamming_pairs(masks)
        assert ups == _brute_hamming_ups(masks)
        assert _ascending(ups)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_avoiders_of_00_not_closed_under_clearing_a_bit(self, n):
        masks = [s.bits for s in avoiding_strings(n, ["00"])]
        present = set(masks)
        assert any(m ^ 1 << v not in present for m in masks for v in range(n) if m >> v & 1)
        ups = _hamming_pairs(masks)
        assert ups == _brute_hamming_ups(masks)
        assert _ascending(ups)
