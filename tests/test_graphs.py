import copy
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indcubes.graphs import (
    CapacityError,
    SimpleGraph,
    VertexSubset,
    _independent_masks,
    _mask_string,
    _mask_strings,
    contains_pattern,
    enumerate_independent,
    is_independent,
    power_cycle,
    power_path,
)

from conftest import brute_edge_count, brute_independent_sets


def reference_masks(g):
    """Independent masks of g by pruned backtracking, then a sort by
    (cardinality, mask): a second route to the canonical enumeration."""
    found = []

    def extend(start, chosen):
        found.append(chosen)
        for v in range(start, g.n):
            if not g.adj[v] & chosen:
                extend(v + 1, chosen | (1 << v))

    extend(0, 0)
    return sorted(found, key=lambda m: (m.bit_count(), m))


def reference_path_rows(n, h):
    """Path-power rows straight from the definition: v_i ~ v_j iff 0 < |j - i| <= h."""
    rows = [0] * n
    for i in range(n):
        for j in range(max(0, i - h), min(n, i + h + 1)):
            if j != i:
                rows[i] |= 1 << j
    return rows


def reference_cycle_rows(n, h):
    """Cycle-power rows by testing every pair: v_i ~ v_j iff i != j and
    |j - i| <= h or |j - i| >= n - h."""
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if j != i and (abs(j - i) <= h or abs(j - i) >= n - h):
                rows[i] |= 1 << j
    return rows


def random_graphs(count, n_max, seed):
    """Seeded random graphs on 0..n_max vertices, edge density 0 to 1."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, n_max)
        density = rng.choice([0.0, 0.1, 0.3, 0.5, 0.8, 1.0])
        pairs = combinations(range(1, n + 1), 2)
        yield SimpleGraph.from_edges(n, [e for e in pairs if rng.random() < density])


class TestVertexSubset:
    def test_string_roundtrip(self):
        s = VertexSubset.from_string("10101")
        assert s.to_string() == "10101"
        assert s.vertices() == (1, 3, 5)
        assert s.cardinality == 3
        assert 3 in s and 2 not in s and 6 not in s

    def test_membership_at_both_ends_and_past_them(self):
        # vertices 0 and n + 1 are never members; 1 and n are bits 0 and n - 1
        for n in range(7):
            for bits in range(1 << n):
                s = VertexSubset(bits, n)
                want = [False, *(bool(bits >> i & 1) for i in range(n)), False]
                assert [v in s for v in range(n + 2)] == want, (bits, n)
        full = VertexSubset((1 << 64) - 1, 64)
        assert [v in full for v in (0, 1, 64, 65)] == [False, True, True, False]

    def test_width_zero_is_accepted(self):
        s = VertexSubset(0, 0)
        assert (s.bits, s.n) == (0, 0)
        assert s.to_string() == "" and s.cardinality == 0
        assert 0 not in s and 1 not in s

    def test_from_string_matches_the_bitwise_parse(self):
        for width in range(11):
            for bits in range(1 << width):
                text = "".join("1" if bits >> i & 1 else "0" for i in range(width))
                s = VertexSubset.from_string(text)
                assert (s.bits, s.n) == (bits, width), text
                assert s.to_string() == text
        assert VertexSubset.from_string("") == VertexSubset(0, 0)

    @pytest.mark.parametrize("text", ["1_0", "012", "1 0", " 1", "+1", "0b1", "x"])
    def test_from_string_rejects_non_binary_text(self, text):
        with pytest.raises(ValueError, match="not a binary string"):
            VertexSubset.from_string(text)

    def test_vertices_walk_set_bits(self):
        assert VertexSubset(0, 0).vertices() == ()
        assert VertexSubset(1 << 63, 64).vertices() == (64,)
        assert VertexSubset((1 << 64) - 1, 64).vertices() == tuple(range(1, 65))
        for m in range(1 << 9):
            want = tuple(i + 1 for i in range(9) if m >> i & 1)
            assert VertexSubset(m, 9).vertices() == want

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSubset(0b100, 2)
        with pytest.raises(CapacityError):
            VertexSubset(0, 65)


class TestVertexSubsetContract:
    """Value semantics that the slotted representation must keep."""

    def test_assignment_and_deletion_raise(self):
        s = VertexSubset(5, 4)
        for name in ("bits", "n", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, 1)
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert (s.bits, s.n) == (5, 4)

    def test_equal_subsets_hash_equal(self):
        a, b = VertexSubset(5, 4), VertexSubset(5, 4)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b, VertexSubset.from_string("1010")}) == 1

    def test_equal_only_to_same_bits_and_width(self):
        s = VertexSubset(5, 4)
        assert s != (5, 4) and (5, 4) != s
        assert s != VertexSubset(5, 5)
        assert s != VertexSubset(4, 4)
        assert not s == 5

    def test_repr(self):
        assert repr(VertexSubset(5, 4)) == "VertexSubset(bits=5, n=4)"

    def test_copy_and_pickle_roundtrip(self):
        s = VertexSubset(0b1011, 7)
        assert copy.deepcopy(s) == s
        assert copy.copy(s) == s
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(s, protocol)) == s

    def test_validation_errors(self):
        with pytest.raises(CapacityError):
            VertexSubset(0, 65)
        with pytest.raises(CapacityError):
            VertexSubset(0, -1)
        with pytest.raises(ValueError, match="^mask 0x10 has bits beyond position 4$"):
            VertexSubset(1 << 4, 4)
        with pytest.raises(ValueError, match="^mask -1 is negative$"):
            VertexSubset(-1, 4)
        with pytest.raises(ValueError, match="^mask -1 is negative$"):
            VertexSubset(-1, 3)
        with pytest.raises(ValueError, match="^mask -6 is negative$"):
            VertexSubset(-6, 0)
        assert VertexSubset((1 << 64) - 1, 64).cardinality == 64


class TestPowerGraphs:
    def test_path_is_plain_path_at_order_one(self):
        g = power_path(5, 1)
        assert sorted(g.edges()) == [(1, 2), (2, 3), (3, 4), (4, 5)]

    def test_order_zero_is_isolated(self):
        assert power_path(5, 0).edge_count() == 0
        assert power_cycle(5, 0).edge_count() == 0

    def test_path_order_two(self):
        g = power_path(5, 2)
        assert sorted(g.edges()) == [
            (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
        ]

    def test_cycle_is_plain_cycle_at_order_one(self):
        assert power_cycle(5, 1).edge_count() == 5
        assert power_cycle(3, 1).edge_count() == 3  # K_3

    def test_cycle_order_two_regular(self):
        g = power_cycle(7, 2)
        assert g.edge_count() == 14
        assert all(g.degree(i) == 4 for i in range(1, 8))

    def test_degenerate_cycles(self):
        assert power_cycle(0, 3).edge_count() == 0
        assert power_cycle(1, 3).edge_count() == 0
        assert power_cycle(2, 1).edge_count() == 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            power_path(65, 1)
        with pytest.raises(CapacityError):
            power_cycle(65, 1)
        power_path(64, 1)  # at the cap is fine

    @pytest.mark.parametrize("n", range(0, 9))
    @pytest.mark.parametrize("h", range(0, 4))
    def test_edge_counts_against_brute_force(self, n, h):
        assert power_path(n, h).edge_count() == brute_edge_count(n, h, cyclic=False)
        assert power_cycle(n, h).edge_count() == brute_edge_count(n, h, cyclic=True)

    @pytest.mark.parametrize("n", range(65))
    def test_rows_match_the_pairwise_definition(self, n):
        # the orders include every n <= 2h + 1 case and n in {0, 1, 2}
        for h in sorted({0, 1, 2, 3, n // 2, max(n - 1, 0), n, n + 1, 100}):
            assert power_path(n, h).adj == tuple(reference_path_rows(n, h)), (n, h)
            assert power_cycle(n, h).adj == tuple(reference_cycle_rows(n, h)), (n, h)

    @pytest.mark.parametrize("h", [10**12, 10**18, 2**62, 2**70])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
    def test_huge_h_gives_the_complete_graph(self, n, h):
        # far too wide for a window of 2h + 1 bits; both powers are complete
        complete = tuple(((1 << n) - 1) & ~(1 << i) for i in range(n))
        assert power_path(n, h).adj == complete
        assert power_cycle(n, h).adj == complete

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b10,) * 1)  # wrong row count
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b01, 0b00))  # self-loop
        with pytest.raises(ValueError):
            SimpleGraph(2, (0b10, 0b00))  # asymmetric


@st.composite
def edge_lists(draw):
    """A vertex count up to 9 and an edge list over it, with repeats and
    both orientations of a pair."""
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return n, edges


class TestFromEdges:
    """from_edges checks each pair, then builds through the validating
    constructor: its graphs are the ones that constructor builds from the
    same rows."""

    @given(edge_lists())
    def test_equals_the_validated_graph(self, case):
        n, edges = case
        rows = [0] * n
        for i, j in edges:
            rows[i - 1] |= 1 << (j - 1)
            rows[j - 1] |= 1 << (i - 1)
        g = SimpleGraph.from_edges(n, edges)
        assert g == SimpleGraph(n, rows)
        assert type(g.adj) is tuple
        assert set(g.edges()) == {(min(e), max(e)) for e in edges}

    @pytest.mark.parametrize("n", [-1, -5])
    @pytest.mark.parametrize("edges", [[], [(1, 2)]])
    def test_negative_order_is_rejected(self, n, edges):
        # n is checked before any edge is read
        with pytest.raises(ValueError, match=rf"^n must be nonnegative \(got n={n}\)$"):
            SimpleGraph.from_edges(n, edges)

    @pytest.mark.parametrize(
        "edge, message",
        [
            ((2, 2), r"bad edge \(2, 2\) for n=3"),
            ((0, 1), r"bad edge \(0, 1\) for n=3"),
            ((1, 4), r"bad edge \(1, 4\) for n=3"),
            ((-1, 2), r"bad edge \(-1, 2\) for n=3"),
        ],
    )
    def test_bad_edges_are_named(self, edge, message):
        with pytest.raises(ValueError, match=message):
            SimpleGraph.from_edges(3, [(1, 2), edge])

    @given(edge_lists())
    def test_pickle_and_copy_roundtrip(self, case):
        g = SimpleGraph.from_edges(*case)
        for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert twin == g and twin.adj == g.adj


class TestIndependence:
    def test_alternating_path_vertices(self):
        g = power_path(5, 1)
        assert is_independent(g, VertexSubset.from_string("10101"))

    def test_within_reach_is_dependent(self):
        g = power_path(5, 2)
        assert not is_independent(g, VertexSubset.from_string("10100"))

    def test_cycle_wraparound(self):
        g = power_cycle(5, 1)
        assert not is_independent(g, VertexSubset.from_string("10001"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_independent(power_path(5, 1), VertexSubset(0, 4))

    def test_matches_pairwise_scan(self):
        for g in random_graphs(40, 10, seed=7):
            for m in range(1 << g.n):
                members = [i + 1 for i in range(g.n) if m >> i & 1]
                want = not any(g.adj[i - 1] >> (j - 1) & 1 for i, j in combinations(members, 2))
                assert is_independent(g, VertexSubset(m, g.n)) == want


class TestEnumeration:
    def test_empty_graph(self):
        out = enumerate_independent(power_path(0, 2))
        assert out == [VertexSubset(0, 0)]

    def test_small_path(self):
        out = enumerate_independent(power_path(3, 1))
        assert [s.to_string() for s in out] == ["000", "100", "010", "001", "101"]

    def test_small_cycle(self):
        out = enumerate_independent(power_cycle(4, 1))
        assert len(out) == 7
        assert {s.vertices() for s in out} == {
            (), (1,), (2,), (3,), (4,), (1, 3), (2, 4),
        }

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("h", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_brute_force(self, n, h, cyclic):
        g = power_cycle(n, h) if cyclic else power_path(n, h)
        got = {s.vertices() for s in enumerate_independent(g)}
        want = {tuple(sorted(s)) for s in brute_independent_sets(n, h, cyclic)}
        assert got == want

    @pytest.mark.parametrize("h", range(0, 5))
    def test_wide_graphs_match_formulas(self, h):
        # n = 16 is past the brute-force comfort zone; compare the two
        # library routes (enumeration vs closed counts) directly.
        from indcubes import counting

        for cyclic in (False, True):
            g = power_cycle(16, h) if cyclic else power_path(16, h)
            subsets = enumerate_independent(g)
            total = counting.cycle_count(16, h) if cyclic else counting.path_count(16, h)
            assert len(subsets) == total
            hist = {}
            for s in subsets:
                hist[s.cardinality] = hist.get(s.cardinality, 0) + 1
            count_k = counting.cycle_count_k if cyclic else counting.path_count_k
            for k in range(18):
                assert hist.get(k, 0) == count_k(16, h, k)

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("h", range(0, 5))
    def test_matches_reference_in_order_on_powers(self, h, cyclic):
        for n in range(15):
            g = power_cycle(n, h) if cyclic else power_path(n, h)
            want = reference_masks(g)
            assert _independent_masks(g) == want
            assert [s.bits for s in enumerate_independent(g)] == want

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_in_order_on_random_graphs(self, seed):
        for g in random_graphs(100, 12, seed):
            want = reference_masks(g)
            assert _independent_masks(g) == want
            assert [s.bits for s in enumerate_independent(g)] == want

    def test_capacity_admits_64_vertices(self):
        # the complete graph K_64: the empty set and the 64 singletons
        assert _independent_masks(power_path(64, 63)) == [0] + [1 << v for v in range(64)]

    def test_capacity_checked_before_work(self):
        g = SimpleGraph(65, (0,) * 65)
        with pytest.raises(CapacityError):
            _independent_masks(g)
        with pytest.raises(CapacityError):
            enumerate_independent(g)

    def test_output_strictly_sorted(self):
        for n, h in [(8, 0), (10, 1), (9, 2)]:
            out = enumerate_independent(power_path(n, h))
            keys = [(s.cardinality, s.bits) for s in out]
            assert keys == sorted(set(keys))

    def test_membership_equivalence(self):
        for n, h, cyclic in [(7, 1, False), (6, 2, True), (5, 0, False)]:
            g = power_cycle(n, h) if cyclic else power_path(n, h)
            enumerated = {s.bits for s in enumerate_independent(g)}
            for m in range(1 << n):
                s = VertexSubset(m, n)
                assert is_independent(g, s) == (m in enumerated)


class TestContainsPattern:
    def test_linear(self):
        assert contains_pattern(VertexSubset.from_string("0110"), "11")
        assert not contains_pattern(VertexSubset.from_string("1001"), "11")

    def test_circular_wraparound(self):
        assert contains_pattern(VertexSubset.from_string("1001"), "11", circular=True)

    def test_pattern_longer_than_string_cannot_wrap_twice(self):
        assert not contains_pattern(VertexSubset.from_string("1"), "11", circular=True)
        assert not contains_pattern(VertexSubset.from_string("10"), "101", circular=True)

    def test_rejects_bad_patterns(self):
        with pytest.raises(ValueError):
            contains_pattern(VertexSubset.from_string("01"), "")
        with pytest.raises(ValueError):
            contains_pattern(VertexSubset.from_string("01"), "1x")

    @given(
        st.text(alphabet="01", min_size=0, max_size=12),
        st.text(alphabet="01", min_size=1, max_size=4),
    )
    def test_against_rotation_oracle(self, text, pattern):
        s = VertexSubset.from_string(text)
        assert contains_pattern(s, pattern) == (pattern in text)
        n, L = len(text), len(pattern)
        expected = L <= n and any(
            all(text[(start + t) % n] == pattern[t] for t in range(L)) for start in range(n)
        )
        assert contains_pattern(s, pattern, circular=True) == expected

    def test_every_string_to_length_7_against_its_rotations(self):
        # 86,870 (string, pattern) pairs, each pattern up to one longer than the string
        for n in range(8):
            for m in range(1 << n):
                s = VertexSubset(m, n)
                text = s.to_string()
                rotations = [text[i:] + text[:i] for i in range(n)]
                for size in range(1, n + 2):
                    for bits in range(1 << size):
                        pattern = format(bits, f"0{size}b")
                        assert contains_pattern(s, pattern) == (pattern in text)
                        expected = size <= n and any(r.startswith(pattern) for r in rotations)
                        assert contains_pattern(s, pattern, circular=True) == expected, (text, pattern)


class TestMaskString:
    """_mask_string against format(), read backwards so that b_1 comes first."""

    @staticmethod
    def reference(bits, n):
        return format(bits, f"0{n}b")[::-1] if n else ""

    def test_every_mask_up_to_width_10(self):
        for n in range(11):
            for bits in range(1 << n):
                assert _mask_string(bits, n) == self.reference(bits, n), (bits, n)

    @pytest.mark.parametrize("n", [20, 64])
    def test_sampled_wide_masks(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        for bits in [0, 1, 1 << (n - 1), full] + [rng.getrandbits(n) for _ in range(2000)]:
            assert _mask_string(bits, n) == self.reference(bits, n), (bits, n)

    @pytest.mark.parametrize("n", [0, 1, 5, 10, 64])
    def test_batch_form_matches_one_by_one(self, n):
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(500)]
        assert _mask_strings(masks, n) == [self.reference(bits, n) for bits in masks]
        assert _mask_strings(iter(masks), n) == [_mask_string(bits, n) for bits in masks]
        assert _mask_strings([], n) == []
