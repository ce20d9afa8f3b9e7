import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indcubes import counting
from indcubes.graphs import VertexSubset, enumerate_independent, is_independent, power_path

from conftest import brute_cover_count, brute_histogram, brute_independent_sets


class TestBinom:
    def test_values(self):
        assert counting.binom(3, 2) == 3
        assert counting.binom(5, 0) == 1
        assert counting.binom(-2, 1) == 0
        assert counting.binom(4, -1) == 0
        assert counting.binom(2, 5) == 0

    @given(st.integers(-4, 9), st.integers(-4, 9))
    def test_counts_subsets(self, m, k):
        want = len(list(combinations(range(m), k))) if m >= 0 and k >= 0 else 0
        assert counting.binom(m, k) == want

    def test_exact_at_scale(self):
        # 2^1000 subsets of size 0..1000 must sum exactly
        assert sum(counting.binom(1000, k) for k in range(1001)) == 2**1000
        assert counting.path_count(1000, 0) == 2**1000
        assert counting.path_count_rec(1000, 0) == 2**1000


class TestPathCounts:
    def test_k_zero_always_one(self):
        for n in range(6):
            for h in range(4):
                assert counting.path_count_k(n, h, 0) == 1

    def test_frozen_examples(self):
        assert counting.path_count_k(5, 1, 2) == 6
        assert counting.path_count_k(5, 2, 2) == 3
        assert counting.path_count(4, 1) == 8
        assert counting.path_count(5, 2) == 9
        assert counting.path_count(0, 3) == 1

    def test_clamped(self):
        assert counting.path_count_k_clamped(-3, 1, 0) == 1
        assert counting.path_count_k_clamped(-3, 1, 2) == 0
        assert counting.path_count_k_clamped(4, 1, 1) == 4
        assert counting.path_count_clamped(-7, 2) == 1

    @pytest.mark.parametrize("h", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_against_brute_force(self, n, h):
        sets = brute_independent_sets(n, h, cyclic=False)
        hist = brute_histogram(sets)
        assert counting.path_count(n, h) == len(sets)
        for k in range(n + 2):
            assert counting.path_count_k(n, h, k) == hist.get(k, 0)

    def test_recurrence_examples(self):
        assert counting.path_count_rec(3, 2) == 4
        assert counting.path_count_rec(5, 2) == 9
        assert counting.path_count_rec(6, 1) == 21

    def test_recurrence_agrees_with_sum(self):
        for h in range(6):
            for n in range(120):
                assert counting.path_count_rec(n, h) == counting.path_count(n, h)


class TestIndexBijection:
    def test_singleton_is_identity(self):
        assert counting.indices_to_subset(5, 2, [1]).vertices() == (1,)

    def test_spreads_by_order(self):
        assert counting.indices_to_subset(5, 2, [1, 2]).vertices() == (1, 4)
        assert counting.indices_to_subset(7, 1, [1, 3, 5]).vertices() == (1, 4, 7)

    def test_inverse_examples(self):
        assert counting.subset_to_indices(5, 2, VertexSubset.from_vertices([1, 4], 5)) == [1, 2]
        assert counting.subset_to_indices(6, 1, VertexSubset(0, 6)) == []
        assert counting.subset_to_indices(
            7, 1, VertexSubset.from_vertices([1, 4, 7], 7)
        ) == [1, 3, 5]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            counting.indices_to_subset(5, 2, [2, 2])
        with pytest.raises(ValueError):
            counting.indices_to_subset(5, 2, [0, 1])
        with pytest.raises(ValueError):
            counting.indices_to_subset(5, 2, [1, 4])  # 4 > 5 - 2*2 + 2

    def test_rejects_dependent_subset(self):
        with pytest.raises(ValueError):
            counting.subset_to_indices(5, 2, VertexSubset.from_vertices([1, 3], 5))
        with pytest.raises(ValueError):
            counting.subset_to_indices(3, -1, VertexSubset(0, 3))
        # the gap rule agrees with independence in the path-power graph
        for h in range(4):
            for n in range(11):
                g = power_path(n, h)
                for m in range(1 << n):
                    s = VertexSubset(m, n)
                    if is_independent(g, s):
                        counting.subset_to_indices(n, h, s)
                    else:
                        with pytest.raises(ValueError, match="not independent"):
                            counting.subset_to_indices(n, h, s)

    @pytest.mark.parametrize("h", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_roundtrip_over_all_independent_subsets(self, n, h):
        g = power_path(n, h)
        for s in enumerate_independent(g):
            idx = counting.subset_to_indices(n, h, s)
            assert counting.indices_to_subset(n, h, idx) == s

    @given(st.data())
    def test_forward_images_independent_and_invertible(self, data):
        n = data.draw(st.integers(0, 12))
        h = data.draw(st.integers(0, 3))
        k_max = (n + h) // (h + 1)
        k = data.draw(st.integers(0, k_max))
        upper = n - h * k + h
        indices = sorted(data.draw(
            st.sets(st.integers(1, max(upper, 1)), min_size=k, max_size=k)
        )) if upper >= k else []
        image = counting.indices_to_subset(n, h, indices)
        assert is_independent(power_path(n, h), image)
        assert counting.subset_to_indices(n, h, image) == indices


class TestContainingVertex:
    def test_size_one_is_unique(self):
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert counting.path_count_k_containing(n, 2, 1, i) == 1

    def test_frozen_examples(self):
        assert counting.path_count_k_containing(5, 1, 2, 1) == 3
        assert counting.path_count_k_containing(5, 1, 2, 3) == 2

    def test_k_zero_and_bad_vertex(self):
        assert counting.path_count_k_containing(5, 1, 0, 2) == 0
        with pytest.raises(ValueError):
            counting.path_count_k_containing(5, 1, 2, 0)
        with pytest.raises(ValueError):
            counting.path_count_k_containing(5, 1, 2, 6)

    @pytest.mark.parametrize("h", range(0, 3))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_brute_force(self, n, h):
        sets = brute_independent_sets(n, h, cyclic=False)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                want = sum(1 for s in sets if len(s) == k and i in s)
                assert counting.path_count_k_containing(n, h, k, i) == want


class TestEdgeCounts:
    def test_path_examples(self):
        assert counting.path_hasse_edges(0, 2) == 0
        assert counting.path_hasse_edges(3, 1) == 5
        assert counting.path_hasse_edges(5, 2) == 11

    def test_conv_examples(self):
        assert counting.path_hasse_edges_conv(3, 1) == 5
        assert counting.path_hasse_edges_conv(5, 2) == 11
        for n in range(1, 10):
            assert counting.path_hasse_edges_conv(n, 0) == n * 2 ** (n - 1)

    @pytest.mark.parametrize("h", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 10))
    def test_against_brute_force_covers(self, n, h):
        want = brute_cover_count(brute_independent_sets(n, h, cyclic=False))
        assert counting.path_hasse_edges(n, h) == want
        assert counting.path_hasse_edges_conv(n, h) == want


class TestHFib:
    def test_prefixes(self):
        assert counting.hfib(0, 5).terms == (1, 2, 4, 8, 16)
        assert counting.hfib(1, 6).terms == (1, 1, 2, 3, 5, 8)
        assert counting.hfib(2, 6).terms == (1, 1, 1, 2, 3, 4)

    def test_term_access(self):
        seq = counting.hfib(1, 10)
        assert seq.term(1) == 1 and seq.term(10) == 55
        with pytest.raises(ValueError):
            seq.term(0)
        with pytest.raises(ValueError):
            seq.term(11)

    def test_matches_clamped_path_totals(self):
        for h in range(5):
            seq = counting.hfib(h, 40)
            for i in range(1, 41):
                assert seq.term(i) == counting.path_count_clamped(i - h - 1, h)

    def test_convolution(self):
        assert counting.convolve_self(counting.hfib(1, 5), 0) == 0
        assert counting.convolve_self(counting.hfib(1, 3), 3) == 5
        assert counting.convolve_self(counting.hfib(2, 5), 5) == 11

    def test_convolution_needs_enough_terms(self):
        with pytest.raises(ValueError):
            counting.convolve_self(counting.hfib(1, 3), 4)


class TestCycleCounts:
    def test_k_small(self):
        for n in range(7):
            for h in range(4):
                assert counting.cycle_count_k(n, h, 0) == 1
                assert counting.cycle_count_k(n, h, 1) == n

    def test_frozen_examples(self):
        assert counting.cycle_count_k(5, 1, 2) == 5
        assert counting.cycle_count_k(7, 2, 2) == 7
        assert counting.cycle_count(5, 1) == 11
        assert counting.cycle_count(7, 2) == 15
        assert counting.cycle_count(3, 2) == 4

    def test_recurrence_examples(self):
        assert counting.cycle_count_rec(4, 2) == 5
        assert counting.cycle_count_rec(6, 2) == 10
        assert counting.cycle_count_rec(7, 1) == 29

    def test_recurrence_agrees_with_sum(self):
        for h in range(6):
            for n in range(120):
                assert counting.cycle_count_rec(n, h) == counting.cycle_count(n, h)

    @pytest.mark.parametrize("h", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_against_brute_force(self, n, h):
        sets = brute_independent_sets(n, h, cyclic=True)
        hist = brute_histogram(sets)
        assert counting.cycle_count(n, h) == len(sets)
        for k in range(n + 2):
            assert counting.cycle_count_k(n, h, k) == hist.get(k, 0)

    def test_divisibility_holds_widely(self):
        for h in range(6):
            for n in range(150):
                for k in range(2, n + 2):
                    assert (n * counting.binom(n - h * k - 1, k - 1)) % k == 0

    def test_divisibility_failure_is_loud(self, monkeypatch):
        # A broken binomial must surface as an error, not a rounded count.
        monkeypatch.setattr(counting, "binom", lambda m, k: 3)
        with pytest.raises(ArithmeticError):
            counting.cycle_count_k(5, 1, 2)


class TestCycleEdges:
    def test_sum_examples(self):
        assert counting.cycle_hasse_edges(0, 1) == 0
        assert counting.cycle_hasse_edges(5, 1) == 15
        assert counting.cycle_hasse_edges(7, 2) == 21

    def test_closed_examples(self):
        assert counting.cycle_hasse_edges_closed(5, 1) == 15
        assert counting.cycle_hasse_edges_closed(7, 2) == 21
        assert counting.cycle_hasse_edges_closed(3, 2) == 3

    def test_closed_extension_below_order(self):
        # complete cycle powers: poset is the empty set plus n singletons
        for h in range(1, 5):
            for n in range(0, h + 1):
                assert counting.cycle_hasse_edges_closed(n, h) == n
                assert counting.cycle_hasse_edges(n, h) == n if n else True

    @pytest.mark.parametrize("h", range(0, 4))
    @pytest.mark.parametrize("n", range(0, 10))
    def test_against_brute_force_covers(self, n, h):
        want = brute_cover_count(brute_independent_sets(n, h, cyclic=True))
        assert counting.cycle_hasse_edges(n, h) == want
        assert counting.cycle_hasse_edges_closed(n, h) == want


class TestClassicSequences:
    def test_seeds(self):
        assert counting.fibonacci(1) == 1
        assert counting.fibonacci(2) == 1
        assert counting.fibonacci(7) == 13
        assert counting.lucas(1) == 1
        assert counting.lucas(2) == 3
        assert counting.lucas(7) == 29

    def test_rejects_index_zero(self):
        with pytest.raises(ValueError):
            counting.fibonacci(0)
        with pytest.raises(ValueError):
            counting.lucas(0)

    def test_order_one_identities(self):
        for n in range(0, 60):
            assert counting.path_count(n, 1) == counting.fibonacci(n + 2)
        for n in range(2, 60):
            assert counting.cycle_count(n, 1) == counting.lucas(n)
            assert counting.cycle_hasse_edges(n, 1) == n * counting.fibonacci(n - 1)

    def test_order_reduction_identity(self):
        for h in range(1, 5):
            for n in range(0, 30):
                for k in range(0, n + 1):
                    assert counting.path_count_k(n, h, k) == counting.path_count_k(
                        n - k + 1, h - 1, k
                    )


@pytest.mark.parametrize(
    "name", ["path_count", "cycle_count", "path_hasse_edges", "cycle_hasse_edges"]
)
@pytest.mark.parametrize("n, h", [(-1, 1), (-5, 0), (4, -1)])
def test_sums_reject_negative_input(name, n, h):
    with pytest.raises(ValueError):
        getattr(counting, name)(n, h)


class TestRecurrenceRows:
    """The one-pass rows that `table` and `seq` print, against the closed sums."""

    @pytest.mark.parametrize("h", range(0, 7))
    def test_path_rows(self, h):
        rows = counting._rows("path", h)
        for n in range(301):
            assert next(rows) == (counting.path_count(n, h), counting.path_hasse_edges(n, h))

    @pytest.mark.parametrize("h", range(0, 7))
    def test_cycle_rows(self, h):
        rows = counting._rows("cycle", h)
        for n in range(301):
            assert next(rows) == (counting.cycle_count(n, h), counting.cycle_hasse_edges(n, h))

    def test_no_retained_memory(self):
        # Nothing outlives a call: no cache keeps the big integers it made.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counting.path_count_rec(20000, 1)
            counting.hfib(1, 20000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024
