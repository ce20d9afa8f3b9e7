import tracemalloc
from functools import partial
from itertools import combinations, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from indcubes import counting, cubes, graphs, verify
from indcubes.graphs import (
    CapacityError,
    SimpleGraph,
    VertexSubset,
    enumerate_independent,
    is_independent,
    power_path,
)

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

    def test_matches_pascal_rows(self):
        # every C(m, k), k <= m <= 401: each cell the divisibility sweep at
        # default bounds (h <= 4, n <= 400) could ask for
        row = [1]
        for m in range(402):
            assert [counting.binom(m, k) for k in range(m + 1)] == row, f"m={m}"
            row = [a + b for a, b in zip([0, *row], [*row, 0])]

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

    @pytest.mark.parametrize("n", [-3, 0, 5])
    def test_clamped_rejects_negative_order_and_size(self, n):
        with pytest.raises(ValueError):
            counting.path_count_clamped(n, -1)
        with pytest.raises(ValueError):
            counting.path_count_k_clamped(n, -1, 1)
        with pytest.raises(ValueError):
            counting.path_count_k_clamped(n, 1, -1)

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
        assert counting.subset_to_indices(5, 2, VertexSubset.from_string("10010")) == [1, 2]
        assert counting.subset_to_indices(6, 1, VertexSubset(0, 6)) == []
        assert counting.subset_to_indices(7, 1, VertexSubset.from_string("1001001")) == [1, 3, 5]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            counting.indices_to_subset(5, 2, [2, 2])
        with pytest.raises(ValueError):
            counting.indices_to_subset(5, 2, [0, 1])
        with pytest.raises(ValueError):
            counting.indices_to_subset(5, 2, [1, 4])  # 4 > 5 - 2*2 + 2

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: counting.indices_to_subset(5, 2, [2, 2]), "indices not strictly increasing at 2"),
            (lambda: counting.indices_to_subset(5, 2, [0, 1]), "indices not strictly increasing at 0"),
            (lambda: counting.indices_to_subset(5, 2, [1, 4]), "indices must lie in 1..3 for k=2"),
            (lambda: counting.indices_to_subset(6, 1, [1, 7]), "indices must lie in 1..5 for k=2"),
            pytest.param(  # order is checked over all indices before the range
                lambda: counting.indices_to_subset(5, 2, [9, 2]),
                "indices not strictly increasing at 2",
                id="order-before-range",
            ),
            pytest.param(  # an index far out of range is reported, not shifted into a mask
                lambda: counting.indices_to_subset(5, 0, [1, 10**12]),
                "indices must lie in 1..5 for k=2",
                id="huge-index",
            ),
            (
                lambda: counting.subset_to_indices(5, 2, VertexSubset.from_string("10100")),
                "subset is not independent in the path power",
            ),
            (lambda: counting.subset_to_indices(5, 1, VertexSubset(0, 4)), "subset width 4 != n=5"),
            (
                lambda: counting.subset_to_indices(3, -1, VertexSubset(0, 3)),
                "h must be nonnegative (got h=-1)",
            ),
            (lambda: counting.path_count_k(3, -1, 2), "n, h, k must be nonnegative (got n=3, h=-1, k=2)"),
            (lambda: counting.cycle_count(-4, 1), "n, h must be nonnegative (got n=-4, h=1)"),
            *(  # each column checks its own arguments; unchecked, path_count(-1, 1) is 1
                pytest.param(
                    partial(count, n, h),
                    f"n, h must be nonnegative (got n={n}, h={h})",
                    id=f"{count.__name__}({n}, {h})",
                )
                for count in (
                    counting.path_count,
                    counting.path_hasse_edges,
                    counting.cycle_count,
                    counting.cycle_hasse_edges,
                )
                for n, h in ((-1, 1), (3, -1))
            ),
            (lambda: counting.hfib(2, -1), "h, length must be nonnegative (got h=2, length=-1)"),
            (lambda: counting.convolve_self([1, 1], -1), "n must be nonnegative (got n=-1)"),
            (lambda: counting.convolve_self([1, 1], 3), "need 3 terms, have 2"),
            (
                lambda: counting.path_count_k_containing(5, 1, -2, 3),
                "h, k must be nonnegative (got h=1, k=-2)",
            ),
            (lambda: power_path(5, -1), "n, h must be nonnegative (got n=5, h=-1)"),
            (lambda: cubes.fibonacci_cube(-1), "n must be nonnegative (got n=-1)"),
            (lambda: cubes.power_patterns(0), "h must be at least 1 (got h=0)"),
            (lambda: power_path(3, 1).degree(4), "vertex 4 outside 1..3"),
            (
                lambda: verify.run_all(h_max=2, n_max_formula=-1, n_max_oracle=5),
                "h_max, n_max_formula, n_max_oracle must be nonnegative"
                " (got h_max=2, n_max_formula=-1, n_max_oracle=5)",
            ),
        ],
    )
    def test_error_messages(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

    def test_capacity(self):
        with pytest.raises(CapacityError):
            counting.indices_to_subset(65, 0, [1])
        assert counting.indices_to_subset(64, 0, [64]).vertices() == (64,)

    def test_rejects_dependent_subset(self):
        with pytest.raises(ValueError):
            counting.subset_to_indices(5, 2, VertexSubset.from_string("10100"))
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


def _outcome(route, *args):
    """route(*args), or the type and text of the ValueError it raises."""
    try:
        return route(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def graphs_with_masks(draw):
    """A SimpleGraph on at most 10 vertices with an arbitrary edge set, and
    any mask of its width."""
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph.from_edges(n, edges), draw(st.integers(0, (1 << n) - 1))


@st.composite
def index_map_inputs(draw):
    """(n, h, mask, indices) on the h-power of a path of at most 10 vertices:
    the mask independent or not, the indices valid or not."""
    n, h = draw(st.integers(0, 10)), draw(st.integers(0, 4))
    independent = graphs._independent_masks(power_path(n, h))
    mask = draw(st.sampled_from(independent) | st.integers(0, (1 << n) - 1))
    size = st.integers(0, counting._max_size(n, h) + 1)
    increasing = size.flatmap(
        lambda k: st.lists(st.integers(1, n + 2), min_size=k, max_size=k, unique=True).map(sorted)
    )
    indices = draw(increasing | st.lists(st.integers(-1, n + 2), max_size=n + 1))
    return n, h, mask, indices


class TestMaskCores:
    """Each public subset route is its private mask core plus its argument
    checks: the same answers and the same errors."""

    @given(graphs_with_masks())
    def test_is_independent_wraps_its_core(self, graph_and_mask):
        g, m = graph_and_mask
        assert is_independent(g, VertexSubset(m, g.n)) is graphs._is_independent_mask(g.adj, m)

    @given(index_map_inputs())
    def test_index_maps_wrap_their_cores(self, inputs):
        n, h, m, indices = inputs
        wrapped = _outcome(counting.subset_to_indices, n, h, VertexSubset(m, n))
        assert wrapped == _outcome(counting._mask_to_indices, h, m)
        core = _outcome(counting._indices_to_mask, n, h, indices)
        wrapped = _outcome(counting.indices_to_subset, n, h, indices)
        assert wrapped == (VertexSubset(core, n) if isinstance(core, int) else core)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: counting._indices_to_mask(5, 2, [2, 2]), "indices not strictly increasing at 2"),
            (lambda: counting.indices_to_subset(5, 2, [2, 2]), "indices not strictly increasing at 2"),
            (lambda: counting._indices_to_mask(5, 2, [9, 2]), "indices not strictly increasing at 2"),
            (lambda: counting._indices_to_mask(5, 2, [1, 4]), "indices must lie in 1..3 for k=2"),
            (lambda: counting.indices_to_subset(5, 2, [1, 4]), "indices must lie in 1..3 for k=2"),
            (
                lambda: counting._mask_to_indices(2, 0b00101),
                "subset is not independent in the path power",
            ),
            (
                lambda: counting.subset_to_indices(5, 2, VertexSubset(0b00101, 5)),
                "subset is not independent in the path power",
            ),
            (lambda: counting.subset_to_indices(5, 1, VertexSubset(0, 4)), "subset width 4 != n=5"),
            (
                lambda: is_independent(power_path(5, 1), VertexSubset(0, 4)),
                "subset width 4 != graph order 5",
            ),
        ],
    )
    def test_error_messages_are_unchanged(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


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
        assert counting.hfib(0, 5) == (1, 2, 4, 8, 16)
        assert counting.hfib(1, 6) == (1, 1, 2, 3, 5, 8)
        assert counting.hfib(2, 6) == (1, 1, 1, 2, 3, 4)
        assert counting.hfib(1, 0) == ()

    def test_matches_clamped_path_totals(self):
        for h in range(5):
            for length in (0, 1, h + 1, 40):
                terms = counting.hfib(h, length)
                assert type(terms) is tuple
                assert terms == tuple(islice(counting._hfib_terms(h), length))
                for i, term in enumerate(terms, 1):
                    assert term == counting.path_count_clamped(i - h - 1, h)

    def test_convolution(self):
        assert counting.convolve_self(counting.hfib(1, 5), 0) == 0
        assert counting.convolve_self(counting.hfib(1, 3), 3) == 5
        assert counting.convolve_self(counting.hfib(2, 5), 5) == 11
        # any sequence of terms convolves alike: a list, a tuple, hfib's result
        for h in range(5):
            terms = counting.hfib(h, 30)
            for n in range(31):
                want = counting.path_hasse_edges(n, h)
                for given_terms in (list(terms), tuple(terms), terms):
                    assert counting.convolve_self(given_terms, n) == want

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


def _per_k_sums(count_k, n, h):
    """(total, edges) as the per-size counts give them, one call per k."""
    counts = [count_k(n, h, k) for k in range(counting._max_size(n, h) + 1)]
    return sum(counts), sum(k * c for k, c in enumerate(counts))


class TestMappedSums:
    """The sums that map the binomial primitive over a column equal the
    per-k evaluation, h = 0 and the small-n heads included; TestRecurrenceRows
    compares the same sums with the rows of `_rows`."""

    @pytest.mark.parametrize("h", range(0, 7))
    def test_sums_equal_per_k_sums(self, h):
        for n in range(300):
            assert (counting.path_count(n, h), counting.path_hasse_edges(n, h)) == _per_k_sums(
                counting.path_count_k, n, h
            )
            assert (counting.cycle_count(n, h), counting.cycle_hasse_edges(n, h)) == _per_k_sums(
                counting.cycle_count_k, n, h
            )

    @pytest.mark.parametrize("h", range(0, 7))
    def test_convolution_equals_pairwise_sum(self, h):
        t = counting.hfib(h, 300)
        for n in range(301):
            assert counting.convolve_self(t, n) == sum(t[i] * t[n - 1 - i] for i in range(n))


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
            counting.cycle_hasse_edges_closed(20000, 1)
            counting.cycle_count_rec(20000, 2)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024

    @staticmethod
    def _peak(fn):
        """Peak bytes traced while fn runs."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "fn",
        [
            lambda: list(zip(range(3), counting._rows("path", 200_000))),
            lambda: counting.cycle_count_rec(5, 200_000),
            lambda: counting.hfib(10**6, 3),
            lambda: counting.cycle_hasse_edges_closed(10**6 + 3, 10**6),
        ],
        ids=["rows-head", "cycle-rec-head", "hfib-prefix", "closed-edges-head"],
    )
    def test_memory_follows_rows_asked_for_not_h(self, fn):
        # A few leading terms of a huge order must not allocate O(h).
        assert self._peak(fn) < 64 * 1024

    def test_closed_cycle_edges_do_not_read_cycle_rows(self, monkeypatch):
        real = counting._rows

        def path_only(family, h):
            if family == "cycle":
                raise AssertionError("closed form read the cycle rows")
            return real(family, h)

        monkeypatch.setattr(counting, "_rows", path_only)
        assert counting.cycle_hasse_edges_closed(7, 2) == 21
        assert counting.cycle_hasse_edges_closed(3, 2) == 3
