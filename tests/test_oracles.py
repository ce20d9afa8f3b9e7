"""Routes from outside the package: networkx builds the power graphs and
finds their independent sets, and sympy expands the paper's generating
functions. Neither library is a declared dependency, so each test skips
cleanly when its library is missing."""

from collections import Counter

import pytest

from indcubes import counting
from indcubes.graphs import power_cycle, power_path


@pytest.fixture
def nx():
    return pytest.importorskip("networkx")


@pytest.fixture
def sp():
    return pytest.importorskip("sympy")


def _rows(g) -> list[int]:
    """The adjacency rows of a networkx graph on 0..n-1, as bitmasks."""
    return [sum(1 << j for j in g[i]) for i in range(g.number_of_nodes())]


@pytest.mark.parametrize("h", range(1, 8))
def test_networkx_power_graphs(nx, h):
    # nx.power rejects h = 0, and cycle_graph(1) has a self-loop
    for n in range(41):
        assert _rows(nx.power(nx.path_graph(n), h)) == list(power_path(n, h).adj), n
    for n in range(2, 41):
        assert _rows(nx.power(nx.cycle_graph(n), h)) == list(power_cycle(n, h).adj), n


@pytest.mark.parametrize("h", range(5))
def test_networkx_independent_sets_are_cliques_of_the_complement(nx, h):
    families = (
        (nx.path_graph, counting.path_count, counting.path_count_k),
        (nx.cycle_graph, counting.cycle_count, counting.cycle_count_k),
    )
    for build, total, by_size in families:
        for n in range(13):
            g = nx.power(build(n), h) if h else nx.empty_graph(n)
            sizes = Counter(map(len, nx.enumerate_all_cliques(nx.complement(g))))
            sizes[0] += 1  # the empty set, which enumerate_all_cliques skips
            assert [sizes[k] for k in range(n + 1)] == [by_size(n, h, k) for k in range(n + 1)], n
            assert sum(sizes.values()) == total(n, h), n


#: Σ_n Σ_k p_k(n, h) y^k x^n is (1 + y(x + ... + x^h)) / D for the path and
#: -x ∂_x D / D for the cycle (n ≥ h + 1), with D = 1 - x - y x^(h+1). At
#: y = 1 a coefficient is the total, and its y-derivative there counts the
#: Hasse edges, one per (set, member) pair. n stops at 16 to keep this short.
SERIES_N_MAX = 16


def _series_counts(sp, h, cycle):
    """[(total, edges)] for n = 0..SERIES_N_MAX, read off the series."""
    x, y = sp.symbols("x y")
    d = 1 - x - y * x ** (h + 1)
    f = -x * sp.diff(d, x) / d if cycle else (1 + y * sum(x**j for j in range(1, h + 1))) / d
    poly = sp.series(f, x, 0, SERIES_N_MAX + 1).removeO()
    coefficients = (sp.expand(poly.coeff(x, n)) for n in range(SERIES_N_MAX + 1))
    return [(c.subs(y, 1), sp.diff(c, y).subs(y, 1)) for c in coefficients]


@pytest.mark.parametrize("h", range(4))
def test_sympy_path_generating_function(sp, h):
    for n, counts in enumerate(_series_counts(sp, h, cycle=False)):
        assert counts == (counting.path_count(n, h), counting.path_hasse_edges(n, h)), n


@pytest.mark.parametrize("h", range(4))
def test_sympy_cycle_generating_function(sp, h):
    for n, counts in enumerate(_series_counts(sp, h, cycle=True)):
        if n >= h + 1:
            assert counts == (counting.cycle_count(n, h), counting.cycle_hasse_edges(n, h)), n
