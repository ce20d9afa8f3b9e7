"""Exact counting of independent subsets of path and cycle powers.

Everything here is closed-form or recurrence arithmetic on plain Python
integers (arbitrary precision), mirroring what the brute-force enumerator in
:mod:`indcubes.graphs` produces by exhaustion. Each count has at least two
independent routes (formula vs. recurrence, weighted sum vs. convolution)
so they can be cross-checked against each other and against the enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from .graphs import VertexSubset


def binom(m: int, k: int) -> int:
    """Binomial coefficient with zero conventions.

    Returns 0 for k < 0, m < 0, or k > m, so every displayed sum over k can
    be evaluated verbatim without guarding its bounds.
    """
    if k < 0 or m < 0 or k > m:
        return 0
    return math.comb(m, k)


def path_count_k(n: int, h: int, k: int) -> int:
    """Number of independent k-subsets of the h-power of an n-path."""
    if n < 0 or h < 0 or k < 0:
        raise ValueError("n, h, k must be nonnegative")
    return binom(n - h * k + h, k)


def path_count_k_clamped(n: int, h: int, k: int) -> int:
    """path_count_k with n clamped below at 0 (so n may be any integer)."""
    if h < 0 or k < 0:
        raise ValueError("h, k must be nonnegative")
    return path_count_k(max(n, 0), h, k)


def _max_size(n: int, h: int) -> int:
    """Largest k with a nonzero path count p_k(n, h); cycle counts vanish
    beyond it too."""
    return (n + h) // (h + 1)


def _weighted_sum(count_k: Callable[[int, int, int], int], n: int, h: int, w: int) -> int:
    """Sum of k^w * count_k(n, h, k) over k = 0.._max_size(n, h): w = 0
    gives the total, w = 1 the cover edges, since each k-subset covers
    exactly k subsets one element smaller."""
    if n < 0 or h < 0:
        raise ValueError("n, h must be nonnegative")
    return sum(k**w * count_k(n, h, k) for k in range(_max_size(n, h) + 1))


def path_count(n: int, h: int) -> int:
    """Total number of independent subsets of the h-power of an n-path."""
    return _weighted_sum(path_count_k, n, h, 0)


def path_count_clamped(n: int, h: int) -> int:
    """path_count with n clamped below at 0."""
    if h < 0:
        raise ValueError("h must be nonnegative")
    return path_count(max(n, 0), h)


def _recurrence(h: int, head: Sequence[int], addends: Iterator[int] | None = None) -> Iterator[int]:
    """Yield `head` (at least h + 1 terms), then a(m) = a(m-1) + a(m-h-1),
    plus the next of `addends` if given, forever.

    Only the last h + 1 terms are kept, in a ring whose slot i holds the
    oldest one, a(m-h-1), and slot i - 1 the newest, a(m-1).
    """
    window = list(head[-h - 1 :])
    yield from head
    i = 0
    while True:
        term = window[i - 1] + window[i]
        if addends is not None:
            term += next(addends)
        window[i] = term
        i = i + 1 if i < h else 0
        yield term


def _nth(terms: Iterator[Any], index: int) -> Any:
    """Term `index` (0-based) of an endless iterator."""
    for _, term in zip(range(index + 1), terms):
        pass
    return term


def path_count_rec(n: int, h: int) -> int:
    """Total path-power count by recurrence only: n + 1 up to n = h + 1,
    then each value is the sum of the values 1 and h + 1 steps back."""
    if n < 0 or h < 0:
        raise ValueError("n, h must be nonnegative")
    return _nth(_recurrence(h, range(1, h + 3)), n)


def cycle_count_rec(n: int, h: int) -> int:
    """Total cycle-power count by recurrence only: n + 1 up to n = 2h + 1,
    then the same two-term recurrence as the path case."""
    if n < 0 or h < 0:
        raise ValueError("n, h must be nonnegative")
    return _nth(_recurrence(h, range(1, 2 * h + 3)), n)


def indices_to_subset(n: int, h: int, indices: Sequence[int]) -> VertexSubset:
    """Map k packed indices to an independent k-subset of the path power.

    The j-th index is shifted up by (j-1)*h, turning strictly increasing
    indices within 1..n-h*k+h into vertices pairwise more than h apart.
    Inverse of :func:`subset_to_indices`.
    """
    if n < 0 or h < 0:
        raise ValueError("n, h must be nonnegative")
    k = len(indices)
    upper = n - h * k + h
    prev = 0
    for idx in indices:
        if idx <= prev:
            raise ValueError(f"indices not strictly increasing at {idx}")
        prev = idx
    if k and not (1 <= indices[0] and indices[-1] <= upper):
        raise ValueError(f"indices must lie in 1..{upper} for k={k}")
    vertices = [idx + j * h for j, idx in enumerate(indices)]
    return VertexSubset.from_vertices(vertices, n)


def subset_to_indices(n: int, h: int, s: VertexSubset) -> list[int]:
    """Map an independent subset of the path power back to packed indices.

    Rejects subsets that are not independent (two members at most h apart);
    on independent input the j-th
    vertex shifted down by (j-1)*h lands strictly increasing in 1..n-h*k+h.
    """
    if s.n != n:
        raise ValueError(f"subset width {s.n} != n={n}")
    if h < 0:
        raise ValueError("h must be nonnegative")
    vertices = s.vertices()
    if any(b - a <= h for a, b in zip(vertices, vertices[1:])):
        raise ValueError("subset is not independent in the path power")
    return [v - j * h for j, v in enumerate(vertices)]


def path_count_k_containing(n: int, h: int, k: int, i: int) -> int:
    """Number of independent k-subsets of the path power containing v_i.

    Splits the k-1 remaining members between the vertices left of v_i-h and
    right of v_i+h; k = 0 gives 0 since the empty subset contains nothing.
    """
    if not 1 <= i <= n:
        raise ValueError(f"vertex index {i} outside 1..{n}")
    if k < 0 or h < 0:
        raise ValueError("h, k must be nonnegative")
    return sum(
        path_count_k_clamped(i - h - 1, h, r) * path_count_k_clamped(n - i - h, h, k - 1 - r)
        for r in range(k)
    )


def path_hasse_edges(n: int, h: int) -> int:
    """Cover-edge count of the path-power independence poset: each k-subset
    covers exactly k subsets one element smaller, so sum k times the counts."""
    return _weighted_sum(path_count_k, n, h, 1)


@dataclass(frozen=True)
class HFibSequence:
    """Prefix of the order-h Fibonacci-like sequence: h+1 leading ones, then
    each term is the previous term plus the term h+1 positions back."""

    h: int
    terms: tuple[int, ...]

    def term(self, i: int) -> int:
        """1-based access."""
        if not 1 <= i <= len(self.terms):
            raise ValueError(f"index {i} outside 1..{len(self.terms)}")
        return self.terms[i - 1]

    def __len__(self) -> int:
        return len(self.terms)


def _hfib_terms(h: int) -> Iterator[int]:
    """The endless order-h sequence t_1, t_2, ...: h + 1 ones, then the recurrence."""
    return _recurrence(h, [1] * (h + 1))


def hfib(h: int, length: int) -> HFibSequence:
    """First `length` terms of the order-h sequence (1-based)."""
    if h < 0 or length < 0:
        raise ValueError("h and length must be nonnegative")
    return HFibSequence(h, tuple(t for _, t in zip(range(length), _hfib_terms(h))))


def convolve_self(seq: HFibSequence, n: int) -> int:
    """Self-convolution at n: sum of term(i) * term(n-i+1) for i = 1..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if len(seq.terms) < n:
        raise ValueError(f"need {n} terms, have {len(seq.terms)}")
    t = seq.terms
    return sum(t[i] * t[n - 1 - i] for i in range(n))


def path_hasse_edges_conv(n: int, h: int) -> int:
    """Cover-edge count again, this time as the self-convolution of the
    order-h sequence; agrees with path_hasse_edges everywhere."""
    if n < 0 or h < 0:
        raise ValueError("n, h must be nonnegative")
    return convolve_self(hfib(h, n), n)


def cycle_count_k(n: int, h: int, k: int) -> int:
    """Number of independent k-subsets of the h-power of an n-cycle.

    For k >= 2 this is n * C(n - h*k - 1, k - 1) / k; the product is always
    divisible by k when the formula applies, so a remainder means the formula
    was fed arguments it cannot count and we fail loudly rather than round.
    """
    if n < 0 or h < 0 or k < 0:
        raise ValueError("n, h, k must be nonnegative")
    if k == 0:
        return 1
    if k == 1:
        return n
    numerator = n * binom(n - h * k - 1, k - 1)
    quotient, remainder = divmod(numerator, k)
    if remainder:
        raise ArithmeticError(
            f"divisibility invariant violated: {k} does not divide {numerator} "
            f"(n={n}, h={h}, k={k})"
        )
    return quotient


def cycle_count(n: int, h: int) -> int:
    """Total number of independent subsets of the h-power of an n-cycle."""
    return _weighted_sum(cycle_count_k, n, h, 0)


def cycle_hasse_edges(n: int, h: int) -> int:
    """Cover-edge count of the cycle-power independence poset, as the
    k-weighted sum of the per-size counts."""
    return _weighted_sum(cycle_count_k, n, h, 1)


def _rows(family: str, h: int) -> Iterator[tuple[int, int]]:
    """(total, cover edges) for n = 0, 1, 2, ... in one pass, from the
    recurrences alone. Path edges follow e(n) = e(n-1) + e(n-h-1) + t_n with
    e(m) = 0 for m <= 0, t the order-h sequence; cycle edges are n * t_(n-h)."""
    t = _hfib_terms(h)
    if family == "path":
        edges = _recurrence(h, [0] * (h + 1), t)  # starts at e(-h)
        for _ in range(h):
            next(edges)
        yield from zip(_recurrence(h, range(1, h + 3)), edges)
    else:
        for n, total in enumerate(_recurrence(h, range(1, 2 * h + 3))):
            yield total, n if n <= h else n * next(t)


def cycle_hasse_edges_closed(n: int, h: int) -> int:
    """Closed form for the cycle cover-edge count: n times the order-h
    sequence term at n - h.

    The closed form needs n > h; for 1 <= n <= h the cycle power is complete,
    its poset has exactly n cover edges, and we return n so the function
    stays total and equal to cycle_hasse_edges everywhere. n = 0 gives 0.
    """
    if n < 0 or h < 0:
        raise ValueError("n, h must be nonnegative")
    return _nth(_rows("cycle", h), n)[1]


def fibonacci(n: int) -> int:
    """Classic Fibonacci number, 1-based with F_1 = F_2 = 1."""
    if n < 1:
        raise ValueError("Fibonacci index starts at 1")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """Lucas number, 1-based with L_1 = 1, L_2 = 3."""
    if n < 1:
        raise ValueError("Lucas index starts at 1")
    a, b = 1, 3
    for _ in range(n - 1):
        a, b = b, a + b
    return a
