"""Exact counting of independent subsets of path and cycle powers.

Everything here is closed-form or recurrence arithmetic on plain Python
integers (arbitrary precision), mirroring what the brute-force enumerator in
:mod:`indcubes.graphs` produces by exhaustion. Each count has at least two
independent routes (formula vs. recurrence, weighted sum vs. convolution)
so they can be cross-checked against each other and against the enumerator.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from . import _negative

if TYPE_CHECKING:  # `table` and `seq` do not load graphs; indices_to_subset reads it when called
    from .graphs import VertexSubset


_comb = math.comb  # the one binomial primitive: `binom` and the sums read it


def binom(m: int, k: int) -> int:
    """Binomial coefficient with zero conventions.

    Returns 0 for k < 0, m < 0, or k > m, so every displayed sum over k can
    be evaluated verbatim without guarding its bounds.
    """
    return _comb(m, k) if 0 <= k <= m else 0


def path_count_k(n: int, h: int, k: int) -> int:
    """Number of independent k-subsets of the h-power of an n-path."""
    if n < 0 or h < 0 or k < 0:
        raise _negative(n=n, h=h, k=k)
    return binom(n - h * k + h, k)


def path_count_k_clamped(n: int, h: int, k: int) -> int:
    """path_count_k with n clamped below at 0 (so n may be any integer)."""
    return path_count_k(max(n, 0), h, k)


def _max_size(n: int, h: int) -> int:
    """Largest k with a nonzero path count p_k(n, h); cycle counts vanish
    beyond it too."""
    return (n + h) // (h + 1)


def _path_column(n: int, h: int) -> Iterator[int]:
    """p_k(n, h) = C(n - hk + h, k) for k = 0.._max_size(n, h), by mapping
    `_comb` over the tops n + h, n, n - h, ... (all n when h = 0) and the
    sizes, which end the map; every argument pair is in range."""
    if n < 0 or h < 0:
        raise _negative(n=n, h=h)
    return map(_comb, itertools.count(n + h, -h), range(_max_size(n, h) + 1))


def _indivisible(n: int, h: int, k: int, numerator: int) -> ArithmeticError:
    """The error for a cycle count c_k(n, h) whose numerator k does not divide."""
    return ArithmeticError(
        f"divisibility invariant violated: {k} does not divide {numerator} "
        f"(n={n}, h={h}, k={k})"
    )


def _cycle_column(n: int, h: int) -> Iterator[int]:
    """c_k(n, h) for k = 0..n // (h + 1), as `cycle_count_k` gives them: 1,
    n, then n * C(n - hk - 1, k - 1) / k, divided by `divmod` over the whole
    column and checked for a remainder at once. The range of sizes ends the
    column: beyond n // (h + 1) every c_k is 0."""
    if n < 0 or h < 0:
        raise _negative(n=n, h=h)
    tops = itertools.count(n - 2 * h - 1, -h)
    numerators = map(operator.mul, itertools.repeat(n), map(_comb, tops, range(1, n // (h + 1))))
    pairs = list(map(divmod, numerators, itertools.count(2)))
    if any(map(operator.itemgetter(1), pairs)):
        k, (q, r) = next((k, qr) for k, qr in enumerate(pairs, 2) if qr[1])
        raise _indivisible(n, h, k, q * k + r)
    return itertools.chain((1, n), map(operator.itemgetter(0), pairs))


def path_count(n: int, h: int) -> int:
    """Total number of independent subsets of the h-power of an n-path."""
    return sum(_path_column(n, h))


def path_count_clamped(n: int, h: int) -> int:
    """path_count with n clamped below at 0."""
    return path_count(max(n, 0), h)


def _nth(terms: Iterator[Any], n: int, h: int) -> Any:
    """Term n (0-based) of an endless, lazy stream of order h, once the
    single-term views' one check passes: nothing of the stream runs first."""
    if n < 0 or h < 0:
        raise _negative(n=n, h=h)
    return next(itertools.islice(terms, n, None))


def _rows(family: str, h: int) -> Iterator[tuple[int, int]]:
    """(total, cover edges) for n = 0, 1, 2, ... in one pass: (n + 1, n)
    while the power is complete (n <= h + 1 for the path, n <= 2h + 1 for the
    cycle), then row(n) = row(n-1) + (t, e + t) with (t, e) = row(n-h-1), the
    first two coefficients of C_n(x) = C_(n-1)(x) + (1 + x) C_(n-h-1)(x).

    Only the last h + 1 rows are kept, in a ring whose slot i holds the
    oldest one, row(n-h-1), and slot i - 1 the newest, row(n-1); the slots
    come round by `itertools.cycle`. The ring is built after the head, so
    memory follows the rows asked for, not h.
    """
    last = h + 1 if family == "path" else 2 * h + 1
    yield from zip(itertools.count(1), range(last + 1))
    ring = [(n + 1, n) for n in range(last - h, last + 1)]
    for i in itertools.cycle(range(h + 1)):
        (total, edges), (t, e) = ring[i - 1], ring[i]
        ring[i] = row = (total + t, edges + e + t)
        yield row


def path_count_rec(n: int, h: int) -> int:
    """Total path-power count by recurrence only: the total of `_rows` at n,
    a single-term view that walks the rows from 0 at O(n) cost per call."""
    return _nth(_rows("path", h), n, h)[0]


def cycle_count_rec(n: int, h: int) -> int:
    """Total cycle-power count by recurrence only: the total of `_rows` at n,
    a single-term view that walks the rows from 0 at O(n) cost per call."""
    return _nth(_rows("cycle", h), n, h)[0]


def indices_to_subset(n: int, h: int, indices: Sequence[int]) -> VertexSubset:
    """Map k packed indices to an independent k-subset of the path power.

    The j-th index is shifted up by (j-1)*h, turning strictly increasing
    indices within 1..n-h*k+h into vertices pairwise more than h apart.
    Inverse of :func:`subset_to_indices`.
    """
    if n < 0 or h < 0:
        raise _negative(n=n, h=h)
    from .graphs import VertexSubset
    return VertexSubset(_indices_to_mask(n, h, indices), n)


def _indices_to_mask(n: int, h: int, indices: Sequence[int]) -> int:
    """The mask of :func:`indices_to_subset`, with its index errors."""
    k = len(indices)
    upper = n - h * k + h
    bits = prev = 0
    shift = -1  # the j-th index (0-based) lands at bit idx + j*h - 1
    for idx in indices:
        if idx <= prev:
            raise ValueError(f"indices not strictly increasing at {idx}")
        if idx <= upper:  # past it the range error below is raised anyway
            bits |= 1 << (idx + shift)
        shift += h
        prev = idx
    if prev > upper:  # prev is the last index, and the first is >= 1
        raise ValueError(f"indices must lie in 1..{upper} for k={k}")
    return bits


def subset_to_indices(n: int, h: int, s: VertexSubset) -> list[int]:
    """Map an independent subset of the path power back to packed indices.

    The j-th vertex is shifted down by (j-1)*h. The indices increase strictly
    iff consecutive members are more than h apart, so any other subset is
    rejected as not independent; independent ones land in 1..n-h*k+h.
    """
    if s.n != n:
        raise ValueError(f"subset width {s.n} != n={n}")
    if h < 0:
        raise _negative(h=h)
    return _mask_to_indices(h, s.bits)


def _mask_to_indices(h: int, bits: int) -> list[int]:
    """The indices of :func:`subset_to_indices`, with its independence error."""
    indices, m = [], bits
    prev = shift = 0  # the j-th member (0-based) v gives index v - j*h
    while m:
        low = m & -m
        idx = low.bit_length() - shift
        if idx <= prev:
            raise ValueError("subset is not independent in the path power")
        indices.append(idx)
        prev = idx
        shift += h
        m ^= low
    return indices


def path_count_k_containing(n: int, h: int, k: int, i: int) -> int:
    """Number of independent k-subsets of the path power containing v_i.

    Splits the k-1 remaining members between the vertices left of v_i-h and
    right of v_i+h; k = 0 gives 0 since the empty subset contains nothing.
    """
    if not 1 <= i <= n:
        raise ValueError(f"vertex index {i} outside 1..{n}")
    if k < 0 or h < 0:
        raise _negative(h=h, k=k)
    return sum(
        path_count_k_clamped(i - h - 1, h, r) * path_count_k_clamped(n - i - h, h, k - 1 - r)
        for r in range(k)
    )


def path_hasse_edges(n: int, h: int) -> int:
    """Cover-edge count of the path-power independence poset: each k-subset
    covers exactly k subsets one element smaller, so sum k times the counts."""
    return sum(map(operator.mul, itertools.count(), _path_column(n, h)))


def _hfib_terms(h: int) -> Iterator[int]:
    """The endless order-h sequence t_1, t_2, ...: h ones, then the path
    totals, t_i = p(i - h - 1)."""
    return itertools.chain(itertools.repeat(1, h), map(operator.itemgetter(0), _rows("path", h)))


def hfib(h: int, length: int) -> tuple[int, ...]:
    """First `length` terms t_1..t_length of the order-h sequence, an
    `islice` of the endless `_hfib_terms`."""
    if h < 0 or length < 0:
        raise _negative(h=h, length=length)
    return tuple(itertools.islice(_hfib_terms(h), length))


def convolve_self(terms: Sequence[int], n: int) -> int:
    """Self-convolution at n: sum of t_i * t_(n-i+1) for i = 1..n, as one
    `map` of products over the first n terms and their reverse."""
    if n < 0:
        raise _negative(n=n)
    if len(terms) < n:
        raise ValueError(f"need {n} terms, have {len(terms)}")
    t = terms[:n]
    return sum(map(operator.mul, t, reversed(t)))


def path_hasse_edges_conv(n: int, h: int) -> int:
    """Cover-edge count again, this time as the self-convolution of the
    order-h sequence; agrees with path_hasse_edges everywhere. A single-term
    view: it builds the first n terms afresh, O(n) per call."""
    if n < 0 or h < 0:
        raise _negative(n=n, h=h)
    return convolve_self(hfib(h, n), n)


def cycle_count_k(n: int, h: int, k: int) -> int:
    """Number of independent k-subsets of the h-power of an n-cycle.

    For k >= 2 this is n * C(n - h*k - 1, k - 1) / k; the product is always
    divisible by k when the formula applies, so a remainder means the formula
    was fed arguments it cannot count and we fail loudly rather than round.
    """
    if n < 0 or h < 0 or k < 0:
        raise _negative(n=n, h=h, k=k)
    if k == 0:
        return 1
    if k == 1:
        return n
    numerator = n * binom(n - h * k - 1, k - 1)
    quotient, remainder = divmod(numerator, k)
    if remainder:
        raise _indivisible(n, h, k, numerator)
    return quotient


def cycle_count(n: int, h: int) -> int:
    """Total number of independent subsets of the h-power of an n-cycle."""
    return sum(_cycle_column(n, h))


def cycle_hasse_edges(n: int, h: int) -> int:
    """Cover-edge count of the cycle-power independence poset, as the
    k-weighted sum of the per-size counts."""
    return sum(map(operator.mul, itertools.count(), _cycle_column(n, h)))


def _cycle_edges_closed(h: int) -> Iterator[int]:
    """The closed form n * t(n - h) for n = 0, 1, 2, ...: n times the
    order-h sequence read with h + 1 ones in front of it.

    The closed form needs n > h; for 1 <= n <= h the cycle power is complete,
    its poset has exactly n cover edges, and the leading ones give n there,
    so the stream equals the cycle edge counts everywhere. n = 0 gives 0.
    """
    terms = itertools.chain(itertools.repeat(1, h + 1), _hfib_terms(h))
    return map(operator.mul, itertools.count(), terms)


def cycle_hasse_edges_closed(n: int, h: int) -> int:
    """Closed form for the cycle cover-edge count: n times the order-h
    sequence term at n - h, term n of `_cycle_edges_closed`. A single-term
    view that walks the stream from 0 at O(n) cost per call."""
    return _nth(_cycle_edges_closed(h), n, h)


def _two_term(a: int, b: int, n: int, name: str) -> int:
    """Term n >= 1 of the sequence `name`: t_1 = a, t_2 = b, t_i = t_(i-1) + t_(i-2)."""
    if n < 1:
        raise ValueError(f"{name} index starts at 1")
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def fibonacci(n: int) -> int:
    """Classic Fibonacci number, 1-based with F_1 = F_2 = 1."""
    return _two_term(1, 1, n, "Fibonacci")


def lucas(n: int) -> int:
    """Lucas number, 1-based with L_1 = 1, L_2 = 3."""
    return _two_term(1, 3, n, "Lucas")
