"""Powers of paths and cycles, bitmask vertex subsets, and the exhaustive
independent-subset enumerator used to cross-check every counting formula."""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator

#: Hard cap for bitmask-backed graphs; the enumerator is only meant for desk
#: scale, so one adjacency row per vertex never needs more than 64 bits.
MAX_VERTICES = 64


class CapacityError(ValueError):
    """A construction exceeds its documented size limit."""


_set_field = object.__setattr__


class Record:
    """Base of the package's immutable value types. A subclass names its
    fields in __slots__ and sets them in its __init__ with _set_field.

    Records compare and hash by class and field values (never equal to a
    tuple), print as `Name(field=value, ...)`, refuse assignment and deletion,
    and pickle and copy by calling the class with their field values.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class VertexSubset(Record):
    """Subset of vertices v_1..v_n, stored as a bitmask.

    Bit i-1 is set iff v_i belongs to the subset, so the mask read from bit 0
    upward is the binary string b_1 b_2 ... b_n of the subset. Equal only to
    a VertexSubset with the same (bits, n).
    """

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int) -> None:
        if not 0 <= n <= MAX_VERTICES:
            raise CapacityError(f"subset width {n} outside 0..{MAX_VERTICES}")
        if bits < 0:
            raise ValueError(f"mask {bits} is negative")
        if bits >> n:
            raise ValueError(f"mask {bits:#x} has bits beyond position {n}")
        _set_field(self, "bits", bits)
        _set_field(self, "n", n)

    @classmethod
    def from_string(cls, s: str) -> "VertexSubset":
        """Build from a binary string b_1...b_n."""
        if set(s) - {"0", "1"}:
            raise ValueError(f"not a binary string: {s!r}")
        return cls(int(s[::-1] or "0", 2), len(s))

    def vertices(self) -> tuple[int, ...]:
        """Members as 1-based vertex numbers, ascending."""
        return tuple(j + 1 for j in _set_bits(self.bits))

    def to_string(self) -> str:
        """The binary string b_1...b_n (b_i = 1 iff v_i is a member)."""
        return _mask_string(self.bits, self.n)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, vertex: int) -> bool:
        return 1 <= vertex <= self.n and bool((self.bits >> (vertex - 1)) & 1)


class SimpleGraph(Record):
    """Undirected simple graph on vertices v_1..v_n with bitmask adjacency rows.

    adj[i] is the neighbor mask of v_{i+1}. Rows are plain ints, so derived
    graphs (e.g. cover graphs of posets) may have any number of vertices; the
    64-vertex cap applies only to the path/cycle builders and the enumerator.
    N vertices hold N rows of up to N bits, about N^2/16 bytes: 20 MB for the
    17,711 of fibonacci_cube(20), gigabytes for the 324,288 of
    generalized_cube(20, ["1001"]). Large cubes belong to export and the mask cores.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]) -> None:
        adj = tuple(adj)  # the graph keeps no reference to a caller's list
        if n < 0:
            raise _negative(n=n)
        if len(adj) != n:
            raise ValueError(f"adjacency length {len(adj)} does not match vertex count {n}")
        for i, row in enumerate(adj):
            if row < 0:
                raise ValueError(f"row {i} is negative: {row}")
            if row >> n:
                raise ValueError(f"row {i} has bits beyond position {n}")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at v_{i + 1}")
            for j in _set_bits(row):  # per set bit, so validation is O(edges), not O(n^2)
                if not ((adj[j] >> i) & 1):
                    raise ValueError(f"asymmetric adjacency between v_{i + 1}, v_{j + 1}")
        _set_field(self, "n", n)
        _set_field(self, "adj", adj)

    def degree(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"vertex {i} outside 1..{self.n}")
        return self.adj[i - 1].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as 1-based pairs (i, j), i < j, in ascending order."""
        for i, row in enumerate(self.adj):
            for j in _set_bits(row & ~((1 << (i + 1)) - 1)):
                yield (i + 1, j + 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build from 1-based endpoint pairs; duplicates collapse.

        Each edge is range- and loop-checked here, with its own message, and
        sets both of its bits; the rows then go to the validating __init__.
        """
        if n < 0:
            raise _negative(n=n)
        rows = [0] * n
        for i, j in edges:
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"bad edge ({i}, {j}) for n={n}")
            rows[i - 1] |= 1 << (j - 1)
            rows[j - 1] |= 1 << (i - 1)
        return cls(n, rows)


def _set_bits(m: int) -> list[int]:
    """The 0-based positions of the set bits of m, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def _negative(**values: int) -> ValueError:
    """The error for arguments that must be nonnegative, naming each value;
    callers compare inline and build it only on failure (hot paths)."""
    names = ", ".join(values)
    got = ", ".join(f"{name}={value}" for name, value in values.items())
    return ValueError(f"{names} must be nonnegative (got {got})")


def power_path(n: int, h: int) -> SimpleGraph:
    """Path power: v_i ~ v_j iff 0 < |j - i| <= h."""
    return _power(n, h, cyclic=False)


def power_cycle(n: int, h: int) -> SimpleGraph:
    """Cycle power: v_i ~ v_j iff |j - i| <= h or |j - i| >= n - h (i != j).

    Both conditions holding for a pair still yields a single edge; n = 1 has
    no edges and n = 2 with h >= 1 has exactly one.
    """
    return _power(n, h, cyclic=True)


def _power(n: int, h: int, cyclic: bool) -> SimpleGraph:
    """Row i is the window of 2h + 1 ones centred on bit i + n of three copies
    of the n bits, minus bit i, cut to n bits: the path keeps the middle copy and
    the cycle ORs all three, so the wrap and n <= 2h + 1 need no branch. h is
    capped at n, where both powers are complete, so no row passes 3n bits."""
    if n < 0 or h < 0:
        raise _negative(n=n, h=h)
    if n > MAX_VERTICES:
        raise CapacityError(f"n={n} exceeds the {MAX_VERTICES}-vertex capacity")
    h = min(h, n)
    window = (1 << (2 * h + 1)) - 1
    rows = [window << (i + n - h) for i in range(n)]
    rows = [row | row >> n | row >> 2 * n if cyclic else row >> n for row in rows]
    return SimpleGraph(n, [row & ~(1 << i) & (1 << n) - 1 for i, row in enumerate(rows)])


def is_independent(g: SimpleGraph, s: VertexSubset) -> bool:
    """True iff no two members of s are adjacent in g."""
    if s.n != g.n:
        raise ValueError(f"subset width {s.n} != graph order {g.n}")
    return _is_independent_mask(g.adj, s.bits)


def _is_independent_mask(adj: tuple[int, ...], bits: int) -> bool:
    """True iff no two set bits of the mask are adjacent under the rows adj."""
    m = bits
    while m:  # top member first: cheaper per member than isolating the low bit
        v = m.bit_length() - 1
        if adj[v] & bits:
            return False
        m ^= 1 << v
    return True


def enumerate_independent(g: SimpleGraph) -> list[VertexSubset]:
    """All independent subsets of g, sorted by (cardinality, mask value).

    Cost grows with the number of independent subsets, so keep g.n at desk
    scale (<= ~24). The empty subset is always present.
    """
    return [VertexSubset(m, g.n) for m in _independent_masks(g)]


def _independent_masks(g: SimpleGraph) -> list[int]:
    """The independent masks of g in canonical (cardinality, mask) order.

    Built level by level: each (k+1)-set is a k-set plus one vertex v above
    its top member. Taking v upward, and for each v the k-sets below 1 << v
    upward, yields every level already ascending, so nothing is sorted.
    """
    if g.n > MAX_VERTICES:
        raise CapacityError(f"n={g.n} exceeds the {MAX_VERTICES}-vertex capacity")
    bits = [1 << v for v in range(g.n)]
    level = [0]
    masks = [0]
    while level:
        level = [
            m | bit
            for bit, row in zip(bits, g.adj)
            for m in level[: bisect_left(level, bit)]
            if not row & m
        ]
        masks += level
    return masks


#: Reads bin() of a mask with a one above bit n - 1 backwards: bit 0 first,
#: the leading zeros kept, and that one dropped with the "0b".
_BITS_FIRST = slice(None, 2, -1)


def _mask_string(bits: int, n: int) -> str:
    """The binary string b_1...b_n of a width-n mask: bit 0 first."""
    return bin(bits | 1 << n)[_BITS_FIRST]


def _mask_strings(masks: Iterable[int], n: int) -> list[str]:
    """_mask_string of each width-n mask, in one pass of C-level maps: no
    Python call or bytecode per mask."""
    return list(map(itemgetter(_BITS_FIRST), map(bin, map((1 << n).__or__, masks))))


def contains_pattern(s: VertexSubset, pattern: str, circular: bool = False) -> bool:
    """Whether the binary string of s contains the pattern as a substring.

    Linear mode scans b_1..b_n as-is. Circular mode scans the string written
    twice: its substrings of length at most n are exactly the windows that may
    wrap around the end once, and patterns longer than the string cannot occur.
    """
    _check_pattern(pattern)
    text = s.to_string()
    if circular and len(pattern) <= s.n:
        text += text
    return pattern in text


def _check_pattern(pattern: str) -> None:
    if not pattern:
        raise ValueError("empty pattern")
    if set(pattern) - {"0", "1"}:
        raise ValueError(f"not a binary pattern: {pattern!r}")
