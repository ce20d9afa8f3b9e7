"""The benchmark's workloads: which CLI commands each one runs, how the seed
orders them, and how their output is checked.

Every check uses a route of its own, independent of the code under test:
closed binomial sums for the counts, 2^(i-1) for `hfib --h 0`, and for the
exports a full parse that tests every label and every edge. The seed picks the
command order and the rows that the count checks sample; it never changes
how much work a round does.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0

#: How many rows (or terms) of each count output the check recomputes at
#: random, on top of the last one and the first 2h + 3, where the initial
#: conditions and the small-n special cases sit.
SAMPLED_ROWS = 6

#: The report lines of a passing default `verify`, in report order.
VERIFY_CHECKS = (
    "path-oracle-agreement",
    "cycle-oracle-agreement",
    "path-subgraph-of-cycle",
    "cycle-degree-regular",
    "enumeration-order-strict",
    "independence-matches-enumeration",
    "containing-vertex-row-sum",
    "containing-vertex-column-sum",
    "bijection-roundtrip",
    "hasse-cover-grading",
    "path-cover-counts",
    "cycle-cover-counts",
    "fibonacci-cube-structure",
    "lucas-cube-structure",
    "pattern-cube-identity",
    "single-pattern-cube-identity",
    "cube-edges-comparable",
    "path-recurrence-agreement",
    "cycle-recurrence-agreement",
    "edge-convolution-agreement",
    "edge-closed-form-agreement",
    "hfib-prefix-structure",
    "order-reduction-identity",
    "cycle-decomposition-identity",
    "classic-sequence-identities",
    "boolean-lattice-counts",
    "divisibility",
)

#: A check takes the command's stdout and a sampling RNG and returns None when
#: the output is right, or a description of the first problem found.
Check = Callable[[bytes, random.Random], "str | None"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `twin` names the group whose outputs must agree
    byte for byte."""

    argv: tuple[str, ...]
    check: Check
    twin: str | None = None


# --- independent counting route ---------------------------------------------


def _binom(m: int, k: int) -> int:
    return math.comb(m, k) if 0 <= k <= m else 0


def _path_k(n: int, h: int, k: int) -> int:
    return _binom(n - h * k + h, k)


def _cycle_k(n: int, h: int, k: int) -> int:
    if k < 2:
        return (1, n)[k]
    return n * _binom(n - h * k - 1, k - 1) // k


def _k_range(n: int, h: int) -> range:
    return range((n + h) // (h + 1) + 2)


def _total(count_k: Callable[[int, int, int], int], n: int, h: int) -> int:
    return sum(count_k(n, h, k) for k in _k_range(n, h))


def _edges(count_k: Callable[[int, int, int], int], n: int, h: int) -> int:
    """Each size-k subset covers k smaller ones."""
    return sum(k * count_k(n, h, k) for k in _k_range(n, h))


# --- output checks -----------------------------------------------------------


def _sample(rng: random.Random, first: int, last: int, h: int) -> list[int]:
    """Indices in first..last to recompute: the first 2h + 3, the last, and
    a seeded sample of the rest."""
    head = range(first, min(first + 2 * h + 3, last))
    inner = range(head.stop, last)
    picks = rng.sample(inner, min(SAMPLED_ROWS, len(inner)))
    return sorted({*head, last, *picks})


def _table_check(family: str, h: int, n_max: int, per_k: bool) -> Check:
    count_k = _path_k if family == "path" else _cycle_k
    k_cols = (n_max + h) // (h + 1) + 1 if per_k else 0

    def check(out: bytes, rng: random.Random) -> str | None:
        lines = out.split(b"\n")
        if lines[-1] != b"" or len(lines) != n_max + 3:
            return f"expected {n_max + 2} newline-terminated lines"
        header = ["n", "total", "edges"] + [f"k{k}" for k in range(k_cols)]
        if lines[0].decode() != "\t".join(header):
            return "bad header"
        for n, line in enumerate(lines[1:-1]):
            if not line.startswith(b"%d\t" % n) or line.count(b"\t") != len(header) - 1:
                return f"row n={n} is misnumbered or has the wrong number of fields"
        for n in _sample(rng, 0, n_max, h):
            want = [n, _total(count_k, n, h), _edges(count_k, n, h)]
            want += [count_k(n, h, k) for k in range(k_cols)]
            if lines[n + 1] != "\t".join(map(str, want)).encode():
                return f"row n={n} differs from the closed sums"
        return None

    return check


def _seq_check(kind: str, h: int, count: int) -> Check:
    if kind == "hfib" and h == 0:
        term: Callable[[int], int] = lambda i: 1 << (i - 1)
    elif kind == "p":
        term = lambda i: _total(_path_k, i, h)
    elif kind == "hedges":
        term = lambda i: _edges(_path_k, i, h)
    else:
        raise ValueError(f"no independent route for seq {kind} h={h}")

    def check(out: bytes, rng: random.Random) -> str | None:
        lines = out.split(b"\n")
        if lines[-1] != b"" or len(lines) != count + 1:
            return f"expected {count} newline-terminated terms"
        for i in _sample(rng, 1, count, h):
            if lines[i - 1] != str(term(i)).encode():
                return f"term {i} differs from the independent route"
        return None

    return check


def _verify_check(out: bytes, rng: random.Random) -> str | None:
    lines = out.decode().split("\n")
    want = [f"PASS  {name}" for name in VERIFY_CHECKS] + ["overall: PASS", ""]
    if len(lines) != len(want):
        return f"expected {len(VERIFY_CHECKS)} check lines and a verdict"
    for line, prefix in zip(lines, want):
        if line.split("  [")[0] != prefix:
            return f"unexpected report line {line!r}"
    return None


def _parse_dot(out: bytes) -> tuple[list[str], list[tuple[str, str]]]:
    lines = out.decode().split("\n")
    if lines[0] != "graph G {" or lines[-2:] != ["}", ""]:
        raise ValueError("not a DOT graph block")
    labels, edges = [], []
    for line in lines[1:-2]:
        if " -- " in line:
            a, b = line.strip().rstrip(";").split(" -- ")
            edges.append((a.strip('"'), b.strip('"')))
        else:
            labels.append(line.strip().rstrip(";").strip('"'))
    return labels, edges


def _parse_json(out: bytes) -> tuple[list[str], list[tuple[str, str]]]:
    obj = json.loads(out)
    labels = obj["labels"]
    if obj["n"] != len(labels):
        raise ValueError("n does not match the label count")
    if not all(1 <= i <= len(labels) for edge in obj["edges"] for i in edge):
        raise ValueError("edge index outside 1..n")
    return labels, [(labels[i - 1], labels[j - 1]) for i, j in obj["edges"]]


def _export_check(fmt: str, n: int, h: int, circular: bool) -> Check:
    """The labels must be exactly the h-independent strings of length n in
    canonical order, and the edges exactly their Hamming-1 pairs: the count of
    each is matched against the closed sums, and every one is tested."""
    count_k = _cycle_k if circular else _path_k
    n_labels, n_edges = _total(count_k, n, h), _edges(count_k, n, h)
    full = (1 << n) - 1

    def independent(mask: int) -> bool:
        wide = mask | (mask << n) if circular else mask
        return all(not (wide & (wide >> d) & full) for d in range(1, h + 1))

    def check(out: bytes, rng: random.Random) -> str | None:
        try:
            labels, edges = (_parse_dot if fmt == "dot" else _parse_json)(out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable {fmt} output: {exc}"
        if len(labels) != n_labels or len(edges) != n_edges:
            return f"{len(labels)} labels / {len(edges)} edges, want {n_labels} / {n_edges}"
        masks = {}
        for lab in labels:
            if len(lab) != n or set(lab) - {"0", "1"}:
                return f"bad label {lab!r}"
            masks[lab] = int(lab[::-1], 2)  # bit i-1 holds b_i
        keys = [(m.bit_count(), m) for m in masks.values()]
        if len(masks) != n_labels or keys != sorted(keys):
            return "labels repeat or are not in canonical order"
        if not all(independent(m) for m in masks.values()):
            return "a label is not an independent string"
        pairs = set()
        for a, b in edges:
            ma, mb = masks.get(a), masks.get(b)
            if ma is None or mb is None or (ma ^ mb).bit_count() != 1:
                return f"edge {a} -- {b} is not a Hamming-1 pair of labels"
            pairs.add((min(ma, mb), max(ma, mb)))
        if len(pairs) != n_edges:
            return "edges repeat"
        return None

    return check


# --- workloads ---------------------------------------------------------------


def _verify_default(seed: int) -> list[Command]:
    return [Command(("verify",), _verify_check)]


def _count_stream(seed: int) -> list[Command]:
    def table(family: str, h: int, n_max: int, per_k: bool = False) -> Command:
        argv = ["table", "--family", family, "--h", str(h), "--n-max", str(n_max)]
        return Command(tuple(argv + ["--per-k"] * per_k), _table_check(family, h, n_max, per_k))

    def seq(kind: str, h: int, count: int) -> Command:
        argv = ("seq", "--kind", kind, "--h", str(h), "--count", str(count))
        return Command(argv, _seq_check(kind, h, count))

    commands = [
        table("path", 1, 2000),
        table("cycle", 2, 3000),
        seq("hedges", 1, 3000),
        seq("p", 1, 4000),
        table("path", 3, 300, per_k=True),
        # Above Python's 4,300-digit int-to-str limit: exits 2 until the CLI
        # prints big values in full, and counts as a failed command until then.
        seq("hfib", 0, 14300),
    ]
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(commands)
    return commands


#: (string route, Hasse route, n, h, circular): each pair reaches the same
#: labelled graph by string generation plus the Hamming-1 graph, and by
#: enumeration plus the Hasse diagram.
_EXPORT_PAIRS = (
    (("--family", "fib-cube", "--n", "20"), ("--family", "path", "--n", "20", "--h", "1"), 20, 1, False),
    (("--family", "lucas-cube", "--n", "20"), ("--family", "cycle", "--n", "20", "--h", "1"), 20, 1, True),
    (
        ("--family", "gen-cube", "--n", "18", "--patterns", "11,101", "--circular"),
        ("--family", "cycle", "--n", "18", "--h", "2"),
        18,
        2,
        True,
    ),
)


def _cube_export(seed: int) -> list[Command]:
    """Every round exports each pair in both formats, so that the bytes and
    the work of a round do not depend on the seed, which only orders them."""
    commands = []
    for fmt in ("dot", "json"):
        for index, (cube, hasse, n, h, circular) in enumerate(_EXPORT_PAIRS):
            check = _export_check(fmt, n, h, circular)
            twin = f"pair{index}-{fmt}"
            commands.append(Command(("export", *cube, "--what", "graph", "--format", fmt), check, twin))
            commands.append(Command(("export", *hasse, "--what", "hasse", "--format", fmt), check, twin))
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(commands)
    return commands


#: Workload name -> the commands of one round, for a seed.
WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "verify-default": _verify_default,
    "count-stream": _count_stream,
    "cube-export": _cube_export,
}
