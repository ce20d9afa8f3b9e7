"""Command-line front end: count tables, sequences, verification, export.

All payload goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 internal fault (an arithmetic
invariant broke; stderr names the command and its inputs), 141 stdout closed
before all output was written (`| head`), as a shell reports a SIGPIPE death.
Output for fixed arguments is byte-identical across runs.

Every call is a fresh process, so each command imports only the modules it
runs: `counting` for `table` and `seq`, `cubes` and `graphs` for `export`,
`verify` (which imports all three) for `verify`, and `json` for
`verify --json` alone.

`verify` runs its checks across the CPUs the process may use, in forked
workers, and prints the report of a run on one CPU. Each check a lost worker
ran FAILs, naming the worker's exit status (with several lost, that of the
last one forked).

`table`, `seq` and `export` write in blocks of about 64 KiB, joined in C
from their pieces, so memory follows the model, not the text; an internal
fault in a `table --per-k` past its first block leaves the blocks written.

`table` and `seq` honour Python's int-to-str digit limit (4,300 by default).
A first pass checks every value against it and holds none, so a command with
a value over it fails before any is converted: exit 2, nothing on stdout, and
one stderr line naming the first offending row or term and the limit. Raise
the limit with PYTHONINTMAXSTRDIGITS or `python -X int_max_str_digits=N`; 0
lifts it and skips the check.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative (got {value})")
    return value


def _parse_patterns(csv: str) -> list[str]:
    patterns = [p.strip() for p in csv.split(",")]
    if any(not p or set(p) - {"0", "1"} for p in patterns):
        raise argparse.ArgumentTypeError(f"bad pattern list: {csv!r}")
    return patterns


#: Characters gathered before each write to stdout: a Linux pipe's capacity.
_BLOCK = 1 << 16
#: The most pieces drawn and joined at once.
_BATCH = 256


def _write(pieces: Iterable[str]) -> None:
    """Write the concatenated pieces to sys.stdout, as it is at the call, in
    blocks of at least _BLOCK characters (the last may be shorter), so the
    text is never held whole and no write is made per row or per node.

    Pieces are drawn and joined in batches, by C code, so there is no Python
    step per piece. A batch is as many pieces as would fill the rest of the
    block at the mean length of the last batch, 1 to _BATCH of them: with
    pieces of a steady length, however long, a block overshoots by less
    than one."""
    write = sys.stdout.write
    pieces = iter(pieces)
    block: list[str] = []
    size = 0
    take = 1
    while batch := list(itertools.islice(pieces, take)):  # a batch of "" still counts
        text = "".join(batch)
        block.append(text)
        size += len(text)
        if size >= _BLOCK:
            write("".join(block))
            block.clear()
            size = 0
        take = min(_BATCH, max(1, (_BLOCK - size) * len(batch) // (len(text) or 1)))
    if size:
        write("".join(block))


def _render_rows(
    head: str,
    rows: Callable[[], Iterator[tuple[int, ...]]],
    count: int,
    name: Callable[[int, int], str],
    more: Callable[[tuple[int, ...]], list[int]] | None = None,
) -> None:
    """Write head, then the first `count` rows of nonnegative integers of a
    fresh `rows()` stream, each followed by `more(row)`, as lines of
    tab-separated decimals. No value of `more(row)` may exceed the largest
    of `row`.

    Python refuses to convert an int of more than sys.get_int_max_str_digits()
    digits, and str(v) raises exactly when v >= 10**limit. So a first pass
    compares every value with that bound, holding nothing: the first value
    over it raises ValueError naming it by `name(row, column)` (both 0-based)
    and the limit. A second pass converts and writes; only it calls `more`.
    A limit of 0 skips the first pass.
    """
    # Pythons before 3.10.7 have no limit and no way to read it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        bound = 10**limit
        for i, row in zip(range(count), rows()):
            if max(row) >= bound:
                column = next(j for j, v in enumerate(row) if v >= bound)
                raise ValueError(
                    f"{name(i, column)} has more than {limit} digits, Python's limit for"
                    " int-to-str conversion; raise it with PYTHONINTMAXSTRDIGITS or"
                    " -X int_max_str_digits"
                )
    drawn = itertools.islice(rows(), count)
    if more is not None:
        drawn = ((*row, *more(row)) for row in drawn)
    _write(itertools.chain((head,), ("\t".join(map(str, row)) + "\n" for row in drawn)))


def render_table(family: str, h: int, n_max: int, per_k: bool) -> None:
    """Write the TSV of totals and poset edge counts for n = 0..n_max, with
    optional per-size columns. A per-size count never exceeds its row's
    total, so checking n, total and edges covers the whole table, and no
    per-size count is computed for a table that fails the check."""
    from . import counting

    count_k = counting.path_count_k if family == "path" else counting.cycle_count_k
    k_cols = counting._max_size(n_max, h) + 1 if per_k else 0
    header = ["n", "total", "edges"] + [f"k{k}" for k in range(k_cols)]
    _render_rows(
        "\t".join(header) + "\n",
        lambda: ((n, total, edges) for n, (total, edges) in enumerate(counting._rows(family, h))),
        n_max + 1,
        lambda n, column: f"{header[column]} at n={n}",
        (lambda row: [count_k(row[0], h, k) for k in range(k_cols)]) if per_k else None,
    )


def render_seq(kind: str, h: int, count: int) -> None:
    """Write one decimal term per line; all kinds start at index 1."""
    from . import counting

    family = "path" if kind in ("p", "hedges") else "cycle"
    column = 0 if kind in ("p", "q") else 1

    def terms() -> Iterator[tuple[int]]:
        if kind == "hfib":
            return zip(counting._hfib_terms(h))
        return ((row[column],) for row in itertools.islice(counting._rows(family, h), 1, None))

    _render_rows("", terms, count, lambda i, _: f"term {i + 1}")


def _export_object(args: argparse.Namespace) -> tuple[list[str], list[list[int]]]:
    """Labels plus up-lists for the requested object, built once from integer
    masks: ups[i] holds, ascending, the 0-based j > i joined to node i."""
    from . import cubes, graphs

    family = args.family
    n = args.n
    if family in ("path", "cycle"):
        h = 1 if args.h is None else args.h
        g = graphs.power_path(n, h) if family == "path" else graphs.power_cycle(n, h)
        if args.what == "graph":
            ups = [[j for j in graphs._set_bits(row) if j > i] for i, row in enumerate(g.adj)]
            return [str(i) for i in range(1, n + 1)], ups
        masks, ups = cubes._hasse_masks(g)
    else:
        if family == "fib-cube":
            masks = cubes._fibonacci_masks(n)
        elif family == "lucas-cube":
            masks = cubes._lucas_masks(n)
        else:  # gen-cube
            masks = cubes._avoiding_masks(n, args.patterns, args.circular)
        ups = cubes._hamming_pairs(masks)
    return graphs._mask_strings(masks, n), ups


def _edge_runs(heads: Iterable[str], ups: list[list[int]], tails: list[str]) -> Iterator[str]:
    """Each node's edges as one string, for the nodes that have any: the
    node's head before the tail of each j in its up-list. Heads (drawn
    lazily) and tails are made once per label, so no string is built per
    edge. A node's tails come from one C-level itemgetter call; a one-entry
    up-list is indexed instead, as itemgetter would return the bare tail."""
    return (
        head + (head.join(itemgetter(*js)(tails)) if len(js) > 1 else tails[js[0]])
        for head, js in zip(heads, ups)
        if js
    )


def _json_items(items: Iterator[str]) -> Iterator[str]:
    """The body of a JSON list from its items each led by ", ": the first
    item's separator is dropped."""
    return itertools.chain((next(items, ", ")[2:],), items)


def render_export(args: argparse.Namespace) -> None:
    """Build and write the export with the cyclic garbage collector off: the
    model is lists of ints and strings, which form no reference cycles, so
    its passes would only re-scan the model as it grows."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _write(_export_pieces(args))
    finally:
        if enabled:
            gc.enable()


def _export_pieces(args: argparse.Namespace) -> Iterator[str]:
    """The export's text as a chain of lazy pieces for the writer to draw;
    besides the model, only one tail string per label is held."""
    labels, ups = _export_object(args)
    count = len(labels)
    if args.format == "json":
        # json.dumps's default layout; the labels are digit strings, which
        # need no escapes, and the edges are 1-based pairs [i, j]
        heads = (f", [{i}, " for i in range(1, count + 1))
        tails = [f"{j}]" for j in range(1, count + 1)]
        return itertools.chain(
            (f'{{"n": {count}, "labels": [',),
            _json_items(f', "{lab}"' for lab in labels),
            ('], "edges": [',),
            _json_items(_edge_runs(heads, ups, tails)),
            ("]}\n",),
        )
    heads = (f'  "{lab}" -- "' for lab in labels)
    tails = [f'{lab}";\n' for lab in labels]
    return itertools.chain(
        ("graph G {\n",),
        (f'  "{lab}";\n' for lab in labels),
        _edge_runs(heads, ups, tails),
        ("}\n",),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indcubes",
        description=(
            "Exact counts, sequences, verification, and exports for independent "
            "subsets of path/cycle powers and their cube-shaped posets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="TSV table of counts per n")
    p_table.add_argument("--family", required=True, choices=["path", "cycle"])
    p_table.add_argument("--h", type=_nonneg, required=True, help="power order")
    p_table.add_argument("--n-max", type=_nonneg, required=True)
    p_table.add_argument("--per-k", action="store_true", help="add one column per subset size")

    p_seq = sub.add_parser("seq", help="one sequence term per line")
    p_seq.add_argument("--kind", required=True, choices=["hfib", "p", "q", "hedges", "medges"])
    p_seq.add_argument("--h", type=_nonneg, required=True, help="power order")
    p_seq.add_argument("--count", type=_nonneg, required=True)

    p_verify = sub.add_parser("verify", help="run the full cross-check suite")
    for flag in ("--h-max", "--n-max-formula", "--n-max-oracle"):  # run_all holds the defaults
        p_verify.add_argument(flag, type=_nonneg, default=argparse.SUPPRESS)
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")

    p_export = sub.add_parser("export", help="emit a graph or diagram as DOT or JSON")
    p_export.add_argument(
        "--family",
        required=True,
        choices=["path", "cycle", "fib-cube", "lucas-cube", "gen-cube"],
    )
    p_export.add_argument("--n", type=_nonneg, required=True)
    p_export.add_argument("--h", type=_nonneg, default=None, help="power order for path/cycle")
    p_export.add_argument("--patterns", type=_parse_patterns, help="comma-separated, gen-cube only")
    p_export.add_argument("--circular", action="store_true", help="circular avoidance (gen-cube)")
    p_export.add_argument("--what", required=True, choices=["graph", "hasse"])
    p_export.add_argument("--format", required=True, choices=["dot", "json"])
    return parser


def _validate_export(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.family == "gen-cube":
        if not args.patterns:
            parser.error("gen-cube requires --patterns")
    else:
        if args.patterns:
            parser.error("--patterns applies to gen-cube only")
        if args.circular:
            parser.error("--circular applies to gen-cube only")
    if args.family not in ("path", "cycle"):
        if args.h is not None:
            parser.error("--h applies to path/cycle only")
        if args.what == "hasse":
            parser.error("--what hasse applies to path/cycle only")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader stopped early. Point stdout at devnull so the
        # interpreter's final flush of what is left stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            render_table(args.family, args.h, args.n_max, args.per_k)
        elif args.command == "seq":
            render_seq(args.kind, args.h, args.count)
        elif args.command == "verify":
            # only this command imports verify, and only --json imports json
            from . import verify
            bounds = {k: v for k, v in vars(args).items() if k not in ("command", "json")}
            report = verify.run_all(**bounds)
            if args.json:
                import json
                print(json.dumps(report.to_dict(), indent=2))
            else:
                print(report.render_text())
            return 0 if report.overall else 1
        else:
            _validate_export(parser, args)
            render_export(args)
    except ValueError as exc:  # graphs.CapacityError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        inputs = ", ".join(f"{k}={v}" for k, v in vars(args).items() if k != "command")
        print(f"error: internal fault in {args.command} ({inputs}): {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
