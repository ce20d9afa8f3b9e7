"""Command-line front end: count tables, sequences, verification, export.

All payload goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 verification failure, 2 usage error. Output for fixed arguments is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import counting, cubes, graphs, verify


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _parse_patterns(csv: str) -> list[str]:
    patterns = [p.strip() for p in csv.split(",")]
    if not patterns or any(not p or set(p) - {"0", "1"} for p in patterns):
        raise argparse.ArgumentTypeError(f"bad pattern list: {csv!r}")
    return patterns


def render_table(family: str, h: int, n_max: int, per_k: bool) -> str:
    """TSV of totals and poset edge counts for n = 0..n_max, with optional
    per-size columns."""
    count_k = counting.path_count_k if family == "path" else counting.cycle_count_k
    k_cols = counting._max_size(n_max, h) + 1 if per_k else 0
    header = ["n", "total", "edges"] + [f"k{k}" for k in range(k_cols)]
    lines = ["\t".join(header)]
    for n, (total, edges) in zip(range(n_max + 1), counting._rows(family, h)):
        row = [str(n), str(total), str(edges)]
        row += [str(count_k(n, h, k)) for k in range(k_cols)]
        lines.append("\t".join(row))
    return "\n".join(lines)


def render_seq(kind: str, h: int, count: int) -> str:
    """One decimal term per line; all kinds start at index 1."""
    if kind == "hfib":
        terms = counting._hfib_terms(h)
    else:
        rows = counting._rows("path" if kind in ("p", "hedges") else "cycle", h)
        next(rows)  # index 0
        column = 0 if kind in ("p", "q") else 1
        terms = (row[column] for row in rows)
    return "\n".join(str(t) for _, t in zip(range(count), terms))


def _export_object(args: argparse.Namespace) -> tuple[list[str], list[tuple[int, int]]]:
    """Labels plus 0-based edge index pairs for the requested object, built
    once from integer masks."""
    family = args.family
    n = args.n
    if family in ("path", "cycle"):
        h = 1 if args.h is None else args.h
        g = graphs.power_path(n, h) if family == "path" else graphs.power_cycle(n, h)
        if args.what == "graph":
            return [str(i) for i in range(1, n + 1)], [(i - 1, j - 1) for i, j in g.edges()]
        masks, pairs = cubes._hasse_masks(g)
    else:
        if family == "fib-cube":
            strings = cubes.fibonacci_strings(n)
        elif family == "lucas-cube":
            strings = cubes.lucas_strings(n)
        else:  # gen-cube
            strings = cubes.avoiding_strings(n, args.patterns, args.circular)
        masks = [s.bits for s in strings]
        pairs = cubes._hamming_pairs(masks, n)
    return [graphs._mask_string(m, n) for m in masks], pairs


def render_export(args: argparse.Namespace) -> str:
    labels, pairs = _export_object(args)
    if args.format == "json":
        edges = [(i + 1, j + 1) for i, j in pairs]  # json writes tuples as arrays
        return json.dumps({"n": len(labels), "labels": labels, "edges": edges})
    lines = ["graph G {"]
    lines += [f'  "{lab}";' for lab in labels]
    lines += [f'  "{labels[i]}" -- "{labels[j]}";' for i, j in pairs]
    lines.append("}")
    return "\n".join(lines)


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
    p_verify.add_argument("--h-max", type=_nonneg, default=4)
    p_verify.add_argument("--n-max-formula", type=_nonneg, default=200)
    p_verify.add_argument("--n-max-oracle", type=_nonneg, default=14)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            print(render_table(args.family, args.h, args.n_max, args.per_k))
        elif args.command == "seq":
            text = render_seq(args.kind, args.h, args.count)
            if text:
                print(text)
        elif args.command == "verify":
            cap = cubes.MAX_CUBE_ORDER
            if args.n_max_oracle > cap:
                parser.error(f"--n-max-oracle {args.n_max_oracle} exceeds the cube cap of {cap}")
            report = verify.run_all(args.h_max, args.n_max_formula, args.n_max_oracle)
            if args.json:
                print(json.dumps(report.to_dict(), indent=2))
            else:
                print(report.render_text())
            return 0 if report.overall else 1
        else:
            _validate_export(parser, args)
            print(render_export(args))
    except (graphs.CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
