"""Command line interface.

Subcommands mirror the pipeline: `enumerate` lists survivors for
(m, k), `filter` reports the validity conditions of one matrix,
`witness` builds a realizing graph, `search` decides realizability on a
given graph, `survey` runs the whole candidate pipeline for a Platonic
solid, and `reproduce-paper` replays every published computation and
reports pass or fail per artifact.

Exit status: 0 on success, 1 on domain errors (malformed matrix, no
witness to draw, unreadable or oversized input), 2 on usage errors.
Results go to stdout or --output; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .cam import (
    _ratios_or_none,
    _scaled,
    is_color_connected,
    is_consistent,
    is_weakly_symmetric,
    parse_matrix,
)
from .enumeration import canonical_dedup, enumerate_cams, passes_filters
from .golden import (
    platonic_candidates,
    platonic_char_polys,
    survivor_counts,
    three_color_matrices,
    two_color_matrices,
)
from .graphs import (
    PLATONIC_BUILDERS,
    _integer,
    build_witness,
    emit_dot,
    emit_edge_list,
    graph_from_json,
    minimal_class_sizes,
    parse_graph,
    platonic,
)
from .search import _survey, find_perfect_coloring, platonic_survey
from .spectral import char_poly, spectral_filter

SOLIDS = tuple(PLATONIC_BUILDERS)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) is None:
            args.threads = _env_threads()
        doc, status = args.func(args)
        if args.output:
            Path(args.output).write_text(doc)
        else:
            sys.stdout.write(doc)
        return status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 1
    except OverflowError:
        print("error: the input is too large", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfcol",
        description="Perfect colorings of connected regular graphs: "
                    "enumeration, filtering, witnesses, search, surveys.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "enumerate",
        help="all color adjacency matrices for m colors and degree k")
    p.add_argument("--colors", "-m", type=_positive, required=True, metavar="M")
    p.add_argument("--degree", "-k", type=_positive, required=True, metavar="K")
    _threads_flag(p)
    p.add_argument("--count-only", action="store_true",
                   help="print only the number of survivors")
    _format_flags(p)
    _output_flag(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "filter",
        help="report the validity conditions of one matrix")
    p.add_argument("--matrix", required=True, metavar="'[[..],..]'")
    p.add_argument("--graph", metavar="FILE|platonic:NAME",
                   help="also test class sizes and the spectrum against "
                        "this graph")
    _format_flags(p)
    _output_flag(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser(
        "witness",
        help="construct a graph and coloring realizing a valid matrix")
    p.add_argument("--matrix", required=True, metavar="'[[..],..]'")
    _format_flags(p, dot=True)
    _output_flag(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "search",
        help="decide whether a matrix is realizable on a given graph")
    p.add_argument("--graph", required=True, metavar="FILE|platonic:NAME")
    p.add_argument("--matrix", required=True, metavar="'[[..],..]'")
    p.add_argument("--all", action="store_true",
                   help="count all labeled colorings instead of stopping "
                        "at the first")
    _format_flags(p, dot=True)
    _output_flag(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "survey",
        help="full candidate pipeline for one Platonic solid")
    p.add_argument("--platonic", required=True, choices=SOLIDS, metavar="NAME")
    p.add_argument("--colors", "-m", type=_positive, required=True, metavar="M")
    _threads_flag(p)
    p.add_argument("--dot-dir", metavar="DIR",
                   help="write a DOT witness per realizable candidate")
    _format_flags(p)
    _output_flag(p)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser(
        "reproduce-paper",
        help="replay all published computations and report pass/fail")
    _threads_flag(p)
    _output_flag(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def _positive(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _env_threads() -> int:
    text = os.environ.get("PERFCOL_THREADS") or "1"
    try:
        return _positive(text)
    except argparse.ArgumentTypeError:
        raise ValueError(
            f"PERFCOL_THREADS must be a positive integer, got {text!r}") from None


def _format_flags(p: argparse.ArgumentParser, dot: bool = False) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", dest="fmt", action="store_const", const="json",
                       help="machine-readable output (default)")
    group.add_argument("--text", dest="fmt", action="store_const", const="text",
                       help="line-oriented output for eyeballing")
    if dot:
        group.add_argument("--dot", dest="fmt", action="store_const", const="dot",
                           help="Graphviz DOT output")
    p.set_defaults(fmt="json")


def _output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", "-o", metavar="FILE",
                   help="write the result here instead of stdout")


def _threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_positive, default=None, metavar="N",
                   help="shard the scan over N processes (default: "
                        "PERFCOL_THREADS or 1)")


def _range_notice(m: int | None, k: int | None) -> None:
    if (m is not None and m > 4) or (k is not None and k > 5):
        print("note: outside the validated range (m <= 4, k <= 5); "
              "results are unvalidated", file=sys.stderr)


def _load_graph(source: str):
    if source.startswith("platonic:"):
        return platonic(source.split(":", 1)[1])
    text = Path(source).read_text()
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return parse_graph(text)


def _matrix_line(A) -> str:
    return " | ".join(" ".join(str(x) for x in row) for row in A.entries)


# ------------------------------------------------------------- subcommands

def cmd_enumerate(args) -> tuple[str, int]:
    _range_notice(args.colors, args.degree)
    result = enumerate_cams(args.colors, args.degree, threads=args.threads)
    if args.count_only:
        doc = f"{len(result.survivors)}\n"
    elif args.fmt == "text":
        lines = [f"# m={result.m} k={result.k}: "
                 f"{len(result.survivors)} of {result.raw_count}"]
        lines += [_matrix_line(A) for A in result.survivors]
        doc = "\n".join(lines) + "\n"
    else:
        doc = json.dumps({
            "m": result.m,
            "k": result.k,
            "raw_count": result.raw_count,
            "survivors": [A.entries for A in result.survivors],
        }) + "\n"
    return doc, 0


def cmd_filter(args) -> tuple[str, int]:
    A = parse_matrix(args.matrix)
    _range_notice(A.m, A.row_sum)
    ratios = _ratios_or_none(A.entries)
    report = {
        "matrix": A.entries,
        "m": A.m,
        "row_sum": A.row_sum,
        "weakly_symmetric": is_weakly_symmetric(A),
        "consistent": is_consistent(A),
        "color_connected": is_color_connected(A),
        "ratios": ratios,
        "passes_filters": passes_filters(A),
    }
    if args.graph:
        graph = _load_graph(args.graph)
        sizes = _scaled(ratios, graph.n) if ratios else None
        report["graph_n"] = graph.n
        report["sizes"] = sizes
        report["spectral"] = spectral_filter(A, graph)
    if args.fmt == "text":
        lines = [f"matrix: {_matrix_line(A)}"]
        for key in ("weakly_symmetric", "consistent", "color_connected",
                    "passes_filters"):
            lines.append(f"{key}: {'yes' if report[key] else 'no'}")
        lines.append("ratios: " + (":".join(map(str, ratios)) if ratios else "-"))
        if args.graph:
            sizes = report["sizes"]
            lines.append("sizes: " + (" ".join(map(str, sizes)) if sizes else "-"))
            lines.append(f"spectral: {'yes' if report['spectral'] else 'no'}")
        doc = "\n".join(lines) + "\n"
    else:
        doc = json.dumps(report) + "\n"
    return doc, 0


def cmd_witness(args) -> tuple[str, int]:
    A = parse_matrix(args.matrix)
    _range_notice(A.m, A.row_sum)
    graph, coloring = build_witness(A)
    if args.fmt == "dot":
        doc = emit_dot(graph, coloring)
    elif args.fmt == "text":
        doc = emit_edge_list(graph, coloring)
    else:
        doc = json.dumps({
            "matrix": A.entries,
            "sizes": coloring.class_sizes(),
            "n": graph.n,
            "edges": graph.edges(),
            "coloring": coloring.assignment,
        }) + "\n"
    return doc, 0


def cmd_search(args) -> tuple[str, int]:
    A = parse_matrix(args.matrix)
    _range_notice(A.m, A.row_sum)
    graph = _load_graph(args.graph)
    mode = "count_all" if args.all else "first"
    outcome = find_perfect_coloring(graph, A, mode=mode)
    if args.fmt == "dot":
        if outcome.witness is None:
            raise ValueError("no witness coloring to draw")
        doc = emit_dot(graph, outcome.witness)
    elif args.fmt == "text":
        lines = [f"matrix: {_matrix_line(A)}",
                 f"realizable: {'yes' if outcome.realizable else 'no'}"]
        if outcome.labeled_count is not None:
            lines.append(f"labeled_colorings: {outcome.labeled_count}")
        if outcome.witness is not None:
            lines.append("witness: " +
                         " ".join(map(str, outcome.witness.assignment)))
        doc = "\n".join(lines) + "\n"
    else:
        doc = json.dumps({
            "matrix": A.entries,
            "n": graph.n,
            "realizable": outcome.realizable,
            "witness": outcome.witness and outcome.witness.assignment,
            "labeled_count": outcome.labeled_count,
        }) + "\n"
    return doc, 0


def cmd_survey(args) -> tuple[str, int]:
    _range_notice(args.colors, None)
    graph = platonic(args.platonic)
    results = _survey(graph, args.colors, args.threads)
    if args.dot_dir:
        directory = Path(args.dot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for idx, (matrix, outcome) in enumerate(results):
            if outcome.witness is not None:
                name = f"{args.platonic}_{args.colors}col_{idx}.dot"
                (directory / name).write_text(emit_dot(graph, outcome.witness))
    if args.fmt == "text":
        lines = [f"# {args.platonic}: n={graph.n} degree={graph.regularity()} "
                 f"colors={args.colors}, {len(results)} candidates"]
        for matrix, outcome in results:
            verdict = "realizable" if outcome.realizable else "NOT realizable"
            lines.append(f"{_matrix_line(matrix)}  ->  {verdict}")
        doc = "\n".join(lines) + "\n"
    else:
        doc = json.dumps({
            "solid": args.platonic,
            "n": graph.n,
            "degree": graph.regularity(),
            "colors": args.colors,
            "candidates": [{
                "matrix": matrix.entries,
                "realizable": outcome.realizable,
                "witness": outcome.witness and outcome.witness.assignment,
            } for matrix, outcome in results],
        }) + "\n"
    return doc, 0


# --------------------------------------------------------- reproduce-paper

def cmd_reproduce(args) -> tuple[str, int]:
    checks: list[tuple[str, bool]] = []
    counts = survivor_counts()
    for m_text, per_k in sorted(counts.items()):
        for k_text, expected in sorted(per_k.items()):
            m, k = int(m_text), int(k_text)
            result = enumerate_cams(m, k, threads=args.threads)
            checks.append((f"survivor count m={m} k={k}: "
                           f"{len(result.survivors)} expected {expected}",
                           len(result.survivors) == expected))

    for label, published, m in (("two-color list", two_color_matrices(), 2),
                                ("three-color list", three_color_matrices(), 3)):
        for k_text, matrices in sorted(published.items()):
            k = int(k_text)
            ours = enumerate_cams(m, k, threads=args.threads).survivors
            checks.append((f"{label} k={k}: set match up to conjugacy "
                           f"({len(matrices)} matrices)",
                           canonical_dedup(matrices) == list(ours)
                           and len(ours) == len(matrices)))

    candidates = platonic_candidates()
    for solid in SOLIDS:
        for m_text, expected in sorted(candidates[solid].items()):
            survey = platonic_survey(solid, int(m_text), threads=args.threads)
            ok = (canonical_dedup(expected["candidates"])
                  == [A for A, _ in survey]
                  and len(survey) == len(expected["candidates"])
                  and canonical_dedup(expected["unrealizable"])
                  == [A for A, outcome in survey if not outcome.realizable])
            checks.append((f"{solid} {m_text}-color survey: "
                           f"{len(expected['candidates'])} candidates, "
                           f"{len(expected['unrealizable'])} unrealizable",
                           ok))

    for solid, expected in sorted(platonic_char_polys().items()):
        ours = list(char_poly(platonic(solid).adjacency_matrix()).coefficients)
        checks.append((f"{solid} characteristic polynomial", ours == expected))

    sizes = minimal_class_sizes([[1, 3], [3, 1]])
    checks.append((f"octahedron exclusion: minimal sizes {sizes} need "
                   f"{sum(sizes)} >= 8 vertices", sum(sizes) == 8))

    passed = sum(ok for _, ok in checks)
    lines = [f"{'PASS' if ok else 'FAIL'}  {label}" for label, ok in checks]
    lines.append(f"{'OK' if passed == len(checks) else 'FAILED'}: "
                 f"{passed} of {len(checks)} artifacts reproduced")
    return "\n".join(lines) + "\n", 0 if passed == len(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
