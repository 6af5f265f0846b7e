"""The public surface: exported names and the option strings of the CLI.

These pins catch a public name or a flag that disappears in a refactor.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import perfcol
from perfcol.cli import build_parser

PUBLIC_NAMES = {
    "ColorAdjacencyMatrix", "Coloring", "EnumerationResult", "Graph",
    "IntPolynomial", "RationalVector", "SearchOutcome", "__version__",
    "build_witness", "canonical_dedup", "canonical_form", "char_poly",
    "class_ratios", "conjugate", "construct_biregular", "construct_regular",
    "divides", "emit_dot", "emit_edge_list", "enumerate_cams",
    "find_perfect_coloring", "generate_row_sum_matrices", "graph_from_json",
    "graph_to_json", "is_color_connected", "is_consistent",
    "is_weakly_symmetric", "minimal_class_sizes", "parse_graph",
    "parse_matrix", "passes_filters", "platonic", "platonic_survey",
    "sizes_for", "spectral_filter", "verify_coloring",
}

HELP = {"-h", "--help"}
FORMATS = {"--json", "--text"}
OUTPUT = {"-o", "--output"}

CLI_OPTIONS = {
    "enumerate": {"-m", "--colors", "-k", "--degree", "--threads",
                  "--count-only"} | FORMATS | OUTPUT | HELP,
    "filter": {"--matrix", "--graph"} | FORMATS | OUTPUT | HELP,
    "witness": {"--matrix", "--dot"} | FORMATS | OUTPUT | HELP,
    "search": {"--graph", "--matrix", "--all", "--dot"} | FORMATS | OUTPUT
    | HELP,
    "survey": {"--platonic", "-m", "--colors", "--threads", "--dot-dir"}
    | FORMATS | OUTPUT | HELP,
    "reproduce-paper": {"--threads"} | OUTPUT | HELP,
}


def test_public_names_are_pinned():
    assert set(perfcol.__all__) == PUBLIC_NAMES
    assert len(perfcol.__all__) == len(PUBLIC_NAMES)
    for name in perfcol.__all__:
        assert hasattr(perfcol, name), name


def test_cli_option_strings_are_pinned():
    parser = build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert list(sub.choices) == list(CLI_OPTIONS)
    for command, expected in CLI_OPTIONS.items():
        options = {opt for action in sub.choices[command]._actions
                   for opt in action.option_strings}
        assert options == expected, command


def test_import_leaves_multiprocessing_out():
    # only a threaded enumeration needs a process pool, so importing the
    # package must not pay for loading multiprocessing
    code = ("import perfcol, perfcol.cli, sys; "
            "print('multiprocessing' in sys.modules)")
    src = str(Path(perfcol.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# the process's environment, standard streams and exit status belong to
# the command line; the library takes everything as arguments
PROCESS_STATE = {"os.environ", "os.getenv", "print", "sys.stdout",
                 "sys.stderr", "sys.exit"}


def test_only_the_cli_touches_process_state():
    found = []
    for path in sorted(Path(perfcol.__file__).parent.glob("*.py")):
        if path.name in ("cli.py", "__main__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in PROCESS_STATE]
    assert found == []
