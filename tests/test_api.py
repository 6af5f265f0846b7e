"""The public surface: exported names and the option strings of the CLI.

These pins catch a public name or a flag that disappears in a refactor.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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


def _run_fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports this perfcol."""
    src = str(Path(perfcol.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_multiprocessing_out():
    # only a threaded enumeration needs a process pool, so importing the
    # package must not pay for loading multiprocessing
    code = ("import perfcol, perfcol.cli, sys; "
            "print('multiprocessing' in sys.modules)")
    assert _run_fresh(code) == "False\n"


def test_import_leaves_dataclasses_and_inspect_out():
    # every perfcol command starts by importing perfcol.cli; dataclasses
    # would bring inspect, ast, dis and tokenize, most of the import time
    code = ("import sys; before = set(sys.modules); import perfcol.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} "
            "& (set(sys.modules) - before)))")
    assert _run_fresh(code) == "[]\n"
    found = []
    for path in sorted(Path(perfcol.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}"
                      for module in modules
                      if module.split(".")[0] in ("dataclasses", "typing")]
    assert found == []


_CAM = perfcol.ColorAdjacencyMatrix(((0, 3), (1, 2)))
_CAM_REPR = "ColorAdjacencyMatrix(entries=((0, 3), (1, 2)))"

# one value of each public value type: its class, its fields by name in
# declaration order (already normalized), and its repr
VALUES = [
    (perfcol.ColorAdjacencyMatrix, {"entries": ((0, 3), (1, 2))}, _CAM_REPR),
    (perfcol.RationalVector, {"numerators": (1, 3)},
     "RationalVector(numerators=(1, 3))"),
    (perfcol.EnumerationResult,
     {"m": 2, "k": 3, "raw_count": 16, "survivors": (_CAM,),
      "ratios": ((1, 3),)},
     f"EnumerationResult(m=2, k=3, raw_count=16, survivors=({_CAM_REPR},), "
     "ratios=((1, 3),))"),
    (perfcol.Graph, {"n": 3, "adj": ((1, 2), (0, 2), (0, 1))},
     "Graph(n=3, adj=((1, 2), (0, 2), (0, 1)))"),
    (perfcol.Coloring, {"assignment": (1, 2, 2), "m": 2},
     "Coloring(assignment=(1, 2, 2), m=2)"),
    (perfcol.SearchOutcome,
     {"realizable": False, "witness": None, "labeled_count": None},
     "SearchOutcome(realizable=False, witness=None, labeled_count=None)"),
    (perfcol.SearchOutcome,
     {"realizable": True, "witness": perfcol.Coloring((1, 2, 2), 2),
      "labeled_count": 3},
     "SearchOutcome(realizable=True, witness=Coloring(assignment=(1, 2, 2), "
     "m=2), labeled_count=3)"),
    (perfcol.IntPolynomial, {"coefficients": (1, -3, 2)},
     "IntPolynomial(coefficients=(1, -3, 2))"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES,
                         ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_types_keep_their_value_semantics(cls, fields, text):
    x = cls(**fields)
    assert repr(x) == text
    assert cls.__match_args__ == tuple(fields)
    assert [getattr(x, name) for name in fields] == list(fields.values())
    y = cls(*fields.values())
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(tuple(fields.values()))  # as dataclass
    assert x != tuple(fields.values())
    assert len({x, y}) == 1
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(x, name, value)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.other = 1
    assert [getattr(x, name) for name in fields] == list(fields.values())
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x),
                 copy.copy(x)):
        assert type(twin) is cls
        assert twin == x and hash(twin) == hash(x) and repr(twin) == text


def test_value_types_equal_only_their_own_class():
    ratios = perfcol.RationalVector((1, 3))
    poly = perfcol.IntPolynomial((1, 3))
    assert ratios != poly and poly != ratios
    assert ratios != (1, 3) and ratios != ((1, 3),)
    assert perfcol.RationalVector((1, 3)) != perfcol.RationalVector((3, 1))

    class Ratios(perfcol.RationalVector):
        note: str  # not a field: the fields are those of RationalVector

    assert repr(Ratios((1, 3))) == f"{Ratios.__qualname__}(numerators=(1, 3))"
    assert Ratios((1, 3)) == Ratios((1, 3)) != Ratios((1, 2))
    assert Ratios((1, 3)) != ratios and ratios != Ratios((1, 3))
    match perfcol.Graph(2, ((1,), (0,))):
        case perfcol.Graph(n, adj):
            assert (n, adj) == (2, ((1,), (0,)))
        case _:
            pytest.fail("positional pattern did not match")


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


def test_only_main_writes_the_cli_document():
    # each subcommand returns its document and main alone writes it to
    # stdout or --output; the range note goes to stderr, and survey keeps
    # its --dot-dir files
    tree = ast.parse(Path(perfcol.__file__).with_name("cli.py").read_text())
    found = []
    for stmt in tree.body:
        where = getattr(stmt, "name", "<module>")
        if where == "main":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name):
                name = f"{node.value.id}.{node.attr}"
                if name in ("sys.stdout", "args.output"):
                    found.append(f"{where}:{node.lineno} {name}")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "print"
                        and "file" not in [kw.arg for kw in node.keywords]):
                    found.append(f"{where}:{node.lineno} print to stdout")
                elif (isinstance(func, ast.Attribute)
                      and func.attr in ("write", "write_text", "write_bytes")
                      and where != "cmd_survey"):
                    found.append(f"{where}:{node.lineno} {func.attr}")
    assert found == []
