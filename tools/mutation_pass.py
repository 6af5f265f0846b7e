"""Mutation pass: which one-site changes to a function do the tests miss?

Each mutant changes one site of one target function: a comparison,
arithmetic, bitwise, boolean or augmented-assignment operator becomes
its partner (< and <=, == and !=, + and -, & and |, ...), a `not` is
dropped, True and False trade places, an integer constant grows by one,
or a slice bound or step e that is given becomes e + 1 (x[:d] becomes
x[:d + 1]).  A bound that is a bare integer constant already grows by
one, so it gets no second mutant; a negative one such as x[:-1] is a
unary minus, so it gets the sign swap, x[:-2] and x[:-1 + 1].
Annotations are left alone.  The mutated module is written into a fresh
copy of src/ and tests/, and the given tests run there with -x; a
mutant that no test fails survived.  A mutant that runs past 1.5 GiB of
address space fails its run and counts as killed.  A mutant
that runs past the timeout (five times the unmutated run, plus 30 s)
is neither: it is counted and listed as timed out, since a test that
never ends has not shown the change wrong.

    python tools/mutation_pass.py search.py:find_perfect_coloring \\
        graphs.py:Graph.bfs_order \\
        --tests tests/test_search.py tests/test_graphs.py

A target is a module under src/perfcol and a function's dotted name in
it.  --tests takes pytest node IDs: a test file, or one test in it such
as tests/test_cli.py::test_reproduce_paper_all_pass.  The unmutated code
is run first and must pass; if it fails, the tail of pytest's output is
printed and no mutant runs.  Prints one line per mutant, then a summary
line with the counts, then the survivors and the timed-out mutants.
Mutants run side by side, one per CPU the process may use.  This file is
not a test, and pytest does not collect it (tests live under tests/).
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY = 1536 << 20  # bytes of address space per test run
# pytest under an address-space cap, so that a runaway mutant fails alone
PYTEST = ("import resource, sys, pytest; "
          f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY}, {MEMORY})); "
          "sys.exit(pytest.main(sys.argv[1:]))")

PARTNERS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And, ast.USub: ast.UAdd,
}
SLICE_FIELDS = ("lower", "upper", "step")


def find_function(tree: ast.Module, dotted: str) -> ast.AST:
    scope: ast.AST = tree
    for name in dotted.split("."):
        for node in scope.body:
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name == name):
                scope = node
                break
        else:
            raise SystemExit(f"no {dotted} in the module")
    return scope


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.UnaryOp):
        self.target = target

    def visit_UnaryOp(self, node):
        return node.operand if node is self.target else self.generic_visit(node)


def sites(function: ast.AST) -> list:
    """(node, slot, description) for every mutable site, in source order.

    slot is an index into a Compare's ops or into SLICE_FIELDS, or None
    for the node itself.
    """
    skip = set()
    for node in ast.walk(function):
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if note is not None:
                skip.update(map(id, ast.walk(note)))
    found = []
    for node in ast.walk(function):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            found += [(node, slot, swap_text(op))
                      for slot, op in enumerate(node.ops)
                      if type(op) in PARTNERS]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, None, "drop not"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp,
                               ast.UnaryOp)):
            if type(node.op) in PARTNERS:
                found.append((node, None, swap_text(node.op)))
        elif isinstance(node, ast.Slice):
            for slot, field in enumerate(SLICE_FIELDS):
                bound = getattr(node, field)
                if bound is not None and not _int_constant(bound):
                    text = ast.unparse(bound)
                    found.append((node, slot, f"{field} {text} -> {text} + 1"))
        elif isinstance(node, ast.Constant) and type(node.value) is bool:
            found.append((node, None, f"{node.value} -> {not node.value}"))
        elif _int_constant(node):
            found.append((node, None, f"{node.value} -> {node.value + 1}"))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset,
                                 site[1] or 0))
    return found


def _int_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def swap_text(op: ast.AST) -> str:
    return f"{type(op).__name__} -> {PARTNERS[type(op)].__name__}"


def mutant_source(source: str, target: str, number: int):
    """The module text with site `number` of the target changed."""
    tree = ast.parse(source)
    node, slot, text = sites(find_function(tree, target))[number]
    if isinstance(node, ast.Slice):
        field = SLICE_FIELDS[slot]
        setattr(node, field,
                ast.BinOp(getattr(node, field), ast.Add(), ast.Constant(1)))
    elif slot is not None:
        node.ops[slot] = PARTNERS[type(node.ops[slot])]()
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        tree = _DropNot(node).visit(tree)
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        node.value = not node.value
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = PARTNERS[type(node.op)]()
    return ast.unparse(tree), f"line {node.lineno}: {text}"


def run_tests(module: str, source: str, tests: list[str],
              timeout: float) -> tuple[str, str]:
    """The verdict, and the last lines of pytest's output."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "src" / "perfcol" / module).write_text(source)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-c", PYTEST, "-x", "-q",
                 "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        verdict = "survived" if proc.returncode == 0 else "killed"
        tail = proc.stdout.decode(errors="replace").splitlines()[-10:]
        return verdict, "\n".join(tail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("targets", nargs="+", metavar="MODULE:FUNCTION")
    parser.add_argument("--tests", nargs="+", required=True, metavar="NODEID")
    args = parser.parse_args(argv)

    plan = []  # (module, original source, target, site number)
    for spec in args.targets:
        module, _, target = spec.partition(":")
        source = (ROOT / "src" / "perfcol" / module).read_text()
        count = len(sites(find_function(ast.parse(source), target)))
        print(f"{spec}: {count} sites")
        plan += [(module, source, target, i) for i in range(count)]

    started = time.perf_counter()
    timeout = 0.0
    for module in sorted({item[0] for item in plan}):
        source = (ROOT / "src" / "perfcol" / module).read_text()
        # the unparsed, unmutated module must pass, or no verdict means much
        unparsed = ast.unparse(ast.parse(source))
        clock = time.perf_counter()
        verdict, tail = run_tests(module, unparsed, args.tests, 3600)
        if verdict != "survived":
            print(f"the tests fail on the unmutated {module}:\n{tail}")
            return 1
        timeout = max(timeout, 5 * (time.perf_counter() - clock) + 30)
    print(f"timeout {timeout:.0f} s per mutant", flush=True)

    def one(item):
        module, source, target, number = item
        text, where = mutant_source(source, target, number)
        return (f"{module}:{target} {where}",
                run_tests(module, text, args.tests, timeout)[0])

    found = {"survived": [], "timeout": []}
    # one test run at a time per CPU this process may use
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for label, verdict in pool.map(one, plan):
            print(f"{verdict:8}  {label}", flush=True)
            if verdict in found:
                found[verdict].append(label)
    print(f"{len(plan)} mutants, {len(found['survived'])} survived, "
          f"{len(found['timeout'])} timed out, "
          f"{time.perf_counter() - started:.0f} s")
    for label in found["survived"]:
        print(f"  survived: {label}")
    for label in found["timeout"]:
        print(f"  timed out: {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
