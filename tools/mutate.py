"""Mutation audit: which small faults in one module do its tests miss?

    python3 tools/mutate.py src/mvq/arith_core.py tests/test_arith_core.py \
        tests/test_acceptance.py --count 30 --seed 7

Each mutant changes one site of the module's syntax tree: it swaps `<`/`<=`,
`>`/`>=`, `==`/`!=`, `is`/`is not`, `&`/`|`, `+`/`-`, `<<`/`>>` or
`and`/`or`, or adds one to an int constant (DeMillo, Lipton & Sayward,
Hints on test data selection, 1978). Type annotations are left alone: under
`from __future__ import annotations` they are never evaluated. `--function
NAME` (repeatable; a top-level function or `Class.method`) keeps only the
sites inside those definitions. `--count` sites are drawn at random with
`--seed`; each mutant is written into a copy of the repository and the given
test files are run on it with `-x`. A mutant is killed when the run fails or
outlasts `--timeout`; the survivors are the ones to kill with a test or to
argue equivalent. Prints one line per mutant and exits 1 if any survived.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.BitAnd: "&",
    ast.BitOr: "|", ast.Add: "+", ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>",
    ast.And: "and", ast.Or: "or",
}


def annotation_nodes(tree: ast.AST) -> set[int]:
    """ids of every node inside a type annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            roots.append(node.returns)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def function_nodes(tree: ast.Module, names: list[str]) -> set[int]:
    """ids of every node inside the named top-level functions and methods."""
    kinds = ast.FunctionDef | ast.AsyncFunctionDef
    defs = {node.name: node for node in tree.body if isinstance(node, kinds)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs.update(
                (f"{cls.name}.{node.name}", node) for node in cls.body if isinstance(node, kinds)
            )
    missing = [name for name in names if name not in defs]
    if missing:
        sys.exit(f"no function {', '.join(missing)} in the module")
    return {id(sub) for name in names for sub in ast.walk(defs[name])}


def sites(tree: ast.Module, functions: list[str] | None = None) -> list[tuple[int, int]]:
    """(index of the node in ast.walk order, index of the operator within
    it) for every mutable site outside annotations, and inside the named
    functions when any are named."""
    skip = annotation_nodes(tree)
    within = function_nodes(tree, functions) if functions else None
    found = []
    for k, node in enumerate(ast.walk(tree)):
        if id(node) in skip or (within is not None and id(node) not in within):
            continue
        if isinstance(node, ast.Compare):
            found += [(k, j) for j, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.BinOp | ast.BoolOp) and type(node.op) in SWAPS:
            found.append((k, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((k, 0))
    return found


def mutate(source: str, site: tuple[int, int]) -> tuple[str, str]:
    """The module's source with the one site changed, and what changed."""
    tree = ast.parse(source)
    k, j = site
    node = list(ast.walk(tree))[k]
    if isinstance(node, ast.Constant):
        what = f"{node.value} -> {node.value + 1}"
        node.value += 1
    else:
        ops = node.ops if isinstance(node, ast.Compare) else [node.op]
        old = ops[j]
        ops[j] = SWAPS[type(old)]()
        what = f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(ops[j])]}"
        if not isinstance(node, ast.Compare):
            node.op = ops[0]
    return ast.unparse(tree), f"{node.lineno}:{node.col_offset}: {what}"


def run_tests(copy: Path, tests: list[str], timeout: float) -> bool:
    """True when the tests pass on the copy."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the repo root")
    parser.add_argument("tests", nargs="+", help="test files to run on each mutant")
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--timeout", type=float, default=120)
    parser.add_argument("--function", action="append", metavar="NAME",
                        help="mutate only inside this function or Class.method (repeatable)")
    args = parser.parse_args()
    source = (ROOT / args.module).read_text()
    found = sites(ast.parse(source), args.function)
    picked = sorted(random.Random(args.seed).sample(found, min(args.count, len(found))))
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        target = copy / args.module
        target.write_text(ast.unparse(ast.parse(source)))
        if not run_tests(copy, args.tests, args.timeout):
            sys.exit("the tests fail on the unmutated module")
        for site in picked:
            text, what = mutate(source, site)
            target.write_text(text)
            alive = run_tests(copy, args.tests, args.timeout)
            survived += alive
            print(f"{'SURVIVED' if alive else 'killed  '} {args.module}:{what}", flush=True)
    print(f"{len(picked) - survived} of {len(picked)} killed, {len(found)} sites")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
