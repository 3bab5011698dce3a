#!/usr/bin/env python3
"""Mutation sweep: change one operator at a time in one module of
src/divpart and report the changes that no test notices.

A mutant swaps one operator of the module's source:

    <  <-> <=     >  <-> >=     == <-> !=     + <-> -     * -> //     and <-> or

(comparisons, binary operators and boolean operators, found through the
syntax tree; augmented assignments are left alone).  Each mutant is
written into a temporary copy of src, tests and scripts, so the checkout
is never written, and the given tests run against that copy with pytest
-x.  A mutant is killed when the tests fail or run past the timeout (a
mutated loop bound can spin); it survives when they pass.  The tests must
pass on the unmutated copy first, or the sweep stops.  A sweep stopped
by SIGTERM or Ctrl-C kills its running tests, removes the copy and exits
128 + the signal number.

SKIP lists the equivalent mutants, which no test can kill, each with a
one-line reason; they count neither as killed nor in the total.  A mutant
is named by its file, its enclosing function and its mutated source line,
so the names survive edits elsewhere in the file.

Prints one line per survivor (file:line, function, mutated line) and
then killed/total.  Exit 0 when every counted mutant is killed, 1
otherwise.

Example, from the root of a checkout:
    python scripts/mutants.py src/divpart/cltlab.py tests/test_cltlab.py tests/test_oracles.py
"""

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
    ast.And: ast.Or, ast.Or: ast.And,
}
TOKENS = {
    ast.Lt: b"<", ast.LtE: b"<=", ast.Gt: b">", ast.GtE: b">=", ast.Eq: b"==",
    ast.NotEq: b"!=", ast.Add: b"+", ast.Sub: b"-", ast.Mult: b"*",
    ast.FloorDiv: b"//", ast.And: b"and", ast.Or: b"or",
}

#: (file name, enclosing function, mutated line, stripped) -> why no test
#: can tell the mutant from the original.
SKIP = {
    ("arith.py", "sigma_window",
     "fits = hi // (1.0 + math.log(hi)) < 2.0**63 if r == 1 else 2 * hi**r < 2**63"):
        "differs only at hi > 2e17, a window no sieve reaches",
    ("arith.py", "sigma_window",
     "fits = hi * (1.0 - math.log(hi)) < 2.0**63 if r == 1 else 2 * hi**r < 2**63"):
        "differs only at hi > 2e17, a window no sieve reaches",
    ("arith.py", "sigma_window",
     "fits = hi * (1.0 + math.log(hi)) <= 2.0**63 if r == 1 else 2 * hi**r < 2**63"):
        "differs only at hi > 2e17, a window no sieve reaches",
    ("arith.py", "sigma_window",
     "fits = hi * (1.0 + math.log(hi)) < 2.0**63 if r == 1 else 2 * hi**r <= 2**63"):
        "at 2 hi^r = 2^63 int64 still holds every sum, as sigma_r(n) < zeta(2) n^r",
    ("arith.py", "_component_structure", "for t in range(2 ** (e + 2)):"):
        "3 has order 2^(e-2) mod 2^e, so the longer walk rewrites the same logs",
    ("dirichlet.py", "_alternating_sum", "d = (d - 1.0 / d) / 2.0"):
        "1/d is about 10^-37 of d, under half its ulp, so d + 1/d and d - 1/d round alike",
    ("dirichlet.py", "eta_alternating", "if s <= 2.0:"):
        "at s = 2, -expm1(-log 2) rounds to 0.5 = 1 - 2^-1, so both branches agree bit for bit",
    ("dirichlet.py", "tree", "if hi - lo >= _SERIES_BLOCK:"):
        "a leaf of exactly _SERIES_BLOCK terms split once more splits where np.sum's own "
        "pairwise tree does, so every sum is the same",
    ("saddle.py", "_sigma_double_sum", "sign = (-1.0) ** (j - 1)"):
        "(-1)^(j-1) = (-1)^(j+1) for every integer j",
    ("saddle.py", "minor_arc_sup", "while deltas[-1] <= width:"):
        "the last delta is at least width either way, and the grid keeps only deltas "
        "below width, so one more delta changes nothing",
    ("checks.py", "mellin_leading_order", "near = abs(ratios[-1] - 1.0) <= 0.05"):
        "no float is exactly 0.05 from 1.0: x - 1.0 is exact on [0.5, 2], a multiple of "
        "2^-53, and the float 0.05 is not one",
    ("cltlab.py", "_row_gate", "if dist.total < 0:"):
        "exact_distribution refuses a zero row total before the gate sees the row",
    ("cltlab.py", "_least_squares_slope",
     "sxy = sum((x + mx) * (y - my) for x, y in zip(xs, ys))"):
        "sum(y - my) = 0, so the centring of x drops out of sxy",
    ("cltlab.py", "_least_squares_slope",
     "sxy = sum((x - mx) * (y + my) for x, y in zip(xs, ys))"):
        "sum(x - mx) = 0, so the centring of y drops out of sxy",
    ("partition.py", "general_binomial", "if d > 0:"):
        "at d = 0 and m >= 1 both branches give 0: C(0, m) = C(m - 1, m) = 0",
    ("partition.py", "_expansion_terms", "if d >= 0:"):
        "differs only at d = 0, which build_table skips before it expands a factor",
    ("partition.py", "_unpack_row",
     "raw, _ = _offset_bytes(packed, bits, (packed.bit_length() + 2 + bits + 1) // bits)"):
        "a slot past the ceiling holds digit 0, which the trailing-zero pop removes",
    ("partition.py", "build_table",
     "deg = n_max // lo - ((last & -last).bit_length() + 1) // bits"):
        "differs only at a lowest digit of +-2^(bits-2), at least 2^30, and then only in "
        "when the rows flip, never in a cell",
    ("partition.py", "build_table",
     "standard = j >= lo or (last != 0 and 2 * (n_max // j - deg) > deg + 1)"):
        "j never equals lo, the smallest of the distinct factors applied before it",
    ("partition.py", "build_table", "for n in range(n_max, lo - j - 1, -1):"):
        "a row below lo + j reaches no source (n - lo < j), so it is written back unchanged",
    ("partition.py", "_naive_table", "if d >= 0:"):
        "at d = 0 the loop runs zero times",
    ("partition.py", "_naive_table", "elif d <= 0:"):
        "at d = 0 the loop runs zero times",
    ("partition.py", "_naive_table", "row.extend([0] * (k + 1 + len(row)))"):
        "the longer padding is zeros past cell k, which _trim removes",
    ("partition.py", "negative_mass",
     "return Fraction(sum(abs(c) for c in self.cells if c // self.total < 0), abs(self.total))"):
        "c // t < 0 exactly when c and t have opposite signs, as c * t < 0",
    ("partition.py", "negative_mass",
     "return Fraction(sum(abs(c) for c in self.cells if c * self.total <= 0), abs(self.total))"):
        "the cells it adds are zeros",
    ("checks.py", "totient_summatory_constant",
     "ok = abs(c1 - 1.339784) <= 1e-5 and abs(landau - 2.20386) < 1e-4"):
        "c1 - 1.339784 is exact near 1.34, a multiple of 2^-52, and 1e-5 is not",
    ("checks.py", "totient_summatory_constant",
     "ok = abs(c1 - 1.339784) < 1e-5 and abs(landau - 2.20386) <= 1e-4"):
        "landau - 2.20386 is exact near 2.2, a multiple of 2^-51, and 1e-4 is not",
}


def _sites(tree: ast.Module):
    """(node, operator index, operand pairs, function) per mutable operator,
    in source order.  The operator sits between each pair of operands; a
    boolean chain has one pair per operator and is swapped as one."""
    sites = []

    def visit(node: ast.AST, func: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            sites.extend((node, i, [(operands[i], operands[i + 1])], func)
                         for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            sites.append((node, 0, [(node.left, node.right)], func))
        elif isinstance(node, ast.BoolOp):
            sites.append((node, 0, list(zip(node.values, node.values[1:])), func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return sorted(sites, key=lambda s: (s[2][0][1].lineno, s[2][0][1].col_offset))


def _operator(node: ast.AST, index: int, new: ast.AST | None = None) -> ast.AST:
    """The index-th operator of node; with new given, put new in its place
    and return the one it held."""
    if isinstance(node, ast.Compare):
        old = node.ops[index]
        if new is not None:
            node.ops[index] = new
    else:
        old = node.op
        if new is not None:
            node.op = new
    return old


def mutants(source: str):
    """(line, function, mutated line, mutated source) for every mutable
    operator of source, in source order.  Each mutated source is checked to
    parse to the original tree with just that operator swapped."""
    tree = ast.parse(source)
    data = source.encode()  # node columns count UTF-8 bytes
    starts = [0]
    for text in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(text))
    out = []
    for node, index, gaps, func in _sites(tree):
        old = _operator(node, index)
        new = SWAPS[type(old)]()
        mutated = data
        for left, right in reversed(gaps):
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            at = mutated.index(TOKENS[type(old)], lo, starts[right.lineno - 1] + right.col_offset)
            mutated = mutated[:at] + TOKENS[type(new)] + mutated[at + len(TOKENS[type(old)]):]
        line = data.count(b"\n", 0, at) + 1
        _operator(node, index, new)
        want = ast.dump(tree)
        _operator(node, index, old)
        text = mutated.decode()
        if ast.dump(ast.parse(text)) != want:
            raise RuntimeError(f"line {line}: the token swap is not the tree's operator swap")
        out.append((line, func, text.splitlines()[line - 1].strip(), text))
    return out


def _run_tests(workdir: Path, tests: list[str], timeout: float) -> bool:
    """True when the tests pass against the copy in workdir."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def _stop(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills the tests, and
    # through TemporaryDirectory, which removes the copy
    raise SystemExit(128 + signum)


def main() -> int:
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a file under src/, e.g. src/divpart/cltlab.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids, relative to the root")
    args = parser.parse_args()

    module = Path(args.module).resolve().relative_to(ROOT)
    sweep = [m for m in mutants((ROOT / module).read_text(encoding="utf-8"))
             if (module.name, m[1], m[2]) not in SKIP]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, workdir / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", workdir)
        start = time.perf_counter()
        if not _run_tests(workdir, args.tests, timeout=3600):
            print("the tests fail on the unmutated copy; nothing to sweep")
            return 2
        timeout = 5 * (time.perf_counter() - start) + 30

        killed = 0
        for line, func, text, source in sweep:
            (workdir / module).write_text(source, encoding="utf-8")
            if _run_tests(workdir, args.tests, timeout):
                print(f"survived {module}:{line} {func}: {text}", flush=True)
            else:
                killed += 1
    print(f"{module}: {killed}/{len(sweep)} killed")
    return 0 if killed == len(sweep) else 1


if __name__ == "__main__":
    sys.exit(main())
