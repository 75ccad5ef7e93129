"""Apply every mechanical mutant of one module, one at a time, and list the ones no test kills.

    python tests/mutation_sweep.py MODULE [PYTEST_ARG ...]

MODULE is a file under ``src/``, such as ``src/qviterbi/statevector.py``.
The sweep makes one mutant per site:

- a comparison operator swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==``
  and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- the operator of a binary operation or an augmented assignment swapped:
  ``+`` and ``-``, ``*`` to ``/`` and back, ``//`` to ``/``, ``%`` to ``//``,
  ``**`` to ``*``, ``&`` to ``|``, ``|`` to ``^``, ``^`` to ``|``, ``<<`` and
  ``>>``;
- every ``and`` of one boolean operation made ``or``, or every ``or`` ``and``;
- an int constant plus 1 (``True`` and ``False`` are not ints here).

Type annotations are skipped: under ``from __future__ import annotations``
they are strings, so their mutants are equivalent by construction. A mutant
rewrites only the operator's tokens or the constant's text, so the rest of
the file, comments included, is the original text.

For each mutant the script copies the tree (as ``tests/mutation_audit.py``
does) into a temporary directory, writes the mutant there and runs
``python -m pytest -x -q -p no:cacheprovider`` with the PYTEST_ARGs (default:
the whole tier-1 suite) in a child process. ``tests/test_mutation_table.py``
is left out: it reads the text of ``src/``, so it fails on any mutant of a
line the tables name, whatever the mutant's behaviour. Only the child is
limited: to 3 GB of address space and 300 s. A mutant survives when pytest exits 0; any
other outcome (a failed test, a collection error, the time limit) kills it.
The unmutated copy is run the same way first, and the sweep stops if it does
not pass.

``EQUIVALENT`` lists the survivors reviewed as equivalent, each keyed by its
module, its source line (stripped) and its old and new text, with the reason.
A key names every site of that operator on that line. The script prints one
line per mutant, then the survivors not in the table, and exits 1 if there is
one. ``tests/test_mutation_table.py`` checks in tier-1 that every entry still
names a site. The script changes nothing in the tree it reads. Its name does
not start with ``test_``, so pytest does not collect it.
"""
from __future__ import annotations

import ast
import bisect
import io
import os
import resource
import subprocess
import sys
import tempfile
import tokenize
from typing import NamedTuple

from mutation_audit import ROOT, copy_tree

ADDRESS_SPACE = 3 << 30
TIMEOUT_S = 300

COMPARE = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
           ast.Is: "is not", ast.IsNot: "is", ast.In: "not in", ast.NotIn: "in"}
BINARY = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.FloorDiv: "/", ast.Mod: "//",
          ast.Pow: "*", ast.BitAnd: "|", ast.BitOr: "^", ast.BitXor: "|", ast.LShift: ">>", ast.RShift: "<<"}
BOOLEAN = {ast.And: "or", ast.Or: "and"}


class Mutant(NamedTuple):
    line: str  # the first mutated source line, stripped
    lineno: int
    old: str
    new: str
    edits: tuple[tuple[int, int], ...]  # character spans of the file, each replaced by ``new``

    def apply(self, text: str) -> str:
        for start, end in reversed(self.edits):
            text = text[:start] + self.new + text[end:]
        return text


class Equivalent(NamedTuple):
    path: str  # relative to the repository root
    line: str
    old: str
    new: str
    reason: str


EQUIVALENT = (
    Equivalent("src/qviterbi/statevector.py", "first = index.reshape(-1, 2, mask & -mask)[:, 0].ravel()", "1", "2",
               "numpy reads a negative size in reshape, -2 as -1, as the one it infers"),
    Equivalent("src/qviterbi/nelder_mead.py", "for _ in range(2):", "2", "3",
               "numpy 2.4's argsort keeps the order of a list it has just sorted, ties included (no change in "
               "40,000 random tie patterns of 2 to 129 values), so a third sort is a no-op like the second; the "
               "port keeps SciPy's two sorts for a numpy whose argsort would reorder them"),
    Equivalent("src/qviterbi/nelder_mead.py",
               "if (all(abs(v - b) <= XATOL for vertex in sim[1:] for v, b in zip(vertex, best))", "<=", "<",
               "differs only when two vertex coordinates are exactly 1e-4 apart; 1e-4 is an odd multiple of "
               "2^-66, so both would lie below 2^-13 in magnitude; no input reaching that tie was found, "
               "unlike the FATOL tie, which a test pins"),
    Equivalent("src/qviterbi/nelder_mead.py", "xc = _along(xbar, worst, _PSI * _RHO)", "*", "/",
               "the reflection coefficient is 1, so psi * rho and psi / rho are both psi"),
)


def _annotation_nodes(tree: ast.AST) -> set[int]:
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            roots.append(node.returns)
    return {id(n) for root in roots for n in ast.walk(root)}


def mutants(text: str) -> list[Mutant]:
    """Every sweep mutant of a module's source ``text``, in source order."""
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int, utf8: bool) -> int:
        # ast counts columns in UTF-8 bytes, tokenize in characters.
        line = lines[lineno - 1]
        return starts[lineno - 1] + (len(line.encode()[:col].decode()) if utf8 else col)

    tokens = [(offset(*t.start, False), offset(*t.end, False), t.string)
              for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type in (tokenize.OP, tokenize.NAME) and t.string not in "()"]

    def between(left: ast.AST, right: ast.AST) -> list[tuple[int, int, str]]:
        lo = offset(left.end_lineno, left.end_col_offset, True)
        hi = offset(right.lineno, right.col_offset, True)
        return [t for t in tokens if lo <= t[0] and t[1] <= hi]

    found = []

    def add(spans: list[tuple[int, int]], new: str) -> None:
        start, end = spans[0]
        lineno = bisect.bisect_right(starts, start)
        found.append(Mutant(lines[lineno - 1].strip(), lineno, text[start:end], new, tuple(spans)))

    skipped = _annotation_nodes(tree := ast.parse(text))
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                gap = between(left, right)
                if gap:
                    add([(gap[0][0], gap[-1][1])], COMPARE[type(op)])
        elif isinstance(node, ast.BinOp | ast.AugAssign) and type(node.op) in BINARY:
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            gap = between(left, right)
            if len(gap) == 1:
                suffix = "=" if isinstance(node, ast.AugAssign) else ""
                add([gap[0][:2]], BINARY[type(node.op)] + suffix)
        elif isinstance(node, ast.BoolOp):
            gaps = [between(a, b) for a, b in zip(node.values, node.values[1:])]
            if all(len(gap) == 1 for gap in gaps):
                add([gap[0][:2] for gap in gaps], BOOLEAN[type(node.op)])
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start = offset(node.lineno, node.col_offset, True)
            end = offset(node.end_lineno, node.end_col_offset, True)
            # A constant inside an f-string may carry the string's position.
            if text[start:end].isdigit() and int(text[start:end]) == node.value:
                add([(start, end)], str(node.value + 1))
    return sorted(found, key=lambda m: m.edits)


def equivalent(path: str, mutant: Mutant) -> Equivalent | None:
    for entry in EQUIVALENT:
        if (entry.path, entry.line, entry.old, entry.new) == (path, mutant.line, mutant.old, mutant.new):
            return entry
    return None


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tests(tree: str, pytest_args: list[str]) -> str:
    """``passed``, ``failed`` (rc 1), ``timeout`` or ``rc=N`` for the tests run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        rc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             "--ignore=tests/test_mutation_table.py", *pytest_args],
                            cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S,
                            preexec_fn=_limit).returncode
    except subprocess.TimeoutExpired:
        return "timeout"
    return {0: "passed", 1: "failed"}.get(rc, f"rc={rc}")


def main(argv: list[str]) -> int:
    if not argv or not argv[0].startswith("src/") or not os.path.isfile(os.path.join(ROOT, argv[0])):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    path, pytest_args = argv[0], argv[1:]
    with open(os.path.join(ROOT, path)) as fh:
        text = fh.read()
    found = mutants(text)
    print(f"{path}: {len(found)} mutants", flush=True)

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        tree = os.path.join(tmp, "tree")
        copy_tree(tree)
        target = os.path.join(tree, path)
        baseline = run_tests(tree, pytest_args)
        if baseline != "passed":
            print(f"the unmutated tree did not pass: {baseline}", file=sys.stderr)
            return 2
        for mutant in found:
            with open(target, "w") as fh:
                fh.write(mutant.apply(text))
            verdict = run_tests(tree, pytest_args)
            entry = equivalent(path, mutant) if verdict == "passed" else None
            label = "killed" if verdict != "passed" else "equivalent" if entry else "SURVIVED"
            print(f"{label:10} {verdict:8} line {mutant.lineno}: {mutant.old!r} -> {mutant.new!r}  | {mutant.line}",
                  flush=True)
            if verdict == "passed" and not entry:
                survivors.append(mutant)
        with open(target, "w") as fh:
            fh.write(text)

    print(f"{len(found)} mutants, {len(survivors)} survivors not in EQUIVALENT")
    for mutant in survivors:
        print(f"  survivor: line {mutant.lineno}: {mutant.old!r} -> {mutant.new!r}  | {mutant.line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
