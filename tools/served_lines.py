"""List the statements of the rivercomp package that no compare run executes.

    python tools/served_lines.py [SRC]

Every run of ``compare_bundles._matrix`` goes through
``rivercomp.cli.main`` in this one process, each in a fresh temporary
working directory, with its stdout and stderr discarded, under
``sys.settrace``.  Then, per module of the package, each block of
consecutive statements inside functions that no run reached is printed
with the function that holds it:

    spectral.py: 8 statements unreached
      147        principal_eigenpair
      161        principal_eigenpair
      165        principal_eigenpair
      196-198    principal_eigenpair
      209-212    principal_eigenpair
      305        eigen_difference_residual

A statement is reached when any line of its own ran: its whole extent for
a simple statement, its header for a compound one.  Lines the compiler
emits no code for (docstrings, ``else:``) belong to no statement, and
statements of module and class bodies, which run at import, are not
listed.  The output depends only on the code and the matrix; the wall
time goes to stderr.  ``SRC`` is a ``src`` directory or a tree root that
holds one, the repository's own by default.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
import os
import sys
import tempfile
import time
from pathlib import Path
from types import CodeType
from typing import NamedTuple

_TOOLS = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("compare_bundles", _TOOLS / "compare_bundles.py")
compare_bundles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bundles)


class Statement(NamedTuple):
    function: str  # qualified name of the innermost function holding it
    first: int
    last: int  # the last line of its own
    lines: frozenset[int]  # its own lines that hold code


def _code_lines(code: CodeType) -> set[int]:
    """Every line that holds an instruction of ``code`` or of a code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _children(node: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement, in source order."""
    body = [*getattr(node, "body", []), *getattr(node, "orelse", []), *getattr(node, "finalbody", [])]
    for clause in (*getattr(node, "handlers", []), *getattr(node, "cases", [])):
        body.extend(clause.body)
    return sorted(body, key=lambda child: child.lineno)


def statements(path: Path) -> list[Statement]:
    """The statements inside functions of the module at ``path`` that hold code, in source order."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    found = []

    def visit(body: list[ast.stmt], scope: str, in_function: bool) -> None:
        for node in body:
            children = _children(node)
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            last = max(first, children[0].lineno - 1) if children else node.end_lineno
            lines = frozenset(code_lines.intersection(range(first, last + 1)))
            if in_function and lines:
                found.append(Statement(scope, first, last, lines))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
                visit(children, inner, in_function or not isinstance(node, ast.ClassDef))
            else:
                visit(children, scope, in_function)

    visit(ast.parse(source).body, "", False)
    return sorted(found, key=lambda s: s.first)


def trace(runs: dict[str, list[str]], package: Path) -> dict[str, set[int]]:
    """The lines of ``package``'s files that the ``runs`` execute, keyed by file.

    The package is imported under the trace, so functions its import
    calls count too.
    """
    root = str(package) + os.sep
    executed: dict[str, set[int]] = {}
    tracers = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(root):
            return None
        if filename not in tracers:
            lines = executed.setdefault(filename, set())

            def on_line(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return on_line

            tracers[filename] = on_line
        return tracers[filename]

    previous, cwd = sys.gettrace(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(on_call)
        try:
            cli = importlib.import_module(f"{package.name}.cli")
            for name, args in runs.items():
                run_dir = Path(tmp, name)
                run_dir.mkdir()
                os.chdir(run_dir)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                    io.StringIO()
                ):
                    cli.main(args)
        finally:
            sys.settrace(previous)
            os.chdir(cwd)
    return executed


def unreached(stmts: list[Statement], lines: set[int]) -> list[tuple[int, int, str, int]]:
    """(first line, last line, function, statement count) of each block of
    consecutive statements that hold none of the executed ``lines``."""
    blocks: list[list] = []
    previous_reached = True
    for s in stmts:
        reached = not s.lines.isdisjoint(lines)
        if not reached:
            if previous_reached or blocks[-1][2] != s.function:
                blocks.append([s.first, s.last, s.function, 1])
            else:
                blocks[-1][1] = max(blocks[-1][1], s.last)
                blocks[-1][3] += 1
        previous_reached = reached
    return [tuple(block) for block in blocks]


def report(package: Path, executed: dict[str, set[int]]) -> str:
    out = []
    for path in sorted(package.glob("*.py")):
        blocks = unreached(statements(path), executed.get(str(path), set()))
        count = sum(block[3] for block in blocks)
        out.append(f"{path.name}: {count} statement{'s' * (count != 1)} unreached")
        for first, last, function, _ in blocks:
            lines = str(first) if first == last else f"{first}-{last}"
            out.append(f"  {lines:<9}  {function}")
    return "\n".join(out)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        compare_bundles._usage(__doc__)
    src = compare_bundles._src(argv[0] if argv else str(_TOOLS.parent))
    sys.path.insert(0, str(src))
    package = src / "rivercomp"
    start = time.perf_counter()
    runs = compare_bundles._matrix(compare_bundles._presets(src, Path.cwd()))
    executed = trace(runs, package)
    print(report(package, executed))
    print(f"{len(runs)} runs traced in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
