"""List the package functions that no golden run enters.

Runs ``cli.main`` in this process for every run of ``tools/golden.py``
(each command on each ``configs/*.json``, in both formats, into a temporary
directory) under a ``sys.settrace`` hook, set for the threads the runs
start too, that records every function of ``src/excusum`` they call.  Then
prints each function defined there that no run entered, with its line
count, and the total.  A function nested in one that no run entered is
counted with its parent, not again on its own.

    python3 tools/reach.py

A report, not a gate: it exits 0 whatever it finds.  Stdlib only; the
package needs numpy.
"""

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
PACKAGE = TOOLS.parent / "src" / "excusum"
sys.path[:0] = [str(TOOLS), str(PACKAGE.parent)]

import golden  # noqa: E402
from excusum import cli  # noqa: E402


def entered_functions() -> set[tuple[str, int]]:
    """(file, first line) of every package function the golden runs call."""
    entered = set()
    prefix = str(PACKAGE)

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
        # returns None: no line events inside the frame

    with tempfile.TemporaryDirectory() as tmp:
        for n, (command, config, fmt) in enumerate(golden.golden_runs()):
            argv = [command, "--config", str(config), "--out", str(Path(tmp) / str(n)), "--format", fmt]
            sys.settrace(tracer)
            threading.settrace(tracer)
            try:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
            finally:
                sys.settrace(None)
                threading.settrace(None)
    return entered


def unreached(entered: set[tuple[str, int]]) -> list[tuple[str, str, int]]:
    """(file, qualified name, lines) of every outermost function no run entered."""
    found = []

    def visit(node, path: Path, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if (str(path), first) not in entered:
                    found.append((path.name, scope + child.name, child.end_lineno - first + 1))
                    continue
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, f"{scope}{child.name}." if named else scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def main() -> int:
    found = unreached(entered_functions())
    for file, name, lines in found:
        print(f"{lines:5d}  {file}:{name}")
    print(f"{sum(lines for _, _, lines in found):5d}  lines in {len(found)} functions no golden run enters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
