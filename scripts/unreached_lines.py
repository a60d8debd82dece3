#!/usr/bin/env python3
"""List the lines of src/ that the tier-1 tests never run.

    python scripts/unreached_lines.py [PYTEST_ARGS...]

Runs the tier-1 suite (tests/) in this process under sys.settrace, then
prints each unreached line of src/ as path:line: text, and last the total
"U of N lines unreached".  A line counts as executable when it is the line
number of some instruction of a code object compiled from the file (nested
functions, classes and comprehensions included), less the lines that hold
only a docstring.  Extra arguments go to pytest unchanged, for example

    python scripts/unreached_lines.py --deselect \\
        'tests/test_modp.py::test_rank_route_matches_dense_on_conf_modules[7-0]'

The suite runs with --hypothesis-seed=0, so that the property tests draw
the same examples on every run and the count does not drift with them;
a later --hypothesis-seed among the arguments overrides it.  Code that
tests run in a subprocess is not traced.  Stdlib only, besides pytest
itself; the exit code is pytest's.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def line_tracer(reached):
    """A sys.settrace function that adds to reached[path] the line numbers
    run in each file under src/, path absolute."""
    watched = {}  # co_filename -> its set in reached, or None outside src/

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        seen = watched.get(name, False)
        if seen is False:
            path = os.path.abspath(name)
            seen = reached.setdefault(path, set()) if path.startswith(SRC + os.sep) else None
            watched[name] = seen
        if seen is None:
            return None
        seen.add(frame.f_lineno)

        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    return trace


def executable_lines(path):
    """The executable line numbers of the file at path (see the module
    docstring)."""
    with open(path) as fh:
        source = fh.read()
    lines = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return lines


def main(argv):
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    reached = {}
    trace = line_tracer(reached)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "--hypothesis-seed=0"]
                           + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unreached = total = 0
    for folder, _, files in sorted(os.walk(SRC)):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            path = os.path.join(folder, fname)
            lines = executable_lines(path)
            missed = sorted(lines - reached.get(path, set()))
            with open(path) as fh:
                text = fh.read().splitlines()
            for line in missed:
                print("%s:%d: %s" % (os.path.relpath(path, ROOT), line, text[line - 1].strip()))
            unreached += len(missed)
            total += len(lines)
    print("%d of %d lines unreached" % (unreached, total))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
