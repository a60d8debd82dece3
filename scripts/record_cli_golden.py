#!/usr/bin/env python3
"""Record the CLI sweep that tests/test_cli.py replays.

    python scripts/record_cli_golden.py [OUT_FILE]

Runs every command line below in-process through confspace.cli.main and
writes {command line: [exit code, stdout]} to OUT_FILE, by default
tests/cli_golden.json.  Stderr (progress notes, argparse usage) is not
recorded.  Each leaf command except selftest appears in table, csv and json
form, with --format both before and after the subcommand, at sizes small
enough that the whole sweep takes a few seconds; the error cases follow.
Re-record only after a deliberate change of output, and name it in
CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import shlex
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from confspace import cli  # noqa: E402

OUT = ROOT / "tests" / "cli_golden.json"

LEAVES = [
    "arnold poincare --k 3 --n 2",
    "arnold basis --k 3 --n 2 --degree 1",
    "arnold normalform --k 3 --n 2 --word a13*a12",
    "forest basis --k 3 --n 2 --degree 2",
    "forest rewrite --n 2 --forest '(1(23))'",
    "forest rewrite --n 3 --forest '((12)3),(45)'",
    "forest pair --k 4 --n 2 --degree 2",
    "unordered-betti --k 4 --n 3",
    "ce betti --preset punctured-torus --k 2",
    "ce stability --preset solid-torus --kmax 2",
    "ce euler --preset punctured-torus --weight-bound 4",
    "ce labeled-check --preset solid-torus --r 2 --degree-bound 12",
    "ce stress --genus 1 --k 2",
    "ce stress --preset punctured-torus --k 3 --degree 2",
    "braid present --k 3",
    "braid present --group symmetric --k 3",
    "braid subgroup --k 3",
    "braid subgroup --k 3 --target sign",
    "braid subgroup --group symmetric --k 3",
    "braid subgroup --k 3 --kind stabilizer",
    "braid subgroup --k 4 --kind stabilizer --point 2",
    "braid verify --k 2",
    "braid verify --k 4",
    "modp vanishing --p 3 --n 2",
    "modp invariants --p 3 --n 2",
    "modp tate --p 3 --n 2 --t 2",
    "modp tate --p 3 --n 2 --lo -2 --hi 2",
    "modp cohen --p 5 --n 2 --degree-bound 8",
    "modp swan --p 5",
]

# an option after the subcommand overrides the one before it
OVERRIDES = [
    "--format json braid subgroup --k 3 --format table",
    "--format csv modp swan --p 5 --format json",
]

ERRORS = [
    "arnold poincare --k -1 --n 2",
    "arnold poincare --k 3",
    "arnold poincare --k 3 --n 2 --workers 2",
    "arnold poincare --k 3 --format json",
    "arnold poincare --k 3 --form=json",
    "modp swan --p 5 --format json --workers 2",
    "--workers 2 arnold poincare --k 3 --n 2",
    "arnold normalform --k 3 --n 2 --word b12",
    "forest rewrite --n 2 --forest '(1(2'",
    "ce betti --k 2",
    "ce betti --preset nope --k 2",
    "ce stability --preset solid-torus --kmax -1",
    "braid subgroup --k 1",
    "braid subgroup --k 3 --point 7",
    "braid subgroup --k 3 --point -1",
    "braid subgroup --k 3 --kind stabilizer --point 0",
    "braid subgroup --k 3 --kind stabilizer --point 4",
    "modp swan --p 9",
    "selftest --checks 6 --workers 0",
    "selftest --checks 99",
    "selftest --checks x",
]


def command_lines():
    for line in LEAVES:
        yield line
        yield "--format csv " + line
        yield line + " --format json"
        yield "--format json " + line
    yield from OVERRIDES
    for line in ERRORS:
        yield line
        yield "--format json " + line


def run(line):
    """[exit code, stdout] of one command line, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(shlex.split(line))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return [code, out.getvalue()]


def main():
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else OUT
    golden = {line: run(line) for line in command_lines()}
    out.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
