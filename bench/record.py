"""Record every op's answer into bench/expected.json.

    python3 bench/record.py

Run it on the commit whose answers the benchmark should hold later commits
to; the checked-in file holds the answers of the benchmark's first commit.
"""

from __future__ import annotations

import json
import sys

from worker import import_confspace


def main():
    import_confspace()
    import workloads
    answers = {}
    for name in workloads.WORKLOADS:
        for op in workloads.build_ops(name, 0, expected={}):
            answers[op.name] = op.run()
            print("%s: %s" % (name, op.name), file=sys.stderr, flush=True)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
