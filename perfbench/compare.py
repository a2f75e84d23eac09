"""Compare two benchmark result records (written by run.py to
.perfbench/results/), metric by metric.

    python3 perfbench/compare.py BASE.json CHANGE.json

Refuses (exit 2) when the records ran on different backends or different
job lists, since their numbers then measure different work; a job-list
digest covers every input byte, so compare runs of the same seed.
"""

import json
import sys


def load(path):
    with open(path) as fh:
        return json.load(fh)


def compare(base, change):
    for key in ("backend", "job_list_digest", "workload", "trace"):
        if base[key] != change[key]:
            raise ValueError("refusing to compare: %s differs (%s vs %s)"
                             % (key, base[key], change[key]))
    lines = []
    bm = base["result"]["metrics"]
    cm = change["result"]["metrics"]
    for name in bm:
        b, c = bm[name]["value"], cm[name]["value"]
        ratio = "%.4f" % (c / b) if b else "n/a"
        lines.append("%-36s %14.6f %14.6f  x%s %s"
                     % (name, b, c, ratio, bm[name]["unit"]))
    return lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        lines = compare(load(argv[0]), load(argv[1]))
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
