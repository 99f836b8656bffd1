"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (.perfbench/results).
For every workload, trace mode and metric present on both sides, prints
each side's median and quartiles over its runs and the ratio of medians.
Refuses (exit 2) when the two sides ran on different arithmetic backends,
since gmpy2 and fractions.Fraction timings are not comparable.
"""

import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}
    backends = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        backends.add(doc["meta"]["backend"])
        key = (doc["workload"], doc["trace"])
        for name, m in doc["metrics"].items():
            runs.setdefault(key + (name, m["unit"]), []).append(m["value"])
    return runs, backends


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_backends), (new, new_backends) = load(argv[0]), load(argv[1])
    if len(base_backends | new_backends) > 1:
        print("refusing to compare runs on different backends: %s vs %s"
              % (sorted(base_backends), sorted(new_backends)), file=sys.stderr)
        return 2
    print("%-12s %-5s %-36s %-6s %26s %26s %7s" % ("workload", "trace", "metric", "unit", "base q1/med/q3", "new q1/med/q3", "ratio"))
    for key in sorted(set(base) & set(new)):
        workload, trace, name, unit = key
        b, n = _quartiles(base[key]), _quartiles(new[key])
        ratio = n[1] / b[1] if b[1] else float("nan")
        print("%-12s %-5d %-36s %-6s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %7.3f (n=%d/%d)"
              % (workload, trace, name, unit, *b, *n, ratio, len(base[key]), len(new[key])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
