#!/usr/bin/env python3
"""Compare benchmark rows of two builds.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files, or directories of files, holding the standard
output of `perfbench/run.py` runs. Every run prints `row {...}` lines that
carry the mode the row was measured in (build profile, shards, threads,
telemetry mode, controllers, seed, nproc) and the commit. Rows are paired
by workload, pass and seed. A pair whose mode differs in anything but the
commit is refused: exit code 2 and nothing compared.

For every metric the medians and quartile spreads of both sides are
printed, with the share of pairs in which NEW is better. A metric that
BENCHMARK.json bounds and whose NEW median is worse than BASE's by more
than its bound is a regression: exit code 1.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def rows(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))]
    out = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if line.startswith("row "):
                    row = json.loads(line[4:])
                    key = (row["workload"], row["pass"], row["tags"]["seed"])
                    out[key] = row
    return out


def mode(row):
    return {k: v for k, v in row["tags"].items() if k != "commit"}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = rows(argv[1]), rows(argv[2])
    pairs = sorted(set(base) & set(new))
    unlike = [k for k in pairs if mode(base[k]) != mode(new[k])]
    if not pairs or unlike:
        for k in unlike:
            print(f"refused: {k} measured in {mode(base[k])} vs {mode(new[k])}", file=sys.stderr)
        if not pairs:
            print("refused: no rows share workload, pass and seed", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}

    regressions = 0
    for group in sorted({k[:2] for k in pairs}):
        keys = [k for k in pairs if k[:2] == group]
        print(f"{group[0]} {group[1]}: {len(keys)} pairs")
        for name, first in base[keys[0]]["metrics"].items():
            if not all(name in base[k]["metrics"] and name in new[k]["metrics"] for k in keys):
                continue
            a = [base[k]["metrics"][name]["value"] for k in keys]
            b = [new[k]["metrics"][name]["value"] for k in keys]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            verdict = ""
            if name in bounds:
                sign = 1 if bounds[name]["better"] == "higher" else -1
                wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
                verdict = f"better in {wins}/{len(keys)}"
                if -sign * change > bounds[name]["bound"]:
                    verdict += f"  REGRESSION (bound {bounds[name]['bound']})"
                    regressions += 1
            print(
                f"  {name:32} {ma:>14.6g} -> {mb:<14.6g} {first['unit']:<8} "
                f"{100 * change:+7.2f}%  spread {spread(a):.3f}/{spread(b):.3f}  {verdict}"
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
