#!/usr/bin/env python3
"""Compares saved benchmark outputs, but only across matching hosts.

    python3 perfbench/compare.py base/*.out -- change/*.out

Each file is the stdout of one run. The `host` line carries the host
fingerprint; runs whose nproc, CPU model, ISA flags or L3 size differ are
not comparable and the script exits with code 2. Otherwise it prints, per
workload and metric, the median and quartiles of each side and the ratio
of the medians.
"""

import collections
import json
import statistics
import sys

HOST_KEYS = ("nproc", "cpu_model", "isa", "l3")


def load(path):
    host, workload, result = None, None, None
    with open(path) as f:
        for line in f:
            if line.startswith("host "):
                host = json.loads(line[5:])
            elif line.startswith("workload "):
                workload = line.split()[1]
            elif line.startswith("{"):
                result = json.loads(line)
    if host is None or workload is None or result is None:
        sys.exit(f"compare.py: {path} is not a benchmark output")
    return {k: host[k] for k in HOST_KEYS}, workload, result


def side(paths, fingerprints):
    values = collections.defaultdict(lambda: collections.defaultdict(list))
    for path in paths:
        host, workload, result = load(path)
        fingerprints.add(json.dumps(host, sort_keys=True))
        for name, m in result["metrics"].items():
            values[workload][name].append(m["value"])
    return values


def summary(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main(argv):
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    fingerprints = set()
    base = side(argv[:cut], fingerprints)
    change = side(argv[cut + 1:], fingerprints)
    if len(fingerprints) != 1:
        print("compare.py: host fingerprints differ; not comparable:")
        for fp in sorted(fingerprints):
            print("  ", fp)
        return 2
    for workload in sorted(set(base) & set(change)):
        print(workload)
        for name, xs in base[workload].items():
            ys = change[workload].get(name)
            if not ys:
                continue
            b, c = summary(xs), summary(ys)
            ratio = c[1] / b[1] if b[1] else float("nan")
            print(f"  {name:34s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]"
                  f"  change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]"
                  f"  ratio {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
