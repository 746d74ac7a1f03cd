#!/usr/bin/env python3
"""Side-by-side comparison of two sets of perfbench results.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are each a results directory (run.py writes one JSON
report per run under <build dir>/results/) or a list of files joined
with commas; a file may also be a captured run.py stdout. For every
workload and trace mode it prints each metric's median and quartiles
on both sides, the change of the medians, and the run counts. It also
derives the dispatch hop under load from the end-to-end runs:
p50_us on ping_dispatch minus p50_us on ping_direct.
"""

import collections
import json
import os
import statistics
import sys


def reports(spec):
    paths = []
    for part in spec.split(","):
        if os.path.isdir(part):
            paths += [os.path.join(part, f) for f in sorted(os.listdir(part))]
        else:
            paths.append(part)
    for path in paths:
        with open(path) as f:
            text = f.read()
        try:
            doc = json.loads(text)
            yield doc.get("report", doc)
            continue
        except json.JSONDecodeError:
            pass
        for line in text.splitlines():
            if line.startswith('{"report"'):
                yield json.loads(line)["report"]


def collect(spec):
    """{(workload, trace): {metric: [values]}} plus units."""
    values = collections.defaultdict(lambda: collections.defaultdict(list))
    units = {}
    for rep in reports(spec):
        key = (rep["stamp"]["workload"], rep["stamp"]["trace"])
        for name, m in rep["metrics"].items():
            values[key][name].append(m["value"])
            units[name] = m["unit"]
    for trace in (0, 1):
        direct = values.get(("ping_direct", trace), {}).get("p50_us")
        via = values.get(("ping_dispatch", trace), {}).get("p50_us")
        if direct and via:
            values[("derived", trace)]["dispatch.hop_under_load_us"] = [
                statistics.median(via) - statistics.median(direct)]
            units["dispatch.hop_under_load_us"] = "us"
    return values, units


def summary(v):
    if not v:
        return None
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return med, q1, q3


def cell(s):
    if s is None:
        return "%36s" % "-"
    return "%12.4g [%9.4g, %9.4g]" % s


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, units = collect(sys.argv[1])
    after, units_after = collect(sys.argv[2])
    units.update(units_after)
    for key in sorted(set(before) | set(after), key=str):
        b, a = before.get(key, {}), after.get(key, {})
        names = sorted(set(b) | set(a))
        n_b = max((len(v) for v in b.values()), default=0)
        n_a = max((len(v) for v in a.values()), default=0)
        print("\n== %s (trace %d): %d runs before, %d after" % (
            key[0], key[1], n_b, n_a))
        print("%-44s %-6s %-36s %-36s %s" % (
            "metric", "unit", "before median [q1, q3]",
            "after median [q1, q3]", "change"))
        for name in names:
            sb, sa = summary(b.get(name)), summary(a.get(name))
            change = ""
            if sb and sa and sb[0]:
                change = "%+.1f%%" % (100.0 * (sa[0] - sb[0]) / abs(sb[0]))
            print("%-44s %-6s %s %s %s" % (name, units.get(name, ""),
                                           cell(sb), cell(sa), change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
