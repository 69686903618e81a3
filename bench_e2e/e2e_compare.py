#!/usr/bin/env python3
"""Compare two sets of bench_e2e reports, metric by metric.

    python3 bench_e2e/e2e_compare.py --base p1.json p2.json ... \\
                                     --change c1.json c2.json ...

Each file is a report written by `bench_e2e --out FILE` (or
`run.py --out FILE`). Run the two commits alternately, base first, so that
base[i] and change[i] form pair i. For every workload and end-to-end
metric the script prints each side's median and quartiles and a verdict,
using the direction and bound BENCHMARK.json fixes for the metric:

  regression   the change's median is worse than the base median by more
               than the bound
  unresolved   the base runs' own quartile spread exceeds the bound, and
               not every change run beats every base run
  gain         the change wins at least 9 of every 10 pairs (ties count
               for neither) and the medians differ by more than the base
               quartile spread
  same         none of the above

It exits with status 1 when any metric regressed. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(base, change, higher, bound):
    """The verdict for one metric and the signed change of the median."""
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    worse = (bm - cm) / abs(bm) if higher else (cm - bm) / abs(bm)
    spread = (b3 - b1) / abs(bm)

    def better(c, b):
        return c > b if higher else c < b

    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs)
    if worse > bound:
        return "regression", worse
    if spread > bound and not all(better(c, b) for c in change for b in base):
        return "unresolved", worse
    if pairs and wins >= 0.9 * len(pairs) and -worse > spread:
        return "gain", worse
    return "same", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = ap.parse_args()

    spec = {m["name"]: m for m in load(args.benchmark)["end_to_end"]}
    base = [load(p) for p in args.base]
    change = [load(p) for p in args.change]
    for side, name in ((base, "base"), (change, "change")):
        prints = {json.dumps({k: v for k, v in r["fingerprint"].items()
                              if k in ("nproc", "compiler", "build_type", "lanes")},
                             sort_keys=True) for r in side}
        if len(prints) > 1:
            print(f"warning: {name} runs come from different machines or builds: {prints}")
    if base[0]["fingerprint"] != change[0]["fingerprint"]:
        print("warning: fingerprints differ: base", base[0]["fingerprint"],
              "change", change[0]["fingerprint"])

    regressed = False
    workloads = sorted(set().union(*(r["workloads"] for r in base + change)))
    print(f"{'workload':<13} {'metric':<16} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'worse':>8}  verdict")
    for wl in workloads:
        for metric, m in spec.items():
            def values(side):
                return [r["workloads"][wl]["end_to_end"][metric]["value"]
                        for r in side if wl in r["workloads"]]
            b, c = values(base), values(change)
            if not b or not c:
                continue
            what, worse = verdict(b, c, m["better"] == "higher", m["bound"])
            regressed |= what == "regression"
            print(f"{wl:<13} {metric:<16} {summary(b):<36} {summary(c):<36} "
                  f"{100 * worse:+7.2f}%  {what} "
                  f"(n={len(b)}/{len(c)}, bound {m['bound']:.0%})")
        failed = [sum(r["workloads"][wl]["failed"] for r in side if wl in r["workloads"])
                  for side in (base, change)]
        if failed[1] > failed[0]:
            print(f"{wl:<13} failed operations rose: base {failed[0]}, change {failed[1]}")
            regressed = True
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
