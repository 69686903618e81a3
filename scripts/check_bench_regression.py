#!/usr/bin/env python3
"""Diff a bench_regression report against the committed BENCH_10.json baseline.

Two modes:

  check_bench_regression.py BASELINE CURRENT [--band 8.0]
      The CI trajectory gate. Cases match by name; for every matched case
      the fingerprint (canonical config digest) and every `correctness`
      field must be EXACTLY equal — any drift means either a real
      regression or an intentional change that requires regenerating the
      baseline (run `bench_regression --out BENCH_10.json` and commit it).
      `timing` duration fields (*_ms / *_sec) must stay within a factor of
      --band of the baseline; fields whose baseline is below the noise
      floor (5 ms / 0.005 s) are skipped, and rate (*_per_sec, matched
      before the *_sec duration rule) and latency-percentile (*_us)
      fields are reported but never gated — shared-runner timing is
      trend-grade, the band only catches order-of-magnitude cliffs.

      A smoke-mode CURRENT is diffed as a subset: every smoke-tier case in
      the baseline must be present (coverage loss fails), full-tier cases
      are ignored. A full-mode CURRENT must carry the baseline's exact
      case set. The catalog fingerprint must match in both modes — it
      covers every case config, so config drift fails even for cases the
      smoke run did not execute.

  check_bench_regression.py --exact A B
      Determinism gate: same case set, every fingerprint and correctness
      field byte-equal, timing ignored. Used by CI to compare runs at
      OVNES_THREADS=1 vs 4.

Both modes also assert the single-tree Benders convergence gates that
scripts/check_convergence_regression.py used to derive from bench output,
now computed from the solver/convergence_* cases of CURRENT (or B):
summed st_sep_rounds strictly below summed mt_sep_rounds, summed st_pivots
within --pivot-slack of mt_pivots, and optimality parity per case.

The solver/milp_heuristics_* cases carry their own gates (ISSUE 10): at an
equal node budget the heuristics+pseudocost configuration must find an
incumbent (>= 1 from a heuristic, with strong-branching probes actually
run), must reach its first incumbent no later than the default rule, and
must not regress the proven gap (a default run with no incumbent — null
gap — gates trivially).

Appends a markdown diff table to $GITHUB_STEP_SUMMARY when set.
Exit codes: 0 pass, 1 regression, 2 malformed input.
"""

import argparse
import json
import os
import sys

NOISE_FLOORS = {"_ms": 5.0, "_sec": 0.005}
RATE_SUFFIX = "_per_sec"  # ends in "_sec" too, so it is matched first


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for key in ("schema_version", "mode", "catalog_fingerprint", "cases"):
        if key not in report:
            print(f"check_bench_regression: {path} missing '{key}'", file=sys.stderr)
            sys.exit(2)
    return report


def by_name(report):
    return {c["name"]: c for c in report["cases"]}


def gated_timing_field(name, baseline_value):
    """A timing field is gated iff it is a duration above the noise floor."""
    if name.endswith(RATE_SUFFIX):
        return False  # a rate, e.g. scenarios_per_sec: informational only
    for suffix, floor in NOISE_FLOORS.items():
        if name.endswith(suffix):
            return baseline_value >= floor
    return False  # rates, percentiles: informational only


def diff_case(name, base, cur, band, failures, rows):
    if base["fingerprint"] != cur["fingerprint"]:
        failures.append(
            f"{name}: config fingerprint changed "
            f"({base['fingerprint']} -> {cur['fingerprint']}); "
            f"regenerate BENCH_10.json")
        return
    bc, cc = base["correctness"], cur["correctness"]
    for field in sorted(set(bc) | set(cc)):
        if bc.get(field) != cc.get(field):
            failures.append(
                f"{name}: correctness field '{field}' drifted: "
                f"{bc.get(field)!r} -> {cc.get(field)!r}")
            rows.append((name, field, bc.get(field), cc.get(field), "FAIL"))
    bt, ct = base.get("timing", {}), cur.get("timing", {})
    for field in sorted(set(bt) & set(ct)):
        bv, cv = bt[field], ct[field]
        if not isinstance(bv, (int, float)) or not isinstance(cv, (int, float)):
            continue
        if not gated_timing_field(field, bv):
            rows.append((name, field, bv, cv, "info"))
            continue
        ratio = max(bv, cv) / max(min(bv, cv), 1e-12)
        if ratio > band:
            failures.append(
                f"{name}: timing '{field}' outside band: "
                f"{bv:.3f} -> {cv:.3f} ({ratio:.1f}x > {band:.1f}x)")
            rows.append((name, field, bv, cv, "FAIL"))
        else:
            rows.append((name, field, bv, cv, "ok"))


def convergence_gates(report, pivot_slack, failures):
    cases = [c for c in report["cases"]
             if c["name"].startswith("solver/convergence")]
    if not cases:
        return
    mt_sep = sum(c["correctness"]["mt_sep_rounds"] for c in cases)
    st_sep = sum(c["correctness"]["st_sep_rounds"] for c in cases)
    mt_piv = sum(c["correctness"]["mt_pivots"] for c in cases)
    st_piv = sum(c["correctness"]["st_pivots"] for c in cases)
    if st_sep >= mt_sep:
        failures.append(
            f"convergence: single-tree separation rounds did not drop: "
            f"{st_sep} >= {mt_sep}")
    if st_piv > mt_piv * (1.0 + pivot_slack):
        failures.append(
            f"convergence: single-tree master pivots regressed: "
            f"{st_piv} > {mt_piv} * {1.0 + pivot_slack:.2f}")
    for c in cases:
        cc = c["correctness"]
        if cc.get("mt_optimal") and not cc.get("st_optimal"):
            failures.append(f"convergence: single-tree lost optimality on "
                            f"{c['name']}")


def milp_heuristics_gates(report, failures):
    """ISSUE 10 acceptance gates over the solver/milp_heuristics_* cases."""
    cases = [c for c in report["cases"]
             if c["name"].startswith("solver/milp_heuristics")]
    for c in cases:
        cc = c["correctness"]
        name = c["name"]
        if cc.get("heur_status") not in ("optimal", "feasible"):
            failures.append(f"{name}: heuristics run found no incumbent "
                            f"(status {cc.get('heur_status')!r})")
        if cc.get("heuristic_incumbents", 0) < 1:
            failures.append(f"{name}: no heuristic incumbent was installed")
        if cc.get("strong_probes", 0) < 1:
            failures.append(f"{name}: strong branching never probed")
        def_first = cc.get("def_first_incumbent_nodes", -1)
        heur_first = cc.get("heur_first_incumbent_nodes", -1)
        if def_first >= 0 and not (0 <= heur_first <= def_first):
            failures.append(
                f"{name}: heuristics reached the first incumbent later than "
                f"the default rule: {heur_first} > {def_first}")
        def_gap, heur_gap = cc.get("def_gap"), cc.get("heur_gap")
        if def_gap is not None:  # null = default run proved no gap at all
            if heur_gap is None or heur_gap > def_gap + 1e-6:
                failures.append(
                    f"{name}: proven gap regressed with heuristics on: "
                    f"{heur_gap} > {def_gap}")


def emit_summary(title, rows, failures):
    lines = [f"### {title}", ""]
    if rows:
        lines += ["| case | field | baseline | current | status |",
                  "|---|---|---|---|---|"]
        for name, field, bv, cv, status in rows:
            fmt = lambda v: f"{v:.3f}" if isinstance(v, float) else str(v)
            lines.append(f"| {name} | {field} | {fmt(bv)} | {fmt(cv)} "
                         f"| {status} |")
        lines.append("")
    lines.append("PASS" if not failures else
                 "FAIL:\n" + "\n".join("- " + f for f in failures))
    text = "\n".join(lines)
    print(text)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")


def run_exact(a_path, b_path, pivot_slack):
    a, b = load(a_path), load(b_path)
    failures = []
    if a["catalog_fingerprint"] != b["catalog_fingerprint"]:
        failures.append("catalog fingerprints differ")
    ca, cb = by_name(a), by_name(b)
    if set(ca) != set(cb):
        failures.append(f"case sets differ: only-in-A={sorted(set(ca)-set(cb))} "
                        f"only-in-B={sorted(set(cb)-set(ca))}")
    for name in sorted(set(ca) & set(cb)):
        if ca[name]["fingerprint"] != cb[name]["fingerprint"]:
            failures.append(f"{name}: fingerprints differ")
        if ca[name]["correctness"] != cb[name]["correctness"]:
            fields = sorted(
                f for f in set(ca[name]["correctness"]) | set(cb[name]["correctness"])
                if ca[name]["correctness"].get(f) != cb[name]["correctness"].get(f))
            failures.append(f"{name}: correctness differs on {fields}")
    convergence_gates(b, pivot_slack, failures)
    milp_heuristics_gates(b, failures)
    emit_summary("bench_regression determinism (exact)", [], failures)
    return 1 if failures else 0


def run_diff(base_path, cur_path, band, pivot_slack):
    base, cur = load(base_path), load(cur_path)
    failures, rows = [], []

    if base["schema_version"] != cur["schema_version"]:
        failures.append(f"schema_version changed: {base['schema_version']} -> "
                        f"{cur['schema_version']}")
    if base["catalog_fingerprint"] != cur["catalog_fingerprint"]:
        failures.append(
            "catalog fingerprint changed — the case catalog or a case config "
            "was edited; regenerate BENCH_10.json with `bench_regression --out` "
            "and commit it")

    smoke = cur["mode"] == "smoke"
    cb, cc = by_name(base), by_name(cur)
    expected = {n for n, c in cb.items() if not smoke or c["tier"] == "smoke"}
    missing = sorted(expected - set(cc))
    if missing:
        failures.append(f"cases missing from current run: {missing}")
    extra = sorted(set(cc) - set(cb))
    if extra:
        failures.append(f"cases not in baseline (regenerate BENCH_10.json): "
                        f"{extra}")

    for name in sorted(expected & set(cc)):
        diff_case(name, cb[name], cc[name], band, failures, rows)

    convergence_gates(cur, pivot_slack, failures)
    milp_heuristics_gates(cur, failures)
    mode = f"{cur['mode']} vs {base['mode']} baseline"
    emit_summary(f"bench_regression diff ({mode})", rows, failures)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="baseline report (BENCH_10.json), or "
                                     "report A with --exact")
    ap.add_argument("current", help="current report, or report B with --exact")
    ap.add_argument("--exact", action="store_true",
                    help="determinism mode: exact correctness equality, "
                         "timing ignored")
    ap.add_argument("--band", type=float, default=8.0,
                    help="timing tolerance factor (default 8.0)")
    ap.add_argument("--pivot-slack", type=float, default=0.10,
                    help="single-tree pivot overhead allowance (default 0.10)")
    args = ap.parse_args()
    if args.exact:
        return run_exact(args.baseline, args.current, args.pivot_slack)
    return run_diff(args.baseline, args.current, args.band, args.pivot_slack)


if __name__ == "__main__":
    sys.exit(main())
