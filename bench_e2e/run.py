#!/usr/bin/env python3
"""Build bench_e2e from this checkout and run one workload.

Run from the repository root:

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the library and the benchmark in
Release mode into $CARGO_TARGET_DIR, or .bench_build when it is unset;
later calls only bring that build up to date. Build output goes to
stderr, so the last line on stdout is the benchmark's result object. With
--trace 1 the spans go to <build dir>/trace-<workload>-<seed>.jsonl and the
result carries the per-layer metrics instead of the end-to-end ones.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd, **kwargs):
    """Run cmd to completion; if we are interrupted, stop it first."""
    child = subprocess.Popen(cmd, **kwargs)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full report as JSON")
    args = ap.parse_args()
    # A termination request unwinds through run(), which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    configured = any(os.path.exists(os.path.join(build, f))
                     for f in ("Makefile", "build.ninja"))
    steps = [] if configured else [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"]]
    steps.append(["cmake", "--build", build, "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        code = run(step, stdout=sys.stderr)
        if code != 0:
            print(f"run.py: '{' '.join(step)}' failed ({code})", file=sys.stderr)
            return code if code > 0 else 1

    cmd = [os.path.join(build, "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace",
                os.path.join(build, f"trace-{args.workload}-{args.seed}.jsonl")]
    if args.out:
        cmd += ["--out", args.out]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
