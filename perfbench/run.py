#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it; its last line of standard output is the JSON result. Exits
non-zero without a result when the checkout cannot be built.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2

    # The shared dune cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(dune + ["build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child = subprocess.Popen(cmd)
    # A SIGTERM becomes SystemExit, so the finally clause below still
    # stops the child and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
