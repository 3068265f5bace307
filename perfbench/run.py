#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The script builds perfbench/bench.exe
from source with dune (the first run of a checkout compiles the whole
library), then runs one workload; the last line of its standard output is
the JSON result.  With --selftest it runs the self-tests of the
benchmark's own checks instead.  Build output goes to standard error;
nothing is written outside the checkout (the dune cache is disabled).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("train-kdd", "train-graph", "serve-higgs", "train-dist")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    if argv == ["--selftest"]:
        return None
    if len(argv) % 2:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    opts = dict(zip(argv[0::2], argv[1::2]))
    if set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in WORKLOADS:
        fail(f"unknown workload {opts['--workload']!r}; known: {', '.join(WORKLOADS)}")
    if opts["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    for key in ("--seed", "--seconds"):
        try:
            int(opts[key])
        except ValueError:
            fail(f"{key} takes an integer")
    return opts


def run(cmd, timeout, **kw):
    """Run [cmd] to completion; on timeout kill it and wait for it."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{cmd[0]} timed out after {timeout} s", 1)


def main():
    opts = parse(sys.argv[1:])
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository (dune-project and lib/ missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "@perfbench/selftest" if opts is None else "./perfbench/bench.exe"
    code = run(
        ["dune", "build", "--root", ".", "--display", "quiet", target],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"build failed (exit {code})", 1)
    if opts is None:
        return
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    args = [a for kv in opts.items() for a in kv]
    code = run([exe] + args, RUN_TIMEOUT_S)
    if code != 0:
        fail(f"bench.exe exited with {code}", 1)


if __name__ == "__main__":
    main()
