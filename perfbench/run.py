#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload controller --seed 1 --seconds 30 --trace 0

Builds the perfbench Go program from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), then runs it once. The
program prints a human-readable table and, as its last line, one JSON
object with correct, attempted, failed and metrics. Traced runs
(--trace 1) keep their raw CPU profile under <build dir>/artifacts.

Everything the build writes (Go build cache, temporary files, the
binary) stays inside the build directory, and the build never touches
the network: the benchmark module's only dependency is the repository
module one directory up. Without it the build fails and the script
exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (go build forks compilers and linkers) and wait for it. Returns the
    exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["controller", "fleet", "admission"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    go = shutil.which("go", path=env.get("PATH"))
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    binary = os.path.join(build, "perfbench")
    code = run([go, "build", "-o", binary, "."], BUILD_TIMEOUT_S, cwd=HERE, env=env)
    if code != 0:
        print("perfbench: build %s" % ("timed out" if code is None else "failed"), file=sys.stderr)
        return 2

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", repr(args.seconds), "-trace", str(args.trace),
           "-artifacts", os.path.join(build, "artifacts")]
    code = run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
