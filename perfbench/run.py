#!/usr/bin/env python3
"""Build the benchmark and the dynaspam CLI from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig8-full --seed 1 --seconds 20 --trace 0

Every build product, Go cache and scratch file stays under .bench_build/
in the repository root. The arguments are passed to the benchmark
program unchanged (see perfbench/README.md).
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % root, file=sys.stderr)
        return 1
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    build = os.path.join(root, ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    bench_bin = os.path.join(build, "perfbench")
    cli_bin = os.path.join(build, "dynaspam")
    for cwd, out, pkg in ((os.path.join(root, "perfbench"), bench_bin, "."),
                          (root, cli_bin, "./cmd/dynaspam")):
        rc = subprocess.run([go, "build", "-o", out, pkg], cwd=cwd, env=env).returncode
        if rc != 0:
            print("perfbench: building %s failed" % pkg, file=sys.stderr)
            return 1
    args = [bench_bin, *sys.argv[1:], "--dynaspam", cli_bin, "--out", os.path.join(build, "out")]
    return subprocess.run(args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
