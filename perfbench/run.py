#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

It builds the benchmark (perfbench/, a Go module of its own) and the
athena-serve binary from source into .bench_build/, keeping the Go build
cache there too, then replaces itself with the benchmark, passing every
argument on. See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys

BUILD = ".bench_build"


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.join(root, BUILD)
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOFLAGS="-mod=readonly", GOPROXY="off",
               GOTELEMETRY="off", CGO_ENABLED="0", TMPDIR=env["GOTMPDIR"])
    builds = [
        (bench, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
        (root, ["go", "build", "-o", os.path.join(bindir, "athena-serve"),
                "./cmd/athena-serve"]),
    ]
    for cwd, cmd in builds:
        if not os.path.isdir(cwd):
            sys.exit("perfbench: %s is missing; run from the repository root" % cwd)
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    exe = os.path.join(bindir, "perfbench")
    os.execve(exe, [exe, "--serve-bin", os.path.join(bindir, "athena-serve"),
                    "--out-dir", os.path.join(build, "results")] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
