#!/usr/bin/env python3
"""Build npserve and the perfbench program from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mix-warm --seed 1 --seconds 10 --trace 0

Go's build cache, temporary files and the binaries go under .bench_build/,
run records and spans under .bench_out/, both in the checkout. The last
line of standard output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mix-warm", "pressure-cold", "paper-suite")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="",
    )
    return env


def build(env):
    """Builds both binaries; returns their paths, or None on failure."""
    bin_dir = os.path.join(BUILD, "bin")
    npserve = os.path.join(bin_dir, "npserve")
    program = os.path.join(bin_dir, "perfbench")
    steps = [
        (["go", "build", "-o", npserve, "./cmd/npserve"], ROOT),
        (["go", "build", "-o", program, "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        try:
            res = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"run.py: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if res.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed in {cwd}", file=sys.stderr)
            return None
    return npserve, program


def commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build", ".bench_out"}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = go_env()
    built = build(env)
    if built is None:
        return 2
    npserve, program = built
    os.makedirs(OUT, exist_ok=True)
    cmd = [
        program,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-npserve", npserve,
        "-out", OUT,
        "-commit", commit(),
        "-source-digest", source_digest(),
    ]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the server it runs.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: the workload did not finish within 170s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
