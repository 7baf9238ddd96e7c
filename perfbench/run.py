#!/usr/bin/env python3
"""Build the system under test and run one benchmark workload.

    python3 perfbench/run.py --workload report_full --seed 1 --seconds 20 --trace 0

Run from the repository root. The script builds cmd/gpuscout,
cmd/gpuscoutd and the benchmark's Go programs from source into the build
directory ($CARGO_TARGET_DIR, default .bench_build), keeping the Go build
cache there too, then runs the end-to-end harness (--trace 0) or the
traced run (--trace 1). The harness prints every metric, and its last
line is the JSON result. The exit code is non-zero when the build fails,
the run fails, or a correctness check fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("report_full", "mshr_bound", "daemon_zipf")
# A run must end within 180 s of its start, build included; an
# incremental build takes a few seconds. (A cold build may take longer
# and is not counted against the harness.)
HARNESS_DEADLINE_S = 165


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    start = time.monotonic()
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    for need in ("go.mod", os.path.join("cmd", "gpuscout"), os.path.join("cmd", "gpuscoutd"),
                 os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the repository root: %s is missing" % need)
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": "",
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        # The go command keeps telemetry counters under the user config
        # directory; keep them inside the build directory.
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "home", ".config"),
    })
    for d in (bindir, env["HOME"]):
        os.makedirs(d, exist_ok=True)

    harness = "trace" if args.trace else "e2e"
    steps = [
        (root, ["go", "build", "-o", bindir, "./cmd/gpuscout", "./cmd/gpuscoutd"]),
        (bench, ["go", "build", "-o", os.path.join(bindir, "perfbench-" + harness), "./" + harness]),
    ]
    for cwd, cmd in steps:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            sys.stderr.write(r.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))
    print("perfbench: built in %.1f s" % (time.monotonic() - start), flush=True)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(build, "run", "%s-%d" % (tag, os.getpid()))
    cmd = [
        os.path.join(bindir, "perfbench-" + harness),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-bin", bindir,
        "-work", work,
        "-fixtures", os.path.join(bench, "fixtures"),
        "-record", os.path.join(build, "results", tag + ".json"),
    ]
    # Its own process group, so stopping it stops the processes it
    # started (gpuscout, gpuscoutd) too.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)

    def reap():
        # The harness stops what it starts; this catches anything left
        # behind if it could not (a crash, a timeout).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    def stop(*_):
        reap()
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=HARNESS_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        stop()
    reap()
    sys.exit(code)


if __name__ == "__main__":
    main()
