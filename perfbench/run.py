#!/usr/bin/env python3
"""Build and run the ranking benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ring-dl1024 --seed 1 --seconds 25 --trace 0

Builds perfbench/ppgr_bench.exe (and the ppgr libraries it links) into
.bench_build with dune, then runs it with the given arguments.  The last
line of standard output is the JSON result.  Exits non-zero, without a
result, when the checkout does not hold the sources, the build fails or
the run overruns its time limit.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "ppgr_bench.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; on timeout kill the whole group
    (dune's compiler children included) and wait for it."""
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no dune-project and lib/ beside perfbench/: not a checkout of the sources")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    # dune from PATH, else through an opam switch that is not activated.
    dune = ["dune"] if shutil.which("dune") or not shutil.which("opam") \
        else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                  "--profile", "release", "-j", "2", "./perfbench/ppgr_bench.exe"]
    try:
        code = run(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not complete: %s" % e)
    if code != 0:
        fail("build failed (dune exit %d)" % code)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    build()
    cmd = [EXE] + sys.argv[1:] + ["--commit", source_id()]
    sys.stdout.flush()
    try:
        code = run(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
