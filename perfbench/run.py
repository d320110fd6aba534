#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> \
        --trace <0|1>

Workloads: cold_batch, serve_mixed, project_edit (or all).
The first run configures and builds perfbench/ (the OMPDart core from src/
plus the benchmark program) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to stderr. The benchmark binary's standard output is passed
through: a summary, a {"detail": ...} line with run metadata, and, last,
the result object {"correct", "attempted", "failed", "metrics"}.
Traced runs also leave their spans in <build dir>/traces/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
WORKLOADS = ("cold_batch", "serve_mixed", "project_edit")


def run_timeout_s(workload, seconds):
    """A fixed allowance for set-ups and checks plus eight times the timed
    phases: 175 s for one workload at the benchmark's 10 s run length."""
    count = len(WORKLOADS) if workload == "all" else 1
    return 95 + 8 * seconds * count


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no OMPDart sources under {os.path.join(ROOT, 'src')}")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "perfbench",
                "-j", "4"]
    for attempt in range(2):
        done = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode == 0:
            break
        # A cache written for another checkout path cannot be reused.
        if attempt == 0:
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                          ignore_errors=True)
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
    else:
        fail("configuring perfbench failed")
    if subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S, check=False).returncode != 0:
        fail("building perfbench failed")
    return os.path.join(build_dir, "perfbench")


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:32]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    # The compiler's and the benchmark's temporary files stay in the checkout.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # Relative to the checkout root, so the plan server's socket path stays
    # short whatever the checkout's location.
    work_dir = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"),
                               ROOT)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir, "--trace-dir", trace_dir,
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    timeout = run_timeout_s(args.workload, args.seconds)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
        fail(f"benchmark exceeded {timeout:g} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")


if __name__ == "__main__":
    main()
