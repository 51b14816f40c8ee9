#!/usr/bin/env python3
"""FliX end-to-end benchmark entry point.

Builds the benchmark programs from this checkout's sources (first run only)
and runs one workload:

    python3 perfbench/run.py --workload dblp-topk --seed 1 --seconds 20 --trace 0

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`) under the checkout; build output goes to stderr.
The last line of stdout is the JSON result object. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold-query", "dblp-topk", "dblp-drain")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FliX sources next to the benchmark (expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configuring the build failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_ = ["cmake", "--build", build_dir, "--target", "flix_perfbench",
                "flix_cold_child", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.abspath(os.path.join(ROOT, target))
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)

    tag = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work_dir = os.path.join(build_root, "perfbench-work", tag)
    spans = os.path.join(build_root, "perfbench-spans", tag + ".jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [os.path.join(build_dir, "flix_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--spans", spans,
               "--child", os.path.join(build_dir, "flix_cold_child")]
    # Own process group, so a timeout also stops the cold-query children.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"benchmark exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        fail("benchmark printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
