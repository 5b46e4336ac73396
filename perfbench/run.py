#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload corpus_tf5_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every run first brings the build up to date: libmighty from the enclosing
source tree plus the perfbench binary, configured by perfbench/CMakeLists.txt
into .bench_build/perfbench (Release).  The first run after a build also
prepares that build's state (the serve_warm warm cache, ~1 min).  The binary
then runs one workload; its output is relayed unchanged and its last line is
the result JSON.  With --trace 1 the Chrome trace is written to
.bench_build/perfbench/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATABASE = HERE / "data" / "mig_npn4.db"
WORKLOADS = ("corpus_tf5_cold", "epfl_paper_flow", "serve_warm")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str, code: int = 1) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def relative(path: Path) -> str:
    return os.path.relpath(path, ROOT)


def run_quietly(command: list[str], what: str) -> None:
    """Runs a build step; its output goes to stderr only when it fails."""
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        fail(f"{what} failed (exit {done.returncode})")


def build(targets: list[str]) -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no mighty source tree at {ROOT} (expected CMakeLists.txt and src/)", 2)
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found on PATH", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quietly([cmake, "-S", relative(HERE), "-B", relative(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quietly([cmake, "--build", relative(BUILD), "--target", *targets, "-j", "4"],
                "build")


def state_dir(binary: Path) -> Path:
    """Per-build state, keyed by the benchmark binary so a rebuild starts fresh."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    return BUILD / "state" / digest


def expected_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line: str, trace: bool) -> str | None:
    """None when `line` is a complete result object, else what is wrong."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"result keys are not {sorted(RESULT_KEYS)}"
    missing = [name for name in expected_metrics(trace) if name not in result["metrics"]]
    if missing:
        return f"metrics missing from the result: {', '.join(missing)}"
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build(["perfbench_tests"] if args.selftest else ["perfbench"])
    if args.selftest:
        sys.exit(subprocess.run([str(BUILD / "perfbench_tests")], cwd=ROOT,
                                check=False).returncode)

    binary = BUILD / "perfbench"
    state = state_dir(binary)
    common = ["--db", relative(DATABASE), "--state", relative(state),
              "--socket", relative(BUILD / f"serve-{os.getpid()}.sock")]
    if not (state / "serve_warm.cache").is_file():
        prepared = subprocess.run([str(binary), "prepare", *common], cwd=ROOT,
                                  stdout=sys.stderr, check=False)
        if prepared.returncode != 0:
            fail(f"prepare failed (exit {prepared.returncode})")

    command = [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), *common]
    if args.trace:
        trace_file = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", relative(trace_file)]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        try:
            output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = output.rstrip("\n").split("\n")
    if child.returncode != 0:
        sys.stdout.write(output)
        fail(f"perfbench exited with {child.returncode}")
    problem = check_result(lines[-1], bool(args.trace))
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem)
    sys.stdout.write(output)


if __name__ == "__main__":
    main()
