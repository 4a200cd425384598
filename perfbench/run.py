#!/usr/bin/env python3
"""dnsctx benchmark: build the benchmark binary from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--spans-out FILE]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build. The binary's last stdout line is passed through
unchanged: one JSON object with "correct", "attempted", "failed" and
"metrics". Exit status is the binary's: 0 when every output check passed,
1 when one failed or the build failed, 2 on bad arguments.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dnsctx_perfbench"
WORKLOADS = ("neighborhood", "city", "spool", "serve")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no dnsctx sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "dnsctx_perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run (None if absent)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spans-out", help="write the traced run's spans as JSON lines")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans_out:
        cmd += ["--spans-out", str(Path(args.spans_out).resolve())]
    # The binary makes its scratch directory in its working directory;
    # running it in the build tree keeps a crash's leftovers there.
    try:
        proc = subprocess.run(cmd, cwd=BUILD_DIR, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
