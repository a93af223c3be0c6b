#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dist-fanout --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
`dampi_perfbench` (the verifier libraries plus the harness in
perfbench/src) under $CARGO_TARGET_DIR, default `.bench_build`; later calls
only rebuild what changed. The harness output is passed through, and its
last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`, is checked against BENCHMARK.json before it is printed as the
last line of this script's output. Exit status: the harness's (nonzero
when any campaign missed its known answer), or 2 when the checkout cannot
be built or the result does not match the schema.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Environment switches that change the library's defaults; the benchmark
# measures the defaults, so they are cleared for the harness.
LIBRARY_ENV = ("DAMPI_SCHED", "DAMPI_MATCH", "DAMPI_ENGINE_LOCK", "DAMPI_POR")
# Every replay allocates and frees a 256 KB stack per fiber. With glibc's
# adaptive thresholds those go back to the kernel or stay in the heap
# depending on the allocator's history, and on a VM host re-faulting the
# pages costs microseconds each and varies with the host's memory
# pressure: campaign times spread by 30% between runs. Fixed thresholds
# keep freed memory in the process, so every campaign allocates the same
# way.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=4294967296")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no verifier sources under {ROOT}; run from a full checkout")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "dampi_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail(f"build step {step[:2]} failed: {exc}")
            if code != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (exit {code}); full log in {log_path}")
    return out / "dampi_perfbench"


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}, spec


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"last harness line is not JSON: {line[:200]!r}")
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from correct/attempted/failed/metrics")
    want, _ = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")
    if result["attempted"] < 1:
        fail("no campaign was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (perfbench/selftest.py)")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="off-by-one known answer: the run must fail")
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    workdir = out / "work"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    env = {k: v for k, v in os.environ.items() if k not in LIBRARY_ENV}
    env["GLIBC_TUNABLES"] = MALLOC_TUNABLES
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"harness printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        if line.startswith('{"provenance"'):
            record = json.loads(line)
            record["provenance"]["source_sha256"] = source_digest()
            line = json.dumps(record)
        print(line)
    result = check_result(lines[-1], args.trace)
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
