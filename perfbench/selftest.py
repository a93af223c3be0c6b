#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root. It runs every workload, untraced and
traced, at smoke size (`--smoke`: 3-rank matmult, 16-rank wavefront,
4-rank dist-fanout), and checks:
- the output schema against BENCHMARK.json;
- that every campaign met its known answer;
- that an off-by-one known answer fails the run with exit code 1;
- that an unknown workload fails without printing a result;
- that a directory holding only BENCHMARK.json and perfbench/ fails
  without printing a result.
Exit 0 when all pass.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]
# Every workload the harness runs: the ones BENCHMARK.json gates, and
# matmult, which stays runnable but is not gated (README.md says why).
WORKLOADS = ("matmult", "wavefront-512", "dist-fanout")
PROVENANCE_KEYS = {"workload", "seed", "ranks", "width", "nproc", "affinity",
                   "build_type", "cxx_flags", "compiler", "dampi_trace",
                   "git_commit", "source_sha256"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def smoke(workload, trace, spec):
    tag = f"{workload} trace={trace}"
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, f"{tag}: exit 0 (got {proc.returncode})")
    if not lines:
        check(False, f"{tag}: printed a result\n{proc.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(result["correct"] is True and result["failed"] == 0,
          f"{tag}: every campaign met its known answer")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 2,
          f"{tag}: attempted counts both campaign widths")
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    want = {row["name"]: row["unit"] for row in rows}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == want, f"{tag}: metric names and units match BENCHMARK.json")
    values = [m["value"] for m in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) and math.isfinite(v)
              for v in values), f"{tag}: every value is a finite number")
    if not trace:
        check(all(v > 0 for v in values), f"{tag}: end-to-end values are > 0")
    provenance = [json.loads(l)["provenance"] for l in lines
                  if l.startswith('{"provenance"')]
    check(len(provenance) == 1 and PROVENANCE_KEYS <= set(provenance[0]),
          f"{tag}: provenance block")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names only harness workloads")
    for workload in WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace, spec)

    proc = run(["--workload", "matmult", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke", "--inject-mismatch"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(proc.returncode == 1 and result["correct"] is False
          and result["failed"] == result["attempted"],
          "a wrong known answer fails every campaign and exits 1")

    proc = run(["--workload", "no-such-workload", "--seed", "1", "--seconds",
                "1", "--trace", "0"])
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "an unknown workload fails without a result")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(["--workload", "matmult", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a directory without the sources fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("PASS" if not failures else
                          f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
