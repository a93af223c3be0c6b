#!/usr/bin/env bash
# Tier-1 gate: the full build + test suite (once; the `sched` and `por`
# labelled suites pin the seeded coop policies and --por off
# themselves), the resilience stage (resil-labelled tests, the
# verify_cli exit-code contract, a livelock watchdog sweep across jobs
# widths, and a SIGINT kill + --resume determinism smoke), the
# distributed stage, a trace smoke test (a real workload exported with
# --trace must validate under trace_check), a stack-sampler smoke
# (scripts/stackprof builds, samples a short run and reports), a DAMPI_TRACE=OFF
# configure+build check, a Release (-O3) configure+build check, the
# repository benchmark's self-test (perfbench/selftest.py: builds the
# benchmark harness against this tree and runs every workload at smoke
# size), the distributed and POR bench smokes, a fault-sweep stage
# (sweep-labelled tests, the --sweep-faults exit-code contract, a
# SIGINT kill + --resume byte-identity smoke, and the bench_sweep
# worker-count determinism check), then the sanitizer stages: the full
# suite under AddressSanitizer (-DDAMPI_SANITIZE=address) and the
# concurrent tests under ThreadSanitizer (-DDAMPI_SANITIZE=thread; only
# the `concurrency`/`obs`/`match`/`por`/`sweep` labelled tests rerun
# there, so the TSan stage stays fast). Both sanitizers run the same
# coop fibers as every other build: the scheduler annotates each fiber
# switch for them.
#
# Usage: scripts/tier1.sh [--skip-tsan]   (skips both sanitizer stages)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j "${jobs}"
(cd build && ctest --output-on-failure -j "${jobs}")

# Resilience tests on their own label, so the stage shows up by name in
# the log even though the default sweep above already ran them.
(cd build && ctest --output-on-failure -L resil -j "${jobs}")
echo "tier1: resil sweep OK"

# Exit-code contract: 0 clean, 1 bugs, 2 partial coverage (budget /
# interrupted / quarantined), 3 usage or internal error.
expect_exit() {
  local want="$1"
  shift
  local got=0
  "$@" > /dev/null 2>&1 || got=$?
  if [[ "${got}" != "${want}" ]]; then
    echo "tier1: FAIL: expected exit ${want}, got ${got}: $*" >&2
    exit 1
  fi
}
expect_exit 0 build/examples/verify_cli --program fig3-benign --procs 3
expect_exit 1 build/examples/verify_cli --program fig3 --procs 3
expect_exit 2 build/examples/verify_cli --program fig3-benign --procs 3 \
  --max-interleavings 1
expect_exit 3 build/examples/verify_cli --program no-such-program
echo "tier1: exit-code contract OK"

# Watchdog end-to-end: the livelocked example must become a HANG verdict
# (exit 1) at every jobs width, well inside the deadline instead of
# wedging the campaign.
for w in 1 4; do
  out="$(timeout 60 build/examples/verify_cli --program livelock \
    --procs 2 --sched coop --jobs "${w}" --run-deadline 2 \
    --max-interleavings 4)" && rc=0 || rc=$?
  if [[ "${rc}" != 1 ]] || ! grep -q "HANG (watchdog)" <<< "${out}"; then
    echo "tier1: FAIL: livelock jobs=${w} rc=${rc}" >&2
    exit 1
  fi
done
echo "tier1: livelock watchdog sweep OK"

# Kill/resume smoke: SIGINT a checkpointing exploration mid-flight, then
# --resume it; the resumed campaign must report exactly what an
# uninterrupted one does (works even if the signal lands after the walk
# finished — then the resume is a no-op continuation).
ckpt="build/tier1-resume.ckpt"
rm -f "${ckpt}"
baseline_rc=0
baseline="$(build/examples/verify_cli --program matmult --procs 4 \
  --sched coop --max-interleavings 150)" || baseline_rc=$?
build/examples/verify_cli --program matmult --procs 4 --sched coop \
  --max-interleavings 150 --checkpoint "${ckpt}" \
  --checkpoint-interval 5 > /dev/null &
pid=$!
sleep 0.4
kill -INT "${pid}" 2> /dev/null || true
wait "${pid}" || true
resumed_rc=0
resumed="$(build/examples/verify_cli --program matmult --procs 4 \
  --sched coop --max-interleavings 150 --checkpoint "${ckpt}" \
  --resume)" || resumed_rc=$?
filter() { grep -E "interleavings explored|verdict" <<< "$1" | \
  sed 's/ (interrupted)//'; }
if [[ "${resumed_rc}" != "${baseline_rc}" ]] || \
   [[ "$(filter "${baseline}")" != "$(filter "${resumed}")" ]]; then
  echo "tier1: FAIL: resume mismatch (rc ${baseline_rc} vs ${resumed_rc})" >&2
  diff <(filter "${baseline}") <(filter "${resumed}") >&2 || true
  exit 1
fi
rm -f "${ckpt}"
echo "tier1: SIGINT kill/resume smoke OK"

# Distributed campaign stage. A 4-worker sharded campaign must report
# exactly what the 1-worker campaign does on every example — same exit
# code, same interleaving count, same verdict (coop scheduler: both
# sides fully deterministic).
for prog in fig3-benign fig3 fig4 wildcard-deadlock; do
  single_rc=0
  single="$(build/examples/verify_cli --program "${prog}" --sched coop \
    --workers 1)" || single_rc=$?
  multi_rc=0
  multi="$(build/examples/verify_cli --program "${prog}" --sched coop \
    --workers 4)" || multi_rc=$?
  if [[ "${multi_rc}" != "${single_rc}" ]] || \
     [[ "$(filter "${single}")" != "$(filter "${multi}")" ]]; then
    echo "tier1: FAIL: distributed mismatch on ${prog}" \
      "(rc ${single_rc} vs ${multi_rc})" >&2
    diff <(filter "${single}") <(filter "${multi}") >&2 || true
    exit 1
  fi
done
echo "tier1: distributed 4-worker sweep OK"

# Kill-a-worker smoke: SIGKILL a worker process mid-campaign; the
# coordinator must requeue its shard from the per-worker journal
# (<ckpt>.wN) and finish with the undisturbed campaign's exact result.
# (If the kill races past the campaign's end it degrades to a plain
# equality check, same stance as the SIGINT smoke above.)
dist_ckpt="build/tier1-dist.ckpt"
rm -f "${dist_ckpt}" "${dist_ckpt}".w*
expected_rc=0
expected="$(build/examples/verify_cli --program dist-fanout --procs 6 \
  --sched coop --max-interleavings 100000 --workers 2)" || expected_rc=$?
build/examples/verify_cli --program dist-fanout --procs 6 --sched coop \
  --max-interleavings 100000 --workers 2 --checkpoint "${dist_ckpt}" \
  > build/tier1-dist.out 2>&1 &
coord=$!
for _ in $(seq 1 100); do
  wpid="$(pgrep -n -f "verify_cli.*--worker-id" || true)"
  [[ -n "${wpid}" ]] && break
  kill -0 "${coord}" 2> /dev/null || break
  sleep 0.01
done
sleep 0.3
[[ -n "${wpid:-}" ]] && kill -KILL "${wpid}" 2> /dev/null || true
killed_rc=0
wait "${coord}" || killed_rc=$?
killed="$(cat build/tier1-dist.out)"
if [[ "${killed_rc}" != "${expected_rc}" ]] || \
   [[ "$(filter "${expected}")" != "$(filter "${killed}")" ]]; then
  echo "tier1: FAIL: kill-a-worker result mismatch" \
    "(rc ${expected_rc} vs ${killed_rc})" >&2
  diff <(filter "${expected}") <(filter "${killed}") >&2 || true
  exit 1
fi
rm -f "${dist_ckpt}" "${dist_ckpt}".w* build/tier1-dist.out
echo "tier1: distributed kill-a-worker smoke OK"

# Distributed tests on their own label, same visibility rationale as the
# resil stage.
(cd build && ctest --output-on-failure -L dist -j "${jobs}")
echo "tier1: dist sweep OK"

# Trace smoke test: a parallel exploration traced end to end must export
# a valid Chrome trace with a lane per rank (4), per worker (3), and the
# explorer lane. Exit 2 is expected: 200 interleavings do not finish
# matmult's decision space (partial coverage is the point of the smoke).
trace_out="build/tier1-trace.json"
trace_rc=0
build/examples/verify_cli --program matmult --procs 4 --jobs 4 \
  --max-interleavings 200 --trace "${trace_out}" > /dev/null || trace_rc=$?
if [[ "${trace_rc}" != 0 && "${trace_rc}" != 2 ]]; then
  echo "tier1: FAIL: trace smoke exited ${trace_rc}" >&2
  exit 1
fi
build/src/obs/trace_check "${trace_out}" --min-lanes 8
rm -f "${trace_out}"

# Stack sampler smoke (scripts/stackprof): the LD_PRELOAD sampler
# compiles, a short run under it leaves a dump, and report.py resolves
# it. Only the exit codes and the report header are checked: sample
# counts depend on the host.
prof_dir="build/tier1-stackprof"
rm -rf "${prof_dir}"
mkdir -p "${prof_dir}"
gcc -shared -fPIC -O2 -Wall -Wextra -Werror -o "${prof_dir}/libstackprof.so" \
  scripts/stackprof/sampler.c
prof_rc=0
LD_PRELOAD="${PWD}/${prof_dir}/libstackprof.so" \
  STACKPROF_OUT="${prof_dir}/prof" \
  build/examples/verify_cli --program matmult --procs 4 --sched coop \
  --max-interleavings 300 > /dev/null || prof_rc=$?
if [[ "${prof_rc}" != 0 && "${prof_rc}" != 2 ]]; then
  echo "tier1: FAIL: run under the stack sampler exited ${prof_rc}" >&2
  exit 1
fi
python3 scripts/stackprof/report.py "${prof_dir}"/prof.* \
  > "${prof_dir}/report.txt"
if ! head -1 "${prof_dir}/report.txt" | grep -q '^stackprof report: '; then
  echo "tier1: FAIL: stackprof report header missing" >&2
  exit 1
fi
rm -rf "${prof_dir}"
echo "tier1: stack sampler smoke OK"

# The tracer must also compile out cleanly.
cmake -B build-off -S . -DDAMPI_TRACE=OFF
cmake --build build-off -j "${jobs}" --target verify_cli trace_check
echo "tier1: DAMPI_TRACE=OFF build OK"

# Every target must also build at -O3 (Release): GCC's deeper inlining
# there raises -Werror diagnostics (e.g. -Wrestrict on string
# concatenation) that the default RelWithDebInfo build never sees.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "${jobs}"
echo "tier1: Release build OK"

# Repository benchmark self-test: perfbench/ compiles its own harness
# against this tree's RunOptions/ExplorerOptions, so an API change that
# breaks it must fail here rather than in the next benchmark run. Runs
# every workload at smoke size and checks schema and known answers.
CARGO_TARGET_DIR=build-perfbench python3 perfbench/selftest.py
echo "tier1: perfbench self-test OK"

# Distributed scaling smoke: the bench itself fails on any cross-width
# divergence; the compare step re-checks the JSON (warn-only for the
# speedup column — scaling is conditional on cores, equivalence is not).
DAMPI_BENCH_QUICK=1 DAMPI_BENCH_OUT=build/BENCH_distributed.json \
  build/bench/bench_distributed
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py \
    --distributed build/BENCH_distributed.json --warn-only
fi
echo "tier1: distributed scaling smoke OK"

# POR soundness smoke: the bench exits non-zero if --por sleep ever
# diverges from off (equivalence is the gate; the reduction ratio is
# informational and re-printed by the compare step).
DAMPI_BENCH_QUICK=1 DAMPI_BENCH_OUT=build/BENCH_por.json \
  build/bench/bench_por
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py --por build/BENCH_por.json --warn-only
fi
echo "tier1: POR soundness smoke OK"

# Fault-sweep tests on their own label, same visibility rationale as the
# resil and dist stages.
(cd build && ctest --output-on-failure -L sweep -j "${jobs}")
echo "tier1: sweep tests OK"

# Sweep exit-code contract: 0 = every injection tolerated (propagated or
# masked), 1 = a plan uncovered a deadlock/hang/latent bug, 3 = usage
# error (--fault conflicts with --sweep-faults; an out-of-range fault
# rank is rejected eagerly, before any exploration runs).
expect_exit 0 build/examples/verify_cli --program fig3-benign --procs 3 \
  --sched coop --sweep-faults --sweep-budget 8 --max-interleavings 16
expect_exit 1 build/examples/verify_cli --program wildcard-deadlock \
  --procs 3 --sched coop --sweep-faults --sweep-kinds delay \
  --sweep-budget 6 --max-interleavings 32
expect_exit 3 build/examples/verify_cli --program fig3-benign --procs 3 \
  --sweep-faults --fault abort@0:1
expect_exit 3 build/examples/verify_cli --program fig3-benign --procs 3 \
  --fault abort@5:1
echo "tier1: sweep exit-code contract OK"

# Sweep SIGINT kill + --resume smoke: interrupt a journalled sweep
# mid-flight, then --resume it. The resumed report must be byte-identical
# to an uninterrupted run's, and the journalled plans must not re-execute
# (resumed count == plans completed before the kill). Delay plans on
# matmult keep the sweep alive long enough (~0.9s) for the signal to
# land; if it races past the end anyway, the resume degrades to an
# idempotence check — 0 executed, all resumed — same stance as the
# checkpoint smoke above.
sweep_journal="build/tier1-sweep.journal"
sweep_ref="build/tier1-sweep-ref.json"
sweep_resumed="build/tier1-sweep-resumed.json"
rm -f "${sweep_journal}" "${sweep_ref}" "${sweep_resumed}"
sweep_cmd=(build/examples/verify_cli --program matmult --procs 4 \
  --sched coop --sweep-faults --sweep-kinds delay --sweep-budget 8 \
  --max-interleavings 1024)
ref_rc=0
"${sweep_cmd[@]}" --sweep-report "${sweep_ref}" > /dev/null || ref_rc=$?
"${sweep_cmd[@]}" --sweep-journal "${sweep_journal}" > /dev/null 2>&1 &
sweep_pid=$!
sleep 0.35
kill -INT "${sweep_pid}" 2> /dev/null || true
wait "${sweep_pid}" || true
journalled="$(grep -c '^plan ' "${sweep_journal}" 2> /dev/null || echo 0)"
resume_rc=0
resume_out="$("${sweep_cmd[@]}" --sweep-journal "${sweep_journal}" \
  --resume --sweep-report "${sweep_resumed}")" || resume_rc=$?
if [[ "${resume_rc}" != "${ref_rc}" ]] || \
   ! cmp -s "${sweep_ref}" "${sweep_resumed}"; then
  echo "tier1: FAIL: sweep resume mismatch (rc ${ref_rc} vs ${resume_rc})" >&2
  diff "${sweep_ref}" "${sweep_resumed}" >&2 || true
  exit 1
fi
if ! grep -q "${journalled} resumed" <<< "${resume_out}"; then
  echo "tier1: FAIL: sweep resume re-executed journalled plans" \
    "(expected ${journalled} resumed)" >&2
  grep "resumed" <<< "${resume_out}" >&2 || true
  exit 1
fi
rm -f "${sweep_journal}" "${sweep_ref}" "${sweep_resumed}"
echo "tier1: sweep SIGINT kill/resume smoke OK"

# Sweep throughput smoke: the bench fails on any report divergence across
# worker counts; the compare step re-checks the JSON (warn-only for the
# speedup column, equivalence is the gate).
DAMPI_BENCH_QUICK=1 DAMPI_BENCH_OUT=build/BENCH_sweep.json \
  build/bench/bench_sweep
if command -v python3 > /dev/null 2>&1; then
  python3 scripts/bench_compare.py --sweep build/BENCH_sweep.json --warn-only
fi
echo "tier1: sweep throughput smoke OK"

if [[ "${1:-}" == "--skip-tsan" ]]; then
  echo "tier1: skipping the AddressSanitizer and ThreadSanitizer stages"
  exit 0
fi

cmake -B build-asan -S . -DDAMPI_SANITIZE=address
cmake --build build-asan -j "${jobs}"
(cd build-asan && ctest --output-on-failure -j "${jobs}")
echo "tier1: AddressSanitizer full-suite stage OK"

cmake -B build-tsan -S . -DDAMPI_SANITIZE=thread
cmake --build build-tsan -j "${jobs}" \
  --target test_explorer_parallel test_obs test_match_index \
           test_engine_lock test_por test_sweep
(cd build-tsan && ctest --output-on-failure \
  -L 'concurrency|obs|match|por|sweep' -j "${jobs}")
echo "tier1: OK (including TSan concurrency + obs + match + por + sweep stage)"
