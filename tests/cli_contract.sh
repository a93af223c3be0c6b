#!/usr/bin/env bash
# verify_cli contract, run by ctest under the `cli` label:
#   1. every malformed flag value is a usage error (exit 3) naming the
#      flag, never a crash or a silently substituted value;
#   2. a distributed campaign reports the same exit code and verdict at
#      --workers 2 as at --workers 1 (workers rebuild their options from
#      the forwarded flags, so a flag dropped from the worker argv shows
#      up as an options-fingerprint mismatch), and the Chrome trace the
#      coordinator writes validates under trace_check.
#
# Usage: tests/cli_contract.sh <verify_cli> <trace_check>
set -uo pipefail

cli="$1"
trace_check="$2"
scratch="$(mktemp -d "${TMPDIR:-/tmp}/cli_contract.XXXXXX")"
trap 'rm -rf "${scratch}"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

malformed=(
  "--procs 0" "--procs -2" "--procs abc" "--clock vectr" "--jobs 3x"
  "--max-interleavings abc" "--run-deadline xyz" "--k -1"
)
for case in "${malformed[@]}"; do
  read -r -a args <<< "${case}"
  out="$("${cli}" --program fig3 "${args[@]}" 2>&1)"
  rc=$?
  if [[ "${rc}" != 3 ]]; then
    fail "'${case}' exited ${rc}, expected 3"
  elif ! grep -q -- "${args[0]}" <<< "$(head -1 <<< "${out}")"; then
    fail "'${case}' did not name ${args[0]}: $(head -1 <<< "${out}")"
  fi
done

campaign() {  # campaign <workers> <dir>
  mkdir -p "$2"
  "${cli}" --program fig3 --procs 3 --sched coop --workers "$1" \
    --trace "$2/trace.json" --save-repro "$2/repro.txt" --metrics \
    > "$2/out.txt" 2>&1
}
campaign 1 "${scratch}/w1"
rc1=$?
campaign 2 "${scratch}/w2"
rc2=$?
verdict1="$(grep '^verdict' "${scratch}/w1/out.txt")"
verdict2="$(grep '^verdict' "${scratch}/w2/out.txt")"
if [[ "${rc1}" != "${rc2}" || "${rc1}" != 1 ]]; then
  fail "fig3 exit codes: --workers 1 gave ${rc1}, --workers 2 gave ${rc2}"
  cat "${scratch}/w2/out.txt" >&2
fi
if [[ -z "${verdict1}" || "${verdict1}" != "${verdict2}" ]]; then
  fail "fig3 verdicts differ: '${verdict1}' vs '${verdict2}'"
fi
if ! cmp -s "${scratch}/w1/repro.txt" "${scratch}/w2/repro.txt"; then
  fail "fig3 reproducers differ between --workers 1 and 2"
fi
"${trace_check}" "${scratch}/w2/trace.json" || fail "coordinator trace"

if [[ "${failures}" != 0 ]]; then
  echo "cli contract: ${failures} failure(s)" >&2
  exit 1
fi
echo "cli contract: OK"
