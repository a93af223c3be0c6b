#!/usr/bin/env python3
"""Contract checks over the JSON the campaign benches emit.

With --distributed PATH it reads the BENCH_distributed.json that
bench_distributed emits and checks the campaign-equivalence contract:
every worker count must report identical interleavings, exit code, and
verdict. Speedup is reported but never failed on — a 1-core host has a
legitimately flat curve (the JSON records nproc for exactly this reason).

With --por PATH it reads the BENCH_por.json that bench_por emits and
checks the sleep-set pruning contract: every row must be marked
equivalent (same bug set and per-epoch outcome sets as --por off) and
never explore more interleavings than off. The reduction ratio is
reported per row; all-dependent workloads legitimately sit at 1.0x.

With --sweep PATH it reads the BENCH_sweep.json that bench_sweep emits
and checks the fault-sweep determinism contract: every worker count must
complete the same number of plans with the same exit code (the bench
itself already fails on report byte-divergence; this re-checks the
summary numbers from the JSON). Plans/sec is reported but never failed
on — scaling is conditional on cores.

Usage:
  scripts/bench_compare.py --distributed BENCH_distributed.json [--warn-only]
  scripts/bench_compare.py --por BENCH_por.json [--warn-only]
  scripts/bench_compare.py --sweep BENCH_sweep.json [--warn-only]

Exit codes: 0 ok (or --warn-only), 1 contract violated, 2 unreadable
input.
"""

import argparse
import json
import sys

def check_distributed(path, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    rows = data.get("rows", [])
    if len(rows) < 2:
        print("bench_compare: need at least two worker counts", file=sys.stderr)
        sys.exit(2)

    nproc = data.get("nproc", 0)
    base = rows[0]
    print(f"{'workers':>8} {'wall_s':>10} {'interleavings':>14} "
          f"{'speedup':>8}  verdict  (host cores: {nproc})")
    divergent = []
    for row in rows:
        same = (row["interleavings"] == base["interleavings"]
                and row["exit"] == base["exit"]
                and row.get("verdict") == base.get("verdict"))
        if not same:
            divergent.append(row["workers"])
        print(f"{row['workers']:>8} {row['wall_s']:>10.3f} "
              f"{row['interleavings']:>14} {row['speedup']:>7.2f}x  "
              f"{row.get('verdict', '?')}"
              f"{'' if same else '  <-- DIVERGENT'}")

    if divergent:
        print(f"bench_compare: campaign result diverges at worker counts "
              f"{divergent} — sharding changed the verdict", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        print("bench_compare: campaign result invariant across worker counts")
        if nproc <= 1:
            print("bench_compare: 1-core host — flat scaling curve expected")


def check_por(path, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    rows = data.get("rows", [])
    if not rows:
        print("bench_compare: no POR rows", file=sys.stderr)
        sys.exit(2)

    print(f"{'workload':<20} {'off_runs':>10} {'sleep_runs':>12} "
          f"{'pruned':>8} {'ratio':>7}  check")
    bad = []
    for row in rows:
        ratio = (row["off_runs"] / row["sleep_runs"]
                 if row["sleep_runs"] else 0.0)
        ok = row.get("equivalent") and row["sleep_runs"] <= row["off_runs"]
        if not ok:
            bad.append(row["workload"])
        print(f"{row['workload']:<20} {row['off_runs']:>10} "
              f"{row['sleep_runs']:>12} {row['pruned']:>8} {ratio:>6.2f}x"
              f"{'  ok' if ok else '  <-- DIVERGENT'}")

    if bad:
        print(f"bench_compare: --por sleep diverged from off on {bad} — "
              f"pruning dropped coverage", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        best = data.get("best_ratio", 0.0)
        print(f"bench_compare: pruning sound on every workload "
              f"(best reduction {best:.2f}x)")


def check_sweep(path, warn_only):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as err:
        print(f"bench_compare: cannot read {path} ({err})", file=sys.stderr)
        sys.exit(2)

    rows = data.get("rows", [])
    if len(rows) < 2:
        print("bench_compare: need at least two sweep worker counts",
              file=sys.stderr)
        sys.exit(2)

    nproc = data.get("nproc", 0)
    base = rows[0]
    print(f"{'workers':>8} {'wall_s':>10} {'plans':>7} {'plans/s':>10} "
          f"{'speedup':>8}  (host cores: {nproc})")
    divergent = []
    for row in rows:
        same = (row["plans"] == base["plans"]
                and row["exit"] == base["exit"])
        if not same:
            divergent.append(row["workers"])
        print(f"{row['workers']:>8} {row['wall_s']:>10.3f} "
              f"{row['plans']:>7} {row['plans_per_s']:>10.1f} "
              f"{row['speedup']:>7.2f}x"
              f"{'' if same else '  <-- DIVERGENT'}")

    if divergent:
        print(f"bench_compare: sweep result diverges at worker counts "
              f"{divergent} — parallelism changed the crash-tolerance "
              f"report", file=sys.stderr)
        if not warn_only:
            sys.exit(1)
        print("bench_compare: --warn-only set, not failing", file=sys.stderr)
    else:
        print("bench_compare: sweep result invariant across worker counts")
        if nproc <= 1:
            print("bench_compare: 1-core host — flat scaling curve expected")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--distributed",
        metavar="JSON",
        help="check a BENCH_distributed.json",
    )
    mode.add_argument(
        "--por",
        metavar="JSON",
        help="check a BENCH_por.json",
    )
    mode.add_argument(
        "--sweep",
        metavar="JSON",
        help="check a BENCH_sweep.json",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report violations but exit 0 (CI smoke mode)",
    )
    args = parser.parse_args()

    if args.distributed:
        check_distributed(args.distributed, args.warn_only)
    elif args.por:
        check_por(args.por, args.warn_only)
    else:
        check_sweep(args.sweep, args.warn_only)


if __name__ == "__main__":
    main()
