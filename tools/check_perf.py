#!/usr/bin/env python3
"""Perf-JSON gate for the CI perf job (DESIGN.md section 11).

Two checks over the JSON files the benches write with --json:

  check_perf.py invariants A.json B.json
      The deterministic fields of every run -- label, qps, requests
      and (when present) events -- must be identical, in order,
      between the two files. CI runs the same bench with --jobs 1 and
      --jobs 4 and feeds both here: any divergence means the parallel
      runner perturbed simulation results, which is a correctness bug
      regardless of timing. Wall-clock fields are ignored.

  check_perf.py regression NEW.json [NEW.json ...] BASELINE.json
                [--tolerance 0.2]
      Guards QoServe's per-event cost against hot-path regressions.
      Absolute ns/event is machine-dependent (the committed baseline
      was measured on one box, CI runs on another), so the gated
      metric is the ratio of QoServe to Sarathi-FCFS ns/event at each
      replica scale present in both: both policies run the same
      kernel on the same machine, so the ratio isolates the
      scheduler's per-event premium. One short run's ratio is noisy
      (a smoke r1 ratio read 0.91-1.99 over 7 runs on one host), so
      several NEW files -- repeats of the same bench -- may be given,
      and each scale is gated on the median of their ratios. The
      check fails when any scale's median ratio exceeds the baseline
      ratio by more than --tolerance (default 20%).

Exit status 0 on pass, 1 on failure (with a diagnostic on stderr).
"""

import argparse
import json
import re
import statistics
import sys

INVARIANT_KEYS = ("label", "qps", "requests", "events")


def load_runs(path):
    with open(path) as f:
        doc = json.load(f)
    runs = doc.get("runs")
    if not runs:
        sys.exit(f"{path}: no runs[] array")
    return runs


def invariant_row(run):
    return tuple(run[k] for k in INVARIANT_KEYS if k in run)


def check_invariants(args):
    a = load_runs(args.a)
    b = load_runs(args.b)
    if len(a) != len(b):
        sys.exit(f"run count differs: {len(a)} vs {len(b)}")
    bad = 0
    for i, (ra, rb) in enumerate(zip(a, b)):
        va, vb = invariant_row(ra), invariant_row(rb)
        if va != vb:
            print(f"run {i}: {va} != {vb}", file=sys.stderr)
            bad += 1
    if bad:
        sys.exit(f"{bad} of {len(a)} runs diverge between "
                 f"{args.a} and {args.b}")
    print(f"invariants: {len(a)} runs identical "
          f"({', '.join(INVARIANT_KEYS)})")


def per_event_by_scale(runs, policy):
    """Map replica scale -> ns/event for one policy's runs.

    ext_scale labels runs '<policy>/r<replicas>'; ns_per_event is
    emitted directly, but recompute from wall_s/events when absent so
    older JSONs still gate.
    """
    out = {}
    for run in runs:
        m = re.fullmatch(re.escape(policy) + r"/r(\d+)", run["label"])
        if not m:
            continue
        events = run.get("events", 0)
        if not events:
            continue
        ns = run.get("ns_per_event", 1e9 * run["wall_s"] / events)
        out[int(m.group(1))] = ns
    return out


def qoserve_fcfs_ratio(runs, scale):
    """QoServe over Sarathi-FCFS ns/event at @p scale, or None."""
    qo = per_event_by_scale(runs, "QoServe").get(scale)
    fcfs = per_event_by_scale(runs, "Sarathi-FCFS").get(scale)
    if qo is None or fcfs is None or fcfs <= 0.0:
        return None
    return qo / fcfs


def check_regression(args):
    new_docs = [load_runs(path) for path in args.new]
    base_runs = load_runs(args.baseline)
    scales = sorted(set().union(
        *(per_event_by_scale(runs, "QoServe") for runs in new_docs)))
    failures = []
    for scale in scales:
        base = qoserve_fcfs_ratio(base_runs, scale)
        ratios = [r for r in (qoserve_fcfs_ratio(runs, scale)
                              for runs in new_docs) if r is not None]
        if base is None or not ratios:
            # Scale absent from the baseline (e.g. smoke's r4 vs the
            # committed full sweep): nothing to regress against.
            print(f"r{scale}: not in baseline, skipped")
            continue
        median = statistics.median(ratios)
        limit = base * (1.0 + args.tolerance)
        verdict = "ok" if median <= limit else "FAIL"
        runs = ", ".join(f"{r:.3f}" for r in ratios)
        print(f"r{scale}: QoServe/FCFS per-event ratio median "
              f"{median:.3f} of [{runs}] vs baseline {base:.3f} "
              f"(limit {limit:.3f}) {verdict}")
        if verdict == "FAIL":
            failures.append(scale)
    if failures:
        sys.exit(f"QoServe per-event cost regressed beyond "
                 f"{100 * args.tolerance:.0f}% at scales {failures}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    inv = sub.add_parser("invariants",
                         help="compare deterministic run fields")
    inv.add_argument("a")
    inv.add_argument("b")
    inv.set_defaults(fn=check_invariants)

    reg = sub.add_parser("regression",
                         help="gate QoServe per-event cost vs baseline")
    reg.add_argument("new", nargs="+",
                     help="one or more repeats of the bench's JSON")
    reg.add_argument("baseline")
    reg.add_argument("--tolerance", type=float, default=0.2)
    reg.set_defaults(fn=check_regression)

    args = parser.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
