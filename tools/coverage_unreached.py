#!/usr/bin/env python3
"""List the library functions nothing reaches, and those only tests
reach (DESIGN.md section 7).

    coverage_unreached.py BUILD_DIR

Configures BUILD_DIR from this checkout as a Debug build with
`--coverage -Og`, builds it and zeroes the counters. It then runs the
programs first:

  - the qoserve_sim and example golden lines (their ctest entries);
  - CI's traced obs line with every output, and a `--seed 99` twin;
  - qoserve_explain on both runs and qoserve_report on the pair;
  - a `--trace-in` replay of the first run's workload trace;
  - every bench `qoserve_add_bench` registers, `--smoke` for ext_chaos
    and ext_scale, plus sched_overhead at a 0.01 s minimum time.

ext_prefix_cache is left out: its goodput search, and even its
`--skip-goodput` sweep, runs for many minutes at -Og under coverage,
because every eviction scans the cached blocks.

The script snapshots the function counters, runs the whole ctest
suite, and reads them again. It asks plain gcov for the counters of
every object under BUILD_DIR/src and prints two lists of functions
defined in src/, each line `path:line name` and each list closed by a
one-line count:

  1. functions nothing ran, programs or tests;
  2. functions only tests ran: test-only code, unless it is an error
     path, an auditor check, a reference a test compares against, or
     something a bench outside this tree (perfbench/) pins.

A function that several translation units compile (an inline or
template function in a header) is listed once, and counts as run when
any copy ran. The lists are a starting point, not a verdict: grep for
callers before deleting anything.

Needs gcc's gcov; gcovr and lcov are not used. Exit status 0 when the
build, every program and every test passed, 1 otherwise (the lists
are still printed when only a program or a test failed).
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent

# CI's traced obs line (.github/workflows/ci.yml), every output on.
OBS_FLAGS = [
    "--policy", "qoserve", "--replicas", "2", "--qps", "6",
    "--duration", "300", "--fault-mtbf", "60", "--fault-mttr", "10",
    "--share-ratio", "0.5", "--prefix-cache", "--cache-affinity",
    "--slo-monitor", "--slo-alert-budget", "0.05", "--slo-alert-burn",
    "2", "--slo-alert-short", "30", "--slo-alert-long", "120",
]

# Benches that take a shorter mode, and benches left out (see above).
BENCH_FLAGS = {"ext_chaos": ["--smoke"], "ext_scale": ["--smoke"]}
BENCH_SKIP = {"ext_prefix_cache"}


def run(cmd, **kwargs):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr)
    return subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                          **kwargs)


def obs_run(sim, out, extra):
    out.mkdir(parents=True, exist_ok=True)
    return [sim, *OBS_FLAGS, *extra,
            "--trace", out / "trace.json",
            "--trace-csv", out / "events.csv",
            "--trace-out", out / "workload.csv",
            "--metrics-out", out / "metrics.csv",
            "--records-out", out / "records.csv",
            "--summary-out", out / "summary.csv",
            "--sketch-out", out / "sketches.csv",
            "--slo-alerts-out", out / "alerts.csv"]


def program_runs(build, scratch):
    """The program command lines, in run order."""
    tools = build / "tools"
    a, b = scratch / "a", scratch / "b"
    runs = [obs_run(tools / "qoserve_sim", a, []),
            obs_run(tools / "qoserve_sim", b, ["--seed", "99"])]
    for out in (a, b):
        runs.append([tools / "qoserve_explain",
                     "--trace", out / "events.csv",
                     "--records", out / "records.csv",
                     "--critical-csv", out / "critical.csv"])
    runs.append([tools / "qoserve_report",
                 "--sketches-a", a / "sketches.csv",
                 "--sketches-b", b / "sketches.csv",
                 "--alerts-a", a / "alerts.csv",
                 "--alerts-b", b / "alerts.csv",
                 "--critical-a", a / "critical.csv",
                 "--critical-b", b / "critical.csv",
                 "--html", scratch / "report.html"])
    runs.append([tools / "qoserve_sim", "--policy", "qoserve",
                 "--replicas", "2", "--trace-in", a / "workload.csv"])
    benches = re.findall(r"^qoserve_add_bench\((\w+)\)",
                         (REPO / "bench" / "CMakeLists.txt").read_text(),
                         re.MULTILINE)
    for name in benches:
        if name not in BENCH_SKIP:
            runs.append([build / "bench" / name,
                         *BENCH_FLAGS.get(name, [])])
    runs.append([build / "bench" / "sched_overhead",
                 "--benchmark_min_time=0.01"])
    return runs


def function_counts(build_src):
    """Map (source path, line, name) -> summed execution count over
    every .gcno below build_src."""
    counts = {}
    for gcno in sorted(build_src.rglob("*.gcno")):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             str(gcno.parent), str(gcno)],
            check=True, capture_output=True, text=True,
            cwd=gcno.parent).stdout
        # One JSON document per line, one per object.
        for line in out.splitlines():
            if not line.strip():
                continue
            doc = json.loads(line)
            cwd = pathlib.Path(doc.get("current_working_directory", "."))
            for f in doc["files"]:
                path = (cwd / f["file"]).resolve()
                for fn in f.get("functions", []):
                    key = (path, fn["start_line"],
                           fn.get("demangled_name", fn["name"]))
                    counts[key] = counts.get(key, 0) + fn["execution_count"]
    return counts


def print_list(keys, total, what):
    for path, line, name in keys:
        print(f"{path.relative_to(REPO)}:{line} {name}")
    print(f"{len(keys)} of {total} src/ functions {what}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dir", type=pathlib.Path)
    args = ap.parse_args()
    build = args.build_dir.resolve()
    jobs = str(min(4, os.cpu_count() or 1))

    try:
        run(["cmake", "-B", build, "-S", REPO,
             "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS_DEBUG=-g -Og --coverage",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"], check=True)
        run(["cmake", "--build", build, "-j", jobs], check=True)
    except subprocess.CalledProcessError as err:
        print(f"coverage_unreached: {err}", file=sys.stderr)
        return 1
    for gcda in build.rglob("*.gcda"):
        gcda.unlink()

    # A failing program or test still leaves its counters; report
    # them, then fail.
    failed = []
    golden = ["ctest", "--test-dir", build, "-j", jobs,
              "--output-on-failure",
              "-R", "^(qoserve_sim_golden_|example_golden_)"]
    with tempfile.TemporaryDirectory(prefix="coverage-") as tmp:
        for cmd in [golden, *program_runs(build, pathlib.Path(tmp))]:
            if run(cmd, cwd=tmp).returncode != 0:
                failed.append(pathlib.Path(cmd[0]).name)
    programs = function_counts(build / "src")

    suite = run(["ctest", "--test-dir", build, "-j", jobs,
                 "--output-on-failure"])
    if suite.returncode != 0:
        failed.append("ctest")
    counts = function_counts(build / "src")

    src = REPO / "src"
    ours = {k: v for k, v in counts.items() if src in k[0].parents}
    never = sorted(k for k, v in ours.items() if v == 0)
    tests_only = sorted(k for k, v in ours.items()
                        if v > 0 and programs.get(k, 0) == 0)
    print("# never ran")
    print_list(never, len(ours), "never ran")
    print("# only tests ran")
    print_list(tests_only, len(ours), "only tests ran")
    if failed:
        print("coverage_unreached: failed: " + ", ".join(failed) +
              "; the lists cover what ran", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
