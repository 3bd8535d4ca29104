#!/usr/bin/env python3
"""List the library functions no test run reaches (DESIGN.md section 7).

    coverage_unreached.py BUILD_DIR

Configures BUILD_DIR from this checkout as a Debug build with
`--coverage -Og`, builds it, zeroes the counters and runs the whole
ctest suite, which includes the qoserve_sim and example golden lines.
It then asks plain gcov for the function counters of every object
under BUILD_DIR/src and prints each function defined in src/ that
never ran, as `path:line name`, followed by a one-line count.

A function that several translation units compile (an inline or
template function in a header) is listed once, and counts as run when
any copy ran. The list is a starting point, not a verdict: error
paths, full-level auditor checks and code that only benches reach
show up too. Grep for callers before deleting anything.

Needs gcc's gcov; gcovr and lcov are not used. Exit status 0 when the
build and every test passed, 1 otherwise (the list is still printed
when only tests failed).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run(cmd):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=sys.stderr)


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


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("build_dir", type=pathlib.Path)
    args = ap.parse_args()
    build = args.build_dir.resolve()
    jobs = str(min(4, os.cpu_count() or 1))

    try:
        run(["cmake", "-B", str(build), "-S", str(REPO),
             "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS_DEBUG=-g -Og --coverage",
             "-DCMAKE_EXE_LINKER_FLAGS=--coverage"])
        run(["cmake", "--build", str(build), "-j", jobs])
    except subprocess.CalledProcessError as err:
        print(f"coverage_unreached: {err}", file=sys.stderr)
        return 1
    for gcda in build.rglob("*.gcda"):
        gcda.unlink()
    # A failing test still leaves its counters; report them, then fail.
    suite = subprocess.run(["ctest", "--test-dir", str(build), "-j", jobs,
                            "--output-on-failure"], stdout=sys.stderr)

    src = REPO / "src"
    counts = function_counts(build / "src")
    ours = {k: v for k, v in counts.items() if src in k[0].parents}
    never = sorted(k for k, v in ours.items() if v == 0)
    for path, line, name in never:
        print(f"{path.relative_to(REPO)}:{line} {name}")
    print(f"{len(never)} of {len(ours)} src/ functions never ran")
    if suite.returncode != 0:
        print("coverage_unreached: ctest failed; the list covers the "
              "tests that ran", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
