#!/usr/bin/env python3
"""Repo benchmark: host cost of the QoServe simulator, end to end and
per layer.

    python3 perfbench/run.py --workload qoserve_r64 --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source tree. The first call configures and
builds perfbench/ (which pulls in the whole project at its default
configuration) under .bench_build/perfbench; later calls rebuild
incrementally. Each measurement is a fresh single-threaded
qoserve_perfbench process. Batches of up to three of them run side by
side, one per core, until --seconds have passed; the perfbench_probe
host-speed probe runs, as many side by side, before each batch and
after the last. Each process reports its host time cut into parts
(set-up steps, laps of run() at fixed simulated times, post-run
steps); a time is the sum of each part's fastest repetition, scaled
by the fastest probe repetition (README, "Host noise").

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured
with no wrappers attached. --trace 1 runs plain, traced and
traced-with-the-auditor-detached processes in each batch and prints
the per-layer metrics as medians over the processes. The last stdout
line is the result object; the line before it stamps the build and
host. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
SCRATCH = os.path.join(WORK, "tmp")

# Seed whose records and summary digests golden.json records.
DEFAULT_SEED = 1

# Per-process wall-clock limit, seconds.
PROCESS_TIMEOUT = 120

# Fastest repetition of the host probe (probe/probe.cc) in one run on
# the 4-core host this benchmark was written on. Host times are scaled to
# that host speed (README, "Host noise").
PROBE_NOMINAL_S = 0.027

# Build-tree subdirectory of each target outside the top level.
TARGET_DIRS = {"perfbench_probe": "probe"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def child_env():
    env = dict(os.environ)
    # Keep compiler and child temporaries inside the checkout.
    env["TMPDIR"] = SCRATCH
    return env


def build(*targets):
    """Build @p targets; return their paths in the build tree."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no qoserve source tree around " + HERE)
    os.makedirs(SCRATCH, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target"] + list(targets))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=child_env()).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return [os.path.join(BUILD, TARGET_DIRS.get(t, ""), t) for t in targets]


def lanes():
    """Processes run side by side: one per core, less one for the rest
    of the host, at most three."""
    return max(1, min(3, (os.cpu_count() or 1) - 1))


def side_by_side(fn, args, width):
    """fn(a) for each a in @p args, @p width at a time; results in
    order."""
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, args))


def run_probe(binary):
    """Seconds of each repetition of the host-speed probe."""
    proc = subprocess.run([binary], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError("host probe exited %d: %s" % (
            proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout)


def run_process(binary, workload, seed, mode):
    out = tempfile.mkdtemp(prefix="%s-%s-" % (workload, mode),
                           dir=SCRATCH)
    try:
        start = time.perf_counter()
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--mode", mode, "--out", out],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), timeout=PROCESS_TIMEOUT)
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("%s (%s, seed %d) exited %d: %s" % (
            workload, mode, seed, proc.returncode, proc.stderr[-2000:]))
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["mode"] = mode
    rec["total_s"] = wall
    return rec


def git_stamp():
    """Commit and dirty flag, or "unknown" outside a git checkout."""
    env = dict(os.environ)
    # Never pick up a repository that merely encloses the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)

    def git(*args):
        try:
            p = subprocess.run(["git", "-C", ROOT] + list(args),
                               stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True,
                               env=env, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit is None:
        return "unknown", "unknown"
    status = git("status", "--porcelain", "--untracked-files=no")
    return commit, "unknown" if status is None else bool(status)


def check(runs, workload, seed):
    """(attempted, failed); a digest mismatch fails every request."""
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    attempted = sum(r["requests"] for r in runs)
    digests = {r["digest"] for r in runs}
    if len(digests) != 1 or len({(r["requests"], r["events"])
                                 for r in runs}) != 1:
        return attempted, attempted
    if seed == DEFAULT_SEED and digests != {golden[workload]}:
        return attempted, attempted
    failed = 0
    for r in runs:
        bad = not r["artefacts_ok"] or r["completed"] != r["requests"]
        failed += r["requests"] if bad else r["lost"]
    return attempted, failed


def host_scale(probes):
    """Nominal over the fastest probe repetition of the run.

    Interference from other tenants only ever adds time. On a shared
    host it comes in bursts that can double every repetition of a
    probe process while the workload processes beside it slow by a
    few percent, so the probe's median follows the bursts; its minimum
    follows only a slowdown that lasts the whole run.
    """
    return PROBE_NOMINAL_S / min(probes)


def fastest(runs, key):
    """Sum over the parts in @p key of each part's fastest repetition.

    Every process of a run simulates the same trace, and the program
    cuts its work into the same parts in each of them: set-up steps,
    laps of run() at fixed simulated times, post-run steps.
    Interference only adds time, and it slows some processes and not
    others, so each part's minimum is taken from a process that ran
    that part at the host's best speed.
    """
    parts = [r[key] for r in runs]
    if len({len(p) for p in parts}) != 1:
        fail("processes cut %s into different numbers of parts" % key)
    return sum(min(column) for column in zip(*parts))


def end_to_end(runs, scale):
    run_s = fastest(runs, "laps") * scale
    setup_s = fastest(runs, "setup_parts") * scale
    post_s = fastest(runs, "post_parts") * scale
    return {
        "sim_req_per_s": runs[0]["requests"] / run_s,
        "ns_per_event": run_s * 1e9 / runs[0]["events"],
        "setup_s": setup_s,
        "post_s": post_s,
        "total_s": (run_s + setup_s + post_s +
                    min(r["total_s"] - r["setup_s"] - r["run_s"] -
                        r["post_s"] for r in runs) * scale),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "sim_headline_p99_s": runs[0]["headline_p99_s"],
    }


def per_layer(runs):
    """Per-layer values; host times are still unscaled."""
    med = statistics.median
    plain, traced, noaudit = (
        [r for r in runs if r["mode"] == m]
        for m in ("plain", "traced", "noaudit"))
    values = {name: med([r["layers"][name] for r in traced])
              for name in traced[0]["layers"]}
    # Paired by cycle: each traced run against the auditor-detached
    # run of its batch.
    values["audit.cost_s"] = med(
        [t["run_s"] - a["run_s"] for t, a in zip(traced, noaudit)])
    values["trace.overhead_frac"] = (
        med([r["run_s"] for r in traced]) /
        med([r["run_s"] for r in plain]))
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the wrapper self-test")
    args = ap.parse_args()

    if args.selftest:
        [binary] = build("perfbench_selftest")
        sys.exit(subprocess.run([binary], cwd=SCRATCH,
                                env=child_env()).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary, probe = build("qoserve_perfbench", "perfbench_probe")
    width = lanes()
    modes = ["plain", "traced", "noaudit"] if args.trace else ["plain"]
    batch = (modes * width)[:max(width, len(modes))]
    deadline = time.monotonic() + args.seconds
    runs = []
    probes = []
    cycles = 0
    try:
        while cycles < 2 or time.monotonic() < deadline:
            for reps in side_by_side(run_probe, [probe] * width, width):
                probes += reps
            runs += side_by_side(
                lambda mode: run_process(binary, args.workload, args.seed,
                                         mode), batch, width)
            cycles += 1
        for reps in side_by_side(run_probe, [probe] * width, width):
            probes += reps
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        fail(str(err))

    attempted, failed = check(runs, args.workload, args.seed)
    scale = host_scale(probes)
    if args.trace:
        values = per_layer(runs)
        for m in metrics_spec:
            if m["unit"] in ("s", "ns"):
                values[m["name"]] *= scale
    else:
        values = end_to_end(runs, scale)
    commit, dirty = git_stamp()
    first = runs[0]
    print(json.dumps({"stamp": {
        "workload": args.workload, "seed": args.seed,
        "git_commit": commit, "git_dirty": dirty,
        "build_type": first["build_type"],
        "check_level": first["check_level"],
        "compiler": first["compiler"], "nproc": os.cpu_count(),
        "processes": len(runs), "requests": first["requests"],
        "digest": first["digest"], "host_scale": scale,
        "unscaled": None if args.trace else end_to_end(runs, 1.0)}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]}
                    for m in metrics_spec},
    }))


if __name__ == "__main__":
    main()
