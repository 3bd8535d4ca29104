/**
 * @file
 * Self-test of the benchmark's timing wrappers: they must be
 * read-only.
 *
 * On a tiny trace of each workload's shape, runs with the timed
 * schedulers and the forwarding predictor, with the auditor detached,
 * and with a full-level auditor (which drives the full-detail audit
 * view) must all reproduce the plain run's records and summary
 * digest. QoServe shapes also run with the solver memo off, which
 * sends every probe through predict() instead of a chunk plane. Each
 * virtual the wrappers override must actually have been called, and
 * the forwarding predictor must return exactly what it wraps,
 * including for predictSupported(), which no library caller reaches.
 *
 *   perfbench_selftest   (exit status 0 when every check passes)
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>

#include "app/qoserve.hh"
#include "layer_timing.hh"
#include "workloads.hh"

namespace {

using namespace qoserve;
using namespace qoserve::perfbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
}

/** A few hundred requests with the workload's per-replica load. */
Workload
tinyShape(const Workload &w)
{
    Workload tiny = w;
    tiny.replicas = std::min(w.replicas, 4);
    tiny.duration = w.prefixCache ? 15.0 : 60.0;
    tiny.sessions = std::min(w.sessions, 2);
    return tiny;
}

void
checkShape(const Workload &w, const std::string &dir)
{
    auto run = [&](Mode mode, bool full_audit, bool memo) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        RunOptions opts;
        opts.mode = mode;
        opts.outDir = dir;
        opts.fullAudit = full_audit;
        opts.solverMemo = memo;
        return runWorkload(w, 3, opts);
    };
    const std::string tag = w.name + ": ";
    const RunResult plain = run(Mode::Plain, false, true);
    check(plain.requests > 0 && plain.lost == 0 && plain.artefactsOk,
          tag + "plain run serves every request");

    const RunResult traced = run(Mode::Traced, false, true);
    check(traced.digest == plain.digest, tag + "traced digest matches");
    auto calls = [](const RunResult &r, const std::string &name) {
        auto it = r.layers.find(name);
        return it == r.layers.end() ? 0.0 : it->second;
    };
    check(calls(traced, "sched.enqueue_calls") >=
                  static_cast<double>(traced.requests) &&
              calls(traced, "sched.form_batch_calls") > 0 &&
              calls(traced, "sched.complete_calls") > 0 &&
              calls(traced, "sched.chunk_budget_calls") > 0,
          tag + "timed scheduler entry points were called");
    check(traced.layers.at("cluster.run_self_s") >= 0.0,
          tag + "run self time is non-negative");
    if (w.policy == Policy::QoServe) {
        check(calls(traced, "predictor.plane_builds") > 0,
              tag + "forwarding buildChunkPlane was called");
    } else {
        check(calls(traced, "predictor.plane_builds") == 0 &&
                  calls(traced, "predictor.predict_calls") == 0 &&
                  calls(traced, "predictor.train_s") == 0,
              tag + "no predictor on a fixed-chunk policy");
    }
    if (!w.prefixCache) {
        check(calls(traced, "prefixcache.lookups") == 0,
              tag + "prefix cache bypassed");
    }

    check(run(Mode::TracedNoAudit, false, true).digest == plain.digest,
          tag + "auditor-detached digest matches");
    check(run(Mode::Plain, true, true).digest == plain.digest &&
              run(Mode::Traced, true, true).digest == plain.digest,
          tag + "full-level audit (full-detail views) digests match");

    if (w.policy == Policy::QoServe) {
        const RunResult cold = run(Mode::Traced, false, false);
        check(cold.digest == plain.digest &&
                  run(Mode::Plain, false, false).digest == plain.digest,
              tag + "solver-memo-off digests match");
        check(calls(cold, "predictor.predict_calls") > 0,
              tag + "forwarding predict was called");
    }
}

void
checkPredictorForwarding()
{
    ServingConfig sc;
    sc.trainJobs = 1;
    std::shared_ptr<const LatencyPredictor> inner = makePredictor(sc);
    SpanLedger ledger;
    TimedPredictor outer(*inner, ledger);

    bool same = true;
    for (double chunk : {0.0, 192.0, 1024.0}) {
        for (double decodes : {0.0, 12.0, 96.0}) {
            BatchFeatures f;
            f.chunkTokens = chunk;
            f.prefillContext = 2 * chunk;
            f.numDecodes = decodes;
            f.decodeCtxSum = 700.0 * decodes;
            // Every call runs whatever an earlier comparison found.
            same = (inner->predict(f) == outer.predict(f)) && same;

            FeatureSupport a{}, b{};
            same = (inner->predictSupported(f, a) ==
                    outer.predictSupported(f, b)) &&
                   same;
            same = same && a.dims == b.dims &&
                   std::equal(a.lo, a.lo + a.dims, b.lo) &&
                   std::equal(a.hi, a.hi + a.dims, b.hi);

            ChunkPlane pa, pb, sa, sb;
            same = (inner->buildChunkPlane(f, pa, &sa) ==
                    outer.buildChunkPlane(f, pb, &sb)) &&
                   same;
            const auto x = f.toArray();
            same = same && pa.valid() == pb.valid() &&
                   (!pa.valid() ||
                    pa.predict(x.data(), BatchFeatures::kCount) ==
                        pb.predict(x.data(), BatchFeatures::kCount));
        }
    }
    check(same, "forwarding predictor returns the wrapped results");
    check(ledger.totals(Span::PredictorPredict).calls == 18 &&
              ledger.totals(Span::PredictorPlaneBuild).calls == 9,
          "forwarding predictor times every call");
}

} // namespace

int
main()
{
    const std::string dir =
        (std::filesystem::current_path() / "perfbench_selftest_out")
            .string();
    checkPredictorForwarding();
    for (const Workload &w : workloads())
        checkShape(tinyShape(w), dir);
    std::filesystem::remove_all(dir);
    std::cout << (failures == 0 ? "all checks passed\n"
                                : std::to_string(failures) +
                                      " check(s) failed\n");
    return failures == 0 ? 0 : 1;
}
