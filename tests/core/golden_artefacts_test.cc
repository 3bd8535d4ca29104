/**
 * @file
 * Golden artefact test: one small in-process scenario with every
 * producer switched on — crash faults, the shared-prefix cache with
 * affinity routing, lifecycle tracing, latency sketches, the SLO
 * burn-rate monitor, batch telemetry and the metrics sampler — writes
 * each CSV artefact the tools exchange, and each file's digest must
 * match the checked-in value. Every artefact a reader exists for is
 * also read back and re-written, and must come out byte-identical.
 *
 * A change that alters any artefact on purpose updates the digest in
 * the same commit and says why.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "app/qoserve.hh"
#include "fault/fault_injector.hh"
#include "obs/critical_path.hh"
#include "obs/metrics_registry.hh"
#include "obs/quantile_sketch.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"

namespace qoserve {
namespace {

/** 64-bit FNV-1a: a stable, dependency-free digest of a file. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Everything one scenario run leaves behind. */
struct ScenarioRun
{
    std::string dir;
    TierTable tiers;
    std::size_t records = 0;
    std::uint64_t crashes = 0;
    std::size_t alerts = 0;
    std::int64_t prefixHits = 0;
    std::size_t criticalCells = 0;
};

/** Artefact file names, in the order they are reported. */
const std::vector<std::string> kArtefacts = {
    "trace.csv",    "records.csv",  "summary.csv", "events.csv",
    "sketches.csv", "alerts.csv",   "critical.csv", "telemetry.csv",
    "metrics.csv",
};

ScenarioRun
runScenario(const std::string &dir)
{
    ScenarioRun run;
    run.dir = dir;

    SharedPrefixConfig prefix;
    prefix.shareRatio = 0.5;
    prefix.numPools = 4;
    prefix.poolTokensHi = 512;
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .sharedPrefix(prefix)
                      .seed(11)
                      .buildCount(PoissonArrivals(16.0), 240);
    run.tiers = trace.tiers;

    ServingConfig serving;
    serving.policy = Policy::QoServe;
    serving.numReplicas = 2;
    serving.useForestPredictor = false;
    serving.prefixCache.enabled = true;
    serving.prefixCache.capacityFrac = 0.3;
    serving.cacheAffinityRouting = true;
    auto predictor = makePredictor(serving);

    ClusterSim::Config cc;
    cc.replica.hw = serving.hw;
    cc.replica.perfParams = serving.perfParams;
    cc.replica.prefixCache = serving.prefixCache;
    cc.cacheAffinityRouting = serving.cacheAffinityRouting;
    cc.predictor = predictor.get();
    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(serving.numReplicas,
                        makeSchedulerFactory(serving));

    TraceSink sink;
    sim.setTraceSink(&sink);

    std::map<std::string, QuantileSketch> bank;
    sim.metricsCollector().addRecordObserver(
        [&](const RequestRecord &rec) {
            const QosTier &tier = trace.tiers[rec.spec.tierId];
            const std::string name =
                "tier" + std::to_string(rec.spec.tierId);
            auto sketchFor = [&](const std::string &key)
                -> QuantileSketch & {
                return bank.try_emplace(name + key, 0.02).first->second;
            };
            sketchFor(".headline").insert(headlineLatency(rec, tier));
            sketchFor(".ttft").insert(rec.ttft());
            sketchFor(".ttlt").insert(rec.ttlt());
        });

    SloMonitorConfig alertCfg;
    alertCfg.budget = 0.05;
    alertCfg.burn = 1.0;
    alertCfg.shortWindow = 5.0;
    alertCfg.longWindow = 10.0;
    alertCfg.interval = 1.0;
    SloMonitor monitor(sim.eventQueue(),
                       TraceScope{&sink, &sim.eventQueue(), -1},
                       alertCfg);
    sim.metricsCollector().addRecordObserver(
        [&](const RequestRecord &rec) {
            monitor.observe(rec.spec.tierId, sim.eventQueue().now(),
                            violatedSlo(rec,
                                        trace.tiers[rec.spec.tierId]));
        });
    monitor.start();

    FaultConfig fc;
    fc.crashMtbf = 5.0;
    fc.crashMttr = 2.0;
    fc.seed = 3;
    FaultInjector faults(fc, DomainConfig{}, sim);

    TelemetryRecorder telemetry;
    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
        sim.replica(i).setBatchObserver(
            telemetry.observerFor(ReplicaId{static_cast<int>(i)}));

    MetricsRegistry registry;
    MetricsSampler sampler(
        sim.eventQueue(), registry, 2.0,
        [&sim](MetricsRegistry &reg, SimTime) {
            for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
                const Replica &rep = sim.replica(i);
                reg.gauge("replica" + std::to_string(i) +
                          "_prefill_queue") =
                    static_cast<double>(
                        rep.scheduler().prefillQueueSize());
                reg.histogram("queue_depth",
                              {0.0, 1.0, 2.0, 4.0, 8.0, 16.0})
                    .observe(static_cast<double>(
                        rep.scheduler().prefillQueueSize()));
            }
            reg.counter("redispatches") =
                static_cast<std::int64_t>(sim.redispatches());
            reg.counter("requests_completed") =
                static_cast<std::int64_t>(sim.metrics().size());
        });
    sampler.start();

    const MetricsCollector &metrics = sim.run();

    const auto path = [&](const char *name) { return dir + "/" + name; };
    writeTraceCsvFile(trace, path("trace.csv"));
    writeRecordsCsvFile(metrics, path("records.csv"));
    {
        std::ofstream out(path("summary.csv"));
        writeSummaryCsv(summarize(metrics), out);
    }
    sink.writeCsvFile(path("events.csv"));
    writeSketchBankCsvFile(bank, path("sketches.csv"));
    writeAlertsCsvFile(monitor.alerts(), path("alerts.csv"));

    std::vector<std::uint64_t> violated;
    for (const RequestRecord &rec : metrics.records())
        if (violatedSlo(rec, trace.tiers[rec.spec.tierId]))
            violated.push_back(rec.spec.id);
    std::sort(violated.begin(), violated.end());
    CriticalAggregate critical = aggregateCriticalPaths(
        buildRequestTimelines(sink.events()), violated);
    writeCriticalAggregateCsvFile(critical, path("critical.csv"));
    telemetry.writeCsvFile(path("telemetry.csv"));
    registry.writeCsvFile(path("metrics.csv"));

    run.records = metrics.size();
    run.crashes = faults.stats().crashes;
    run.alerts = monitor.alerts().size();
    for (std::size_t i = 0; i < sim.numReplicas(); ++i)
        run.prefixHits += sim.replica(i).prefixCache().stats().hits;
    run.criticalCells = critical.cells.size();
    return run;
}

class GoldenArtefacts : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        // One directory per process: ctest runs each case in its own
        // process, possibly at the same time as the others.
        const std::string dir = ::testing::TempDir() +
                                "qoserve_golden_artefacts_" +
                                std::to_string(::getpid());
        std::filesystem::create_directories(dir);
        run_ = new ScenarioRun(runScenario(dir));
    }

    static void TearDownTestSuite()
    {
        std::filesystem::remove_all(run_->dir);
        delete run_;
        run_ = nullptr;
    }

    static std::string file(const std::string &name)
    {
        return run_->dir + "/" + name;
    }

    static ScenarioRun *run_;
};

ScenarioRun *GoldenArtefacts::run_ = nullptr;

TEST_F(GoldenArtefacts, ScenarioExercisesEveryProducer)
{
    EXPECT_EQ(run_->records, 240u);
    EXPECT_GT(run_->crashes, 0u);
    EXPECT_GT(run_->alerts, 0u);
    EXPECT_GT(run_->prefixHits, 0);
    EXPECT_GT(run_->criticalCells, 0u);
    // Shared prefixes switch the trace to its segment-carrying header.
    EXPECT_NE(slurp(file("trace.csv")).find("prompt_segments"),
              std::string::npos);
}

TEST_F(GoldenArtefacts, DigestsMatchCheckedInValues)
{
    // FNV-1a of each artefact's bytes.
    const std::map<std::string, std::string> golden = {
        {"trace.csv", "3146972158474814"},
        {"records.csv", "6638b0705f5abad9"},
        {"summary.csv", "8bd6a3f0596fa6bc"},
        {"events.csv", "c9033585702c1979"},
        {"sketches.csv", "ec0dab7d8ddbf98c"},
        {"alerts.csv", "9921d118e58121af"},
        {"critical.csv", "2f6e7948fa975a13"},
        {"telemetry.csv", "59eacd582835a43d"},
        {"metrics.csv", "b7ee19a3f224847a"},
    };
    for (const std::string &name : kArtefacts) {
        const std::string bytes = slurp(file(name));
        EXPECT_FALSE(bytes.empty()) << name;
        EXPECT_EQ(hex(fnv1a(bytes)), golden.at(name)) << name;
    }
}

TEST_F(GoldenArtefacts, ReadersRoundTripEveryArtefactByteExactly)
{
    {
        Trace trace = readTraceCsvFile(file("trace.csv"), run_->tiers);
        std::ostringstream out;
        writeTraceCsv(trace, out);
        EXPECT_EQ(out.str(), slurp(file("trace.csv")));
    }
    {
        TraceSink sink;
        for (const TraceEvent &ev : readTraceCsvFile(file("events.csv")))
            sink.emit(ev);
        std::ostringstream out;
        sink.writeCsv(out);
        EXPECT_EQ(out.str(), slurp(file("events.csv")));
    }
    {
        std::ostringstream out;
        writeSketchBankCsv(readSketchBankCsvFile(file("sketches.csv")),
                           out);
        EXPECT_EQ(out.str(), slurp(file("sketches.csv")));
    }
    {
        std::ostringstream out;
        writeAlertsCsv(readAlertsCsvFile(file("alerts.csv")), out);
        EXPECT_EQ(out.str(), slurp(file("alerts.csv")));
    }
    {
        std::ostringstream out;
        writeCriticalAggregateCsv(
            readCriticalAggregateCsvFile(file("critical.csv")), out);
        EXPECT_EQ(out.str(), slurp(file("critical.csv")));
    }
    {
        std::vector<RecordsCsvRow> rows =
            readRecordsCsvFile(file("records.csv"));
        EXPECT_EQ(rows.size(), run_->records);
    }
}

} // namespace
} // namespace qoserve
