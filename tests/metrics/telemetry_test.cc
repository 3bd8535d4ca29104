/**
 * @file
 * Tests for the per-iteration telemetry recorder.
 */

#include "metrics/telemetry.hh"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "core/csv.hh"
#include "sched/baseline_schedulers.hh"

namespace qoserve {
namespace {

BatchObservation
obs(SimTime start, SimDuration latency, int chunk, int decodes)
{
    BatchObservation o;
    o.start = start;
    o.latency = latency;
    o.prefillTokens = chunk;
    o.numDecodes = decodes;
    return o;
}

TEST(Telemetry, AggregatesBasicStats)
{
    TelemetryRecorder rec;
    auto sink = rec.observerFor(ReplicaId{0});
    sink(obs(SimTime{0.0}, 0.05, 256, 4));
    sink(obs(SimTime{0.05}, 0.10, 1024, 4));
    sink(obs(SimTime{0.15}, 0.05, 0, 5));

    EXPECT_EQ(rec.size(), 3u);
    std::stringstream out;
    rec.writeCsv(out);
    EXPECT_EQ(out.str(), "replica,start,latency,prefill_tokens,num_decodes\n"
                         "0,0,0.05,256,4\n"
                         "0,0.05,0.1,1024,4\n"
                         "0,0.15,0.05,0,5\n");
}

TEST(Telemetry, CsvContainsReplicaTags)
{
    TelemetryRecorder rec;
    rec.observerFor(ReplicaId{3})(obs(SimTime{1.0}, 0.05, 256, 7));
    std::stringstream out;
    rec.writeCsv(out);
    std::string text = out.str();
    EXPECT_NE(text.find("replica,start,latency"), std::string::npos);
    EXPECT_NE(text.find("3,1,0.05,256,7"), std::string::npos);
}

TEST(Telemetry, IntegratesWithClusterReplicas)
{
    Trace trace =
        TraceBuilder().seed(91).buildCount(PoissonArrivals(2.0), 60);
    ClusterSim::Config cc;
    cc.replica.hw = llama3_8b_a100_tp1();
    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(2, [](const SchedulerEnv &env) {
        return std::make_unique<FcfsScheduler>(env);
    });

    TelemetryRecorder rec;
    sim.replica(0).setBatchObserver(rec.observerFor(ReplicaId{0}));
    sim.replica(1).setBatchObserver(rec.observerFor(ReplicaId{1}));
    sim.run();

    EXPECT_EQ(rec.size(),
              sim.replica(0).iterations() + sim.replica(1).iterations());
    // Both replicas tagged their rows, and some iteration prefilled.
    std::stringstream out;
    rec.writeCsv(out);
    std::set<std::string> replicas;
    bool prefilled = false;
    std::string line;
    std::getline(out, line); // header
    while (std::getline(out, line)) {
        std::vector<std::string> fields = splitCsv(line);
        ASSERT_EQ(fields.size(), 5u) << line;
        replicas.insert(fields[0]);
        prefilled |= fields[3] != "0";
    }
    EXPECT_EQ(replicas, (std::set<std::string>{"0", "1"}));
    EXPECT_TRUE(prefilled);
}

} // namespace
} // namespace qoserve
