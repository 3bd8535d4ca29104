/**
 * @file
 * Tests for the per-iteration telemetry recorder.
 */

#include "metrics/telemetry.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "cluster/cluster.hh"
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
    ASSERT_EQ(rec.observations().size(), 3u);
    EXPECT_EQ(rec.observations()[0].prefillTokens, 256);
    EXPECT_EQ(rec.observations()[1].prefillTokens, 1024);
    EXPECT_EQ(rec.observations()[2].numDecodes, 5);
    EXPECT_EQ(rec.replicaIds(), std::vector<int>(3, 0));
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
    EXPECT_TRUE(std::any_of(rec.observations().begin(),
                            rec.observations().end(),
                            [](const BatchObservation &o) {
                                return o.prefillTokens > 0;
                            }));
}

} // namespace
} // namespace qoserve
