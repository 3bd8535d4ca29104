/**
 * @file
 * Tests for the replica simulation driver.
 */

#include "cluster/replica.hh"

#include <gtest/gtest.h>

#include "metrics/slo_report.hh"
#include "sched/baseline_schedulers.hh"

namespace qoserve {
namespace {

RequestSpec
makeSpec(std::uint64_t id, SimTime arrival, int prompt, int decode,
         int tier)
{
    RequestSpec spec;
    spec.id = id;
    spec.arrival = SimTime{arrival};
    spec.promptTokens = prompt;
    spec.decodeTokens = decode;
    spec.tierId = tier;
    spec.appId = tier;
    return spec;
}

class ReplicaTest : public ::testing::Test
{
  protected:
    ReplicaTest()
    {
        cfg_.hw = llama3_8b_a100_tp1();
        factory_ = [](const SchedulerEnv &env) {
            return std::make_unique<FcfsScheduler>(env);
        };
    }

    std::unique_ptr<Replica>
    makeReplica()
    {
        return std::make_unique<Replica>(
            eq_, cfg_, factory_, nullptr, paperTierTable(),
            std::vector<AppStats>(3),
            [this](const RequestRecord &rec) { records_.push_back(rec); });
    }

    EventQueue eq_;
    Replica::Config cfg_;
    SchedulerFactory factory_;
    std::vector<RequestRecord> records_;
};

TEST_F(ReplicaTest, SingleRequestCompletes)
{
    auto replica = makeReplica();
    eq_.schedule(SimTime{1.0}, [&] { replica->submit(makeSpec(1, SimTime{1.0}, 500, 5, 0)); });
    eq_.run();

    ASSERT_EQ(records_.size(), 1u);
    const RequestRecord &rec = records_[0];
    EXPECT_GT(rec.ttft(), 0.0);
    EXPECT_GE(rec.ttlt(), rec.ttft());
    EXPECT_EQ(replica->liveRequests(), 0u);
    EXPECT_EQ(replica->kv().usedBlocks(), 0);
}

TEST_F(ReplicaTest, TtftReflectsPrefillTime)
{
    auto replica = makeReplica();
    eq_.schedule(SimTime{0.0}, [&] { replica->submit(makeSpec(1, SimTime{0.0}, 512, 2, 0)); });
    eq_.run();

    ASSERT_EQ(records_.size(), 1u);
    // Two 256-token chunked iterations at ~40 ms each.
    EXPECT_GT(records_[0].ttft(), 0.05);
    EXPECT_LT(records_[0].ttft(), 0.25);
}

TEST_F(ReplicaTest, ManyRequestsAllComplete)
{
    auto replica = makeReplica();
    for (int i = 0; i < 20; ++i) {
        SimTime at{0.1 * i};
        eq_.schedule(at, [this, &replica, i, at] {
            replica->submit(makeSpec(i, at, 300 + 50 * i, 3, i % 3));
        });
    }
    eq_.run();
    EXPECT_EQ(records_.size(), 20u);
    EXPECT_GT(replica->iterations(), 20u);
    EXPECT_GT(replica->busyTime(), 0.0);
}

TEST_F(ReplicaTest, EngineIsWorkConserving)
{
    // Busy time must equal the span from first submission to last
    // completion when work never runs out.
    auto replica = makeReplica();
    eq_.schedule(SimTime{0.0}, [&] {
        for (int i = 0; i < 5; ++i)
            replica->submit(makeSpec(i, SimTime{0.0}, 1000, 5, 0));
    });
    eq_.run();
    EXPECT_NEAR(replica->busyTime(), eq_.now().seconds(), 1e-9);
}

TEST_F(ReplicaTest, BatchObserverSeesEveryIteration)
{
    auto replica = makeReplica();
    std::vector<BatchObservation> observations;
    replica->setBatchObserver(
        [&](const BatchObservation &obs) { observations.push_back(obs); });

    eq_.schedule(SimTime{0.0}, [&] { replica->submit(makeSpec(1, SimTime{0.0}, 600, 3, 0)); });
    eq_.run();

    EXPECT_EQ(observations.size(), replica->iterations());
    // First iterations carry prefill tokens; the last ones decode.
    EXPECT_EQ(observations.front().prefillTokens, 256);
    EXPECT_EQ(observations.back().prefillTokens, 0);
    EXPECT_EQ(observations.back().numDecodes, 1);
    for (const auto &obs : observations)
        EXPECT_GT(obs.latency, 0.0);
}

TEST_F(ReplicaTest, DuplicateSubmissionPanics)
{
    auto replica = makeReplica();
    eq_.schedule(SimTime{0.0}, [&] {
        replica->submit(makeSpec(1, SimTime{0.0}, 500, 5, 0));
        EXPECT_DEATH(replica->submit(makeSpec(1, SimTime{0.0}, 500, 5, 0)),
                     "duplicate");
    });
    eq_.run();
}

TEST_F(ReplicaTest, IdleReplicaWakesOnSubmission)
{
    auto replica = makeReplica();
    eq_.schedule(SimTime{0.0}, [&] { replica->submit(makeSpec(1, SimTime{0.0}, 200, 2, 0)); });
    // Long idle gap, then more work.
    eq_.schedule(SimTime{100.0},
                 [&] { replica->submit(makeSpec(2, SimTime{100.0}, 200, 2, 0)); });
    eq_.run();
    ASSERT_EQ(records_.size(), 2u);
    // The second request starts fresh at t=100, not queued behind
    // phantom work.
    EXPECT_LT(records_[1].ttft(), 0.2);
}

TEST_F(ReplicaTest, FailReleasesKvAndHandsBackLiveRequests)
{
    auto replica = makeReplica();
    std::vector<RequestFailureSnapshot> orphans;
    replica->setFailureHandler(
        [&](const RequestFailureSnapshot &snap) {
            orphans.push_back(snap);
        });

    eq_.schedule(SimTime{0.0}, [&] {
        for (int i = 0; i < 4; ++i)
            replica->submit(makeSpec(i, SimTime{0.0}, 800, 10, 0));
    });
    eq_.schedule(SimTime{0.2}, [&] {
        ASSERT_GT(replica->kv().usedBlocks(), 0);
        ASSERT_GT(replica->liveRequests(), 0u);
        replica->fail();
        // Crash semantics: all KV gone, nothing live, nothing queued.
        EXPECT_EQ(replica->kv().usedBlocks(), 0);
        EXPECT_EQ(replica->liveRequests(), 0u);
        EXPECT_FALSE(replica->scheduler().hasWork());
        EXPECT_EQ(replica->health(), ReplicaHealth::Down);
        EXPECT_EQ(orphans.size(), 4u);
        // Snapshots arrive in request-id order (determinism).
        for (std::size_t i = 1; i < orphans.size(); ++i)
            EXPECT_LT(orphans[i - 1].spec.id, orphans[i].spec.id);
    });
    eq_.run();
    EXPECT_EQ(replica->crashes(), 1u);
    EXPECT_TRUE(records_.empty()) << "crashed work completed anyway";
}

TEST_F(ReplicaTest, RecoveredReplicaServesResubmissions)
{
    auto replica = makeReplica();
    std::vector<RequestFailureSnapshot> orphans;
    replica->setFailureHandler(
        [&](const RequestFailureSnapshot &snap) {
            orphans.push_back(snap);
        });

    eq_.schedule(SimTime{0.0},
                 [&] { replica->submit(makeSpec(1, SimTime{0.0}, 2000, 50, 0)); });
    eq_.schedule(SimTime{0.2}, [&] { replica->fail(); });
    eq_.schedule(SimTime{1.0}, [&] {
        replica->recover();
        EXPECT_EQ(replica->health(), ReplicaHealth::Up);
        ASSERT_EQ(orphans.size(), 1u);
        replica->submit(orphans[0].spec, &orphans[0]);
    });
    eq_.run();

    ASSERT_EQ(records_.size(), 1u);
    const RequestRecord &rec = records_[0];
    EXPECT_NE(rec.finishTime, kTimeNever);
    EXPECT_GE(rec.ttlt(), rec.ttft());
    EXPECT_EQ(replica->kv().usedBlocks(), 0);
}

TEST_F(ReplicaTest, ResubmitAfterFirstTokenKeepsTtft)
{
    auto replica = makeReplica();
    std::vector<RequestFailureSnapshot> orphans;
    replica->setFailureHandler(
        [&](const RequestFailureSnapshot &snap) {
            orphans.push_back(snap);
        });

    // Long decode so the crash lands mid-decode, after first token.
    eq_.schedule(SimTime{0.0},
                 [&] { replica->submit(makeSpec(1, SimTime{0.0}, 256, 200, 0)); });
    eq_.schedule(SimTime{2.0}, [&] { replica->fail(); });
    eq_.schedule(SimTime{2.5}, [&] {
        replica->recover();
        ASSERT_EQ(orphans.size(), 1u);
        ASSERT_GT(orphans[0].decodeDone, 0)
            << "crash landed before the first token";
        EXPECT_NE(orphans[0].firstTokenTime, kTimeNever);
        replica->submit(orphans[0].spec, &orphans[0]);
    });
    eq_.run();

    ASSERT_EQ(records_.size(), 1u);
    // TTFT is the original pre-crash first token, not the resumed one.
    EXPECT_EQ(records_[0].firstTokenTime, orphans[0].firstTokenTime);
    EXPECT_NE(records_[0].finishTime, kTimeNever);
}

TEST_F(ReplicaTest, SlowdownScalesIterationLatency)
{
    // Two identical one-request runs, one at 2x slowdown.
    auto timed = [&](double factor) {
        EventQueue eq;
        std::vector<RequestRecord> records;
        Replica replica(
            eq, cfg_, factory_, nullptr, paperTierTable(),
            std::vector<AppStats>(3),
            [&](const RequestRecord &rec) { records.push_back(rec); });
        eq.schedule(SimTime{0.0}, [&] {
            if (factor != 1.0)
                replica.setSlowdown(factor);
            replica.submit(makeSpec(1, SimTime{0.0}, 512, 4, 0));
        });
        eq.run();
        return records.at(0).ttlt();
    };

    double base = timed(1.0);
    double slowed = timed(2.0);
    EXPECT_NEAR(slowed, 2.0 * base, 1e-9);
}

TEST_F(ReplicaTest, SlowdownTransitionsHealth)
{
    auto replica = makeReplica();
    EXPECT_EQ(replica->health(), ReplicaHealth::Up);
    replica->setSlowdown(1.5);
    EXPECT_EQ(replica->health(), ReplicaHealth::Degraded);
    EXPECT_DOUBLE_EQ(replica->slowdown(), 1.5);
    replica->setSlowdown(1.0);
    EXPECT_EQ(replica->health(), ReplicaHealth::Up);
}

TEST_F(ReplicaTest, FailWithoutHandlerPanics)
{
    auto replica = makeReplica();
    EXPECT_DEATH(replica->fail(), "handler");
}

TEST_F(ReplicaTest, SubmitWhileDownPanics)
{
    auto replica = makeReplica();
    replica->setFailureHandler([](const RequestFailureSnapshot &) {});
    eq_.schedule(SimTime{0.0}, [&] {
        replica->fail();
        EXPECT_DEATH(replica->submit(makeSpec(1, SimTime{0.0}, 100, 2, 0)),
                     "down");
    });
    eq_.run();
}

} // namespace
} // namespace qoserve
