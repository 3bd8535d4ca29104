/**
 * @file
 * Decode lanes against a shadow model.
 *
 * A scheduler keeps each decoding request's per-token state in a
 * dense lane and writes it back into the Request only when the
 * request leaves the decode set, on a crash snapshot and on request.
 * These tests run FCFS and QoServe on one replica whose KV cache is
 * small enough to force both kinds of KV preemption (a partially
 * prefilled victim, and the newest decode, vLLM-style
 * self-preemption), and crash the replica while requests decode.
 * Beside every request runs a shadow copy that the test advances
 * through the Request's own entry points (applyPrefill,
 * applyDecodeToken, resetAfterKvPreemption), so the shadow takes the
 * shared Eq. 2 step one token at a time and never sees a lane.
 *
 * Two modes:
 *  - each iteration: after every batch the test writes the lanes back
 *    and compares every live request with its shadow, bit for bit;
 *  - at rest: the test never writes back. It checks only what the
 *    scheduler must publish by itself — the running decode-context
 *    sum, every finished record and every crash snapshot — so a
 *    missing write-back at a KV preemption or at Replica::fail shows.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/replica.hh"
#include "predictor/latency_predictor.hh"
#include "sched/baseline_schedulers.hh"
#include "sched/qoserve_scheduler.hh"
#include "simcore/rng.hh"

namespace qoserve {
namespace {

void
expectSameRecord(const RequestRecord &got, const RequestRecord &want,
                 std::uint64_t id)
{
    SCOPED_TRACE(testing::Message() << "request " << id);
    EXPECT_EQ(got.firstTokenTime, want.firstTokenTime);
    EXPECT_EQ(got.finishTime, want.finishTime);
    EXPECT_EQ(got.maxTbt, want.maxTbt);
    EXPECT_EQ(got.tbtDeadlineMisses, want.tbtDeadlineMisses);
    EXPECT_EQ(got.wasRelegated, want.wasRelegated);
    EXPECT_EQ(got.kvPreemptions, want.kvPreemptions);
    EXPECT_EQ(got.retries, want.retries);
    EXPECT_EQ(got.cachedPrefixTokens, want.cachedPrefixTokens);
}

/** The requests the replica owns, each beside its shadow. */
class ShadowBook
{
  public:
    explicit ShadowBook(bool write_back_each_iteration)
        : writeBackEachIteration(write_back_each_iteration)
    {
    }

    const bool writeBackEachIteration;

    /** Decode-victim preemptions of a request that had emitted
     *  tokens through its lane. */
    int decodePreemptions = 0;

    /** Preemptions of a partially prefilled request. */
    int prefillPreemptions = 0;

    /** Crash snapshots of a decoding request that had emitted tokens
     *  through its lane. */
    int crashedDecodes = 0;

    /** Finished records compared with their shadows. */
    int finishedCompared = 0;

    /** Records delivered by the replica, by request id. */
    std::map<std::uint64_t, RequestRecord> records;

    /** Snapshots handed back by the crash, for resubmission. */
    std::vector<RequestFailureSnapshot> snapshots;

    void
    onEnqueue(Request *req)
    {
        Entry &e = entries_[req->id()];
        e.real = req;
        e.shadow = std::make_unique<Request>(*req);
        e.laneOpenDone = -1;
    }

    /** Advance the shadows by one completed batch. */
    void
    onBatchComplete(const std::vector<std::pair<std::uint64_t, int>> &chunks,
                    const std::vector<std::uint64_t> &decodes, SimTime end)
    {
        for (auto [id, tokens] : chunks) {
            Entry &e = entries_.at(id);
            e.shadow->applyPrefill(TokenCount{tokens}, end);
            if (e.shadow->phase() == RequestPhase::Decoding)
                e.laneOpenDone = e.shadow->decodeDone();
        }
        for (std::uint64_t id : decodes) {
            Entry &e = entries_.at(id);
            if (!records.count(id) && preempted(e))
                continue; // Evicted before its token.
            e.shadow->applyDecodeToken(end);
        }
        syncPreemptions();
        retireFinished();
    }

    /**
     * Reset the shadow of every request a preemption reset, and
     * mirror relegation (queue state, outside any lane).
     */
    void
    syncPreemptions()
    {
        for (auto &[id, e] : entries_) {
            if (records.count(id))
                continue;
            if (e.real->relegated() != e.shadow->relegated())
                e.shadow->setRelegated(e.real->relegated());
            if (!preempted(e))
                continue;
            if (e.shadow->phase() == RequestPhase::Decoding) {
                if (e.shadow->decodeDone() > e.laneOpenDone)
                    ++decodePreemptions;
            } else {
                ++prefillPreemptions;
            }
            e.shadow->resetAfterKvPreemption();
            e.laneOpenDone = -1;
        }
    }

    /** The batch's running context sum equals the shadows' sum over
     *  its decodes, the first batch.numDecodes of @p lanes. */
    void
    checkDecodeCtxSum(const Batch &batch,
                      const std::vector<DecodeLane> &lanes) const
    {
        std::int64_t sum = 0;
        for (int i = 0; i < batch.numDecodes; ++i)
            sum += entries_.at(lanes[i].req->id()).shadow->contextLength();
        EXPECT_EQ(batch.decodeCtxSum, sum);
    }

    /** Every live request equals its shadow (lanes written back). */
    void
    compareLive() const
    {
        for (const auto &[id, e] : entries_) {
            SCOPED_TRACE(testing::Message() << "request " << id);
            const Request &got = *e.real;
            const Request &want = *e.shadow;
            ASSERT_EQ(got.phase(), want.phase());
            EXPECT_EQ(got.prefillDone(), want.prefillDone());
            EXPECT_EQ(got.prefillRemaining(), want.prefillRemaining());
            EXPECT_EQ(got.contextLength(), want.contextLength());
            EXPECT_TRUE(got.decodeProgress() == want.decodeProgress())
                << "decode progress differs";
            expectSameRecord(got.record(), want.record(), id);
        }
    }

    /** Compare a crash snapshot with the shadow's and forget the
     *  request, which dies with the replica. */
    void
    onCrashSnapshot(const RequestFailureSnapshot &snap)
    {
        Entry &e = entries_.at(snap.spec.id);
        RequestFailureSnapshot want = e.shadow->failureSnapshot();
        SCOPED_TRACE(testing::Message() << "request " << snap.spec.id);
        EXPECT_EQ(snap.decodeDone, want.decodeDone);
        EXPECT_EQ(snap.firstTokenTime, want.firstTokenTime);
        EXPECT_EQ(snap.lastTokenTime, want.lastTokenTime);
        EXPECT_EQ(snap.maxTbt, want.maxTbt);
        EXPECT_EQ(snap.tbtDeadlineMisses, want.tbtDeadlineMisses);
        EXPECT_EQ(snap.wasRelegated, want.wasRelegated);
        EXPECT_EQ(snap.kvPreemptions, want.kvPreemptions);
        EXPECT_EQ(snap.retries, want.retries);
        if (e.shadow->phase() == RequestPhase::Decoding &&
            e.shadow->decodeDone() > e.laneOpenDone)
            ++crashedDecodes;
        entries_.erase(snap.spec.id);
        snapshots.push_back(snap);
    }

    bool empty() const { return entries_.empty(); }

  private:
    struct Entry
    {
        /** The replica's request; dangling once its record arrived. */
        Request *real = nullptr;
        std::unique_ptr<Request> shadow;

        /** Shadow's decodeDone() when its current decode stint (and
         *  lane) began; -1 while not decoding. */
        int laneOpenDone = -1;
    };

    /** True when a preemption reset the request since its shadow's
     *  last reset (the preemption count lives outside the lane). */
    static bool
    preempted(const Entry &e)
    {
        return e.real->record().kvPreemptions >
               e.shadow->record().kvPreemptions;
    }

    void
    retireFinished()
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            auto rec = records.find(it->first);
            if (rec == records.end()) {
                ++it;
                continue;
            }
            EXPECT_EQ(it->second.shadow->phase(), RequestPhase::Finished)
                << "request " << it->first;
            expectSameRecord(rec->second, it->second.shadow->record(),
                             it->first);
            ++finishedCompared;
            it = entries_.erase(it);
        }
    }

    std::map<std::uint64_t, Entry> entries_;
};

/** A policy whose queue entry points feed the shadow book. */
template <class Base>
class ShadowedScheduler : public Base
{
  public:
    template <class... Args>
    ShadowedScheduler(ShadowBook &book, Args &&...args)
        : Base(std::forward<Args>(args)...), book_(book)
    {
    }

    void
    enqueue(Request *req, SimTime now) override
    {
        book_.onEnqueue(req);
        Base::enqueue(req, now);
    }

    void
    formBatchInto(Batch &batch, SimTime now) override
    {
        Base::formBatchInto(batch, now);
        book_.syncPreemptions(); // The wedge guard may preempt.
        book_.checkDecodeCtxSum(batch, this->decodeLanes());
    }

    void
    onBatchComplete(const Batch &batch, SimTime end) override
    {
        // Finished requests die inside the call: keep ids only.
        std::vector<std::pair<std::uint64_t, int>> chunks;
        for (const ScheduledChunk &c : batch.prefills)
            chunks.emplace_back(c.request->id(), c.chunkTokens);
        std::vector<std::uint64_t> decodes;
        for (int i = 0; i < batch.numDecodes; ++i)
            decodes.push_back(this->decodeLanes()[i].req->id());

        Base::onBatchComplete(batch, end);
        book_.onBatchComplete(chunks, decodes, end);
        if (book_.writeBackEachIteration) {
            this->writeBackDecodeLanes();
            book_.compareLive();
        }
    }

  private:
    ShadowBook &book_;
};

enum class Policy
{
    Fcfs,
    QoServe,
};

struct LanesCase
{
    Policy policy;
    bool writeBackEachIteration;
};

void
PrintTo(const LanesCase &c, std::ostream *os)
{
    *os << (c.policy == Policy::Fcfs ? "FCFS" : "QoServe")
        << (c.writeBackEachIteration ? ", each iteration" : ", at rest");
}

class DecodeLanesTest : public ::testing::TestWithParam<LanesCase>
{
};

TEST_P(DecodeLanesTest, LanesMatchAShadowThroughPreemptionsAndACrash)
{
    const LanesCase param = GetParam();
    ShadowBook book(param.writeBackEachIteration);

    // Shrink the KV cache to about 1500 tokens, so a few dozen
    // concurrent requests of up to 500 prompt and 300 output tokens
    // keep running out of it.
    Replica::Config cfg;
    cfg.hw = llama3_8b_a100_tp1();
    const double per_token =
        static_cast<double>(cfg.hw.model.kvBytesPerToken());
    cfg.hw.gpu.memCapacity -=
        static_cast<double>(cfg.hw.kvCapacityTokens() - 1500) * per_token;
    ASSERT_LT(cfg.hw.kvCapacityTokens(), 1600);

    PerfModel perf(cfg.hw);
    OracleLatencyPredictor oracle(perf);
    SchedulerFactory factory = [&](const SchedulerEnv &env)
        -> std::unique_ptr<Scheduler> {
        if (param.policy == Policy::Fcfs)
            return std::make_unique<ShadowedScheduler<FcfsScheduler>>(
                book, env);
        return std::make_unique<ShadowedScheduler<QoServeScheduler>>(
            book, env);
    };

    EventQueue eq;
    Replica replica(eq, cfg, factory, &oracle, paperTierTable(),
                    std::vector<AppStats>(3),
                    [&](RequestRecord &&rec) {
                        std::uint64_t id = rec.spec.id;
                        book.records.emplace(id, std::move(rec));
                    });
    replica.setFailureHandler([&](const RequestFailureSnapshot &snap) {
        book.onCrashSnapshot(snap);
    });

    // Arrivals while the replica is down wait for its recovery.
    std::vector<RequestSpec> held;
    Rng rng(20261019);
    SimTime t{0.0};
    constexpr int kRequests = 60;
    for (int i = 0; i < kRequests; ++i) {
        t += rng.exponential(6.0);
        RequestSpec spec;
        spec.id = static_cast<std::uint64_t>(i);
        spec.arrival = t;
        spec.promptTokens = static_cast<int>(rng.uniformInt(16, 500));
        spec.decodeTokens = static_cast<int>(rng.uniformInt(1, 300));
        spec.tierId = static_cast<int>(rng.uniformInt(0, 2));
        spec.appId = spec.tierId;
        eq.schedule(t, [&replica, &held, spec] {
            if (replica.health() == ReplicaHealth::Down)
                held.push_back(spec);
            else
                replica.submit(spec);
        });
    }

    // Crash mid-run, then come back and take every request again.
    const SimTime crash_at{4.0};
    eq.schedule(crash_at, [&] { replica.fail(); });
    eq.schedule(crash_at + 0.5, [&] {
        replica.recover();
        for (const RequestFailureSnapshot &snap : book.snapshots)
            replica.submit(snap.spec, &snap);
        for (const RequestSpec &spec : held)
            replica.submit(spec);
    });
    eq.run();

    EXPECT_EQ(book.records.size(), static_cast<std::size_t>(kRequests));
    EXPECT_EQ(book.finishedCompared, kRequests);
    EXPECT_TRUE(book.empty());
    EXPECT_EQ(replica.crashes(), 1u);
    // The scenario reaches every path that writes a lane back.
    EXPECT_GT(book.decodePreemptions, 0);
    EXPECT_GT(book.prefillPreemptions, 0);
    EXPECT_GT(book.crashedDecodes, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DecodeLanesTest,
    ::testing::Values(LanesCase{Policy::Fcfs, true},
                      LanesCase{Policy::Fcfs, false},
                      LanesCase{Policy::QoServe, true},
                      LanesCase{Policy::QoServe, false}),
    [](const ::testing::TestParamInfo<LanesCase> &info) {
        std::string name =
            info.param.policy == Policy::Fcfs ? "Fcfs" : "QoServe";
        return name + (info.param.writeBackEachIteration
                           ? "_EachIteration"
                           : "_AtRest");
    });

} // namespace
} // namespace qoserve
