/**
 * @file
 * Tests for the TraceLog byte codec: a seeded property test over
 * every edge pattern of every field, its footprint on a traced run,
 * and the no-allocation promise of the empty observer stores.
 */

#include "obs/trace_sink.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <new>
#include <vector>

#include "app/qoserve.hh"
#include "obs/metrics_registry.hh"
#include "simcore/rng.hh"

namespace {

/** Global operator new calls, so a test can assert that a region of
 *  code allocated nothing. */
std::atomic<std::uint64_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every non-aligned form is replaced, so each allocation and its
// release pair as malloc/free (sanitizers check the pairing).
void *
operator new(std::size_t n)
{
    return countedAllocOrThrow(n);
}

void *
operator new[](std::size_t n)
{
    return countedAllocOrThrow(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace qoserve {
namespace {

static_assert(std::forward_iterator<TraceLog::const_iterator>);

/** Field-by-field identity, doubles compared by bit pattern. */
void
expectSameBits(const TraceEvent &got, const TraceEvent &want,
               std::size_t i)
{
    EXPECT_EQ(got.kind, want.kind) << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time.seconds()),
              std::bit_cast<std::uint64_t>(want.time.seconds()))
        << "event " << i;
    EXPECT_EQ(got.request, want.request) << "event " << i;
    EXPECT_EQ(got.replica, want.replica) << "event " << i;
    EXPECT_EQ(got.arg, want.arg) << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
              std::bit_cast<std::uint64_t>(want.value))
        << "event " << i;
}

/** Doubles at the codec's edges: both zeros, NaN payloads, infinities,
 *  subnormals, and the integers around the varint cut-off. */
const std::vector<double> &
edgeDoubles()
{
    static const std::vector<double> values = [] {
        std::vector<double> v = {
            0.0,
            -0.0,
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::denorm_min(),
            -std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::min() / 3.0, // subnormal
            std::numeric_limits<double>::min(),
            std::numeric_limits<double>::max(),
            1.0,
            -1.0,
            0.5,
            3.0,
            1e300,
            0x1p53 - 1.0,
            0x1p53,
            0x1p53 + 2.0,
            0x1p63,
            0x1p64,
        };
        for (std::uint64_t bits :
             {0x7FF8000000000000ull, 0x7FF8000000000001ull,
              0x7FF0000000000001ull, 0xFFF8000000000000ull,
              0xFFFFFFFFFFFFFFFFull, 0x7FF4000000BEEF00ull})
            v.push_back(std::bit_cast<double>(bits));
        return v;
    }();
    return values;
}

/** One event drawn from the edge patterns or from raw random bits. */
TraceEvent
drawEvent(Rng &rng, const TraceEvent &prev)
{
    const std::vector<double> &edges = edgeDoubles();
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
    };
    TraceEvent ev;
    ev.kind = static_cast<TraceEventKind>(pick(kTraceEventKinds));

    // Runs of equal times, edge times, and arbitrary bit patterns.
    switch (pick(4)) {
      case 0:
      case 1:
        ev.time = prev.time;
        break;
      case 2:
        ev.time = SimTime{edges[pick(edges.size())]};
        break;
      default:
        ev.time = SimTime{std::bit_cast<double>(rng.nextU64())};
        break;
    }

    const std::uint64_t requests[] = {kNoTraceRequest, 0, 1,
                                      kNoTraceRequest - 1, 127, 128};
    ev.request = pick(3) == 0 ? rng.nextU64() : requests[pick(6)];

    const int replicas[] = {-1, 0, 1, INT_MIN, INT_MAX, 63, -64};
    ev.replica = pick(3) == 0 ? static_cast<int>(rng.nextU64())
                              : replicas[pick(7)];

    const std::int64_t args[] = {0, -1, 1, INT64_MIN, INT64_MAX, 64, -65};
    ev.arg = pick(3) == 0 ? static_cast<std::int64_t>(rng.nextU64())
                          : args[pick(7)];

    switch (pick(3)) {
      case 0:
        ev.value = edges[pick(edges.size())];
        break;
      case 1:
        ev.value = static_cast<double>(pick(1 << 20));
        break;
      default:
        ev.value = std::bit_cast<double>(rng.nextU64());
        break;
    }
    return ev;
}

TEST(TraceLog, EveryFieldRoundTripsBitExactlyAcrossChunks)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        std::vector<TraceEvent> want;
        TraceLog log;
        TraceEvent prev;
        for (std::size_t i = 0; i < (std::size_t{1} << 16) + 4321; ++i) {
            prev = drawEvent(rng, prev);
            want.push_back(prev);
            log.append(prev);
        }
        ASSERT_EQ(log.size(), want.size());
        EXPECT_GT(log.encodedBytes(), 4 * TraceLog::kChunkBytes)
            << "the stream should span several chunks";
        expectSameBits(log.back(), want.back(), want.size() - 1);

        std::size_t i = 0;
        for (const TraceEvent &ev : log) {
            ASSERT_LT(i, want.size());
            expectSameBits(ev, want[i], i);
            ++i;
        }
        EXPECT_EQ(i, want.size()) << "seed " << seed;
    }
}

TEST(TraceLog, IteratorsWalkForwardAndCompareByPosition)
{
    TraceLog empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.begin() == empty.end());

    TraceLog log;
    log.append({TraceEventKind::Arrival, SimTime{1.0}, 4, -1, 0, 0.0});
    log.append({TraceEventKind::Dispatch, SimTime{1.0}, 4, 2, 0, 0.0});
    log.append({TraceEventKind::IterStart, SimTime{2.5}, kNoTraceRequest, 2,
                512, 3.0});
    EXPECT_EQ(log.size(), 3u);
    EXPECT_EQ(std::distance(log.begin(), log.end()), 3);
    auto it = log.begin();
    auto copy = it;
    EXPECT_EQ((*it++).kind, TraceEventKind::Arrival);
    EXPECT_EQ((*copy).kind, TraceEventKind::Arrival);
    EXPECT_EQ((*it).kind, TraceEventKind::Dispatch);
    EXPECT_TRUE(++copy == it);
    EXPECT_TRUE(++it != log.end());
    EXPECT_TRUE((*it) == log.back());
    EXPECT_TRUE(++it == log.end());
}

TEST(TraceLog, TracedSixteenReplicaRunEncodesCompactly)
{
    ServingConfig serving;
    serving.policy = Policy::QoServe;
    serving.numReplicas = 16;
    serving.useForestPredictor = false;
    auto predictor = makePredictor(serving);
    Trace trace = TraceBuilder()
                      .dataset(azureCode())
                      .seed(1)
                      .buildCount(PoissonArrivals(32.0), 1500);

    ClusterSim::Config cc;
    cc.replica.hw = serving.hw;
    cc.replica.perfParams = serving.perfParams;
    cc.predictor = predictor.get();
    ClusterSim sim(cc, std::move(trace));
    sim.addReplicaGroup(serving.numReplicas,
                        makeSchedulerFactory(serving));
    TraceSink sink;
    sim.setTraceSink(&sink);
    sim.run();

    const TraceLog &log = sink.events();
    ASSERT_GT(log.size(), 10000u);
    const double bytesPerEvent = static_cast<double>(log.encodedBytes()) /
                                 static_cast<double>(log.size());
    EXPECT_LE(bytesPerEvent, 12.0) << log.size() << " events";
}

TEST(TraceLog, EmptyStoresAllocateNothing)
{
    const std::uint64_t before = gAllocations.load();
    {
        TraceLog log;
        TraceSink sink;
        MetricsRegistry registry;
        EXPECT_TRUE(log.empty());
        EXPECT_TRUE(sink.empty());
        EXPECT_EQ(registry.snapshots(), 0u);
        TraceLog moved = std::move(log);
        EXPECT_TRUE(moved.begin() == moved.end());
    }
    EXPECT_EQ(gAllocations.load(), before);

    // The counter does see allocations: one event takes one chunk.
    TraceLog log;
    log.append({});
    EXPECT_GT(gAllocations.load(), before);
}

} // namespace
} // namespace qoserve
