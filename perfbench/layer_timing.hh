/**
 * @file
 * Outside-in layer timing for the traced benchmark mode.
 *
 * Every wrapper here plugs into an existing extension point of the
 * simulator — the scheduler factory, the shared predictor pointer,
 * the record sink and observers, the batch observer and the metrics
 * sampler callback — and times the call it forwards. Nothing inside
 * the library is instrumented, so the wrappers see only the layer
 * boundaries the public API exposes; time spent between those calls
 * (event kernel, routing, replica glue, prefix-cache attach and
 * probe, the auditor) is what remains of run() once the spans are
 * subtracted.
 *
 * The wrappers are read-only: each forwards to the wrapped object
 * and returns its result unchanged, which the self-test proves by
 * byte-comparing whole-run outputs.
 */

#ifndef QOSERVE_PERFBENCH_LAYER_TIMING_HH
#define QOSERVE_PERFBENCH_LAYER_TIMING_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "app/serving_system.hh"

namespace qoserve {
namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Layer boundaries the traced mode times. */
enum class Span : int
{
    SchedEnqueue,
    SchedFormBatch,
    SchedChunkBudget,
    SchedComplete,
    PredictorPredict,
    PredictorPlaneBuild,
    RecordCallback,
    Sampler,
    Telemetry,
};

inline constexpr int kSpanCount = static_cast<int>(Span::Telemetry) + 1;

/**
 * Accumulates nested spans. A span's self time is its duration minus
 * the time its timed children covered; top-level spans are the timed
 * children of ClusterSim::run().
 */
class SpanLedger
{
  public:
    struct Totals
    {
        std::uint64_t calls = 0;
        double seconds = 0.0;
        double selfSeconds = 0.0;
    };

    void
    enter(Span span)
    {
        stack_.push_back(Frame{span, Clock::now(), 0.0});
    }

    void
    exit()
    {
        const Frame frame = stack_.back();
        stack_.pop_back();
        const double d = secondsBetween(frame.start, Clock::now());
        Totals &t = totals_[static_cast<int>(frame.span)];
        ++t.calls;
        t.seconds += d;
        t.selfSeconds += d - frame.childSeconds;
        if (stack_.empty())
            topLevelSeconds_ += d;
        else
            stack_.back().childSeconds += d;
    }

    const Totals &
    totals(Span span) const
    {
        return totals_[static_cast<int>(span)];
    }

    /** Wall time covered by outermost spans. */
    double topLevelSeconds() const { return topLevelSeconds_; }

  private:
    struct Frame
    {
        Span span;
        Clock::time_point start;
        double childSeconds;
    };

    std::vector<Frame> stack_;
    std::array<Totals, kSpanCount> totals_{};
    double topLevelSeconds_ = 0.0;
};

/** Times one call: enters on construction, exits on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLedger &ledger, Span span) : ledger_(ledger)
    {
        ledger_.enter(span);
    }

    ~ScopedSpan() { ledger_.exit(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLedger &ledger_;
};

/** KV occupancy sampled after every batch completion. */
struct KvOccupancy
{
    double sumFrac = 0.0;
    double peakFrac = 0.0;
    std::uint64_t samples = 0;

    void
    sample(const BlockManager &kv)
    {
        const double frac = static_cast<double>(kv.usedBlocks()) /
                            static_cast<double>(kv.totalBlocks());
        sumFrac += frac;
        if (frac > peakFrac)
            peakFrac = frac;
        ++samples;
    }
};

/**
 * A policy scheduler whose entry points are timed. Only the virtuals
 * the replica drives are overridden (plus the chunk-budget hook, as a
 * child of batch formation); everything else — queue sizes, stats,
 * audit views, priority keys — is inherited untouched.
 */
template <class Base>
class TimedScheduler : public Base
{
  public:
    template <class... Args>
    TimedScheduler(SpanLedger &ledger, KvOccupancy &kv, Args &&...args)
        : Base(std::forward<Args>(args)...), ledger_(ledger), kv_(kv)
    {
    }

    void
    enqueue(Request *req, SimTime now) override
    {
        ScopedSpan span(ledger_, Span::SchedEnqueue);
        Base::enqueue(req, now);
    }

    void
    formBatchInto(Batch &batch, SimTime now) override
    {
        ScopedSpan span(ledger_, Span::SchedFormBatch);
        Base::formBatchInto(batch, now);
    }

    /** The KV sample is wrapper overhead, counted in complete_self_s. */
    void
    onBatchComplete(const Batch &batch, SimTime end) override
    {
        ScopedSpan span(ledger_, Span::SchedComplete);
        Base::onBatchComplete(batch, end);
        kv_.sample(*this->env().kv);
    }

  protected:
    int
    chunkBudget(SimTime now, const Batch &batch) const override
    {
        ScopedSpan span(ledger_, Span::SchedChunkBudget);
        return Base::chunkBudget(now, batch);
    }

  private:
    SpanLedger &ledger_;
    KvOccupancy &kv_;
};

/**
 * Forwards every predictor virtual the chunk solver and its memo
 * call to a wrapped predictor, timing each.
 */
class TimedPredictor : public LatencyPredictor
{
  public:
    TimedPredictor(const LatencyPredictor &inner, SpanLedger &ledger)
        : inner_(inner), ledger_(ledger)
    {
    }

    SimDuration
    predict(const BatchFeatures &features) const override
    {
        ScopedSpan span(ledger_, Span::PredictorPredict);
        return inner_.predict(features);
    }

    SimDuration
    predictSupported(const BatchFeatures &features,
                     FeatureSupport &support) const override
    {
        ScopedSpan span(ledger_, Span::PredictorPredict);
        return inner_.predictSupported(features, support);
    }

    bool
    buildChunkPlane(const BatchFeatures &features, ChunkPlane &out,
                    ChunkPlane *super_scratch) const override
    {
        ScopedSpan span(ledger_, Span::PredictorPlaneBuild);
        return inner_.buildChunkPlane(features, out, super_scratch);
    }

  private:
    const LatencyPredictor &inner_;
    SpanLedger &ledger_;
};

/**
 * makeSchedulerFactory() with timed schedulers; supports the two
 * policies the benchmark's workloads use (fatal otherwise).
 */
SchedulerFactory timedSchedulerFactory(const ServingConfig &cfg,
                                       SpanLedger &ledger,
                                       KvOccupancy &kv);

} // namespace perfbench
} // namespace qoserve

#endif // QOSERVE_PERFBENCH_LAYER_TIMING_HH
