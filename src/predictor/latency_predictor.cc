/**
 * @file
 * Latency predictor implementations.
 */

#include "predictor/latency_predictor.hh"

#include <algorithm>
#include <limits>

#include "simcore/logging.hh"

namespace qoserve {

OracleLatencyPredictor::OracleLatencyPredictor(PerfModel model,
                                               double margin)
    : model_(std::move(model)), margin_(margin)
{
    QOSERVE_ASSERT(margin_ > 0.0, "margin must be positive");
}

SimDuration
OracleLatencyPredictor::predict(const BatchFeatures &features) const
{
    return margin_ * model_.iterationTime(features.toWork());
}

ForestLatencyPredictor::ForestLatencyPredictor(const PerfModel &model)
    : ForestLatencyPredictor(model, Options{})
{
}

ForestLatencyPredictor::ForestLatencyPredictor(const PerfModel &model,
                                               Options options)
    : options_(std::move(options))
{
    auto samples = collectProfile(model, options_.grid, options_.seed);
    forest_.fit(samples, options_.forest, options_.seed,
                options_.trainJobs);
}

SimDuration
ForestLatencyPredictor::predict(const BatchFeatures &features) const
{
    auto x = features.toArray();
    double est = forest_.predictQuantile(x.data(), BatchFeatures::kCount,
                                         options_.quantile);
    return est * options_.safetyMargin;
}

namespace {

/**
 * Half-widths of the chunk plane's validity box on the decode
 * batch-size and decode context-sum axes. Pure performance knobs:
 * splits inside the box are kept and re-evaluated per query, so
 * predictions are identical for every value; wider boxes mean rarer
 * plane rebuilds but a larger restricted forest.
 */
constexpr double kPlaneDecodeSlack = 16.0;
constexpr double kPlaneContextSlack = 32768.0;

/**
 * The chunk-budget search every solve runs: the largest u in
 * [0, units] with feasible(u * step), assuming feasibility is
 * monotone in the chunk and the empty chunk is feasible. Probes the
 * full chunk first, then bisects; the probe order is part of the
 * solve memo's contract (a replayed record saw exactly these probes).
 */
template <typename Feasible>
int
searchChunkUnits(int units, int step, Feasible &&feasible)
{
    if (feasible(units * step))
        return units;
    int lo = 0;     // feasible (empty chunk) by definition
    int hi = units; // Invariant: lo feasible, hi infeasible.
    while (hi - lo > 1) {
        int mid = lo + (hi - lo) / 2;
        if (feasible(mid * step))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

bool
ForestLatencyPredictor::buildChunkPlane(const BatchFeatures &features,
                                        ChunkPlane &out,
                                        ChunkPlane *super_scratch) const
{
    (void)super_scratch;
    // chunkTokens and prefillContext stay fully free: the solver
    // varies the former per probe and the latter drifts by the
    // granted chunk every iteration. The composition features get a
    // slack box around their current values so small drifts (decodes
    // joining/leaving, contexts growing) don't force a rebuild.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double lo[BatchFeatures::kCount] = {
        -kInf, -kInf, features.numDecodes - kPlaneDecodeSlack,
        features.decodeCtxSum - kPlaneContextSlack};
    const double hi[BatchFeatures::kCount] = {
        kInf, kInf, features.numDecodes + kPlaneDecodeSlack,
        features.decodeCtxSum + kPlaneContextSlack};
    forest_.restrictToBox(lo, hi, BatchFeatures::kCount, out.forest,
                          out.support);
    out.quantile = options_.quantile;
    out.safetyMargin = options_.safetyMargin;
    return true;
}

int
ChunkSolverCache::solve(const LatencyPredictor &predictor,
                        const BatchFeatures &decode_state,
                        SimDuration budget, int max_chunk, int step)
{
    ++stats_.solves;
    const int units = max_chunk / step;

    BatchFeatures features = decode_state;
    // The chunk axis is free in the plane's box, so any value
    // validates the composition check below.
    features.chunkTokens = 0.0;
    auto x = features.toArray();

    if (!plane_.support.contains(x.data(), BatchFeatures::kCount)) {
        if (!predictor.buildChunkPlane(features, plane_)) {
            // Predictor cannot partially evaluate: plain cold search
            // with per-probe predictions.
            auto feasible = [&](int chunk) {
                features.chunkTokens = static_cast<double>(chunk);
                ++stats_.queries;
                return predictor.predict(features) <= budget;
            };
            return searchChunkUnits(units, step, feasible) * step;
        }
        ++generation_;
    }

    // Replay: a record from the current plane whose box contains the
    // query (composition and prefill context; the chunk axis is
    // skipped — each recorded probe fixed its own chunk) and whose
    // budget interval contains the budget would probe the exact same
    // chunks, observe bitwise-identical latencies, and take the same
    // branch at every feasibility test — so its result IS this
    // solve's result.
    for (const SolveRecord &r : records_) {
        if (!r.valid || r.generation != generation_)
            continue;
        bool inside = true;
        for (int i = 1; i < BatchFeatures::kCount; ++i) {
            if (!(r.box.lo[i] < x[static_cast<std::size_t>(i)] &&
                  x[static_cast<std::size_t>(i)] <= r.box.hi[i])) {
                inside = false;
                break;
            }
        }
        if (!inside)
            continue;
        if (!(r.budgetLo <= budget && budget < r.budgetHi))
            continue;
        ++stats_.replayHits;
        return r.resultUnits * step;
    }

    // Cold search against the plane, with tracked probes feeding the
    // next record. Probe latencies are bitwise identical to the
    // untracked plane path (same walk, same quantile kernel).
    SolveRecord rec;
    rec.generation = generation_;
    rec.box.reset(BatchFeatures::kCount);
    rec.budgetLo = -std::numeric_limits<double>::infinity();
    rec.budgetHi = std::numeric_limits<double>::infinity();
    auto feasible = [&](int chunk) {
        x[0] = static_cast<double>(chunk);
        ++stats_.queries;
        ++stats_.hits;
        SimDuration lat = plane_.forest.predictQuantileTracked(
                              x.data(), BatchFeatures::kCount,
                              plane_.quantile, rec.box) *
                          plane_.safetyMargin;
        if (lat <= budget) {
            rec.budgetLo = std::max(rec.budgetLo, lat);
            return true;
        }
        rec.budgetHi = std::min(rec.budgetHi, lat);
        return false;
    };

    rec.resultUnits = searchChunkUnits(units, step, feasible);
    rec.valid = true;
    records_[recordHead_] = rec;
    recordHead_ = (recordHead_ + 1) % kSolveRecords;
    return rec.resultUnits * step;
}

int
solveChunkBudget(const LatencyPredictor &predictor,
                 BatchFeatures decode_state, SimDuration budget,
                 int max_chunk, int step, ChunkSolverCache *cache)
{
    QOSERVE_ASSERT(max_chunk >= 0 && step > 0, "bad solver bounds");
    if (budget <= 0.0 || max_chunk < step)
        return 0;

    if (cache != nullptr)
        return cache->solve(predictor, decode_state, budget, max_chunk,
                            step);

    auto feasible = [&](int chunk) {
        decode_state.chunkTokens = static_cast<double>(chunk);
        return predictor.predict(decode_state) <= budget;
    };
    return searchChunkUnits(max_chunk / step, step, feasible) * step;
}

} // namespace qoserve
