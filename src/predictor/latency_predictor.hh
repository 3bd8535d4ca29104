/**
 * @file
 * Batch-latency predictors and the dynamic chunk-budget solver.
 *
 * The QoServe scheduler consults a predictor each iteration to find
 * the largest prefill chunk whose predicted execution time fits the
 * minimum slack of the decoding requests (§3.3, §3.6.1, Algorithm 1's
 * GET_PREFILL_BUDGET). Two implementations are provided: the trained
 * random-forest predictor the paper describes, and an oracle that
 * queries the execution model directly (useful for tests and for
 * isolating predictor error in ablations).
 */

#ifndef QOSERVE_PREDICTOR_LATENCY_PREDICTOR_HH
#define QOSERVE_PREDICTOR_LATENCY_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "predictor/profiler.hh"

namespace qoserve {

/**
 * A predictor partially evaluated over the (chunkTokens,
 * prefillContext) plane.
 *
 * The chunk-budget solver probes many chunk sizes per iteration, and
 * the prefill head's context drifts by exactly the granted chunk
 * every iteration — but the rest of the batch composition (decode
 * count, decode context sum) changes slowly. Fixing the slow features
 * and leaving the per-probe ones free yields a tiny restricted forest
 * whose predictions are bitwise identical to the full predictor's for
 * as long as the fixed features stay inside @ref support.
 */
struct ChunkPlane
{
    RestrictedForest forest;

    /** Box over the fixed features; free axes are unbounded, so one
     *  contains() on the full feature vector validates reuse. */
    FeatureSupport support;

    double quantile = 0.5;
    double safetyMargin = 1.0;

    bool valid() const { return forest.valid(); }

    /** Predicted latency at @p x (flattened BatchFeatures). */
    SimDuration predict(const double *x, int dims) const
    {
        return forest.predictQuantile(x, dims, quantile) * safetyMargin;
    }
};

/**
 * Predicts the execution time of one iteration's batch.
 */
class LatencyPredictor
{
  public:
    virtual ~LatencyPredictor() = default;

    /** Predicted iteration time, seconds. */
    virtual SimDuration predict(const BatchFeatures &features) const = 0;

    /**
     * Predict and, when possible, report a leaf-stability box.
     *
     * The default forwards to predict() and marks the support invalid
     * (dims = 0). No library code calls it; it stays virtual because
     * forwarding wrappers outside the library override it.
     */
    virtual SimDuration
    predictSupported(const BatchFeatures &features,
                     FeatureSupport &support) const
    {
        support.dims = 0;
        return predict(features);
    }

    /**
     * Partially evaluate over the (chunkTokens, prefillContext) plane
     * at @p features' remaining coordinates.
     *
     * Returns false (the default) when the predictor cannot partially
     * evaluate; the solver then falls back to per-probe predict().
     *
     * @p super_scratch is unused: implementations restrict the full
     * forest straight to the plane box. The parameter stays so that
     * forwarding wrappers outside the library keep their signature.
     */
    virtual bool buildChunkPlane(const BatchFeatures &features,
                                 ChunkPlane &out,
                                 ChunkPlane *super_scratch = nullptr) const
    {
        (void)features;
        (void)out;
        (void)super_scratch;
        return false;
    }
};

/**
 * Ground-truth predictor backed directly by the execution model.
 */
class OracleLatencyPredictor : public LatencyPredictor
{
  public:
    /**
     * @param model Execution model to query.
     * @param margin Multiplier applied to the truth (e.g. 1.05 for a
     *        conservative oracle).
     */
    explicit OracleLatencyPredictor(PerfModel model, double margin = 1.0);

    SimDuration predict(const BatchFeatures &features) const override;

  private:
    PerfModel model_;
    double margin_;
};

/**
 * Random-forest predictor trained on profiler data (§3.6.1).
 *
 * Uses a sub-median quantile of the per-tree predictions scaled by a
 * small factor so the predictor errs toward under-predicting the
 * feasible chunk size — i.e. over-predicting latency — never causing
 * an inadvertent latency increase.
 */
class ForestLatencyPredictor : public LatencyPredictor
{
  public:
    /** Knobs for training and conservatism. */
    struct Options
    {
        ForestParams forest;
        ProfileGrid grid;
        std::uint64_t seed = 7;

        /** Quantile of tree outputs used as the estimate. */
        double quantile = 0.6;

        /** Extra multiplicative safety margin on the estimate. */
        double safetyMargin = 1.05;

        /**
         * Worker threads used to train the forest (0 = hardware
         * concurrency). The fitted predictor is bit-identical for
         * every value; 1 trains serially.
         */
        int trainJobs = 0;
    };

    /** Train on profiles of @p model with default options. */
    explicit ForestLatencyPredictor(const PerfModel &model);

    /** Train on profiles of @p model. */
    ForestLatencyPredictor(const PerfModel &model, Options options);

    SimDuration predict(const BatchFeatures &features) const override;

    bool buildChunkPlane(const BatchFeatures &features, ChunkPlane &out,
                         ChunkPlane *super_scratch = nullptr)
        const override;

    /** Access the fitted ensemble (tests, diagnostics). */
    const RandomForest &forest() const { return forest_; }

    /** Options used at construction. */
    const Options &options() const { return options_; }

  private:
    RandomForest forest_;
    Options options_;
};

/**
 * Memoises the chunk-budget search at two levels.
 *
 * Plane level: holds one ChunkPlane — the predictor partially
 * evaluated over the (chunkTokens, prefillContext) axes the solver
 * actually varies. A solve probes the plane iff the remaining
 * composition features (decode batch size, context sum) still fall
 * inside the plane's box, which makes every probe provably bitwise
 * identical to a fresh forest evaluation: chunk probes and the head
 * prefill's context drift never force a rebuild, only genuine
 * composition changes do.
 *
 * Solve level: every cold search runs its probes in *tracked* mode,
 * intersecting their leaf-stability boxes, and records the resulting
 * box together with the budget interval that preserves every probe's
 * feasibility sign and the plane generation it ran against. A later
 * solve matching a record (same plane, features inside the box,
 * budget inside the interval) would probe the exact same chunks,
 * observe the exact same latencies and signs, and therefore return
 * the identical result — so the search is skipped outright.
 *
 * The box proofs alone guard reuse at both levels; nothing is ever
 * invalidated.
 */
class ChunkSolverCache
{
  public:
    /** Hit/miss counters (diagnostics and the perf benchmarks). */
    struct Stats
    {
        std::uint64_t solves = 0;      ///< solve() calls.
        std::uint64_t replayHits = 0;  ///< Solves answered by replay.
        std::uint64_t queries = 0;     ///< Individual probes.
        std::uint64_t hits = 0;        ///< Probes served by the plane.
    };

    /**
     * Largest feasible chunk for @p budget — the memoised equivalent
     * of solveChunkBudget()'s cold search, returning a bitwise
     * identical result.
     *
     * @param decode_state Batch composition (chunkTokens ignored).
     * @param budget Latency budget, seconds (> 0).
     * @param max_chunk Upper bound on the chunk (>= step).
     * @param step Chunk granularity.
     */
    int solve(const LatencyPredictor &predictor,
              const BatchFeatures &decode_state, SimDuration budget,
              int max_chunk, int step);

    const Stats &stats() const { return stats_; }

  private:
    /** One recorded cold search (see class doc). */
    struct SolveRecord
    {
        /** Plane generation the search ran against. */
        std::uint64_t generation = 0;

        /** Intersection of the probes' leaf-stability boxes. */
        FeatureSupport box;

        /** Half-open budget interval [budgetLo, budgetHi): any budget
         *  inside it reproduces every feasibility sign (lat <= budget)
         *  of the recorded search, because budgetLo is the largest
         *  probed latency that was feasible and budgetHi the smallest
         *  that was not. */
        SimDuration budgetLo = 0.0;
        SimDuration budgetHi = 0.0;

        /** Solved chunk, in units of step. */
        int resultUnits = 0;

        bool valid = false;
    };

    /** Recorded solves kept (ring; newest overwrite oldest). */
    static constexpr int kSolveRecords = 16;

    ChunkPlane plane_;

    /** Bumped on every plane_ rebuild; ties solve records to the
     *  exact plane contents they were recorded against. */
    std::uint64_t generation_ = 0;

    SolveRecord records_[kSolveRecords];
    int recordHead_ = 0;

    Stats stats_;
};

/**
 * Find the largest chunk size whose predicted latency fits a budget.
 *
 * Searches multiples of @p step in [0, max_chunk], assuming latency
 * is non-decreasing in chunk size.
 *
 * @param predictor Latency predictor to consult.
 * @param decode_state Batch composition; the chunkTokens field is
 *        ignored and overwritten during the search.
 * @param budget Latency budget, seconds.
 * @param max_chunk Upper bound on the chunk.
 * @param step Chunk granularity.
 * @param cache Optional prediction memo shared across solves; hits
 *        are bitwise identical to fresh evaluations, so the solve
 *        result is unchanged.
 * @return Largest feasible chunk (multiple of step), or 0 when even
 *         the smallest step exceeds the budget.
 */
int solveChunkBudget(const LatencyPredictor &predictor,
                     BatchFeatures decode_state, SimDuration budget,
                     int max_chunk, int step = 64,
                     ChunkSolverCache *cache = nullptr);

} // namespace qoserve

#endif // QOSERVE_PREDICTOR_LATENCY_PREDICTOR_HH
