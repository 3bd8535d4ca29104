/**
 * @file
 * Tests for latency predictors and the chunk-budget solver,
 * including the paper's accuracy and conservatism claims (§3.6.1).
 */

#include "predictor/latency_predictor.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace qoserve {
namespace {

class PredictorTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        model_ = new PerfModel(llama3_8b_a100_tp1());
        forest_ = new ForestLatencyPredictor(*model_);
    }

    static void
    TearDownTestSuite()
    {
        delete forest_;
        delete model_;
        forest_ = nullptr;
        model_ = nullptr;
    }

    static BatchFeatures
    features(double chunk, double pctx, double nd, double dctx)
    {
        BatchFeatures f;
        f.chunkTokens = chunk;
        f.prefillContext = pctx;
        f.numDecodes = nd;
        f.decodeCtxSum = dctx;
        return f;
    }

    static PerfModel *model_;
    static ForestLatencyPredictor *forest_;
};

PerfModel *PredictorTest::model_ = nullptr;
ForestLatencyPredictor *PredictorTest::forest_ = nullptr;

TEST_F(PredictorTest, OracleReturnsModelTruth)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures f = features(512, 1000, 16, 16 * 2000);
    EXPECT_DOUBLE_EQ(oracle.predict(f),
                     model_->iterationTime(f.toWork()));
}

TEST_F(PredictorTest, OracleMarginScales)
{
    OracleLatencyPredictor conservative(*model_, 1.2);
    OracleLatencyPredictor exact(*model_);
    BatchFeatures f = features(512, 1000, 16, 16 * 2000);
    EXPECT_NEAR(conservative.predict(f), 1.2 * exact.predict(f), 1e-12);
}

TEST_F(PredictorTest, ForestErrorWithin10Percent)
{
    // §3.6.1: "< 10% error margin". Measured as median relative
    // error over off-grid batch compositions.
    Rng rng(101);
    std::vector<double> rel_errors;
    for (int i = 0; i < 300; ++i) {
        BatchFeatures f = features(
            rng.uniform(64, 3000), rng.uniform(0, 8000),
            std::floor(rng.uniform(0, 128)), 0.0);
        f.decodeCtxSum = f.numDecodes * rng.uniform(200, 4000);
        double truth = model_->iterationTime(f.toWork());
        double pred = forest_->predict(f);
        rel_errors.push_back(std::abs(pred - truth) / truth);
    }
    std::sort(rel_errors.begin(), rel_errors.end());
    EXPECT_LT(rel_errors[rel_errors.size() / 2], 0.10);
}

TEST_F(PredictorTest, ForestBiasedTowardOverPredictingLatency)
{
    // The paper tunes the model to "err on the side of
    // under-predicting chunk size", i.e. over-predicting latency,
    // so a chunk chosen from the prediction never blows the budget.
    Rng rng(103);
    int over = 0, total = 300;
    for (int i = 0; i < total; ++i) {
        BatchFeatures f = features(
            rng.uniform(64, 3000), rng.uniform(0, 8000),
            std::floor(rng.uniform(0, 128)), 0.0);
        f.decodeCtxSum = f.numDecodes * rng.uniform(200, 4000);
        double truth = model_->iterationTime(f.toWork());
        over += forest_->predict(f) >= truth;
    }
    EXPECT_GT(over, total * 7 / 10);
}

TEST_F(PredictorTest, ForestMonotonicEnoughInChunk)
{
    // Coarse monotonicity: predictions at 4x the chunk exceed
    // predictions at the base chunk.
    for (double base : {128.0, 256.0, 512.0}) {
        BatchFeatures lo = features(base, 0, 32, 32 * 1500);
        BatchFeatures hi = features(4 * base, 0, 32, 32 * 1500);
        EXPECT_GT(forest_->predict(hi), forest_->predict(lo));
    }
}

TEST_F(PredictorTest, SolverFindsLargestFeasibleChunkAgainstOracle)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 32, 32 * 1500);
    double budget = 0.05;

    int chunk = solveChunkBudget(oracle, state, budget, 4096, 64);
    ASSERT_GT(chunk, 0);

    BatchFeatures at = state;
    at.chunkTokens = chunk;
    EXPECT_LE(oracle.predict(at), budget);

    BatchFeatures next = state;
    next.chunkTokens = chunk + 64;
    EXPECT_GT(oracle.predict(next), budget);
}

TEST_F(PredictorTest, SolverZeroWhenBudgetTooTight)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 64, 64 * 3000);
    EXPECT_EQ(solveChunkBudget(oracle, state, 1e-4, 4096, 64), 0);
    EXPECT_EQ(solveChunkBudget(oracle, state, -1.0, 4096, 64), 0);
}

TEST_F(PredictorTest, SolverCapsAtMaxChunk)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 0, 0);
    EXPECT_EQ(solveChunkBudget(oracle, state, 1e9, 2560, 64), 2560);
}

TEST_F(PredictorTest, SolverRespectsStepGranularity)
{
    OracleLatencyPredictor oracle(*model_);
    BatchFeatures state = features(0, 0, 16, 16 * 1000);
    int chunk = solveChunkBudget(oracle, state, 0.06, 4096, 128);
    EXPECT_EQ(chunk % 128, 0);
}

TEST_F(PredictorTest, SolvedChunkNeverExceedsTrueBudget)
{
    // End-to-end conservatism: a chunk solved with the *forest* must
    // fit the budget when priced by the *true* model — this is the
    // property that protects TBT SLOs during dynamic chunking.
    Rng rng(107);
    int violations = 0;
    for (int i = 0; i < 100; ++i) {
        BatchFeatures state = features(
            0, rng.uniform(0, 4000), std::floor(rng.uniform(4, 96)), 0);
        state.decodeCtxSum = state.numDecodes * rng.uniform(500, 3000);
        double budget = rng.uniform(0.03, 0.2);
        int chunk = solveChunkBudget(*forest_, state, budget, 4096, 64);
        if (chunk == 0)
            continue;
        BatchFeatures at = state;
        at.chunkTokens = chunk;
        double truth = model_->iterationTime(at.toWork());
        violations += truth > budget * 1.10;
    }
    // Allow rare small overshoots (< 10% of cases beyond a 10%
    // latency margin would indicate a broken conservatism bias).
    EXPECT_LE(violations, 10);
}

TEST_F(PredictorTest, PlaneLookupBitwiseEqualsDirectPredict)
{
    // The plane the solve memo probes: while the composition stays
    // inside the plane's box, every ChunkPlane::predict() answer must
    // be the bitwise answer a fresh forest evaluation would give.
    ChunkPlane plane;
    Rng rng(109);
    BatchFeatures state = features(0, 0, 32, 32 * 1500);
    int builds = 0;
    for (int i = 0; i < 500; ++i) {
        if (i % 50 == 0) {
            // Composition change: rebuild the plane around it.
            state.numDecodes = std::floor(rng.uniform(1, 128));
            state.decodeCtxSum = state.numDecodes * rng.uniform(200, 4000);
        }
        BatchFeatures at = state;
        at.chunkTokens = 64 * (1 + i % 40);
        at.prefillContext = rng.uniform(0, 8000);
        auto x = at.toArray();
        if (!plane.support.contains(x.data(), BatchFeatures::kCount)) {
            ASSERT_TRUE(forest_->buildChunkPlane(at, plane));
            ASSERT_TRUE(
                plane.support.contains(x.data(), BatchFeatures::kCount));
            ++builds;
        }
        EXPECT_EQ(plane.predict(x.data(), BatchFeatures::kCount),
                  forest_->predict(at));
    }
    // The chunk and prefill-context axes are free: only the ten
    // composition changes may force a rebuild.
    EXPECT_GT(builds, 0);
    EXPECT_LE(builds, 10);
}

TEST_F(PredictorTest, SolveMemoisedBitwiseEqualUnderDrift)
{
    // The solve-level memo under a scheduler-shaped workload: the
    // prefill context drifts by exactly the granted chunk, the batch
    // composition changes on admit/finish boundaries, and the budget
    // wobbles with the decode slack. At every step the cached solve
    // must equal the uncached search exactly.
    ChunkSolverCache cache;
    Rng rng(113);
    double pctx = 0.0;
    double nd = 24.0;
    double dctx = 24.0 * 1800.0;
    for (int i = 0; i < 1500; ++i) {
        if (i % 97 == 0) {
            // Admission / completion: composition jumps.
            nd = std::floor(rng.uniform(4, 96));
            dctx = nd * rng.uniform(500, 3000);
        }
        if (i % 53 == 0)
            pctx = 0.0; // New prefill head (or preemption restart).
        BatchFeatures state = features(0, pctx, nd, dctx);
        double budget = 0.08 + 0.02 * std::sin(0.05 * i);

        int fresh = solveChunkBudget(*forest_, state, budget, 4096, 64);
        int cached = cache.solve(*forest_, state, budget, 4096, 64);
        ASSERT_EQ(cached, fresh) << "step " << i;

        pctx += cached; // Context advances by the granted chunk.
        dctx += nd;     // Decodes each grew by one token.
    }
    const ChunkSolverCache::Stats &st = cache.stats();
    EXPECT_EQ(st.solves, 1500u);
    // Both memo levels must actually fire on this workload — the
    // equality above would pass vacuously if every solve ran cold.
    EXPECT_GT(st.replayHits, 0u);
    EXPECT_GT(st.hits, 0u);
}

} // namespace
} // namespace qoserve
