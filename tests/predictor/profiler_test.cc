/**
 * @file
 * Tests for the profiling harness.
 */

#include "predictor/profiler.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace qoserve {
namespace {

TEST(BatchFeatures, ToWorkComputesCtxProduct)
{
    BatchFeatures f;
    f.chunkTokens = 512;
    f.prefillContext = 1024;
    f.numDecodes = 8;
    f.decodeCtxSum = 8 * 2000;

    BatchWork w = f.toWork();
    EXPECT_EQ(w.prefillTokens, 512);
    EXPECT_DOUBLE_EQ(w.prefillCtxProduct, 512.0 * (1024.0 + 256.0));
    EXPECT_EQ(w.numDecodes, 8);
    EXPECT_EQ(w.decodeCtxSum, 16000);
}

TEST(BatchFeatures, VectorLayoutStable)
{
    BatchFeatures f;
    f.chunkTokens = 1;
    f.prefillContext = 2;
    f.numDecodes = 3;
    f.decodeCtxSum = 4;
    EXPECT_EQ(f.toVector(), (std::vector<double>{1, 2, 3, 4}));
}

class ProfilerTest : public ::testing::Test
{
  protected:
    PerfModel model_{llama3_8b_a100_tp1()};
};

TEST_F(ProfilerTest, GridProducesSamples)
{
    auto samples = collectProfile(model_, 1);
    EXPECT_GT(samples.size(), 1000u);
    for (const auto &s : samples) {
        EXPECT_EQ(s.x.size(), 4u);
        EXPECT_GT(s.y, 0.0);
    }
}

TEST_F(ProfilerTest, SkipsEmptyBatches)
{
    auto samples = collectProfile(model_, 1);
    for (const auto &s : samples)
        EXPECT_GT(s.x[0] + s.x[2], 0.0);
}

TEST_F(ProfilerTest, NoiseIsBounded)
{
    auto samples = collectProfile(model_, 2);
    for (const auto &s : samples) {
        BatchFeatures f;
        f.chunkTokens = s.x[0];
        f.prefillContext = s.x[1];
        f.numDecodes = s.x[2];
        f.decodeCtxSum = s.x[3];
        double truth = model_.iterationTime(f.toWork());
        EXPECT_LT(std::abs(s.y - truth) / truth, 0.25);
    }
}

TEST_F(ProfilerTest, SamplesAreModelTimesSeededNoise)
{
    // Each sample is the model's latency times one draw of
    // N(1, kNoiseStddev) clamped at 0.5, drawn in sample order from
    // the seed's stream.
    auto samples = collectProfile(model_, 3);
    Rng rng(3);
    for (const auto &s : samples) {
        BatchFeatures f;
        f.chunkTokens = s.x[0];
        f.prefillContext = s.x[1];
        f.numDecodes = s.x[2];
        f.decodeCtxSum = s.x[3];
        double noise =
            std::max(0.5, rng.normal(1.0, ProfileGrid::kNoiseStddev));
        EXPECT_EQ(s.y, model_.iterationTime(f.toWork()) * noise);
    }
}

TEST_F(ProfilerTest, DeterministicForSeed)
{
    auto a = collectProfile(model_, 7);
    auto b = collectProfile(model_, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i].y, b[i].y);
}

} // namespace
} // namespace qoserve
