/**
 * @file
 * Unit tests for model and hardware configuration.
 */

#include "model/hardware_config.hh"
#include "model/model_config.hh"

#include <gtest/gtest.h>

namespace qoserve {
namespace {

TEST(ModelConfig, Llama3_8bGeometry)
{
    ModelConfig m = llama3_8b();
    EXPECT_EQ(m.numLayers, 32);
    EXPECT_EQ(m.hiddenSize, 4096);
    EXPECT_EQ(m.numKvHeads, 8);
    EXPECT_EQ(m.attention, AttentionKind::GQA);
    // 2 tensors * 32 layers * 8 heads * 128 dim * 2 bytes = 128 KiB.
    EXPECT_EQ(m.kvBytesPerToken(), 131072);
    EXPECT_NEAR(static_cast<double>(m.weightBytes()), 16.06e9, 0.1e9);
}

TEST(ModelConfig, QwenMhaHas4xKvBytesOfLlama)
{
    // MHA stores one KV head per query head, 4x the GQA footprint
    // at the same geometry — this drives the decode-attention cost
    // difference between the two 7-8B models in Table 1.
    EXPECT_EQ(qwen_7b().kvBytesPerToken(), 4 * llama3_8b().kvBytesPerToken());
}

TEST(ModelConfig, Llama70bIsBigger)
{
    ModelConfig small = llama3_8b();
    ModelConfig big = llama3_70b();
    EXPECT_GT(big.numParams, 8 * small.numParams);
    EXPECT_GT(big.numLayers, small.numLayers);
}

TEST(HardwareConfig, H100OutclassesA100)
{
    GpuConfig a = a100_80gb();
    GpuConfig h = h100_80gb();
    EXPECT_GT(h.peakFlops, a.peakFlops);
    EXPECT_GT(h.memBandwidth, a.memBandwidth);
    EXPECT_EQ(h.memCapacity, a.memCapacity);
}

TEST(HardwareConfig, KvCapacityPositiveAndSane)
{
    ReplicaHwConfig hw = llama3_8b_a100_tp1();
    std::int64_t cap = hw.kvCapacityTokens();
    // ~58 GB available / 128 KiB per token ~ 440K tokens.
    EXPECT_GT(cap, 300000);
    EXPECT_LT(cap, 700000);
}

TEST(HardwareConfig, TensorParallelismExtendsKvCapacity)
{
    ReplicaHwConfig tp2 = qwen_7b_a100_tp2();
    ReplicaHwConfig tp1{qwen_7b(), a100_80gb(), 1};
    EXPECT_GT(tp2.kvCapacityTokens(), tp1.kvCapacityTokens());
}

TEST(HardwareConfig, Llama70bNeedsTp4)
{
    // 70B bf16 weights (~141 GB) cannot fit a single 80 GB GPU.
    ReplicaHwConfig bad{llama3_70b(), h100_80gb(), 1};
    EXPECT_DEATH({ (void)bad.kvCapacityTokens(); }, "does not fit");

    ReplicaHwConfig good = llama3_70b_h100_tp4();
    EXPECT_GT(good.kvCapacityTokens(), 100000);
}

TEST(HardwareConfig, GpusPerReplicaTracksTp)
{
    EXPECT_EQ(llama3_8b_a100_tp1().gpusPerReplica(), 1);
    EXPECT_EQ(qwen_7b_a100_tp2().gpusPerReplica(), 2);
    EXPECT_EQ(llama3_70b_h100_tp4().gpusPerReplica(), 4);
}

} // namespace
} // namespace qoserve
