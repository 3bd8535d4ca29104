/**
 * @file
 * Profiling harness for batch-latency training data.
 *
 * Stands in for "a lightweight harness exposed by an inference
 * simulator Vidur" (§3.6.1): it sweeps batch compositions — chunk
 * size, decode batch size, per-request context, prefill context —
 * against the analytical execution model and records latency samples
 * with multiplicative measurement noise, one profile per (model,
 * hardware, parallelism) configuration of interest.
 */

#ifndef QOSERVE_PREDICTOR_PROFILER_HH
#define QOSERVE_PREDICTOR_PROFILER_HH

#include <array>
#include <vector>

#include "model/perf_model.hh"
#include "predictor/random_forest.hh"
#include "simcore/rng.hh"

namespace qoserve {

/**
 * Feature layout shared by the profiler and the latency predictor.
 *
 * Order: {chunk tokens, prefill KV context at chunk start,
 * decode batch size, summed decode context}.
 */
struct BatchFeatures
{
    /** Number of features in the flattened layout. */
    static constexpr int kCount = 4;

    double chunkTokens = 0.0;
    double prefillContext = 0.0;
    double numDecodes = 0.0;
    double decodeCtxSum = 0.0;

    /** Flatten into the vector form consumed by the forest. */
    std::vector<double>
    toVector() const
    {
        return {chunkTokens, prefillContext, numDecodes, decodeCtxSum};
    }

    /** Allocation-free flattening for the hot prediction path. */
    std::array<double, kCount>
    toArray() const
    {
        return {chunkTokens, prefillContext, numDecodes, decodeCtxSum};
    }

    /** The BatchWork this composition corresponds to. */
    BatchWork toWork() const;
};

/** Sweep grid for profiling. */
struct ProfileGrid
{
    static constexpr std::array<double, 13> kChunkSizes = {
        0, 64, 128, 256, 384, 512, 768, 1024, 1536, 2048, 2560, 3072,
        4096};
    static constexpr std::array<double, 4> kPrefillContexts = {
        0, 1024, 4096, 10240};
    static constexpr std::array<double, 7> kDecodeBatchSizes = {
        0, 8, 16, 32, 64, 128, 256};
    static constexpr std::array<double, 5> kAvgDecodeContexts = {
        128, 512, 1024, 2048, 4096};

    /** Relative std-dev of multiplicative measurement noise. */
    static constexpr double kNoiseStddev = 0.03;
};

/**
 * Collect latency training samples over the ProfileGrid.
 *
 * @param model Execution model to profile.
 * @param seed Noise seed.
 * @return One TrainSample per grid point (empty batches skipped);
 *         targets in seconds.
 */
std::vector<TrainSample> collectProfile(const PerfModel &model,
                                        std::uint64_t seed);

} // namespace qoserve

#endif // QOSERVE_PREDICTOR_PROFILER_HH
