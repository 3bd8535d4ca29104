/**
 * @file
 * Profiling harness implementation.
 */

#include "predictor/profiler.hh"

namespace qoserve {

BatchWork
BatchFeatures::toWork() const
{
    BatchWork w;
    w.prefillTokens = static_cast<std::int64_t>(chunkTokens);
    w.prefillCtxProduct =
        chunkTokens * (prefillContext + chunkTokens / 2.0);
    w.numDecodes = static_cast<int>(numDecodes);
    w.decodeCtxSum = static_cast<std::int64_t>(decodeCtxSum);
    return w;
}

std::vector<TrainSample>
collectProfile(const PerfModel &model, std::uint64_t seed)
{
    using G = ProfileGrid;
    Rng rng(seed);
    std::vector<TrainSample> samples;
    samples.reserve(G::kChunkSizes.size() * G::kPrefillContexts.size() *
                    G::kDecodeBatchSizes.size() *
                    G::kAvgDecodeContexts.size());

    for (double chunk : G::kChunkSizes) {
        for (double pctx : G::kPrefillContexts) {
            for (double nd : G::kDecodeBatchSizes) {
                for (double dctx : G::kAvgDecodeContexts) {
                    BatchFeatures f;
                    f.chunkTokens = chunk;
                    f.prefillContext = chunk > 0 ? pctx : 0.0;
                    f.numDecodes = nd;
                    f.decodeCtxSum = nd * dctx;
                    if (f.chunkTokens == 0 && f.numDecodes == 0)
                        continue;
                    // With no prefill, the prefill-context axis is
                    // redundant; keep only one copy.
                    if (chunk == 0 && pctx != G::kPrefillContexts[0])
                        continue;

                    double latency =
                        model.iterationTime(f.toWork());
                    double noise = rng.normal(1.0, G::kNoiseStddev);
                    if (noise < 0.5)
                        noise = 0.5;

                    TrainSample s;
                    s.x = f.toVector();
                    s.y = latency * noise;
                    samples.push_back(std::move(s));
                }
            }
        }
    }
    return samples;
}

} // namespace qoserve
