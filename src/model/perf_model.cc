/**
 * @file
 * Analytical execution-time model implementation.
 */

#include "model/perf_model.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace qoserve {

PerfModel::PerfModel(ReplicaHwConfig hw, PerfModelParams params)
    : hw_(std::move(hw)), params_(params)
{
    QOSERVE_ASSERT(hw_.tpDegree >= 1, "invalid TP degree");
    QOSERVE_ASSERT(hw_.gpu.peakFlops > 0 && hw_.gpu.memBandwidth > 0,
                   "invalid GPU config");
}

SimDuration
PerfModel::linearTime(TokenCount total_tokens) const
{
    if (total_tokens.value() <= 0)
        return 0.0;

    // The token count enters the formulas as a scalar; name it for
    // what it is (a count, not a time).
    double tokens_f = static_cast<double>(total_tokens.value());
    double tp = static_cast<double>(hw_.tpDegree);

    // Utilisation ramps with the number of tokens in flight; small
    // batches cannot fill the GPU's compute units.
    double mfu = params_.mfuMax * tokens_f / (tokens_f + params_.mfuRampTokens);
    double flops =
        2.0 * static_cast<double>(hw_.model.numParams) * tokens_f;
    double compute = flops / (tp * hw_.gpu.peakFlops * mfu);

    // Regardless of batch size, every weight must stream from HBM
    // once per iteration (TP shards the weights across GPUs).
    double weight_stream =
        static_cast<double>(hw_.model.weightBytes()) /
        (tp * hw_.gpu.memBandwidth * params_.weightBwEff);

    return std::max(compute, weight_stream);
}

SimDuration
PerfModel::prefillAttnTime(double ctx_product) const
{
    if (ctx_product <= 0.0)
        return 0.0;

    double tp = static_cast<double>(hw_.tpDegree);
    // QK^T and AV each cost 2 * c * K * hidden MACs per layer.
    double flops = 4.0 * ctx_product *
                   static_cast<double>(hw_.model.hiddenSize) *
                   static_cast<double>(hw_.model.numLayers);
    return flops / (tp * hw_.gpu.peakFlops * params_.attnMfu);
}

SimDuration
PerfModel::decodeAttnTime(int num_decodes, std::int64_t ctx_sum) const
{
    if (num_decodes <= 0 || ctx_sum <= 0)
        return 0.0;

    double tp = static_cast<double>(hw_.tpDegree);
    double bytes = static_cast<double>(ctx_sum) *
                   static_cast<double>(hw_.model.kvBytesPerToken());
    return bytes / (tp * hw_.gpu.memBandwidth * params_.attnBwEff);
}

SimDuration
PerfModel::commTime(TokenCount total_tokens) const
{
    if (hw_.tpDegree <= 1 || total_tokens.value() <= 0)
        return 0.0;

    // Two all-reduces of the activations per layer; ring all-reduce
    // moves ~2x the payload per participant.
    double payload = static_cast<double>(total_tokens.value()) *
                     static_cast<double>(hw_.model.hiddenSize) *
                     static_cast<double>(ModelConfig::kBytesPerParam);
    double bytes_moved = 2.0 * 2.0 * payload *
                         static_cast<double>(hw_.model.numLayers);
    return bytes_moved /
           (hw_.gpu.nvlinkBandwidth * params_.commBwEff);
}

SimDuration
PerfModel::iterationTime(const BatchWork &work) const
{
    QOSERVE_ASSERT(work.prefillTokens >= 0 && work.numDecodes >= 0 &&
                       work.decodeCtxSum >= 0,
                   "negative batch work");
    if (work.totalTokens() == 0)
        return 0.0;

    return params_.baseOverhead + linearTime(TokenCount{work.totalTokens()}) +
           prefillAttnTime(work.prefillCtxProduct) +
           decodeAttnTime(work.numDecodes, work.decodeCtxSum) +
           commTime(TokenCount{work.totalTokens()});
}

} // namespace qoserve
