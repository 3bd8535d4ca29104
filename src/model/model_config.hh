/**
 * @file
 * Transformer model descriptions used by the execution model.
 *
 * The paper evaluates Llama3-8B (GQA), Qwen-7B (MHA) and Llama3-70B
 * (GQA) — see Table 1. Only the quantities that drive inference cost
 * are captured: parameter count (linear-layer FLOPs and weight bytes),
 * layer geometry (attention FLOPs) and KV-head layout (KV-cache bytes
 * per token, which differs 4x between GQA and MHA models).
 */

#ifndef QOSERVE_MODEL_MODEL_CONFIG_HH
#define QOSERVE_MODEL_MODEL_CONFIG_HH

#include <cstdint>
#include <string>

namespace qoserve {

/** Attention layout of a model. */
enum class AttentionKind
{
    MHA, ///< One KV head per query head.
    GQA, ///< Grouped KV heads shared across query heads.
};

/**
 * Static description of a dense decoder-only transformer.
 */
struct ModelConfig
{
    /** Human-readable name, e.g. "Llama3-8B". */
    std::string name;

    /** Total parameter count. */
    std::int64_t numParams = 0;

    /** Number of transformer layers. */
    int numLayers = 0;

    /** Model (embedding) dimension. */
    int hiddenSize = 0;

    /** Number of query heads. */
    int numHeads = 0;

    /** Number of KV heads (== numHeads for MHA). */
    int numKvHeads = 0;

    /** Per-head dimension. */
    int headDim = 0;

    /** Bytes per parameter / activation element (2 for bf16). */
    static constexpr int kBytesPerParam = 2;

    /** Attention layout. */
    AttentionKind attention = AttentionKind::GQA;

    /**
     * KV-cache bytes stored per token across all layers.
     *
     * Two tensors (K and V) of numKvHeads x headDim elements per
     * layer.
     */
    std::int64_t
    kvBytesPerToken() const
    {
        return 2LL * numLayers * numKvHeads * headDim * kBytesPerParam;
    }

    /** Total weight bytes. */
    std::int64_t
    weightBytes() const
    {
        return numParams * static_cast<std::int64_t>(kBytesPerParam);
    }

    bool operator==(const ModelConfig &) const = default;
};

/** Llama3-8B: 32 layers, GQA with 8 KV heads. */
ModelConfig llama3_8b();

/** Qwen-7B: 32 layers, full MHA (32 KV heads). */
ModelConfig qwen_7b();

/** Llama3-70B: 80 layers, GQA with 8 KV heads. */
ModelConfig llama3_70b();

} // namespace qoserve

#endif // QOSERVE_MODEL_MODEL_CONFIG_HH
