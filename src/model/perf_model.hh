/**
 * @file
 * Analytical batch execution-time model.
 *
 * This is the substitute for running real GPUs (see DESIGN.md §1):
 * a roofline-style model of one scheduler iteration executing a mixed
 * batch of prefill-chunk tokens and decode tokens, as in Sarathi-style
 * fused chunked-prefill serving. The three cost components mirror the
 * structure of real engines:
 *
 *  - linear layers (MLP + projections): compute-bound at large token
 *    counts, weight-streaming-bound at small ones, with an efficiency
 *    ramp capturing poor GPU utilisation on small batches — this is
 *    what produces the throughput-vs-chunk-size tradeoff of Fig. 4;
 *  - prefill attention: quadratic in processed context, which is what
 *    Medha-style adaptive chunking reacts to on long prompts;
 *  - decode attention: memory-bound KV-cache reads proportional to
 *    the summed context of all decoding sequences.
 *
 * Default parameters are calibrated so that Llama3-8B on one A100
 * reproduces the published operating points: ~50 ms iteration latency
 * at chunk size ~330, throughput saturating near 10K tokens/s around
 * chunk 2500, and roughly 2x throughput for chunk 2500 vs 256
 * (paper §4.1.4, Fig. 4).
 */

#ifndef QOSERVE_MODEL_PERF_MODEL_HH
#define QOSERVE_MODEL_PERF_MODEL_HH

#include <cstdint>

#include "model/hardware_config.hh"
#include "core/units.hh"

namespace qoserve {

/**
 * Aggregate work contained in one iteration's batch.
 */
struct BatchWork
{
    /** New prefill tokens processed this iteration (the chunk). */
    std::int64_t prefillTokens = 0;

    /**
     * Attention context product of the prefill side:
     * sum over prefill sequences of c_i * (K_i + c_i / 2), where c_i
     * is the sequence's chunk tokens this iteration and K_i its
     * already-cached context. Captures the quadratic attention cost.
     */
    double prefillCtxProduct = 0.0;

    /** Number of sequences in decode phase (one token each). */
    int numDecodes = 0;

    /** Summed KV context length over all decoding sequences. */
    std::int64_t decodeCtxSum = 0;

    /** Tokens entering the linear layers this iteration. */
    std::int64_t
    totalTokens() const
    {
        return prefillTokens + numDecodes;
    }
};

/**
 * Tunable efficiency parameters of the analytical model.
 *
 * No program sets a field to a second value. They stay fields because
 * perfbench copies the struct into its replicas; ROADMAP item 5 moves
 * that wiring into runScenario(), and then they become constants.
 */
struct PerfModelParams
{
    /** Peak achievable model FLOPs utilisation for linear layers. */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double mfuMax = 0.55;

    /**
     * Token count at which linear-layer utilisation reaches half of
     * mfuMax; models small-batch inefficiency.
     */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double mfuRampTokens = 128.0;

    /** Effective fraction of HBM bandwidth for weight streaming. */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double weightBwEff = 0.7;

    /** FLOPs utilisation of prefill attention kernels. */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double attnMfu = 0.35;

    /** Effective fraction of HBM bandwidth for decode-attention KV reads. */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double attnBwEff = 0.6;

    /** Effective fraction of NVLink bandwidth for TP collectives. */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double commBwEff = 0.7;

    /** Fixed per-iteration overhead (launch, scheduling), seconds. */
    // qoserve-lint: allow(unset-option) perfbench copies it
    double baseOverhead = 4e-3;
};

/**
 * Deterministic execution-time model for one replica.
 *
 * All methods are pure; the model carries no mutable state, so a
 * single instance can be shared by the engine, the profiler and any
 * oracle-based tests.
 */
class PerfModel
{
  public:
    /**
     * @param hw Replica hardware (model, GPU, TP degree).
     * @param params Efficiency knobs; defaults are calibrated.
     */
    explicit PerfModel(ReplicaHwConfig hw, PerfModelParams params = {});

    /** Execution time of one iteration over the given batch. */
    SimDuration iterationTime(const BatchWork &work) const;

    /** Linear-layer (MLP + projection) time for a token count. */
    SimDuration linearTime(TokenCount total_tokens) const;

    /** Prefill attention time for a context product (see BatchWork). */
    SimDuration prefillAttnTime(double ctx_product) const;

    /** Decode attention (KV read) time. */
    SimDuration decodeAttnTime(int num_decodes,
                               std::int64_t ctx_sum) const;

    /** Tensor-parallel collective time for a token count. */
    SimDuration commTime(TokenCount total_tokens) const;

    /** Hardware description this model was built for. */
    const ReplicaHwConfig &hw() const { return hw_; }

    /** Parameters in effect. */
    const PerfModelParams &params() const { return params_; }

  private:
    ReplicaHwConfig hw_;
    PerfModelParams params_;
};

} // namespace qoserve

#endif // QOSERVE_MODEL_PERF_MODEL_HH
