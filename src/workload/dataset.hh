/**
 * @file
 * Token-length dataset models.
 *
 * The paper evaluates on ShareGPT and two Azure production traces
 * (conversation and code). Those traces are not redistributable, so
 * each dataset is modelled as a pair of lognormal distributions over
 * prompt and decode token counts, fitted to the published p50/p90
 * quantiles (Table 2). A lognormal matches the heavy right tail of
 * real LLM length distributions, and pinning two quantiles determines
 * it exactly.
 */

#ifndef QOSERVE_WORKLOAD_DATASET_HH
#define QOSERVE_WORKLOAD_DATASET_HH

#include <string>

#include "simcore/rng.hh"

namespace qoserve {

/**
 * A lognormal distribution specified by its p50/p90 quantiles.
 */
class LengthDistribution
{
  public:
    /**
     * Fit a lognormal to the given quantiles.
     *
     * @param p50 Median token count.
     * @param p90 90th-percentile token count (> p50).
     * @param min_len Samples are clamped to at least this.
     * @param max_len Samples are clamped to at most this.
     */
    LengthDistribution(double p50, double p90, int min_len = 1,
                       int max_len = 32768);

    /** Draw a token count. */
    int sample(Rng &rng) const;

    /** Median of the fitted distribution. */
    double p50() const;

    /** 90th percentile of the fitted distribution. */
    double p90() const;

    /** Mean of the fitted (unclamped) lognormal. */
    double mean() const;

    /** Standard deviation of the fitted (unclamped) lognormal. */
    double stddev() const;

    /** Underlying normal location parameter. */
    double mu() const { return mu_; }

    /** Underlying normal scale parameter. */
    double sigma() const { return sigma_; }

    bool operator==(const LengthDistribution &) const = default;

  private:
    double mu_;
    double sigma_;
    int minLen_;
    int maxLen_;
};

/**
 * A dataset: joint prompt/decode length model.
 */
struct Dataset
{
    /** Display name, e.g. "Az-Code". */
    std::string name;

    /** Prompt (prefill) token count distribution. */
    LengthDistribution prompt;

    /** Decode (output) token count distribution. */
    LengthDistribution decode;

    bool operator==(const Dataset &) const = default;
};

/** ShareGPT: long prompts, long decodes (Table 2 row 1). */
Dataset sharegpt();

/** Azure Conversation trace (Table 2 row 2). */
Dataset azureConv();

/** Azure Code trace: long prompts, very short decodes (row 3). */
Dataset azureCode();

/** Look up a preset by name ("sharegpt", "azure-conv", "azure-code"). */
Dataset datasetByName(const std::string &name);

} // namespace qoserve

#endif // QOSERVE_WORKLOAD_DATASET_HH
