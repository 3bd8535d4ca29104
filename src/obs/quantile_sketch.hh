/**
 * @file
 * Log-bucketed quantile sketch (DESIGN.md §14).
 *
 * A DDSketch-style summary of a non-negative sample: values land in
 * geometrically-spaced buckets keyed by ceil(log_gamma(v)), so any
 * quantile estimate is within a configured *relative* error of the
 * order statistic it targets, at O(log(max/min)) space independent of
 * the sample size. The entire state is integer bucket counts plus
 * min/max, so it serializes exactly. That makes the sketch the
 * streaming alternative to retaining and sorting full latency vectors
 * in rolling/windowed contexts.
 *
 * Infinite values (the +inf latencies of never-served requests) are
 * counted in a dedicated overflow bucket so sketch quantiles agree
 * with percentileSorted over vectors that contain +inf; values below
 * the indexable floor land in a zero bucket and report as 0.
 */

#ifndef QOSERVE_OBS_QUANTILE_SKETCH_HH
#define QOSERVE_OBS_QUANTILE_SKETCH_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace qoserve {

/**
 * Streaming quantile summary with a bounded relative error.
 */
class QuantileSketch
{
  public:
    /** Default accuracy: quantiles within 1% of the targeted order
     *  statistic. */
    static constexpr double kDefaultRelativeError = 0.01;

    /** Values below this floor are indistinguishable from zero. */
    static constexpr double kMinIndexable = 1e-12;

    /**
     * @param relative_error Maximum relative error of quantile
     *        estimates, in (0, 1) (panics otherwise).
     */
    explicit QuantileSketch(
        double relative_error = kDefaultRelativeError);

    /** Configured relative-error bound. */
    double relativeError() const { return relativeError_; }

    /**
     * Record one observation. @p v must be non-negative and not NaN
     * (panics otherwise); +inf is counted in the overflow bucket,
     * values below kMinIndexable in the zero bucket.
     */
    void insert(double v);

    /** Observations recorded (including zero and +inf ones). */
    std::uint64_t count() const { return count_; }

    /** Observations that were +inf. */
    std::uint64_t infCount() const { return infCount_; }

    /** Smallest finite observation (+inf when none). */
    double min() const { return min_; }

    /** Largest *finite* observation (-inf when none). */
    double maxFinite() const { return maxFinite_; }

    /**
     * Estimate the @p p-th percentile, p in [0, 100] (panics
     * otherwise; 0 on an empty sketch — the percentileSorted
     * sentinel).
     *
     * The estimate targets the order statistic at index
     * floor(p/100 * (count-1)) — percentileSorted's lower bracket —
     * and is within relativeError() of it: at most (1+e) times and
     * at least (1-e) times its value. Ranks that fall in the zero
     * bucket return 0, ranks in the overflow bucket +inf.
     */
    double quantile(double p) const;

    /** True when no observation was recorded. */
    bool empty() const { return count_ == 0; }

    /** Bucket map (key -> count), exposed for serialization. */
    const std::map<std::int32_t, std::uint64_t> &buckets() const
    {
        return buckets_;
    }

    /** Observations in the zero bucket. */
    std::uint64_t zeroCount() const { return zeroCount_; }

    /** Exact state equality (accuracy, buckets, counts, min/max). */
    bool operator==(const QuantileSketch &o) const;

    /**
     * Rebuild a sketch from serialized state (the bank CSV reader's
     * constructor). @p bucket_counts must hold positive counts;
     * @p zero and @p inf are the zero/overflow bucket counts.
     */
    static QuantileSketch
    fromParts(double relative_error, std::uint64_t zero,
              std::uint64_t inf, double min_value, double max_finite,
              std::map<std::int32_t, std::uint64_t> bucket_counts);

  private:
    /** Bucket key of a finite value >= kMinIndexable. */
    std::int32_t keyFor(double v) const;

    /** Representative value of bucket @p key (log-space midpoint:
     *  relative error <= relativeError_ across the bucket). */
    double valueFor(std::int32_t key) const;

    double relativeError_;
    double gamma_;    ///< Bucket growth factor (1+e)/(1-e).
    double logGamma_; ///< Cached ln(gamma).

    std::map<std::int32_t, std::uint64_t> buckets_;
    std::uint64_t zeroCount_ = 0;
    std::uint64_t infCount_ = 0;
    std::uint64_t count_ = 0;
    double min_;
    double maxFinite_;
};

/**
 * Write a name-keyed bank of sketches as CSV: header
 * `sketch,field,value`, then per sketch (name order) its meta rows
 * (relative error, zero/inf counts, min/max — max_digits10, so the
 * read-back is exact) followed by one `b<key>` row per bucket in key
 * order. Deterministic bytes for deterministic state.
 */
void writeSketchBankCsv(
    const std::map<std::string, QuantileSketch> &bank,
    std::ostream &out);

/** Write the bank CSV to a file (fatal on error). */
void writeSketchBankCsvFile(
    const std::map<std::string, QuantileSketch> &bank,
    const std::string &path);

/**
 * Parse a sketch-bank CSV written by writeSketchBankCsv. Fatal (with
 * the 1-based line number) on malformed headers, rows, fields or
 * out-of-order buckets. The round trip is exact.
 */
std::map<std::string, QuantileSketch> readSketchBankCsv(std::istream &in);

/** Read a bank CSV from a file (fatal on error). */
std::map<std::string, QuantileSketch>
readSketchBankCsvFile(const std::string &path);

} // namespace qoserve

#endif // QOSERVE_OBS_QUANTILE_SKETCH_HH
