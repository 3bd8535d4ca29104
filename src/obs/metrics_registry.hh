/**
 * @file
 * Named counters, gauges, and histograms snapshotted on a sim-time
 * cadence (DESIGN.md §10).
 *
 * The registry is the time-series side of the observability layer:
 * drivers register cells by name (queue depths, KV blocks in use,
 * batch occupancy, retry counts), a sampler copies every cell into a
 * row each interval, and writeCsv() emits the whole series as one
 * wide CSV. Every column name is interned once, when its cell is
 * registered, and a row is a vector of doubles indexed by column id.
 * Columns are written in name order, so output bytes are
 * deterministic regardless of registration order.
 */

#ifndef QOSERVE_OBS_METRICS_REGISTRY_HH
#define QOSERVE_OBS_METRICS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "simcore/event_queue.hh"

namespace qoserve {

/**
 * Fixed-bound cumulative histogram (Prometheus-style `le` buckets).
 */
class MetricsHistogram
{
  public:
    MetricsHistogram() = default;

    /** @param bounds Ascending bucket upper bounds; an implicit
     *  +inf bucket always follows. */
    explicit MetricsHistogram(std::vector<double> bounds);

    /** Record one observation. */
    void observe(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Per-bucket (non-cumulative) counts; the last is the +inf
     *  bucket. */
    const std::vector<std::int64_t> &bucketCounts() const
    {
        return counts_;
    }

    std::int64_t count() const { return count_; }
    double sum() const { return sum_; }

  private:
    std::vector<double> bounds_;
    std::vector<std::int64_t> counts_; ///< Per-bucket (non-cumulative).
    std::int64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Name-keyed registry of counters, gauges, and histograms.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    /** Monotonic counter cell, created at zero on first use. The
     *  reference stays valid for the registry's lifetime. */
    std::int64_t &counter(const std::string &name);

    /** Instantaneous gauge cell, created at zero on first use. */
    double &gauge(const std::string &name);

    /**
     * Histogram cell, created with @p bounds on first use; later
     * calls ignore @p bounds and return the existing cell.
     */
    MetricsHistogram &histogram(const std::string &name,
                                std::vector<double> bounds);

    /** Copy every cell's current value into a row stamped @p now. */
    void snapshot(SimTime now);

    /** Rows recorded so far. */
    std::size_t snapshots() const { return rows_.size(); }

    /**
     * Write the series as CSV: a `time` column plus one column per
     * cell in name order. Histograms expand into cumulative
     * `name_le_<bound>` columns plus `name_le_inf`, `name_sum` and
     * `name_count`. Cells registered after earlier snapshots backfill
     * as 0.
     */
    void writeCsv(std::ostream &out) const;

    /** Write the CSV to a file (fatal on error). */
    void writeCsvFile(const std::string &path) const;

  private:
    /** Id of column @p name, interned on first use. Cells that share
     *  a name share its column. */
    std::size_t column(const std::string &name);

    template <typename T>
    struct Cell
    {
        T value{};
        std::size_t column = 0;
    };

    struct HistogramCell
    {
        MetricsHistogram histogram;
        /** Columns `_le_<bound>`..., `_le_inf`, `_sum`, `_count`. */
        std::vector<std::size_t> columns;
    };

    std::map<std::string, Cell<std::int64_t>> counters_;
    std::map<std::string, Cell<double>> gauges_;
    std::map<std::string, HistogramCell> histograms_;
    std::map<std::string, std::size_t> columns_;

    /** One snapshot: values indexed by column id. A row is as wide as
     *  the column count at its snapshot; later columns read 0. */
    struct Row
    {
        SimTime time;
        std::vector<double> values;
    };
    std::vector<Row> rows_;
};

/**
 * Samples a registry every @p interval of simulation time.
 *
 * The sample callback polls live component state into the registry;
 * the sampler then snapshots it. Sampling stops by itself when the
 * event queue has nothing else pending, so the simulation can drain —
 * the cadence never keeps the run alive on its own.
 */
class MetricsSampler
{
  public:
    using SampleFn = std::function<void(MetricsRegistry &, SimTime)>;

    /** All references must outlive the sampler. @p interval must be
     *  positive. */
    MetricsSampler(EventQueue &eq, MetricsRegistry &registry,
                   SimDuration interval, SampleFn fn);

    /** Schedule the first sample at the current simulation time. */
    void start();

    /** Samples taken so far. */
    std::uint64_t samples() const { return samples_; }

  private:
    void fire();

    EventQueue &eq_;
    MetricsRegistry &registry_;
    SimDuration interval_;
    SampleFn fn_;
    std::uint64_t samples_ = 0;
};

} // namespace qoserve

#endif // QOSERVE_OBS_METRICS_REGISTRY_HH
