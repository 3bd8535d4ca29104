/**
 * @file
 * Metrics registry implementation.
 */

#include "obs/metrics_registry.hh"

#include <charconv>
#include <ostream>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

MetricsHistogram::MetricsHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        QOSERVE_ASSERT(bounds_[i - 1] < bounds_[i],
                       "histogram bounds must be strictly ascending");
    }
}

void
MetricsHistogram::observe(double v)
{
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    ++counts_[i];
    ++count_;
    sum_ += v;
}

namespace {

/** Bound rendered for a column name: `4` not `4.000000`. */
std::string
boundLabel(double bound)
{
    char buf[32]; // "%.17g" needs at most 24
    std::to_chars_result r = formatDecimal(buf, buf + sizeof buf, bound,
                                           DecimalStyle::General, 17);
    return std::string(buf, r.ptr);
}

} // namespace

std::size_t
MetricsRegistry::column(const std::string &name)
{
    return columns_.try_emplace(name, columns_.size()).first->second;
}

std::int64_t &
MetricsRegistry::counter(const std::string &name)
{
    auto [it, added] = counters_.try_emplace(name);
    if (added)
        it->second.column = column(name);
    return it->second.value;
}

double &
MetricsRegistry::gauge(const std::string &name)
{
    auto [it, added] = gauges_.try_emplace(name);
    if (added)
        it->second.column = column(name);
    return it->second.value;
}

MetricsHistogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> bounds)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        HistogramCell cell{MetricsHistogram(std::move(bounds)), {}};
        for (double bound : cell.histogram.bounds()) {
            cell.columns.push_back(
                column(name + "_le_" + boundLabel(bound)));
        }
        for (const char *suffix : {"_le_inf", "_sum", "_count"})
            cell.columns.push_back(column(name + suffix));
        it = histograms_.emplace(name, std::move(cell)).first;
    }
    return it->second.histogram;
}

void
MetricsRegistry::snapshot(SimTime now)
{
    // Counters, then gauges, then histograms: where cells share a
    // column name, the later kind's value wins.
    Row row{now, std::vector<double>(columns_.size(), 0.0)};
    for (const auto &entry : counters_)
        row.values[entry.second.column] =
            static_cast<double>(entry.second.value);
    for (const auto &entry : gauges_)
        row.values[entry.second.column] = entry.second.value;
    for (const auto &entry : histograms_) {
        const MetricsHistogram &h = entry.second.histogram;
        const std::vector<std::size_t> &cols = entry.second.columns;
        std::int64_t cumulative = 0;
        std::size_t i = 0;
        for (; i < h.bounds().size(); ++i) {
            cumulative += h.bucketCounts()[i];
            row.values[cols[i]] = static_cast<double>(cumulative);
        }
        row.values[cols[i]] = static_cast<double>(h.count());
        row.values[cols[i + 1]] = h.sum();
        row.values[cols[i + 2]] = static_cast<double>(h.count());
    }
    rows_.push_back(std::move(row));
}

void
MetricsRegistry::writeCsv(std::ostream &out) const
{
    // Every column interned before the last snapshot appears in it
    // (rows only widen), so the last row's width bounds the columns;
    // name order gives a deterministic layout.
    const std::size_t width =
        rows_.empty() ? 0 : rows_.back().values.size();
    std::vector<std::size_t> order;
    RowWriter csv(out, 17);
    csv << "time";
    for (const auto &[name, id] : columns_) {
        if (id < width) {
            csv << ',' << name;
            order.push_back(id);
        }
    }
    csv << '\n';
    for (const Row &row : rows_) {
        csv << row.time.seconds();
        for (std::size_t id : order)
            csv << ',' << (id < row.values.size() ? row.values[id] : 0.0);
        csv << '\n';
    }
}

void
MetricsRegistry::writeCsvFile(const std::string &path) const
{
    writeArtefactFile(path, "metrics",
                      [this](std::ostream &out) { writeCsv(out); });
}

MetricsSampler::MetricsSampler(EventQueue &eq, MetricsRegistry &registry,
                               SimDuration interval, SampleFn fn)
    : eq_(eq), registry_(registry), interval_(interval),
      fn_(std::move(fn))
{
    QOSERVE_ASSERT(interval_ > 0.0,
                   "metrics sampling interval must be positive, got ",
                   interval_);
    QOSERVE_ASSERT(fn_, "metrics sampler needs a sample callback");
}

void
MetricsSampler::start()
{
    eq_.scheduleDaemon(eq_.now(), [this]() { fire(); });
}

void
MetricsSampler::fire()
{
    fn_(registry_, eq_.now());
    registry_.snapshot(eq_.now());
    ++samples_;
    // Reschedule only while real (non-daemon) work is pending: the
    // cadence observes the simulation but must never extend it, and
    // daemon bookkeeping keeps two observers from propping each other
    // up forever.
    if (eq_.hasRealWork())
        eq_.scheduleDaemonAfter(interval_, [this]() { fire(); });
}

} // namespace qoserve
