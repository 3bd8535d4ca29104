/**
 * @file
 * Telemetry recorder implementation.
 */

#include "metrics/telemetry.hh"

#include <algorithm>
#include <ostream>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

BatchObserver
TelemetryRecorder::observerFor(ReplicaId replica_id)
{
    int rid = replica_id.value();
    return [this, rid](const BatchObservation &obs) {
        observations_.push_back(obs);
        replicaIds_.push_back(rid);
    };
}

double
TelemetryRecorder::meanChunkTokens() const
{
    if (observations_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &obs : observations_)
        sum += obs.prefillTokens;
    return sum / static_cast<double>(observations_.size());
}

int
TelemetryRecorder::maxChunkTokens() const
{
    int best = 0;
    for (const auto &obs : observations_)
        best = std::max(best, obs.prefillTokens);
    return best;
}

std::vector<std::int64_t>
TelemetryRecorder::chunkHistogram(int bucket_width) const
{
    QOSERVE_ASSERT(bucket_width > 0, "bucket width must be positive");
    std::vector<std::int64_t> hist;
    for (const auto &obs : observations_) {
        auto bucket =
            static_cast<std::size_t>(obs.prefillTokens / bucket_width);
        if (bucket >= hist.size())
            hist.resize(bucket + 1, 0);
        ++hist[bucket];
    }
    return hist;
}

double
TelemetryRecorder::utilization(SimTime t0, SimTime t1) const
{
    QOSERVE_ASSERT(t1 >= t0, "utilization window ends before it starts");
    if (t1 == t0)
        return 0.0;

    // Clip each observation to the window, then merge overlaps within
    // each replica before summing: a crash-cancelled batch is observed
    // with its full planned latency, which can overlap the batches the
    // replica runs after recovering — summing raw intervals would
    // count that engine time twice.
    struct Interval
    {
        int replica;
        SimTime start;
        SimTime end;
    };
    std::vector<Interval> spans;
    spans.reserve(observations_.size());
    for (std::size_t i = 0; i < observations_.size(); ++i) {
        const BatchObservation &obs = observations_[i];
        SimTime start = std::max(t0, obs.start);
        SimTime end = std::min(t1, obs.start + obs.latency);
        if (end > start)
            spans.push_back({replicaIds_[i], start, end});
    }
    std::sort(spans.begin(), spans.end(),
              [](const Interval &a, const Interval &b) {
                  if (a.replica != b.replica)
                      return a.replica < b.replica;
                  if (a.start != b.start)
                      return a.start < b.start;
                  return a.end < b.end;
              });

    double busy = 0.0;
    bool open = false;
    Interval cur{};
    for (const Interval &iv : spans) {
        if (!open || iv.replica != cur.replica || iv.start > cur.end) {
            if (open)
                busy += cur.end - cur.start;
            cur = iv;
            open = true;
        } else {
            cur.end = std::max(cur.end, iv.end);
        }
    }
    if (open)
        busy += cur.end - cur.start;
    return busy / (t1 - t0);
}

void
TelemetryRecorder::writeCsv(std::ostream &out) const
{
    RowWriter row(out);
    row << "replica,start,latency,prefill_tokens,num_decodes\n";
    for (std::size_t i = 0; i < observations_.size(); ++i) {
        const BatchObservation &obs = observations_[i];
        row << replicaIds_[i] << ',' << obs.start.seconds() << ','
            << obs.latency << ',' << obs.prefillTokens << ','
            << obs.numDecodes << '\n';
    }
}

void
TelemetryRecorder::writeCsvFile(const std::string &path) const
{
    writeArtefactFile(path, "telemetry",
                      [this](std::ostream &out) { writeCsv(out); });
}

} // namespace qoserve
