/**
 * @file
 * Per-iteration engine telemetry.
 *
 * Records the stream of batch observations a replica emits (chunk
 * size, decode batch size, execution time) — the iteration-level
 * view behind the chunk-size timeline of Fig. 9 — and exports it as
 * CSV for external plotting.
 */

#ifndef QOSERVE_METRICS_TELEMETRY_HH
#define QOSERVE_METRICS_TELEMETRY_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "core/units.hh"
#include "metrics/batch_observation.hh"

namespace qoserve {

/**
 * Collects BatchObservation streams from one or more replicas.
 */
class TelemetryRecorder
{
  public:
    TelemetryRecorder() = default;

    /**
     * An observer bound to this recorder, tagged with a replica id.
     * Install via Replica::setBatchObserver.
     */
    BatchObserver observerFor(ReplicaId replica_id);

    /** Number of recorded iterations. */
    std::size_t size() const { return observations_.size(); }

    /**
     * Write the raw stream as CSV:
     * replica,start,latency,prefill_tokens,num_decodes.
     */
    void writeCsv(std::ostream &out) const;

    /** Write the CSV to a file (fatal on error). */
    void writeCsvFile(const std::string &path) const;

  private:
    /** Observations in arrival order, and the replica of each. */
    std::vector<BatchObservation> observations_;
    std::vector<int> replicaIds_;
};

} // namespace qoserve

#endif // QOSERVE_METRICS_TELEMETRY_HH
