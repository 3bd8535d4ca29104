/**
 * @file
 * Telemetry recorder implementation.
 */

#include "metrics/telemetry.hh"

#include <ostream>

#include "core/csv.hh"

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
