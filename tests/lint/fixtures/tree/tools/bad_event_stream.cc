/**
 * @file
 * Fixture: a tool holding trace events in a vector. Both vectors
 * must be flagged (one-event-stream); this comment's
 * std::vector<TraceEvent> and the string below must not be.
 */

#include <vector>

#include "obs/trace_sink.hh"

namespace fixture {

const char *kNote = "std::vector<TraceEvent>";

std::size_t
count(const std::vector<qoserve::TraceEvent> &events)
{
    std::vector<TraceEvent> copy(events.begin(), events.end());
    std::vector<TraceEventKind> kinds;
    return copy.size() + kinds.size();
}

} // namespace fixture
