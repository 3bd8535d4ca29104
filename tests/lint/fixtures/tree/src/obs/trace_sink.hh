/**
 * @file
 * Fixture: the stream type's home may hold a vector of TraceEvents
 * (one-event-stream must stay silent).
 */

#ifndef QOSERVE_FIXTURE_TRACE_SINK_HH
#define QOSERVE_FIXTURE_TRACE_SINK_HH

#include <vector>

namespace fixture {

struct TraceEvent
{
    int kind = 0;
};

inline std::vector<TraceEvent>
decodeAll()
{
    return {};
}

} // namespace fixture

#endif // QOSERVE_FIXTURE_TRACE_SINK_HH
