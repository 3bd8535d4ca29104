/**
 * @file
 * Trace sink and the narrow emission handle components hold.
 *
 * A TraceSink is an append-only, time-ordered store of TraceEvents,
 * kept compactly in a TraceLog — the one stream type every consumer
 * (CSV, Perfetto, timelines, the explainer) reads.
 * Components never talk to the sink directly: each holds a TraceScope
 * — a (sink, clock, replica) triple — and calls its emit() helper.
 * With no sink installed the scope is inert and emission sites cost
 * one pointer compare, so tracing is zero-overhead when disabled.
 */

#ifndef QOSERVE_OBS_TRACE_SINK_HH
#define QOSERVE_OBS_TRACE_SINK_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/units.hh"
#include "obs/trace_event.hh"
#include "simcore/event_queue.hh"

namespace qoserve {

/**
 * Append-only byte log of TraceEvents (DESIGN.md §10).
 *
 * Events are encoded losslessly into fixed kChunkBytes chunks, so the
 * log grows one chunk at a time and never copies what it holds. Each
 * event is one header byte (the kind plus three flags: same time bits
 * as the previous event, value +0.0, value a positive integer below
 * 2^53), the time's 8 raw bytes only when it changed, LEB128
 * varints for `request + 1` and for the zigzagged `replica` and
 * `arg`, then the value as a varint or 8 raw bytes (nothing when it
 * is +0.0). Reads go through a forward iterator that decodes one
 * event at a time. An empty log allocates nothing.
 */
class TraceLog
{
  public:
    class const_iterator;

    /** Bytes per chunk; no event straddles two chunks. */
    static constexpr std::size_t kChunkBytes = 64 * 1024;

    TraceLog() = default;
    TraceLog(TraceLog &&) = default;
    TraceLog &operator=(TraceLog &&) = default;

    /** Append one event (any time order; the sink enforces order). */
    void append(const TraceEvent &ev);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The last event appended (the log must not be empty). */
    const TraceEvent &back() const;

    /** Encoded bytes across all chunks (their headroom excluded). */
    std::size_t encodedBytes() const;

    const_iterator begin() const;
    const_iterator end() const;

  private:
    struct Chunk
    {
        std::unique_ptr<std::uint8_t[]> bytes;
        std::size_t used = 0;
    };

    std::vector<Chunk> chunks_;
    std::size_t size_ = 0;
    TraceEvent last_; ///< Also the time base of the first event.
};

/**
 * Forward iterator over a TraceLog; dereferencing yields the decoded
 * event by value. Iterators of one log compare by position.
 */
class TraceLog::const_iterator
{
  public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = TraceEvent;
    using difference_type = std::ptrdiff_t;
    using reference = TraceEvent;
    using pointer = void;

    const_iterator() = default;

    TraceEvent operator*() const { return ev_; }

    const_iterator &
    operator++()
    {
        if (++index_ < log_->size_)
            decode();
        return *this;
    }

    const_iterator
    operator++(int)
    {
        const_iterator old = *this;
        ++*this;
        return old;
    }

    bool
    operator==(const const_iterator &o) const
    {
        return index_ == o.index_;
    }

  private:
    friend class TraceLog;

    /** Position at event @p index, which must be 0 or log->size(). */
    const_iterator(const TraceLog *log, std::size_t index);

    /** Decode the event at the cursor into ev_ and move past it. */
    void decode();

    const TraceLog *log_ = nullptr;
    std::size_t index_ = 0;
    std::size_t chunk_ = 0;
    std::size_t offset_ = 0;
    TraceEvent ev_; ///< Current event; the time base of the next.
};

/**
 * Append-only recorder of lifecycle events.
 */
class TraceSink
{
  public:
    TraceSink() = default;

    /** Append one event. Events must arrive in non-decreasing
     *  simulation time (panics otherwise — the exporters depend on
     *  stream order). */
    void emit(const TraceEvent &ev);

    /** All events, in emission order. */
    const TraceLog &events() const { return log_; }

    std::size_t size() const { return log_.size(); }
    bool empty() const { return log_.empty(); }

    /**
     * Write the stream as flat CSV:
     * event,time,request,replica,arg,value. Times and values are
     * printed with max_digits10 precision so a read-back is exact;
     * `request` is -1 for events not tied to a request.
     */
    void writeCsv(std::ostream &out) const;

    /** Write the CSV to a file (fatal on error). */
    void writeCsvFile(const std::string &path) const;

  private:
    TraceLog log_;
};

/**
 * Parse a trace CSV written by TraceSink::writeCsv. Fatal (with the
 * 1-based line number) on malformed headers, rows, or unknown kinds.
 */
TraceLog readTraceCsv(std::istream &in);

/** Read a trace CSV from a file (fatal on error). */
TraceLog readTraceCsvFile(const std::string &path);

/**
 * Per-component emission handle: the sink, the simulation clock that
 * timestamps events, and the replica index stamped on them (-1 for
 * cluster-level scopes). Copyable; components hold it by value or
 * point at a replica-owned instance.
 */
struct TraceScope
{
    TraceSink *sink = nullptr;
    const EventQueue *clock = nullptr;
    int replica = -1;

    /** True when a sink is installed (emission sites guard on this). */
    bool on() const { return sink != nullptr; }

    /** Emit at the current simulation time on this scope's replica. */
    void
    emit(TraceEventKind kind, std::uint64_t request = kNoTraceRequest,
         std::int64_t arg = 0, double value = 0.0) const
    {
        if (sink == nullptr)
            return;
        sink->emit({kind, clock->now(), request, replica, arg, value});
    }

    /** Emit on behalf of a specific replica (the cluster front door
     *  stamping a dispatch with its target). */
    void
    emitOn(ReplicaId replica_idx, TraceEventKind kind,
           std::uint64_t request = kNoTraceRequest, std::int64_t arg = 0,
           double value = 0.0) const
    {
        if (sink == nullptr)
            return;
        sink->emit(
            {kind, clock->now(), request, replica_idx.value(), arg,
             value});
    }
};

} // namespace qoserve

#endif // QOSERVE_OBS_TRACE_SINK_HH
