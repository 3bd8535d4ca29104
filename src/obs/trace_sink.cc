/**
 * @file
 * Trace sink implementation: the byte log's codec, the ordered event
 * store and the CSV round trip.
 */

#include "obs/trace_sink.hh"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

const char *const kTraceCsvHeader = "event,time,request,replica,arg,value";

TraceEventKind
kindByName(const CsvReader &csv)
{
    for (int k = 0; k < kTraceEventKinds; ++k) {
        auto kind = static_cast<TraceEventKind>(k);
        if (csv.field(0) == traceEventKindName(kind))
            return kind;
    }
    csv.fail("unknown event kind: '", csv.field(0), "'");
}

// Header byte: the kind in the low five bits, then three flags.
static_assert(kTraceEventKinds <= 32, "the kind must fit five bits");
constexpr std::uint8_t kKindMask = 0x1F;
constexpr std::uint8_t kSameTime = 0x20;  ///< Time bits as previous.
constexpr std::uint8_t kZeroValue = 0x40; ///< Value is +0.0.
constexpr std::uint8_t kIntValue = 0x80;  ///< Value is a varint.

/** Header, time, varints of request (10), replica (5), arg (10),
 *  value. */
constexpr std::size_t kMaxEventBytes = 1 + 8 + 10 + 5 + 10 + 8;

std::uint8_t *
putVarint(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (b < 0x80)
            return v;
    }
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>((z >> 1) ^ (0 - (z & 1)));
}

std::uint64_t
bitsOf(SimTime t)
{
    return std::bit_cast<std::uint64_t>(t.seconds());
}

/** True when @p v round-trips through a varint: a positive integer
 *  below 2^53 (+0.0 has its own flag; -0.0 and NaN fail `v > 0`). */
bool
isSmallInteger(double v)
{
    return v > 0.0 && v < 0x1p53 &&
           static_cast<double>(static_cast<std::uint64_t>(v)) == v;
}

} // namespace

void
TraceLog::append(const TraceEvent &ev)
{
    if (chunks_.empty() || kChunkBytes - chunks_.back().used < kMaxEventBytes)
        chunks_.push_back(
            {std::make_unique_for_overwrite<std::uint8_t[]>(kChunkBytes), 0});
    Chunk &chunk = chunks_.back();
    std::uint8_t *const start = chunk.bytes.get() + chunk.used;
    std::uint8_t header = static_cast<std::uint8_t>(ev.kind);
    std::uint8_t *p = start + 1;

    const std::uint64_t time = bitsOf(ev.time);
    if (time == bitsOf(last_.time)) {
        header |= kSameTime;
    } else {
        std::memcpy(p, &time, sizeof time);
        p += sizeof time;
    }
    p = putVarint(p, ev.request + 1); // kNoTraceRequest encodes as 0
    p = putVarint(p, static_cast<std::uint32_t>(zigzag(ev.replica)));
    p = putVarint(p, zigzag(ev.arg));
    const std::uint64_t value = std::bit_cast<std::uint64_t>(ev.value);
    if (value == 0) {
        header |= kZeroValue;
    } else if (isSmallInteger(ev.value)) {
        header |= kIntValue;
        p = putVarint(p, static_cast<std::uint64_t>(ev.value));
    } else {
        std::memcpy(p, &value, sizeof value);
        p += sizeof value;
    }
    *start = header;

    chunk.used += static_cast<std::size_t>(p - start);
    ++size_;
    last_ = ev;
}

const TraceEvent &
TraceLog::back() const
{
    QOSERVE_ASSERT(size_ > 0, "back() of an empty trace log");
    return last_;
}

std::size_t
TraceLog::encodedBytes() const
{
    std::size_t bytes = 0;
    for (const Chunk &chunk : chunks_)
        bytes += chunk.used;
    return bytes;
}

TraceLog::const_iterator
TraceLog::begin() const
{
    return {this, 0};
}

TraceLog::const_iterator
TraceLog::end() const
{
    return {this, size_};
}

TraceLog::const_iterator::const_iterator(const TraceLog *log,
                                         std::size_t index)
    : log_(log), index_(index)
{
    if (index_ < log_->size_)
        decode();
}

void
TraceLog::const_iterator::decode()
{
    const Chunk *chunk = &log_->chunks_[chunk_];
    if (offset_ == chunk->used) {
        chunk = &log_->chunks_[++chunk_];
        offset_ = 0;
    }
    const std::uint8_t *const start = chunk->bytes.get() + offset_;
    const std::uint8_t *p = start;
    const std::uint8_t header = *p++;
    ev_.kind = static_cast<TraceEventKind>(header & kKindMask);
    if (!(header & kSameTime)) {
        double seconds;
        std::memcpy(&seconds, p, sizeof seconds);
        p += sizeof seconds;
        ev_.time = SimTime{seconds};
    }
    ev_.request = getVarint(p) - 1;
    ev_.replica = static_cast<int>(unzigzag(getVarint(p)));
    ev_.arg = unzigzag(getVarint(p));
    if (header & kZeroValue) {
        ev_.value = 0.0;
    } else if (header & kIntValue) {
        ev_.value = static_cast<double>(getVarint(p));
    } else {
        std::memcpy(&ev_.value, p, sizeof ev_.value);
        p += sizeof ev_.value;
    }
    offset_ += static_cast<std::size_t>(p - start);
}

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Arrival:
        return "arrival";
      case TraceEventKind::AdmissionReject:
        return "admission-reject";
      case TraceEventKind::Dispatch:
        return "dispatch";
      case TraceEventKind::IterStart:
        return "iter-start";
      case TraceEventKind::IterEnd:
        return "iter-end";
      case TraceEventKind::ChunkStart:
        return "chunk-start";
      case TraceEventKind::ChunkEnd:
        return "chunk-end";
      case TraceEventKind::Preempt:
        return "preempt";
      case TraceEventKind::Relegate:
        return "relegate";
      case TraceEventKind::Finish:
        return "finish";
      case TraceEventKind::CacheHit:
        return "cache-hit";
      case TraceEventKind::CacheEvict:
        return "cache-evict";
      case TraceEventKind::Crash:
        return "crash";
      case TraceEventKind::Recover:
        return "recover";
      case TraceEventKind::StragglerStart:
        return "straggler-start";
      case TraceEventKind::StragglerEnd:
        return "straggler-end";
      case TraceEventKind::RequestFailed:
        return "request-failed";
      case TraceEventKind::RetryQueued:
        return "retry-queued";
      case TraceEventKind::RetryExhausted:
        return "retry-exhausted";
      case TraceEventKind::ZoneOutage:
        return "zone-outage";
      case TraceEventKind::ZoneRestore:
        return "zone-restore";
      case TraceEventKind::PartitionStart:
        return "partition-start";
      case TraceEventKind::PartitionEnd:
        return "partition-end";
      case TraceEventKind::BreakerOpen:
        return "breaker-open";
      case TraceEventKind::BreakerClose:
        return "breaker-close";
      case TraceEventKind::BrownoutStep:
        return "brownout-step";
      case TraceEventKind::DeadlineCancel:
        return "deadline-cancel";
      case TraceEventKind::BrownoutShed:
        return "brownout-shed";
      case TraceEventKind::AlertRaised:
        return "slo-alert-raised";
      case TraceEventKind::AlertCleared:
        return "slo-alert-cleared";
    }
    QOSERVE_PANIC("unknown trace event kind");
}

void
TraceSink::emit(const TraceEvent &ev)
{
    QOSERVE_ASSERT(log_.empty() || ev.time >= log_.back().time,
                   "trace event at ", ev.time,
                   " precedes the stream tail at ", log_.back().time);
    log_.append(ev);
}

void
TraceSink::writeCsv(std::ostream &out) const
{
    // max_digits10 makes the double fields round-trip exactly, so a
    // written trace re-read by the explainer carries the same
    // timestamps the exporters saw.
    RowWriter row(out, 17);
    row << kTraceCsvHeader << '\n';
    for (const TraceEvent &ev : log_) {
        row << traceEventKindName(ev.kind) << ',' << ev.time.seconds()
            << ',';
        if (ev.request == kNoTraceRequest)
            row << -1;
        else
            row << ev.request;
        row << ',' << ev.replica << ',' << ev.arg << ',' << ev.value
            << '\n';
    }
}

void
TraceSink::writeCsvFile(const std::string &path) const
{
    writeArtefactFile(path, "trace",
                      [this](std::ostream &out) { writeCsv(out); });
}

TraceLog
readTraceCsv(std::istream &in)
{
    TraceLog events;
    CsvReader csv(in, "trace", kTraceCsvHeader);
    while (csv.next()) {
        TraceEvent ev;
        ev.kind = kindByName(csv);
        ev.time = SimTime{csv.number<double>(1)};
        ev.request = csv.field(2) == "-1" ? kNoTraceRequest
                                          : csv.number<std::uint64_t>(2);
        ev.replica = csv.number<int>(3);
        ev.arg = csv.number<std::int64_t>(4);
        ev.value = csv.number<double>(5);
        events.append(ev);
    }
    return events;
}

TraceLog
readTraceCsvFile(const std::string &path)
{
    return readArtefactFile(path, "trace", [](std::istream &in) {
        return readTraceCsv(in);
    });
}

} // namespace qoserve
