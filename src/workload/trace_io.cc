/**
 * @file
 * Trace CSV serialization implementation.
 */

#include "workload/trace_io.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

const char *kHeader =
    "id,arrival,prompt_tokens,decode_tokens,tier_id,important,app_id";

// Extended header used only when some request carries prompt
// segments, so traces without them keep the historical byte format.
const char *kHeaderSegments =
    "id,arrival,prompt_tokens,decode_tokens,tier_id,important,app_id,"
    "prompt_segments";

const char *const kWhat = "workload trace";

std::vector<PromptSegment>
parseSegments(const std::string &value, std::size_t line_no)
{
    const auto segmentError = [&](const std::string &item,
                                  const char *what) {
        csvFatal(kWhat, line_no, "field 'prompt_segments': ", what, ": '",
                 item, "'");
    };
    std::vector<PromptSegment> segments;
    for (const std::string &item : splitCsv(value, ';')) {
        std::size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == item.size())
            segmentError(item, "expected contentId:tokens");
        PromptSegment seg;
        seg.contentId = parseCsvField<std::uint64_t>(
            kWhat, line_no, "prompt_segments", item.substr(0, colon));
        seg.tokens = parseCsvField<int>(kWhat, line_no, "prompt_segments",
                                        item.substr(colon + 1));
        if (seg.tokens <= 0)
            segmentError(item, "segment tokens must be positive");
        segments.push_back(seg);
    }
    return segments;
}

} // namespace

void
writeTraceCsv(const Trace &trace, std::ostream &stream)
{
    bool segments = false;
    for (const RequestSpec &r : trace.requests)
        segments = segments || !r.promptSegments.empty();

    // Full round-trip precision for timestamps.
    RowWriter out(stream, std::numeric_limits<double>::max_digits10);
    out << (segments ? kHeaderSegments : kHeader) << '\n';
    for (const RequestSpec &r : trace.requests) {
        out << r.id << ',' << r.arrival.seconds() << ',' << r.promptTokens
            << ',' << r.decodeTokens << ',' << r.tierId << ','
            << (r.important ? 1 : 0) << ',' << r.appId;
        if (segments) {
            // contentId:tokens pairs joined by ';', or '-' for a
            // wholly unique prompt.
            out << ',';
            if (r.promptSegments.empty()) {
                out << '-';
            } else {
                for (std::size_t i = 0; i < r.promptSegments.size(); ++i) {
                    if (i > 0)
                        out << ';';
                    out << r.promptSegments[i].contentId << ':'
                        << r.promptSegments[i].tokens;
                }
            }
        }
        out << '\n';
    }
}

void
writeTraceCsvFile(const Trace &trace, const std::string &path)
{
    writeArtefactFile(path, "trace", [&](std::ostream &out) {
        writeTraceCsv(trace, out);
    });
}

Trace
readTraceCsv(std::istream &in, TierTable tiers)
{
    QOSERVE_ASSERT(!tiers.empty(), "tier table required");

    // Traces come from foreign tools too, so this reader accepts
    // CRLF line ends, blank lines and either header; fields are still
    // strict.
    std::string line;
    if (!readCsvLine(in, line))
        csvFatal(kWhat, 1, "empty input (missing header)");
    bool segments = line == kHeaderSegments;
    if (line != kHeader && !segments)
        csvFatal(kWhat, 1, "unexpected header: '", line, "', expected '",
                 kHeader, "'");
    std::size_t expected_fields = segments ? 8 : 7;
    const std::vector<std::string> columns = splitCsv(kHeaderSegments);

    Trace trace;
    trace.tiers = std::move(tiers);

    for (std::size_t line_no = 2; readCsvLine(in, line); ++line_no) {
        if (line.empty())
            continue;
        auto fields = splitCsv(line);
        if (fields.size() != expected_fields)
            csvFatal(kWhat, line_no, "expected ", expected_fields,
                     " fields, got ", fields.size(), ": '", line, "'");
        // field(T{}, col): column col parsed strictly as a T.
        auto field = [&](auto as, std::size_t col) {
            return parseCsvField<decltype(as)>(kWhat, line_no,
                                               columns[col], fields[col]);
        };
        RequestSpec spec;
        spec.id = field(std::uint64_t{}, 0);
        spec.arrival = SimTime{field(double{}, 1)};
        spec.promptTokens = field(int{}, 2);
        spec.decodeTokens = field(int{}, 3);
        spec.tierId = field(int{}, 4);
        spec.important = field(int{}, 5) != 0;
        spec.appId = field(int{}, 6);
        if (segments && fields[7] != "-")
            spec.promptSegments = parseSegments(fields[7], line_no);
        if (!spec.promptSegments.empty()) {
            std::int64_t sum = 0;
            for (const PromptSegment &s : spec.promptSegments)
                sum += s.tokens;
            if (sum != spec.promptTokens) {
                csvFatal(kWhat, line_no, "prompt segments sum to ", sum,
                         " tokens but prompt_tokens is ",
                         spec.promptTokens);
            }
        }
        if (spec.promptTokens <= 0 || spec.decodeTokens <= 0)
            csvFatal(kWhat, line_no, "token counts must be positive");
        if (spec.tierId < 0 ||
            spec.tierId >= static_cast<int>(trace.tiers.size()))
            csvFatal(kWhat, line_no, "tier ", spec.tierId,
                     " out of range");
        if (spec.arrival < SimTime{})
            csvFatal(kWhat, line_no, "negative arrival");
        trace.requests.push_back(spec);
    }

    std::sort(trace.requests.begin(), trace.requests.end(),
              [](const RequestSpec &a, const RequestSpec &b) {
                  if (a.arrival != b.arrival)
                      return a.arrival < b.arrival;
                  return a.id < b.id;
              });
    trace.appStats = computeAppStats(trace.requests);
    if (!trace.requests.empty() && trace.requests.back().arrival > SimTime{}) {
        trace.averageQps = static_cast<double>(trace.requests.size()) /
                           trace.requests.back().arrival.seconds();
    }
    return trace;
}

Trace
readTraceCsvFile(const std::string &path, TierTable tiers)
{
    return readArtefactFile(path, "trace", [&](std::istream &in) {
        return readTraceCsv(in, std::move(tiers));
    });
}

} // namespace qoserve
