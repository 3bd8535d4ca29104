/**
 * @file
 * qoserve_explain — SLO-violation explainer CLI.
 *
 * Joins a lifecycle trace (--trace-csv from qoserve_sim) with the
 * matching per-request records (--records-out) and prints, for every
 * violated request, where its end-to-end latency went: queued,
 * prefill-running, prefill-starved, decode, stalled-by-preemption, or
 * retry — plus phase totals and the top offenders.
 *
 * Example:
 *   qoserve_sim --policy qoserve --trace-csv events.csv \
 *       --records-out records.csv
 *   qoserve_explain --trace events.csv --records records.csv
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "metrics/report_io.hh"
#include "obs/critical_path.hh"
#include "obs/explain.hh"
#include "obs/trace_sink.hh"

namespace {

void
usage(std::ostream &out)
{
    out << R"(qoserve_explain — attribute SLO violations to lifecycle phases

  --trace FILE         lifecycle event CSV (qoserve_sim --trace-csv)
  --records FILE       per-request records CSV (qoserve_sim --records-out)
  --top N              offenders to list (default 10)
  --critical-csv FILE  also write the violated requests' critical-path
                       aggregate as CSV (qoserve_report input)
  --help               this text
)";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qoserve;

    std::optional<std::string> trace_path;
    std::optional<std::string> records_path;
    std::optional<std::string> critical_path;
    std::size_t top_n = 10;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto need_value = [&]() -> const std::string & {
            if (i + 1 >= args.size()) {
                std::cerr << "flag " << flag << " requires a value\n";
                std::exit(1);
            }
            return args[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            return 0;
        } else if (flag == "--trace") {
            trace_path = need_value();
        } else if (flag == "--records") {
            records_path = need_value();
        } else if (flag == "--top") {
            top_n = requireNumber<std::size_t>(need_value(), "flag ", flag);
        } else if (flag == "--critical-csv") {
            critical_path = need_value();
        } else {
            std::cerr << "unknown flag: " << flag << " (try --help)\n";
            return 1;
        }
    }
    if (!trace_path || !records_path) {
        usage(std::cerr);
        return 1;
    }

    TraceLog events = readTraceCsvFile(*trace_path);
    std::vector<RecordsCsvRow> rows = readRecordsCsvFile(*records_path);

    std::vector<ExplainRecord> records;
    records.reserve(rows.size());
    for (const RecordsCsvRow &row : rows) {
        ExplainRecord rec;
        rec.id = row.id;
        rec.arrival = SimTime{row.arrival};
        rec.tierId = row.tierId;
        rec.important = row.important;
        rec.ttft = row.ttft;
        rec.ttlt = row.ttlt;
        rec.violated = row.violated;
        // A never-served request with zero retries was rejected at the
        // front door (the records CSV has no separate rejected flag:
        // only admission rejections produce this combination).
        rec.rejected = !row.retryExhausted && !std::isfinite(row.ttlt) &&
                       row.retries == 0;
        rec.retryExhausted = row.retryExhausted;
        rec.retries = row.retries;
        records.push_back(rec);
    }

    writeExplainReport(events, records, std::cout, top_n);

    if (critical_path) {
        // aggregateCriticalPaths skips never-served requests itself,
        // so the CSV covers exactly the served violated set the
        // report's critical-path section describes.
        auto timelines = buildRequestTimelines(events);
        std::vector<std::uint64_t> violatedIds;
        for (const ExplainRecord &rec : records)
            if (rec.violated)
                violatedIds.push_back(rec.id);
        std::sort(violatedIds.begin(), violatedIds.end());
        writeCriticalAggregateCsvFile(
            aggregateCriticalPaths(timelines, violatedIds),
            *critical_path);
    }
    return 0;
}
