/**
 * @file
 * Result serialization: per-request records and run summaries as
 * CSV, for external plotting and analysis.
 */

#ifndef QOSERVE_METRICS_REPORT_IO_HH
#define QOSERVE_METRICS_REPORT_IO_HH

#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "metrics/slo_report.hh"

namespace qoserve {

/**
 * Write per-request records as CSV.
 *
 * Columns: id, arrival, prompt_tokens, decode_tokens, tier_id,
 * important, ttft, ttlt, max_tbt, tbt_misses, violated, relegated,
 * kv_preemptions, retries, retry_exhausted.
 */
void writeRecordsCsv(const MetricsCollector &collector, std::ostream &out);

/** Write records CSV to a file (fatal on error). */
void writeRecordsCsvFile(const MetricsCollector &collector,
                         const std::string &path);

/**
 * Streams records to a CSV file one row at a time, for runs too large
 * to retain every record in memory. Feed it completion-order records
 * (e.g. as a MetricsCollector sink) and the resulting file is
 * byte-identical to writeRecordsCsvFile on a retaining collector —
 * both paths share the same header and row writers.
 */
class RecordsCsvStreamWriter
{
  public:
    /** Open @p path and write the header (fatal on error). */
    RecordsCsvStreamWriter(TierTable tiers, const std::string &path);

    /** Append one record's row. */
    void write(const RequestRecord &rec);

    /** Flush and close; fatal on a write error. Idempotent, and also
     *  run by the destructor. */
    void close();

    ~RecordsCsvStreamWriter();

    RecordsCsvStreamWriter(const RecordsCsvStreamWriter &) = delete;
    RecordsCsvStreamWriter &
    operator=(const RecordsCsvStreamWriter &) = delete;

  private:
    TierTable tiers_;
    std::string path_;
    std::ofstream out_;
    RowWriter row_;
};

/**
 * Write a RunSummary as key,value CSV rows.
 *
 * Fault/retry metrics (availability, mean_retries, ...) are emitted
 * only when the summary shows failure activity, so fault-free runs
 * produce byte-identical output to builds without fault support.
 */
void writeSummaryCsv(const RunSummary &summary, std::ostream &out);

/** One parsed row of a records CSV (the explainer's join input). */
struct RecordsCsvRow
{
    std::uint64_t id = 0;
    double arrival = 0.0;
    std::int64_t promptTokens = 0;
    std::int64_t decodeTokens = 0;
    int tierId = 0;
    bool important = false;
    double ttft = 0.0; ///< +inf for never-served requests.
    double ttlt = 0.0; ///< +inf for never-served requests.
    double maxTbt = 0.0;
    std::int64_t tbtMisses = 0;
    bool violated = false;
    bool relegated = false;
    std::int64_t kvPreemptions = 0;
    int retries = 0;
    bool retryExhausted = false;
};

/**
 * Parse a records CSV written by writeRecordsCsv. Fatal (with the
 * 1-based line number) on a malformed header, a row without exactly
 * 15 fields, or a non-numeric field.
 */
std::vector<RecordsCsvRow> readRecordsCsv(std::istream &in);

/** Read a records CSV from a file (fatal on error). */
std::vector<RecordsCsvRow> readRecordsCsvFile(const std::string &path);

/** Render a human-readable summary table to @p out. */
void printSummary(const RunSummary &summary, const TierTable &tiers,
                  std::ostream &out);

} // namespace qoserve

#endif // QOSERVE_METRICS_REPORT_IO_HH
