/**
 * @file
 * Result serialization implementation.
 */

#include "metrics/report_io.hh"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <string>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

const char *const kRecordsHeader =
    "id,arrival,prompt_tokens,decode_tokens,tier_id,important,"
    "ttft,ttlt,max_tbt,tbt_misses,violated,relegated,"
    "kv_preemptions,retries,retry_exhausted";
const char *const kSummaryHeader = "metric,value";

// max_digits10: doubles survive the round trip through readRecordsCsv
// bit-exactly (the explainer joins on these).
constexpr int kRecordsPrecision = 17;

void
writeRecordCsvRow(const RequestRecord &r, const QosTier &tier,
                  RowWriter &row)
{
    row << r.spec.id << ',' << r.spec.arrival.seconds() << ','
        << r.spec.promptTokens << ',' << r.spec.decodeTokens << ','
        << r.spec.tierId << ',' << (r.spec.important ? 1 : 0) << ','
        << r.ttft() << ',' << r.ttlt() << ',' << r.maxTbt << ','
        << r.tbtDeadlineMisses << ',' << (violatedSlo(r, tier) ? 1 : 0)
        << ',' << (r.wasRelegated ? 1 : 0) << ',' << r.kvPreemptions
        << ',' << r.retries << ',' << (r.retryExhausted ? 1 : 0) << '\n';
}

} // namespace

void
writeRecordsCsv(const MetricsCollector &collector, std::ostream &out)
{
    RowWriter row(out, kRecordsPrecision);
    row << kRecordsHeader << '\n';
    for (const RequestRecord &r : collector.records())
        writeRecordCsvRow(r, collector.tiers()[r.spec.tierId], row);
}

RecordsCsvStreamWriter::RecordsCsvStreamWriter(TierTable tiers,
                                               const std::string &path)
    : tiers_(std::move(tiers)), path_(path), out_(path),
      row_(out_, kRecordsPrecision)
{
    QOSERVE_ASSERT(!tiers_.empty(), "stream writer needs a tier table");
    if (!out_)
        QOSERVE_FATAL("cannot open records file for writing: ", path_);
    row_ << kRecordsHeader << '\n';
}

void
RecordsCsvStreamWriter::write(const RequestRecord &rec)
{
    QOSERVE_ASSERT(rec.spec.tierId >= 0 &&
                       rec.spec.tierId <
                           static_cast<int>(tiers_.size()),
                   "record references unknown tier");
    writeRecordCsvRow(rec, tiers_[rec.spec.tierId], row_);
}

void
RecordsCsvStreamWriter::close()
{
    if (!out_.is_open())
        return;
    row_.flush();
    out_.close();
    if (!out_)
        QOSERVE_FATAL("error writing records file: ", path_);
}

RecordsCsvStreamWriter::~RecordsCsvStreamWriter()
{
    close();
}

void
writeRecordsCsvFile(const MetricsCollector &collector,
                    const std::string &path)
{
    writeArtefactFile(path, "records", [&](std::ostream &out) {
        writeRecordsCsv(collector, out);
    });
}

void
writeSummaryCsv(const RunSummary &summary, std::ostream &stream)
{
    RowWriter out(stream);
    out << kSummaryHeader << '\n';
    out << "count," << summary.count << '\n';
    out << "violation_rate," << summary.violationRate << '\n';
    out << "violation_rate_with_tbt," << summary.violationRateWithTbt
        << '\n';
    out << "important_violation_rate," << summary.importantViolationRate
        << '\n';
    out << "short_violation_rate," << summary.shortViolationRate << '\n';
    out << "long_violation_rate," << summary.longViolationRate << '\n';
    out << "relegated_fraction," << summary.relegatedFraction << '\n';
    if (summary.hasFaultActivity()) {
        out << "availability," << summary.availability << '\n';
        out << "retry_exhausted_fraction,"
            << summary.retryExhaustedFraction << '\n';
        out << "mean_retries," << summary.meanRetries << '\n';
        out << "failure_affected_fraction,"
            << summary.failureAffectedFraction << '\n';
        out << "failure_violation_rate," << summary.failureViolationRate
            << '\n';
    }
    if (summary.hasPrefixActivity()) {
        out << "prefix_hit_fraction," << summary.prefixHitFraction
            << '\n';
        out << "prefix_tokens_saved_fraction,"
            << summary.prefixTokensSavedFraction << '\n';
        out << "mean_cached_prefix_tokens,"
            << summary.meanCachedPrefixTokens << '\n';
    }
    out << "p50_latency," << summary.p50Latency << '\n';
    out << "p95_latency," << summary.p95Latency << '\n';
    out << "p99_latency," << summary.p99Latency << '\n';
    for (const TierSummary &tier : summary.tiers) {
        std::string prefix = "tier" + std::to_string(tier.tierId) + "_";
        out << prefix << "count," << tier.count << '\n';
        out << prefix << "violation_rate," << tier.violationRate << '\n';
        out << prefix << "p50_ttft," << tier.p50Ttft << '\n';
        out << prefix << "p99_ttft," << tier.p99Ttft << '\n';
        out << prefix << "p50_ttlt," << tier.p50Ttlt << '\n';
        out << prefix << "p99_ttlt," << tier.p99Ttlt << '\n';
        out << prefix << "tbt_miss_rate," << tier.tbtMissRate << '\n';
    }
}

std::vector<RecordsCsvRow>
readRecordsCsv(std::istream &in)
{
    std::vector<RecordsCsvRow> rows;
    CsvReader csv(in, "records", kRecordsHeader);
    while (csv.next()) {
        RecordsCsvRow row;
        row.id = csv.number<std::uint64_t>(0);
        row.arrival = csv.number<double>(1);
        row.promptTokens = csv.number<std::int64_t>(2);
        row.decodeTokens = csv.number<std::int64_t>(3);
        row.tierId = csv.number<int>(4);
        row.important = csv.number<int>(5) != 0;
        row.ttft = csv.number<double>(6);
        row.ttlt = csv.number<double>(7);
        row.maxTbt = csv.number<double>(8);
        row.tbtMisses = csv.number<std::int64_t>(9);
        row.violated = csv.number<int>(10) != 0;
        row.relegated = csv.number<int>(11) != 0;
        row.kvPreemptions = csv.number<std::int64_t>(12);
        row.retries = csv.number<int>(13);
        row.retryExhausted = csv.number<int>(14) != 0;
        rows.push_back(row);
    }
    return rows;
}

std::vector<RecordsCsvRow>
readRecordsCsvFile(const std::string &path)
{
    return readArtefactFile(path, "records", readRecordsCsv);
}

void
printSummary(const RunSummary &summary, const TierTable &tiers,
             std::ostream &out)
{
    out << std::fixed << std::setprecision(3);
    out << "requests: " << summary.count << "\n";
    out << "violations: " << 100.0 * summary.violationRate
        << "% (with TBT: " << 100.0 * summary.violationRateWithTbt
        << "%), important: " << 100.0 * summary.importantViolationRate
        << "%\n";
    out << "short/long violations: "
        << 100.0 * summary.shortViolationRate << "% / "
        << 100.0 * summary.longViolationRate << "%\n";
    out << "relegated: " << 100.0 * summary.relegatedFraction << "%\n";
    if (summary.hasFaultActivity()) {
        out << "availability: " << 100.0 * summary.availability
            << "% (retry-exhausted "
            << 100.0 * summary.retryExhaustedFraction
            << "%), mean retries: " << summary.meanRetries
            << ", failure-attributed violations: "
            << 100.0 * summary.failureViolationRate << "%\n";
    }
    if (summary.hasPrefixActivity()) {
        out << "prefix cache: " << 100.0 * summary.prefixHitFraction
            << "% of requests hit, "
            << 100.0 * summary.prefixTokensSavedFraction
            << "% of prompt tokens reused (mean "
            << summary.meanCachedPrefixTokens << " tokens/request)\n";
    }
    out << "headline latency p50/p95/p99: " << summary.p50Latency
        << " / " << summary.p95Latency << " / " << summary.p99Latency
        << " s\n";
    for (const TierSummary &tier : summary.tiers) {
        const QosTier &def = tiers[tier.tierId];
        out << "  " << def.name << ": n=" << tier.count;
        if (def.interactive) {
            out << " ttft p50/p99 " << tier.p50Ttft << "/"
                << tier.p99Ttft << " s (slo " << def.ttftSlo << " s)";
        } else {
            out << " ttlt p50/p99 " << tier.p50Ttlt << "/"
                << tier.p99Ttlt << " s (slo " << def.ttltSlo << " s)";
        }
        out << " viol " << 100.0 * tier.violationRate << "%\n";
    }
}

} // namespace qoserve
