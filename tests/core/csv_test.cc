/**
 * @file
 * Tests for the shared strict CSV reader, number parsers, row writer
 * and artefact-file helpers, and for the strictness every artefact
 * reader inherits from them.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "metrics/report_io.hh"
#include "obs/critical_path.hh"
#include "obs/quantile_sketch.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_sink.hh"
#include "simcore/rng.hh"
#include "workload/qos.hh"
#include "workload/trace_io.hh"

namespace qoserve {
namespace {

TEST(Csv, ParseNumberTakesOnlyTheWholeField)
{
    EXPECT_EQ(parseNumber<double>("1.5"), 1.5);
    EXPECT_EQ(parseNumber<double>("-2e3"), -2000.0);
    EXPECT_EQ(parseNumber<double>("inf"),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(parseNumber<std::int64_t>("-7"), -7);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());

    for (const char *bad : {"", " 1", "1 ", "+1", "1.5x", "0x10", "1e400"})
        EXPECT_FALSE(parseNumber<double>(bad)) << "'" << bad << "'";
    for (const char *bad : {"", "1.5", "12x", "9223372036854775808"})
        EXPECT_FALSE(parseNumber<std::int64_t>(bad)) << "'" << bad << "'";
    for (const char *bad : {"-3", "-0", "1.0", "18446744073709551616"})
        EXPECT_FALSE(parseNumber<std::uint64_t>(bad)) << "'" << bad << "'";
    EXPECT_FALSE(parseNumber<int>("2147483648"));
}

TEST(Csv, SplitKeepsEveryEmptyField)
{
    EXPECT_EQ(splitCsv("a,,b,"),
              (std::vector<std::string>{"a", "", "b", ""}));
    EXPECT_EQ(splitCsv(""), (std::vector<std::string>{""}));
    EXPECT_EQ(splitCsv("1:2;", ';'),
              (std::vector<std::string>{"1:2", ""}));
}

TEST(Csv, ReaderStripsCrAndChecksEveryRow)
{
    std::istringstream in("a,b\r\n1,x\r\n2,y\n");
    CsvReader csv(in, "demo", "a,b");
    ASSERT_TRUE(csv.next());
    EXPECT_EQ(csv.number<int>(0), 1);
    EXPECT_EQ(csv.field(1), "x");
    ASSERT_TRUE(csv.next());
    EXPECT_EQ(csv.number<int>(0), 2);
    EXPECT_FALSE(csv.next());
}

/** What a RowWriter at @p precision writes for @p v alone. */
template <typename T>
std::string
written(const T &v, int precision = 6)
{
    std::ostringstream out;
    RowWriter(out, precision) << v;
    return out.str();
}

std::string
streamed(double v, int precision)
{
    std::ostringstream out;
    out << std::setprecision(precision) << v;
    return out.str();
}

std::string
printedFixed3(double v)
{
    char buf[400]; // DBL_MAX has 309 integer digits
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/** Expect the %g and %.3f contracts for @p v. */
void
expectStreamBytes(double v)
{
    std::ostringstream fresh;
    fresh << v;
    EXPECT_EQ(written(v), fresh.str()) << std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(written(v, 17), streamed(v, 17))
        << std::bit_cast<std::uint64_t>(v);
    EXPECT_EQ(written(FixedDecimals{v, 3}), printedFixed3(v))
        << std::bit_cast<std::uint64_t>(v);
}

TEST(RowWriter, DoublesHaveTheBytesOfStreamAndPrintf)
{
    using Limits = std::numeric_limits<double>;
    for (double v : {0.0, -0.0, Limits::denorm_min(), Limits::max(),
                     Limits::lowest(), 1e-5, 1e15, 1e16, 1e21, 0.1,
                     Limits::infinity(), -Limits::infinity(),
                     Limits::quiet_NaN(), -Limits::quiet_NaN()})
        expectStreamBytes(v);
    EXPECT_EQ(written(0.1, 17), "0.10000000000000001");
    EXPECT_EQ(written(FixedDecimals{1234.5678, 3}), "1234.568");

    Rng rng(15);
    for (int i = 0; i < 10000; ++i)
        expectStreamBytes(std::bit_cast<double>(rng.nextU64()));
}

TEST(RowWriter, IntegersAreExact)
{
    EXPECT_EQ(written(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(written(std::numeric_limits<std::uint64_t>::max()),
              "18446744073709551615");
    EXPECT_EQ(written(-1), "-1");
    EXPECT_EQ(written('x'), "x");
}

TEST(RowWriter, RowsLongerThanTheBufferComeOutIntact)
{
    // Numbers and text fields, one text field wider than the buffer.
    std::ostringstream expected;
    expected << std::setprecision(17);
    std::ostringstream out;
    {
        RowWriter row(out, 17);
        const std::string wide(RowWriter::kBufferBytes + 100, 'w');
        row << wide;
        expected << wide;
        for (int i = 0; expected.tellp() < 3 * static_cast<std::streamoff>(
                                                  RowWriter::kBufferBytes);
             ++i) {
            row << ",col" << i << ',' << 0.1 * i;
            expected << ",col" << i << ',' << 0.1 * i;
        }
        row << '\n';
        expected << '\n';
    }
    EXPECT_EQ(out.str(), expected.str());
}

TEST(RowWriter, IgnoresTheStreamFormatState)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(2);
    RowWriter(out) << 0.1 << ',' << 1e21;
    EXPECT_EQ(out.str(), "0.1,1e+21");
    EXPECT_EQ(out.precision(), 2);
    EXPECT_TRUE(out.flags() & std::ios_base::fixed);
}

TEST(RowWriter, EveryWriterIgnoresTheStreamFormatState)
{
    // One small artefact per writer, with values that fixed notation
    // at two decimals would print differently.
    RunSummary summary;
    summary.count = 3;
    summary.violationRate = 1.0 / 3.0;
    summary.p99Latency = 1.25e-7;
    summary.tiers.push_back({});
    summary.tiers.back().p99Ttlt = 12345678.9;

    Trace trace;
    RequestSpec spec;
    spec.arrival = SimTime{0.1};
    spec.promptTokens = 7;
    trace.requests.push_back(spec);

    QuantileSketch sketch;
    sketch.insert(0.123456789);
    const std::map<std::string, QuantileSketch> bank = {{"ttft", sketch}};

    CriticalAggregate agg;
    agg.totalSeconds = 0.1;
    agg.requests = 2;
    agg.cells[{1, 0}] = {0.3, 1};

    TraceSink sink;
    sink.emit({TraceEventKind::Arrival, SimTime{0.7}, 1, -1, 0, 0.25});

    const std::vector<std::function<void(std::ostream &)>> writers = {
        [&](std::ostream &o) { writeSummaryCsv(summary, o); },
        [&](std::ostream &o) { writeTraceCsv(trace, o); },
        [&](std::ostream &o) { writeSketchBankCsv(bank, o); },
        [&](std::ostream &o) {
            writeAlertsCsv({{0, SimTime{1.5}, kTimeNever, 2.0 / 3.0}}, o);
        },
        [&](std::ostream &o) { writeCriticalAggregateCsv(agg, o); },
        [&](std::ostream &o) { sink.writeCsv(o); },
    };
    for (std::size_t i = 0; i < writers.size(); ++i) {
        std::ostringstream fresh;
        writers[i](fresh);
        std::ostringstream preset;
        preset << std::fixed << std::setprecision(2);
        const std::ios_base::fmtflags flags = preset.flags();
        writers[i](preset);
        EXPECT_EQ(preset.str(), fresh.str()) << "writer " << i;
        EXPECT_EQ(preset.flags(), flags) << "writer " << i;
        EXPECT_EQ(preset.precision(), 2) << "writer " << i;
        EXPECT_EQ(fresh.precision(), 6) << "writer " << i;
    }
}

TEST(CsvDeathTest, ReaderErrorsNameArtefactLineAndField)
{
    auto read = [](const std::string &text) {
        std::istringstream in(text);
        CsvReader csv(in, "demo", "a,b");
        while (csv.next())
            csv.number<double>(1);
    };
    EXPECT_DEATH(read(""), "demo CSV line 1: empty input \\(missing header\\)");
    EXPECT_DEATH(read("a,c\n"),
                 "demo CSV line 1: unexpected header: 'a,c', expected 'a,b'");
    EXPECT_DEATH(read("a,b\n1,2\n\n"), "demo CSV line 3: empty line");
    EXPECT_DEATH(read("a,b\n1,2,3\n"),
                 "demo CSV line 2: expected 2 fields, got 3: '1,2,3'");
    EXPECT_DEATH(read("a,b\n1,2\n1,2z\n"),
                 "demo CSV line 3: field 'b': not a number: '2z'");
}

TEST(CsvDeathTest, RequireNumberNamesItsContext)
{
    EXPECT_DEATH(requireNumber<double>("abc", "flag ", "--x"),
                 "flag --x: not a number: 'abc'");
    EXPECT_DEATH(requireNumber<std::uint64_t>("-1", "flag ", "--seed"),
                 "flag --seed: not an unsigned integer: '-1'");
}

TEST(CsvDeathTest, ArtefactFileErrorsAreFatal)
{
    auto noop = [](std::ostream &) {};
    EXPECT_DEATH(writeArtefactFile("/nonexistent/dir/x.csv", "demo", noop),
                 "cannot open demo file for writing: /nonexistent");
    // The final flush fails on a full device; that must not pass
    // silently.
    EXPECT_DEATH(writeArtefactFile("/dev/full", "demo",
                                   [](std::ostream &out) { out << "x"; }),
                 "error writing demo file: /dev/full");
    EXPECT_DEATH(readArtefactFile("/nonexistent/x.csv", "demo",
                                  [](std::istream &) { return 0; }),
                 "cannot open demo file for reading: /nonexistent");
}

TEST(CsvDeathTest, EveryReaderRejectsATrailingEmptyField)
{
    // Each row is valid except for one extra trailing comma, which
    // makes an empty last field and one field too many.
    auto feed = [](auto read, const std::string &text) {
        std::istringstream in(text);
        read(in);
    };
    EXPECT_DEATH(feed(readAlertsCsv, "tier,raised,cleared,peak_burn\n"
                                     "0,1.5,2.5,3,\n"),
                 "alert CSV line 2: expected 4 fields, got 5");
    EXPECT_DEATH(feed([](std::istream &in) { readTraceCsv(in); },
                      "event,time,request,replica,arg,value\n"
                      "arrival,1,0,-1,0,0,\n"),
                 "trace CSV line 2: expected 6 fields, got 7");
    EXPECT_DEATH(feed(readSketchBankCsv, "sketch,field,value\n"
                                         "a,alpha,0.01,\n"),
                 "sketch CSV line 2: expected 3 fields, got 4");
    EXPECT_DEATH(feed(readCriticalAggregateCsv,
                      "phase,replica,seconds,dominant_requests\n"
                      "total,-1,1.0,1,\n"),
                 "critical-path CSV line 2: expected 4 fields, got 5");
    EXPECT_DEATH(feed(readRecordsCsv,
                      "id,arrival,prompt_tokens,decode_tokens,tier_id,"
                      "important,ttft,ttlt,max_tbt,tbt_misses,violated,"
                      "relegated,kv_preemptions,retries,retry_exhausted\n"
                      "0,0,10,5,0,1,1,2,0.1,0,0,0,0,0,0,\n"),
                 "records CSV line 2: expected 15 fields, got 16");
    EXPECT_DEATH(feed([](std::istream &in) {
                          readTraceCsv(in, paperTierTable());
                      },
                      "id,arrival,prompt_tokens,decode_tokens,tier_id,"
                      "important,app_id\n"
                      "0,1.0,100,10,0,1,0,\n"),
                 "workload trace CSV line 2: expected 7 fields, got 8");
}

} // namespace
} // namespace qoserve
