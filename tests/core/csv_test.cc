/**
 * @file
 * Tests for the shared strict CSV reader, number parsers and
 * artefact-file helpers, and for the strictness every artefact reader
 * inherits from them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "metrics/report_io.hh"
#include "obs/critical_path.hh"
#include "obs/quantile_sketch.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_sink.hh"
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
    EXPECT_DEATH(feed(readSummaryCsv, "metric,value\ncount,1,\n"),
                 "summary CSV line 2: expected 2 fields, got 3");
    EXPECT_DEATH(feed(readRollingCsv, "window_start,value,count\n0,1,2,\n"),
                 "rolling CSV line 2: expected 3 fields, got 4");
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
