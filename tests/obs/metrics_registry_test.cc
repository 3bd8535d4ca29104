/**
 * @file
 * Tests for the metrics registry, histogram cells, and the sim-time
 * sampler.
 */

#include "obs/metrics_registry.hh"

#include <gtest/gtest.h>

#include <sstream>

namespace qoserve {
namespace {

TEST(MetricsHistogram, CumulativeBucketsAndTotals)
{
    MetricsHistogram h({1.0, 4.0, 16.0});
    for (double v : {0.5, 1.0, 3.0, 20.0})
        h.observe(v);
    // Per bucket: <= 1, (1, 4], (4, 16], +inf.
    EXPECT_EQ(h.bucketCounts(), (std::vector<std::int64_t>{2, 1, 0, 1}));
    EXPECT_EQ(h.count(), 4);
    EXPECT_EQ(h.sum(), 24.5);
}

TEST(MetricsHistogramDeathTest, NonAscendingBoundsPanic)
{
    EXPECT_DEATH(MetricsHistogram({1.0, 1.0}), "strictly ascending");
}

TEST(MetricsRegistry, CellsCreateAtZeroAndPersist)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.counter("requests"), 0);
    reg.counter("requests") += 3;
    EXPECT_EQ(reg.counter("requests"), 3);
    reg.gauge("depth") = 2.5;
    EXPECT_EQ(reg.gauge("depth"), 2.5);
    // Later histogram() calls ignore the bounds argument.
    reg.histogram("occ", {1.0, 2.0}).observe(1.5);
    EXPECT_EQ(reg.histogram("occ", {99.0}).count(), 1);
}

TEST(MetricsRegistry, CsvColumnsAreNameOrderedWithHistogramExpansion)
{
    MetricsRegistry reg;
    reg.gauge("z_depth") = 1.0;
    reg.counter("a_count") = 2;
    reg.histogram("m_occ", {1.0, 4.0}).observe(3.0);
    reg.snapshot(SimTime{0.0});

    std::stringstream out;
    reg.writeCsv(out);
    std::string header;
    ASSERT_TRUE(std::getline(out, header));
    EXPECT_EQ(header,
              "time,a_count,m_occ_count,m_occ_le_1,m_occ_le_4,"
              "m_occ_le_inf,m_occ_sum,z_depth");
    std::string row;
    ASSERT_TRUE(std::getline(out, row));
    EXPECT_EQ(row, "0,2,1,0,1,1,3,1");
}

TEST(MetricsRegistry, LateRegisteredCellsBackfillZero)
{
    MetricsRegistry reg;
    reg.gauge("early") = 1.0;
    reg.snapshot(SimTime{0.0});
    reg.gauge("late") = 5.0;
    reg.snapshot(SimTime{1.0});

    std::stringstream out;
    reg.writeCsv(out);
    std::string line;
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line, "time,early,late");
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line, "0,1,0"); // `late` backfills as 0
    ASSERT_TRUE(std::getline(out, line));
    EXPECT_EQ(line, "1,1,5");
}

TEST(MetricsRegistry, CsvBytesOfAMixedRegistryArePinned)
{
    // Two histograms (one registered mid-run), a late counter, and
    // names shared across kinds: counter and gauge `shared`, and a
    // gauge `lat_sum` that collides with histogram `lat`'s sum column.
    // On a collision the histogram's write wins over the gauge's, and
    // the gauge's over the counter's.
    MetricsRegistry reg;
    reg.counter("shared") = 7;
    reg.gauge("shared") = 0.25;
    reg.gauge("lat_sum") = 99.0;
    reg.gauge("depth") = 1.0 / 3.0;
    MetricsHistogram &lat = reg.histogram("lat", {0.5, 2.0, 8.0});
    lat.observe(0.1);
    lat.observe(3.0);
    reg.snapshot(SimTime{0.0});

    reg.counter("late") = 4;
    reg.histogram("occ", {1.0}).observe(1.0);
    lat.observe(0.5);
    lat.observe(100.0);
    reg.gauge("depth") = -2.5;
    reg.snapshot(SimTime{1.5});

    reg.counter("shared") = 9;
    reg.gauge("shared") = 1e-7;
    reg.histogram("occ", {}).observe(2.0);
    reg.snapshot(SimTime{10.0 / 3.0});

    std::stringstream out;
    reg.writeCsv(out);
    EXPECT_EQ(out.str(),
              "time,depth,lat_count,lat_le_0.5,lat_le_2,lat_le_8,"
              "lat_le_inf,lat_sum,late,occ_count,occ_le_1,occ_le_inf,"
              "occ_sum,shared\n"
              "0,0.33333333333333331,2,1,1,2,2,3.1000000000000001,0,0,0,0,"
              "0,0.25\n"
              "1.5,-2.5,4,2,2,3,4,103.59999999999999,4,1,1,1,1,0.25\n"
              "3.3333333333333335,-2.5,4,2,2,3,4,103.59999999999999,4,2,1,"
              "2,3,9.9999999999999995e-08\n");
}

TEST(MetricsSampler, SamplesOnCadenceAndStopsWithTheSimulation)
{
    EventQueue eq;
    MetricsRegistry reg;
    // The "simulation": events at t = 0.5, 3.5, 9.0.
    int work = 0;
    for (SimTime t : {SimTime{0.5}, SimTime{3.5}, SimTime{9.0}})
        eq.schedule(t, [&] { ++work; });

    MetricsSampler sampler(eq, reg, 2.0, [&](MetricsRegistry &r,
                                             SimTime) {
        r.gauge("work") = static_cast<double>(work);
    });
    sampler.start();
    eq.run();

    EXPECT_EQ(work, 3);
    // Samples at 0, 2, 4, 6, 8, 10; the t=10 firing finds the queue
    // empty and stops rearming — the cadence never outlives the run.
    EXPECT_EQ(sampler.samples(), 6u);
    EXPECT_EQ(reg.snapshots(), 6u);
    EXPECT_TRUE(eq.empty());
}

TEST(MetricsSamplerDeathTest, NonPositiveIntervalPanics)
{
    EventQueue eq;
    MetricsRegistry reg;
    EXPECT_DEATH(
        MetricsSampler(eq, reg, 0.0, [](MetricsRegistry &, SimTime) {}),
        "must be positive");
}

} // namespace
} // namespace qoserve
