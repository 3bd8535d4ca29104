/**
 * @file
 * Tests for arrival processes.
 */

#include "workload/arrival.hh"

#include <gtest/gtest.h>

#include <vector>

namespace qoserve {
namespace {

std::vector<SimTime>
generate(const ArrivalProcess &proc, Rng &rng, int count)
{
    std::vector<SimTime> out;
    SimTime t;
    for (int i = 0; i < count; ++i) {
        t = proc.nextArrival(t, rng);
        out.push_back(t);
    }
    return out;
}

TEST(PoissonArrivals, StrictlyIncreasing)
{
    PoissonArrivals proc(5.0);
    Rng rng(1);
    auto times = generate(proc, rng, 1000);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]);
}

TEST(PoissonArrivals, RateMatchesQps)
{
    PoissonArrivals proc(4.0);
    Rng rng(2);
    auto times = generate(proc, rng, 40000);
    double rate = 40000.0 / times.back().seconds();
    EXPECT_NEAR(rate, 4.0, 0.1);
}

TEST(PoissonArrivals, AverageQpsReported)
{
    EXPECT_DOUBLE_EQ(PoissonArrivals(3.5).averageQps(), 3.5);
}

TEST(DiurnalArrivals, PhaseRatesAlternate)
{
    DiurnalArrivals proc(2.0, 5.0, 900.0);
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{0.0}), 2.0);
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{899.9}), 2.0);
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{900.1}), 5.0);
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{1800.5}), 2.0);

    DiurnalArrivals high_first(2.0, 5.0, 900.0, true);
    EXPECT_DOUBLE_EQ(high_first.qpsAt(SimTime{0.0}), 5.0);
}

TEST(DiurnalArrivals, EmpiricalRatesPerPhase)
{
    DiurnalArrivals proc(2.0, 8.0, 1000.0);
    Rng rng(3);
    int low = 0, high = 0;
    SimTime t;
    while (t < SimTime{20000.0}) {
        t = proc.nextArrival(t, rng);
        if (t >= SimTime{20000.0})
            break;
        auto phase = static_cast<std::int64_t>(t.seconds() / 1000.0);
        (phase % 2 == 0 ? low : high) += 1;
    }
    // 10 low phases at 2 QPS and 10 high phases at 8 QPS.
    EXPECT_NEAR(low / 10000.0, 2.0, 0.25);
    EXPECT_NEAR(high / 10000.0, 8.0, 0.5);
}

TEST(DiurnalArrivals, AverageQpsIsMidpoint)
{
    DiurnalArrivals proc(2.0, 5.0, 900.0);
    EXPECT_DOUBLE_EQ(proc.averageQps(), 3.5);
}

TEST(BurstArrivals, RateElevatedOnlyInWindow)
{
    BurstArrivals proc(1.0, 10.0, SimTime{100.0}, SimTime{200.0});
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{50.0}), 1.0);
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{150.0}), 10.0);
    EXPECT_DOUBLE_EQ(proc.qpsAt(SimTime{250.0}), 1.0);
}

TEST(BurstArrivals, BurstDensityObserved)
{
    BurstArrivals proc(1.0, 20.0, SimTime{500.0}, SimTime{600.0});
    Rng rng(4);
    int in_burst = 0, outside = 0;
    SimTime t;
    while (t < SimTime{1000.0}) {
        t = proc.nextArrival(t, rng);
        if (t >= SimTime{1000.0})
            break;
        (t >= SimTime{500.0} && t < SimTime{600.0} ? in_burst : outside) += 1;
    }
    EXPECT_NEAR(in_burst, 2000, 300);  // 100 s at 20 QPS
    EXPECT_NEAR(outside, 900, 150);    // 900 s at 1 QPS
}

TEST(BurstArrivals, CrossingTheBoundaryIsExact)
{
    // Arrivals generated just before the window must land inside it
    // at the burst rate, not leak past it at the base rate.
    BurstArrivals proc(0.001, 50.0, SimTime{10.0}, SimTime{20.0});
    Rng rng(5);
    SimTime t = proc.nextArrival(SimTime{}, rng);
    // With base rate 0.001, the first draw almost surely crosses
    // into the burst window and lands shortly after 10.0.
    EXPECT_GT(t, SimTime{10.0});
    EXPECT_LT(t, SimTime{11.0});
}

} // namespace
} // namespace qoserve
