/**
 * @file
 * Tests for the multi-window SLO burn-rate monitor: raise/clear
 * episodes, the both-windows rule, daemon cadence semantics, trace
 * emission, and the alert CSV round trip.
 */

#include "obs/slo_monitor.hh"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/trace_event.hh"

namespace qoserve {
namespace {

/** A monitor tuned for tiny tests: alert when half the requests in
 *  both a 10 s and a 20 s window violate. */
SloMonitorConfig
tightConfig()
{
    SloMonitorConfig cfg;
    cfg.budget = 0.5;
    cfg.burn = 1.0;
    cfg.shortWindow = 10.0;
    cfg.longWindow = 20.0;
    cfg.interval = 5.0;
    return cfg;
}

TEST(SloMonitor, RaisesAndClearsOneEpisode)
{
    EventQueue eq;
    SloMonitor mon(eq, TraceScope{}, tightConfig());

    // One observation per second: violations through t = 30, then
    // clean through t = 60. These are *real* events, so the daemon
    // cadence keeps evaluating across the whole span.
    for (int t = 1; t <= 60; ++t) {
        eq.schedule(SimTime{static_cast<double>(t)}, [&mon, t] {
            mon.observe(0, SimTime{static_cast<double>(t)}, t <= 30);
        });
    }
    mon.start();
    eq.run();

    // Raised at the first tick with data (t = 5: rate 1.0 against a
    // 0.5 budget in both windows), cleared at t = 40 (the first tick
    // whose 10 s window holds only clean outcomes).
    ASSERT_EQ(mon.alerts().size(), 1u);
    const SloAlert &a = mon.alerts()[0];
    EXPECT_EQ(a.tier, 0);
    EXPECT_EQ(a.raised, SimTime{5.0});
    EXPECT_EQ(a.cleared, SimTime{40.0});
    EXPECT_DOUBLE_EQ(a.peakBurn, 2.0);
    EXPECT_TRUE(mon.activeTiers().empty());
}

TEST(SloMonitor, BothWindowsMustBurnBeforeRaising)
{
    // A short burst: violations only in t = (20, 25]. The short
    // window saturates but the long window never reaches the
    // threshold, so no alert fires (the SRE multi-window rule).
    EventQueue eq;
    SloMonitor mon(eq, TraceScope{}, tightConfig());
    for (int t = 1; t <= 60; ++t) {
        eq.schedule(SimTime{static_cast<double>(t)}, [&mon, t] {
            mon.observe(0, SimTime{static_cast<double>(t)},
                        t > 20 && t <= 25);
        });
    }
    mon.start();
    eq.run();

    EXPECT_TRUE(mon.alerts().empty());
    EXPECT_GT(mon.ticks(), 0u);
}

TEST(SloMonitor, TiersAlertIndependently)
{
    EventQueue eq;
    SloMonitor mon(eq, TraceScope{}, tightConfig());
    for (int t = 1; t <= 40; ++t) {
        eq.schedule(SimTime{static_cast<double>(t)}, [&mon, t] {
            SimTime now{static_cast<double>(t)};
            mon.observe(0, now, true);  // tier 0 always violating
            mon.observe(1, now, false); // tier 1 always healthy
        });
    }
    mon.start();
    eq.run();

    ASSERT_EQ(mon.alerts().size(), 1u);
    EXPECT_EQ(mon.alerts()[0].tier, 0);
    // Tier 0 never recovered: the episode is open at drain.
    EXPECT_EQ(mon.alerts()[0].cleared, kTimeNever);
    EXPECT_EQ(mon.activeTiers(), std::vector<int>{0});
}

TEST(SloMonitor, EmitsTypedAlertEventsIntoTheSink)
{
    EventQueue eq;
    TraceSink sink;
    SloMonitor mon(eq, TraceScope{&sink, &eq, -1}, tightConfig());
    for (int t = 1; t <= 60; ++t) {
        eq.schedule(SimTime{static_cast<double>(t)}, [&mon, t] {
            mon.observe(2, SimTime{static_cast<double>(t)}, t <= 30);
        });
    }
    mon.start();
    eq.run();

    std::vector<TraceEvent> alerts;
    for (const TraceEvent &ev : sink.events()) {
        if (ev.kind == TraceEventKind::AlertRaised ||
            ev.kind == TraceEventKind::AlertCleared)
            alerts.push_back(ev);
    }
    ASSERT_EQ(alerts.size(), 2u);
    EXPECT_EQ(alerts[0].kind, TraceEventKind::AlertRaised);
    EXPECT_EQ(alerts[0].time, SimTime{5.0});
    EXPECT_EQ(alerts[0].arg, 2); // arg carries the tier
    EXPECT_DOUBLE_EQ(alerts[0].value, 2.0); // short-window burn
    EXPECT_EQ(alerts[1].kind, TraceEventKind::AlertCleared);
    EXPECT_EQ(alerts[1].time, SimTime{40.0});
    EXPECT_EQ(alerts[1].arg, 2);
}

TEST(SloMonitor, DaemonCadenceNeverKeepsTheRunAlive)
{
    // A run whose only real event fires at t = 1: the monitor ticks
    // at 0, then once more after the last real event, sees no real
    // work, and stops rearming. A naive self-rescheduling observer
    // would keep the queue alive forever.
    EventQueue eq;
    SloMonitor mon(eq, TraceScope{}, tightConfig());
    eq.schedule(SimTime{1.0},
                [&mon] { mon.observe(0, SimTime{1.0}, false); });
    mon.start();
    eq.run();

    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(mon.ticks(), 2u);
}

TEST(SloMonitorDeathTest, RejectsBadPolicies)
{
    EventQueue eq;
    SloMonitorConfig cfg = tightConfig();
    cfg.budget = 0.0;
    EXPECT_DEATH(SloMonitor(eq, TraceScope{}, cfg), "budget");
    cfg = tightConfig();
    cfg.shortWindow = 30.0; // longer than the 20 s long window
    EXPECT_DEATH(SloMonitor(eq, TraceScope{}, cfg), "long window");
    cfg = tightConfig();
    cfg.interval = -1.0;
    EXPECT_DEATH(SloMonitor(eq, TraceScope{}, cfg), "interval");
}

TEST(SloMonitorDeathTest, OutOfOrderObservationsPanic)
{
    EventQueue eq;
    SloMonitor mon(eq, TraceScope{}, tightConfig());
    mon.observe(0, SimTime{2.0}, false);
    EXPECT_DEATH(mon.observe(0, SimTime{1.0}, false), "precedes");
}

TEST(SloMonitor, AlertCsvRoundTripsExactly)
{
    std::vector<SloAlert> alerts;
    alerts.push_back({0, SimTime{5.0}, SimTime{40.0}, 2.0});
    alerts.push_back({2, SimTime{12.5}, kTimeNever, 1.4375});

    std::ostringstream out;
    writeAlertsCsv(alerts, out);
    std::istringstream in(out.str());
    std::vector<SloAlert> back = readAlertsCsv(in);

    ASSERT_EQ(back.size(), alerts.size());
    EXPECT_TRUE(back[0] == alerts[0]);
    EXPECT_TRUE(back[1] == alerts[1]); // `inf` cleared round-trips

    std::ostringstream out2;
    writeAlertsCsv(back, out2);
    EXPECT_EQ(out.str(), out2.str());
}

TEST(SloMonitorDeathTest, MalformedAlertCsvIsFatal)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        readAlertsCsv(in);
    };
    EXPECT_DEATH(parse("wrong,header\n"), "header");
    EXPECT_DEATH(parse("tier,raised,cleared,peak_burn\n"
                       "0,1.0\n"),
                 "4 fields");
    EXPECT_DEATH(parse("tier,raised,cleared,peak_burn\n"
                       "0,abc,2.0,1.0\n"),
                 "not a number");
}

TEST(SloMonitorDeathTest, FractionalAlertTierIsFatal)
{
    // A tier is an integer: "1.7" must not truncate to tier 1.
    std::istringstream in("tier,raised,cleared,peak_burn\n"
                          "1.7,1.0,2.0,3.0\n");
    EXPECT_DEATH(readAlertsCsv(in),
                 "alert CSV line 2: field 'tier': not an integer: '1.7'");
}

} // namespace
} // namespace qoserve
