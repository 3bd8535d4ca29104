/**
 * @file
 * Burn-rate monitor implementation and alert CSV round trip.
 */

#include "obs/slo_monitor.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

const char *const kAlertsCsvHeader = "tier,raised,cleared,peak_burn";

} // namespace

SloMonitor::SloMonitor(EventQueue &eq, TraceScope scope,
                       SloMonitorConfig cfg)
    : eq_(eq), scope_(scope), cfg_(cfg)
{
    QOSERVE_ASSERT(cfg_.budget > 0.0 && cfg_.budget <= 1.0,
                   "SLO budget must be in (0, 1], got ", cfg_.budget);
    QOSERVE_ASSERT(cfg_.burn > 0.0, "burn threshold must be positive, "
                   "got ", cfg_.burn);
    QOSERVE_ASSERT(cfg_.shortWindow > 0.0 && cfg_.longWindow > 0.0,
                   "alert windows must be positive, got ",
                   cfg_.shortWindow, " / ", cfg_.longWindow);
    QOSERVE_ASSERT(cfg_.shortWindow <= cfg_.longWindow,
                   "short window (", cfg_.shortWindow,
                   ") exceeds long window (", cfg_.longWindow, ")");
    QOSERVE_ASSERT(cfg_.interval > 0.0,
                   "alert interval must be positive, got ",
                   cfg_.interval);
}

void
SloMonitor::observe(int tier, SimTime when, bool violated)
{
    QOSERVE_ASSERT(when >= lastObserved_, "SLO observation at ", when,
                   " precedes the previous one at ", lastObserved_);
    lastObserved_ = when;
    tiers_[tier].window.emplace_back(when, violated);
}

void
SloMonitor::start()
{
    eq_.scheduleDaemon(eq_.now(), [this] { tick(); });
}

double
SloMonitor::burnOver(const TierState &st, SimTime now,
                     SimDuration span) const
{
    const SimTime cutoff = now - span;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
    // The deque is time-ordered; everything at or before the cutoff
    // has already been pruned from the long window, so only the short
    // window needs the per-entry time check.
    for (const auto &[when, violated] : st.window) {
        if (when <= cutoff)
            continue;
        ++total;
        if (violated)
            ++bad;
    }
    if (total == 0)
        return 0.0;
    const double rate =
        static_cast<double>(bad) / static_cast<double>(total);
    return rate / cfg_.budget;
}

void
SloMonitor::tick()
{
    ++ticks_;
    const SimTime now = eq_.now();
    for (auto &[tier, st] : tiers_) {
        const SimTime horizon = now - cfg_.longWindow;
        while (!st.window.empty() && st.window.front().first <= horizon)
            st.window.pop_front();
        const double shortBurn = burnOver(st, now, cfg_.shortWindow);
        const double longBurn = burnOver(st, now, cfg_.longWindow);
        const bool firing =
            shortBurn >= cfg_.burn && longBurn >= cfg_.burn;
        if (firing && !st.active) {
            st.active = true;
            st.openAlert = alerts_.size();
            alerts_.push_back({tier, now, kTimeNever, shortBurn});
            scope_.emit(TraceEventKind::AlertRaised, kNoTraceRequest,
                        tier, shortBurn);
        } else if (st.active && firing) {
            SloAlert &open = alerts_[st.openAlert];
            open.peakBurn = std::max(open.peakBurn, shortBurn);
        } else if (st.active && !firing) {
            st.active = false;
            alerts_[st.openAlert].cleared = now;
            scope_.emit(TraceEventKind::AlertCleared, kNoTraceRequest,
                        tier, shortBurn);
        }
    }
    // Observer cadence: reschedule only while the simulation still has
    // real (non-daemon) work, so the monitor never keeps a drained
    // run alive.
    if (eq_.hasRealWork())
        eq_.scheduleDaemonAfter(cfg_.interval, [this] { tick(); });
}

std::vector<int>
SloMonitor::activeTiers() const
{
    std::vector<int> out;
    for (const auto &[tier, st] : tiers_)
        if (st.active)
            out.push_back(tier);
    return out;
}

void
writeAlertsCsv(const std::vector<SloAlert> &alerts, std::ostream &out)
{
    RowWriter row(out, 17);
    row << kAlertsCsvHeader << '\n';
    for (const SloAlert &a : alerts) {
        row << a.tier << ',' << a.raised.seconds() << ','
            << a.cleared.seconds() << ',' << a.peakBurn << '\n';
    }
}

void
writeAlertsCsvFile(const std::vector<SloAlert> &alerts,
                   const std::string &path)
{
    writeArtefactFile(path, "alert", [&](std::ostream &out) {
        writeAlertsCsv(alerts, out);
    });
}

std::vector<SloAlert>
readAlertsCsv(std::istream &in)
{
    std::vector<SloAlert> alerts;
    CsvReader csv(in, "alert", kAlertsCsvHeader);
    while (csv.next()) {
        SloAlert a;
        a.tier = csv.number<int>(0);
        a.raised = SimTime{csv.number<double>(1)};
        a.cleared = SimTime{csv.number<double>(2)};
        a.peakBurn = csv.number<double>(3);
        alerts.push_back(a);
    }
    return alerts;
}

std::vector<SloAlert>
readAlertsCsvFile(const std::string &path)
{
    return readArtefactFile(path, "alert", readAlertsCsv);
}

} // namespace qoserve
