/**
 * @file
 * Sim-time multi-window SLO burn-rate monitor (DESIGN.md §14).
 *
 * The monitor is a strictly read-only daemon observer: the driver
 * feeds it one (tier, time, violated) observation per completed
 * request outcome, and a daemon cadence on the event queue evaluates
 * each tier's error-budget *burn rate* — the observed violation
 * fraction divided by the tier's violation budget — over a short and
 * a long sliding window. An alert is raised only when BOTH windows
 * burn at or above the configured threshold (the SRE multi-window
 * trick: the long window keeps one bad burst from paging, the short
 * window makes recovery clear the alert quickly), and cleared when
 * either window drops back below it.
 *
 * Alerts become typed AlertRaised/AlertCleared trace events (arg =
 * tier, value = short-window burn rate) plus an in-memory alert log
 * serializable as CSV for qoserve_report. Because every tick is a
 * daemon event and rescheduling consults hasRealWork(), a monitored
 * run never lives one event longer than an unmonitored one — and
 * since the monitor only reads observations, the records/summary
 * CSVs are byte-identical either way (tested in obs_e2e).
 */

#ifndef QOSERVE_OBS_SLO_MONITOR_HH
#define QOSERVE_OBS_SLO_MONITOR_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_sink.hh"
#include "simcore/event_queue.hh"

namespace qoserve {

/**
 * Burn-rate alerting policy. Defaults follow the SRE-workbook fast
 * page: 1% budget burned at 14.4x over 5 min AND 1 h of sim time.
 */
struct SloMonitorConfig
{
    /** Allowed violation fraction per tier (the error budget). */
    double budget = 0.01;

    /** Burn-rate threshold: alert when violations/budget reaches
     *  this multiple in both windows. */
    double burn = 14.4;

    /** Short sliding window (seconds of sim time). */
    SimDuration shortWindow = 300.0;

    /** Long sliding window (seconds of sim time). */
    SimDuration longWindow = 3600.0;

    /** Evaluation cadence (seconds of sim time). */
    SimDuration interval = 10.0;
};

/**
 * One raised-alert episode. `cleared` is kTimeNever while the alert
 * was still active when the run drained.
 */
struct SloAlert
{
    int tier = 0;
    SimTime raised;
    SimTime cleared = kTimeNever;
    double peakBurn = 0.0; ///< Max short-window burn while active.

    bool
    operator==(const SloAlert &o) const
    {
        return tier == o.tier && raised == o.raised &&
               cleared == o.cleared && peakBurn == o.peakBurn;
    }
};

/**
 * The monitor itself. Feed with observe(); start() arms the cadence.
 */
class SloMonitor
{
  public:
    /** @p eq and the scope's sink must outlive the monitor. The
     *  scope may be off (no sink) — alerts then only reach the log.
     *  Panics on non-positive windows/interval/budget/burn and on a
     *  short window longer than the long one. */
    SloMonitor(EventQueue &eq, TraceScope scope, SloMonitorConfig cfg);

    /**
     * Record one request outcome for @p tier at @p when. Observations
     * must arrive in non-decreasing time (panics otherwise); @p when
     * may not precede the clock the evaluator runs on.
     */
    void observe(int tier, SimTime when, bool violated);

    /** Schedule the first evaluation at the current simulation time. */
    void start();

    /** Evaluation ticks fired so far. */
    std::uint64_t ticks() const { return ticks_; }

    /** Tiers whose alert is currently active, ascending. */
    std::vector<int> activeTiers() const;

    /** Every alert episode, in raise order. */
    const std::vector<SloAlert> &alerts() const { return alerts_; }

  private:
    /** One tier's observation window and alert state. */
    struct TierState
    {
        std::deque<std::pair<SimTime, bool>> window;
        bool active = false;
        std::size_t openAlert = 0; ///< Index into alerts_ when active.
    };

    /** Violations/total over (now - span, now], as a burn rate. */
    double burnOver(const TierState &st, SimTime now,
                    SimDuration span) const;

    void tick();

    EventQueue &eq_;
    TraceScope scope_;
    SloMonitorConfig cfg_;
    std::map<int, TierState> tiers_;
    std::vector<SloAlert> alerts_;
    SimTime lastObserved_;
    std::uint64_t ticks_ = 0;
};

/**
 * Write an alert log as CSV (`tier,raised,cleared,peak_burn`, times
 * at max_digits10 so the round trip is exact; `cleared` is `inf` for
 * alerts still active at drain).
 */
void writeAlertsCsv(const std::vector<SloAlert> &alerts,
                    std::ostream &out);

/** Write the alert CSV to a file (fatal on error). */
void writeAlertsCsvFile(const std::vector<SloAlert> &alerts,
                        const std::string &path);

/**
 * Parse an alert CSV written by writeAlertsCsv. Fatal (with the
 * 1-based line number) on malformed input.
 */
std::vector<SloAlert> readAlertsCsv(std::istream &in);

/** Read an alert CSV from a file (fatal on error). */
std::vector<SloAlert> readAlertsCsvFile(const std::string &path);

} // namespace qoserve

#endif // QOSERVE_OBS_SLO_MONITOR_HH
