/**
 * @file
 * Offline run comparison: diff two runs' sketch banks, alert
 * timelines, and critical-path aggregates (DESIGN.md §14).
 *
 * The diff is the library half of tools/qoserve_report: it consumes
 * the artifacts two runs wrote (sketch-bank CSV, alert CSV,
 * critical-path CSV — all exact round-trippers) and produces a typed
 * comparison with *deterministic* regression flags. Determinism is
 * the point: the same two artifact sets always produce the same
 * verdict, so CI can gate on the report without flake. A sketch
 * quantile only counts as regressed when it is worse beyond the two
 * sketches' combined relative-error bounds plus the configured
 * tolerance — the sketch error can never manufacture a regression.
 */

#ifndef QOSERVE_OBS_RUN_DIFF_HH
#define QOSERVE_OBS_RUN_DIFF_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/critical_path.hh"
#include "obs/quantile_sketch.hh"
#include "obs/slo_monitor.hh"

namespace qoserve {

/** Thresholds separating noise from regression. */
struct RunDiffConfig
{
    /** Relative latency growth tolerated beyond the sketches' own
     *  error bounds (0.10 = 10% worse passes). */
    double latencyTolerance = 0.10;

    /** Absolute growth in a cell's dominant-share tolerated before a
     *  critical-path shift is flagged (fractions of 1). */
    double shareTolerance = 0.10;

    /** Percentiles compared per sketch. */
    static constexpr std::array<double, 3> kPercentiles = {50.0, 95.0,
                                                           99.0};
};

/** One compared percentile of one sketch. */
struct QuantileDelta
{
    double pct = 0.0;
    double before = 0.0;
    double after = 0.0;
    bool regressed = false;
};

/** Comparison of one sketch name across the two runs. */
struct SketchDiff
{
    std::string name;
    bool onlyBefore = false; ///< Present in run A only.
    bool onlyAfter = false;  ///< Present in run B only.
    std::uint64_t countBefore = 0;
    std::uint64_t countAfter = 0;
    std::vector<QuantileDelta> deltas;
    bool regressed = false; ///< Any delta regressed.
};

/** Comparison of one tier's alert activity. */
struct AlertDiff
{
    int tier = 0;
    std::uint64_t countBefore = 0;
    std::uint64_t countAfter = 0;
    /** Alert-active sim seconds (episodes never cleared contribute
     *  nothing here but do count above). */
    double secondsBefore = 0.0;
    double secondsAfter = 0.0;
    std::uint64_t unclearedBefore = 0;
    std::uint64_t unclearedAfter = 0;
    bool regressed = false;
};

/** Comparison of one critical-path cell's dominant share. */
struct CriticalDiff
{
    int phase = 0;
    int replica = -1;
    double shareBefore = 0.0; ///< Fraction of misses this cell led.
    double shareAfter = 0.0;
    bool regressed = false;
};

/** Everything one run wrote that the reporter can diff. Any part may
 *  be absent (empty) — the diff only compares what both runs have. */
struct RunArtifacts
{
    std::string label; ///< Shown in report headers ("baseline", ...).
    std::map<std::string, QuantileSketch> sketches;
    std::vector<SloAlert> alerts;
    CriticalAggregate critical;
    bool hasCritical = false;
};

/** The full comparison. */
struct RunDiff
{
    std::string labelBefore;
    std::string labelAfter;
    std::vector<SketchDiff> sketches;   ///< Name order.
    std::vector<AlertDiff> alerts;      ///< Tier order.
    std::vector<CriticalDiff> critical; ///< (phase, replica) order.
    bool regressed = false;             ///< Any component regressed.
};

/** Compare two runs' artifacts under @p cfg. */
RunDiff diffRuns(const RunArtifacts &before, const RunArtifacts &after,
                 const RunDiffConfig &cfg = {});

/** Render the diff as an aligned text table. */
void writeDiffText(const RunDiff &diff, std::ostream &out);

/** Render the diff as a self-contained HTML report (inline CSS, no
 *  external assets — CI uploads the single file as an artifact). */
void writeDiffHtml(const RunDiff &diff, std::ostream &out);

/** Write the HTML report to a file (fatal on error). */
void writeDiffHtmlFile(const RunDiff &diff, const std::string &path);

} // namespace qoserve

#endif // QOSERVE_OBS_RUN_DIFF_HH
