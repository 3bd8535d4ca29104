/**
 * @file
 * Run comparison implementation: diff computation and renderers.
 */

#include "obs/run_diff.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

/**
 * A quantile is regressed only when it is worse beyond what the two
 * sketches' error bounds can explain: the lowest value the after
 * estimate may represent must exceed the highest value the before
 * estimate may represent by more than the tolerance.
 */
bool
quantileRegressed(double before, double after, double err_before,
                  double err_after, double tolerance)
{
    if (std::isinf(after) && !std::isinf(before))
        return true; // Finite tail became unbounded.
    if (std::isinf(before))
        return false; // Cannot get worse than +inf.
    if (before <= 0.0)
        return after > 0.0;
    const double worstBefore = before * (1.0 + err_before);
    const double bestAfter = after * (1.0 - err_after);
    return bestAfter > worstBefore * (1.0 + tolerance);
}

/** Per-tier alert rollup: episodes, active seconds, never-cleared. */
struct AlertRollup
{
    std::uint64_t count = 0;
    double seconds = 0.0;
    std::uint64_t uncleared = 0;
};

std::map<int, AlertRollup>
rollupAlerts(const std::vector<SloAlert> &alerts)
{
    std::map<int, AlertRollup> out;
    for (const SloAlert &a : alerts) {
        AlertRollup &r = out[a.tier];
        ++r.count;
        if (a.cleared == kTimeNever)
            ++r.uncleared;
        else
            r.seconds += a.cleared - a.raised;
    }
    return out;
}

const char *
verdict(bool regressed)
{
    return regressed ? "REGRESSED" : "ok";
}

/** Escape &, <, > for HTML text nodes. */
std::string
htmlEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

} // namespace

RunDiff
diffRuns(const RunArtifacts &before, const RunArtifacts &after,
         const RunDiffConfig &cfg)
{
    QOSERVE_ASSERT(cfg.latencyTolerance >= 0.0 &&
                       cfg.shareTolerance >= 0.0,
                   "diff tolerances must be non-negative");
    RunDiff diff;
    diff.labelBefore = before.label.empty() ? "before" : before.label;
    diff.labelAfter = after.label.empty() ? "after" : after.label;

    // Sketches: union of names, name order.
    std::set<std::string> names;
    for (const auto &[name, sk] : before.sketches)
        names.insert(name);
    for (const auto &[name, sk] : after.sketches)
        names.insert(name);
    for (const std::string &name : names) {
        SketchDiff sd;
        sd.name = name;
        auto ita = before.sketches.find(name);
        auto itb = after.sketches.find(name);
        sd.onlyBefore = itb == after.sketches.end();
        sd.onlyAfter = ita == before.sketches.end();
        if (ita != before.sketches.end())
            sd.countBefore = ita->second.count();
        if (itb != after.sketches.end())
            sd.countAfter = itb->second.count();
        if (!sd.onlyBefore && !sd.onlyAfter) {
            for (double pct : RunDiffConfig::kPercentiles) {
                QuantileDelta qd;
                qd.pct = pct;
                qd.before = ita->second.quantile(pct);
                qd.after = itb->second.quantile(pct);
                qd.regressed = quantileRegressed(
                    qd.before, qd.after,
                    ita->second.relativeError(),
                    itb->second.relativeError(),
                    cfg.latencyTolerance);
                sd.regressed = sd.regressed || qd.regressed;
                sd.deltas.push_back(qd);
            }
        }
        diff.regressed = diff.regressed || sd.regressed;
        diff.sketches.push_back(sd);
    }

    // Alerts: union of tiers, tier order.
    auto rollA = rollupAlerts(before.alerts);
    auto rollB = rollupAlerts(after.alerts);
    std::set<int> tiers;
    for (const auto &[tier, r] : rollA)
        tiers.insert(tier);
    for (const auto &[tier, r] : rollB)
        tiers.insert(tier);
    for (int tier : tiers) {
        AlertDiff ad;
        ad.tier = tier;
        if (auto it = rollA.find(tier); it != rollA.end()) {
            ad.countBefore = it->second.count;
            ad.secondsBefore = it->second.seconds;
            ad.unclearedBefore = it->second.uncleared;
        }
        if (auto it = rollB.find(tier); it != rollB.end()) {
            ad.countAfter = it->second.count;
            ad.secondsAfter = it->second.seconds;
            ad.unclearedAfter = it->second.uncleared;
        }
        ad.regressed =
            ad.countAfter > ad.countBefore ||
            ad.unclearedAfter > ad.unclearedBefore ||
            ad.secondsAfter >
                ad.secondsBefore * (1.0 + cfg.latencyTolerance);
        diff.regressed = diff.regressed || ad.regressed;
        diff.alerts.push_back(ad);
    }

    // Critical-path cells: union of (phase, replica), map order. A
    // cell regresses when its dominant share *grows* past tolerance —
    // the bottleneck concentrating, not merely moving.
    if (before.hasCritical && after.hasCritical) {
        std::set<std::pair<int, int>> cells;
        for (const auto &[key, e] : before.critical.cells)
            cells.insert(key);
        for (const auto &[key, e] : after.critical.cells)
            cells.insert(key);
        for (const auto &key : cells) {
            CriticalDiff cd;
            cd.phase = key.first;
            cd.replica = key.second;
            if (before.critical.requests > 0) {
                auto it = before.critical.cells.find(key);
                if (it != before.critical.cells.end())
                    cd.shareBefore =
                        static_cast<double>(
                            it->second.dominantRequests) /
                        static_cast<double>(before.critical.requests);
            }
            if (after.critical.requests > 0) {
                auto it = after.critical.cells.find(key);
                if (it != after.critical.cells.end())
                    cd.shareAfter =
                        static_cast<double>(
                            it->second.dominantRequests) /
                        static_cast<double>(after.critical.requests);
            }
            cd.regressed = cd.shareAfter - cd.shareBefore >
                           cfg.shareTolerance;
            diff.regressed = diff.regressed || cd.regressed;
            diff.critical.push_back(cd);
        }
    }

    return diff;
}

void
writeDiffText(const RunDiff &diff, std::ostream &out)
{
    out << "run diff: " << diff.labelBefore << " -> "
        << diff.labelAfter << "  ["
        << (diff.regressed ? "REGRESSED" : "clean") << "]\n";

    if (!diff.sketches.empty()) {
        out << "\nlatency sketches:\n";
        out << "  " << std::left << std::setw(28) << "sketch"
            << std::right << std::setw(6) << "pct" << std::setw(14)
            << diff.labelBefore << std::setw(14) << diff.labelAfter
            << "  verdict\n";
        std::ostringstream fmt;
        fmt << std::setprecision(6);
        for (const SketchDiff &sd : diff.sketches) {
            if (sd.onlyBefore || sd.onlyAfter) {
                out << "  " << std::left << std::setw(28) << sd.name
                    << std::right << "  only in "
                    << (sd.onlyBefore ? diff.labelBefore
                                      : diff.labelAfter)
                    << "\n";
                continue;
            }
            for (const QuantileDelta &qd : sd.deltas) {
                fmt.str("");
                fmt << "  " << std::left << std::setw(28) << sd.name
                    << std::right << "p" << std::setw(5) << qd.pct
                    << std::setw(14) << qd.before << std::setw(14)
                    << qd.after << "  " << verdict(qd.regressed)
                    << '\n';
                out << fmt.str();
            }
        }
    }

    if (!diff.alerts.empty()) {
        out << "\nSLO alerts (episodes / active seconds / "
               "uncleared):\n";
        std::ostringstream fmt;
        fmt << std::setprecision(6);
        for (const AlertDiff &ad : diff.alerts) {
            fmt.str("");
            fmt << "  tier " << ad.tier << ": " << ad.countBefore
                << " / " << ad.secondsBefore << " / "
                << ad.unclearedBefore << "  ->  " << ad.countAfter
                << " / " << ad.secondsAfter << " / "
                << ad.unclearedAfter << "  " << verdict(ad.regressed)
                << '\n';
            out << fmt.str();
        }
    }

    if (!diff.critical.empty()) {
        out << "\ncritical-path dominant shares:\n";
        std::ostringstream fmt;
        fmt << std::setprecision(4);
        for (const CriticalDiff &cd : diff.critical) {
            fmt.str("");
            fmt << "  " << std::left << std::setw(12)
                << tracePhaseName(static_cast<TracePhase>(cd.phase))
                << std::right;
            if (cd.replica >= 0)
                fmt << " replica " << std::setw(3) << cd.replica;
            else
                fmt << " cluster    ";
            fmt << "  " << 100.0 * cd.shareBefore << "% -> "
                << 100.0 * cd.shareAfter << "%  "
                << verdict(cd.regressed) << '\n';
            out << fmt.str();
        }
    }
}

namespace {

void
htmlRowClass(std::ostream &out, bool regressed)
{
    out << (regressed ? "<tr class=\"bad\">" : "<tr>");
}

} // namespace

void
writeDiffHtml(const RunDiff &diff, std::ostream &out)
{
    std::ostringstream fmt;
    fmt << std::setprecision(6);
    out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
        << "<title>qoserve run diff</title>\n"
        << "<style>\n"
        << "body{font-family:monospace;margin:2em;}\n"
        << "table{border-collapse:collapse;margin:1em 0;}\n"
        << "th,td{border:1px solid #999;padding:4px 10px;"
        << "text-align:right;}\n"
        << "th{background:#eee;}td.name{text-align:left;}\n"
        << "tr.bad{background:#fdd;}\n"
        << ".verdict-bad{color:#a00;font-weight:bold;}\n"
        << ".verdict-ok{color:#080;}\n"
        << "</style></head><body>\n";
    out << "<h1>run diff: " << htmlEscape(diff.labelBefore)
        << " &rarr; " << htmlEscape(diff.labelAfter) << "</h1>\n";
    out << "<p class=\""
        << (diff.regressed ? "verdict-bad" : "verdict-ok") << "\">"
        << (diff.regressed ? "REGRESSED" : "clean") << "</p>\n";

    if (!diff.sketches.empty()) {
        out << "<h2>latency sketches</h2>\n<table>\n<tr>"
            << "<th>sketch</th><th>pct</th><th>"
            << htmlEscape(diff.labelBefore) << "</th><th>"
            << htmlEscape(diff.labelAfter)
            << "</th><th>verdict</th></tr>\n";
        for (const SketchDiff &sd : diff.sketches) {
            if (sd.onlyBefore || sd.onlyAfter) {
                out << "<tr><td class=\"name\">"
                    << htmlEscape(sd.name)
                    << "</td><td colspan=\"4\">only in "
                    << htmlEscape(sd.onlyBefore ? diff.labelBefore
                                                : diff.labelAfter)
                    << "</td></tr>\n";
                continue;
            }
            for (const QuantileDelta &qd : sd.deltas) {
                htmlRowClass(out, qd.regressed);
                fmt.str("");
                fmt << "<td class=\"name\">" << htmlEscape(sd.name)
                    << "</td><td>p" << qd.pct << "</td><td>"
                    << qd.before << "</td><td>" << qd.after
                    << "</td><td>" << verdict(qd.regressed)
                    << "</td></tr>\n";
                out << fmt.str();
            }
        }
        out << "</table>\n";
    }

    if (!diff.alerts.empty()) {
        out << "<h2>SLO alerts</h2>\n<table>\n<tr><th>tier</th>"
            << "<th>episodes</th><th>active s</th><th>uncleared</th>"
            << "<th>episodes</th><th>active s</th><th>uncleared</th>"
            << "<th>verdict</th></tr>\n";
        for (const AlertDiff &ad : diff.alerts) {
            htmlRowClass(out, ad.regressed);
            fmt.str("");
            fmt << "<td>" << ad.tier << "</td><td>" << ad.countBefore
                << "</td><td>" << ad.secondsBefore << "</td><td>"
                << ad.unclearedBefore << "</td><td>" << ad.countAfter
                << "</td><td>" << ad.secondsAfter << "</td><td>"
                << ad.unclearedAfter << "</td><td>"
                << verdict(ad.regressed) << "</td></tr>\n";
            out << fmt.str();
        }
        out << "</table>\n";
    }

    if (!diff.critical.empty()) {
        out << "<h2>critical-path dominant shares</h2>\n<table>\n"
            << "<tr><th>phase</th><th>replica</th><th>"
            << htmlEscape(diff.labelBefore) << "</th><th>"
            << htmlEscape(diff.labelAfter)
            << "</th><th>verdict</th></tr>\n";
        for (const CriticalDiff &cd : diff.critical) {
            htmlRowClass(out, cd.regressed);
            fmt.str("");
            fmt << "<td class=\"name\">"
                << tracePhaseName(static_cast<TracePhase>(cd.phase))
                << "</td><td>";
            if (cd.replica >= 0)
                fmt << cd.replica;
            else
                fmt << "cluster";
            fmt << "</td><td>" << 100.0 * cd.shareBefore
                << "%</td><td>" << 100.0 * cd.shareAfter
                << "%</td><td>" << verdict(cd.regressed)
                << "</td></tr>\n";
            out << fmt.str();
        }
        out << "</table>\n";
    }

    out << "</body></html>\n";
}

void
writeDiffHtmlFile(const RunDiff &diff, const std::string &path)
{
    writeArtefactFile(path, "HTML report", [&](std::ostream &out) {
        writeDiffHtml(diff, out);
    });
}

} // namespace qoserve
