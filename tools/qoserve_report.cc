/**
 * @file
 * qoserve_report — offline run-comparison reporter.
 *
 * Diffs the streaming-analytics artifacts two runs wrote — latency
 * sketch banks (qoserve_sim --sketch-out), SLO alert timelines
 * (--slo-alerts-out), and critical-path aggregates (qoserve_explain
 * --critical-csv) — and prints a text table plus, optionally, a
 * self-contained HTML report. Regression flags are deterministic:
 * the same artifact files always produce the same verdict, so CI can
 * gate on --fail-on-regression (exit 2) without flake.
 *
 * Example:
 *   qoserve_report --label-a baseline --label-b candidate \
 *       --sketches-a a/sketch.csv --sketches-b b/sketch.csv \
 *       --alerts-a a/alerts.csv --alerts-b b/alerts.csv \
 *       --html report.html --fail-on-regression
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/csv.hh"
#include "obs/run_diff.hh"

namespace {

void
usage(std::ostream &out)
{
    out << R"(qoserve_report — diff two runs' streaming SLO analytics

  --sketches-a FILE      run A latency sketch bank (--sketch-out)
  --sketches-b FILE      run B latency sketch bank
  --alerts-a FILE        run A alert timeline (--slo-alerts-out)
  --alerts-b FILE        run B alert timeline
  --critical-a FILE      run A critical-path CSV (qoserve_explain
                         --critical-csv)
  --critical-b FILE      run B critical-path CSV
  --label-a NAME         run A display name (default "before")
  --label-b NAME         run B display name (default "after")
  --html FILE            also write a self-contained HTML report
  --latency-tolerance X  relative latency growth allowed beyond the
                         sketch error bounds (default 0.10)
  --share-tolerance X    absolute dominant-share growth allowed
                         (default 0.10)
  --fail-on-regression   exit 2 when any component regressed
  --help                 this text

Each artifact pair is optional, but a given kind must be supplied
for both runs or neither, and at least one pair is required.
)";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qoserve;

    std::optional<std::string> sketches_a, sketches_b;
    std::optional<std::string> alerts_a, alerts_b;
    std::optional<std::string> critical_a, critical_b;
    std::optional<std::string> html_path;
    std::string label_a = "before";
    std::string label_b = "after";
    RunDiffConfig cfg;
    bool fail_on_regression = false;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto need_value = [&]() -> const std::string & {
            if (i + 1 >= args.size()) {
                std::cerr << "flag " << flag << " requires a value\n";
                std::exit(1);
            }
            return args[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            return 0;
        } else if (flag == "--sketches-a") {
            sketches_a = need_value();
        } else if (flag == "--sketches-b") {
            sketches_b = need_value();
        } else if (flag == "--alerts-a") {
            alerts_a = need_value();
        } else if (flag == "--alerts-b") {
            alerts_b = need_value();
        } else if (flag == "--critical-a") {
            critical_a = need_value();
        } else if (flag == "--critical-b") {
            critical_b = need_value();
        } else if (flag == "--label-a") {
            label_a = need_value();
        } else if (flag == "--label-b") {
            label_b = need_value();
        } else if (flag == "--html") {
            html_path = need_value();
        } else if (flag == "--latency-tolerance") {
            cfg.latencyTolerance =
                requireNumber<double>(need_value(), "flag ", flag);
        } else if (flag == "--share-tolerance") {
            cfg.shareTolerance =
                requireNumber<double>(need_value(), "flag ", flag);
        } else if (flag == "--fail-on-regression") {
            fail_on_regression = true;
        } else {
            std::cerr << "unknown flag: " << flag << " (try --help)\n";
            return 1;
        }
    }

    auto paired = [](const std::optional<std::string> &a,
                     const std::optional<std::string> &b,
                     const char *kind) {
        if (a.has_value() != b.has_value()) {
            std::cerr << kind
                      << " artifacts must be supplied for both runs "
                         "or neither\n";
            std::exit(1);
        }
        return a.has_value();
    };
    const bool haveSketches =
        paired(sketches_a, sketches_b, "sketch");
    const bool haveAlerts = paired(alerts_a, alerts_b, "alert");
    const bool haveCritical =
        paired(critical_a, critical_b, "critical-path");
    if (!haveSketches && !haveAlerts && !haveCritical) {
        usage(std::cerr);
        return 1;
    }
    if (cfg.latencyTolerance < 0.0 || cfg.shareTolerance < 0.0) {
        std::cerr << "tolerances must be non-negative\n";
        return 1;
    }

    RunArtifacts before, after;
    before.label = label_a;
    after.label = label_b;
    if (haveSketches) {
        before.sketches = readSketchBankCsvFile(*sketches_a);
        after.sketches = readSketchBankCsvFile(*sketches_b);
    }
    if (haveAlerts) {
        before.alerts = readAlertsCsvFile(*alerts_a);
        after.alerts = readAlertsCsvFile(*alerts_b);
    }
    if (haveCritical) {
        before.critical = readCriticalAggregateCsvFile(*critical_a);
        after.critical = readCriticalAggregateCsvFile(*critical_b);
        before.hasCritical = after.hasCritical = true;
    }

    RunDiff diff = diffRuns(before, after, cfg);
    writeDiffText(diff, std::cout);
    if (html_path)
        writeDiffHtmlFile(diff, *html_path);

    return fail_on_regression && diff.regressed ? 2 : 0;
}
