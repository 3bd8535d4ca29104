/**
 * @file
 * qoserve_perfbench — runs one benchmark workload once and prints the
 * measurements as one JSON line.
 *
 *   qoserve_perfbench --workload qoserve_r64 --seed 1 --mode plain \
 *       --out DIR
 *
 * The process is single-threaded (the predictor trains serially).
 * Every output file goes to DIR, which must exist; the caller deletes
 * it. perfbench/run.py drives repeated runs and aggregates them.
 */

#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/check_level.hh"
#include "layer_timing.hh"
#include "simcore/logging.hh"
#include "workloads.hh"

namespace {

using namespace qoserve;
using namespace qoserve::perfbench;

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (const double v : values) {
        if (out.size() > 1)
            out += ", ";
        out += jsonNumber(v);
    }
    return out + "]";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

void
printResult(const RunResult &r)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    std::string out = "{";
    auto field = [&out](const std::string &key, const std::string &value) {
        if (out.size() > 1)
            out += ", ";
        out += "\"" + key + "\": " + value;
    };
    field("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
    field("check_level", std::string("\"") +
                             audit::checkLevelName(audit::kCompiledLevel) +
                             "\"");
    field("compiler", "\"" + compilerName() + "\"");
    field("requests", std::to_string(r.requests));
    field("completed", std::to_string(r.completed));
    field("lost", std::to_string(r.lost));
    field("digest", "\"" + r.digest + "\"");
    field("artefacts_ok", r.artefactsOk ? "true" : "false");
    field("setup_s", jsonNumber(r.setupSeconds));
    field("run_s", jsonNumber(r.runSeconds));
    field("post_s", jsonNumber(r.postSeconds));
    field("setup_parts", jsonList(r.setupParts));
    field("laps", jsonList(r.lapSeconds));
    field("post_parts", jsonList(r.postParts));
    field("events", std::to_string(r.events));
    field("violation_pct", jsonNumber(r.violationPct));
    field("headline_p99_s", jsonNumber(r.headlineP99));
    field("peak_rss_mb", jsonNumber(peak_rss_mb));

    std::string layers = "{";
    for (const auto &[name, value] : r.layers) {
        if (layers.size() > 1)
            layers += ", ";
        layers += "\"" + name + "\": " + jsonNumber(value);
    }
    field("layers", layers + "}");
    std::cout << out << "}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode = "plain", out_dir;
    std::uint64_t seed = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed")
            seed = std::stoull(value);
        else if (flag == "--mode")
            mode = value;
        else if (flag == "--out")
            out_dir = value;
        else
            QOSERVE_FATAL("unknown flag ", flag);
    }
    if (argc % 2 == 0)
        QOSERVE_FATAL("flags take one value each");
    const Workload *w = findWorkload(workload);
    if (w == nullptr)
        QOSERVE_FATAL("unknown workload '", workload, "'");
    if (out_dir.empty())
        QOSERVE_FATAL("--out DIR is required");

    RunOptions opts;
    opts.mode = parseMode(mode);
    opts.outDir = out_dir;
    printResult(runWorkload(*w, seed, opts));
    return 0;
}
