/**
 * @file
 * The flag table, its parser, usage printer and flag-line printer.
 */

#include "app/cli_options.hh"

#include <charconv>
#include <cmath>
#include <limits>
#include <tuple>

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

/** A choice flag's name<->value list, used in both directions: a
 *  value prints as the first name that maps to it. */
template <typename T>
using Choices = std::vector<std::pair<std::string, T>>;

// The presets are built from constants only, so the lists may be
// initialized before main in any order.
const std::tuple<Choices<Policy>, Choices<ReplicaHwConfig>,
                 Choices<LoadBalancePolicy>, Choices<Dataset>,
                 Choices<TierTable>>
    kChoices{
        {{"qoserve", Policy::QoServe}, {"fcfs", Policy::SarathiFcfs},
         {"edf", Policy::SarathiEdf}, {"sjf", Policy::SarathiSjf},
         {"srpf", Policy::SarathiSrpf}, {"medha", Policy::Medha},
         {"dp", Policy::SlosServeDp}},
        {{"llama3-8b-a100-tp1", llama3_8b_a100_tp1()},
         {"qwen-7b-a100-tp2", qwen_7b_a100_tp2()},
         {"llama3-70b-h100-tp4", llama3_70b_h100_tp4()}},
        {{"rr", LoadBalancePolicy::RoundRobin},
         {"round-robin", LoadBalancePolicy::RoundRobin},
         {"least-loaded", LoadBalancePolicy::LeastLoaded},
         {"jsq", LoadBalancePolicy::ShortestQueue},
         {"shortest-queue", LoadBalancePolicy::ShortestQueue}},
        {{"azure-code", azureCode()},
         {"azure-conv", azureConv()},
         {"sharegpt", sharegpt()}},
        {{"paper", paperTierTable()}, {"strict", strictTierTable()}}};

/** True for the field types kChoices has a list for. */
template <typename T, typename... Lists>
constexpr bool
hasChoices(const std::tuple<Lists...> *)
{
    return (std::is_same_v<Choices<T>, Lists> || ...);
}
template <typename T>
constexpr bool kIsChoice = hasChoices<T>(&kChoices);

/** The value @p name maps to; fatal, naming @p what, when none. */
template <typename T>
const T &
lookup(const std::string &what, const std::string &name)
{
    std::string known;
    for (const auto &[n, value] : std::get<Choices<T>>(kChoices)) {
        if (n == name)
            return value;
        known += (known.empty() ? "" : "|") + n;
    }
    QOSERVE_FATAL("unknown ", what, ": ", name, " (", known, ")");
}

const Scenario kDefaults{};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr FlagRange kPositive{0.0, kInf, true, false, "positive"};
constexpr FlagRange kNonNegative{0.0, kInf, false, false, "non-negative"};
constexpr FlagRange kAtLeastOne{1.0, kInf, false, false, "at least 1"};
constexpr FlagRange kAtLeastMinusOne{-1.0, kInf, false, false, "at least -1"};
constexpr FlagRange kUnit{0.0, 1.0, false, false, "in [0, 1]"};
constexpr FlagRange kUnitOpenLow{0.0, 1.0, true, false, "in (0, 1]"};
constexpr FlagRange kUnitOpen{0.0, 1.0, true, true, "in (0, 1)"};

constexpr const char kWork[] = "workload";
constexpr const char kDeploy[] = "deployment";
constexpr const char kCache[] = "prefix cache";
constexpr const char kFaults[] = "faults";
constexpr const char kDomains[] = "failure domains";
constexpr const char kDegrade[] = "graceful degradation";
constexpr const char kOutput[] = "output";
constexpr const char kSlo[] =
    "SLO monitoring (all --slo-alert-* flags require --slo-monitor)";

using enum FlagKind;

#define F(member) [](Scenario &s) -> FlagField { return &s.member; }

// The ranges of --cache-capacity-frac, --share-ratio, --prefix-pools
// and --multi-turn live in their config structs' validate().
constexpr FlagRow kFlags[] = {
    {kWork, "--dataset", "NAME", Choice, F(dataset),
     "azure-code | azure-conv | sharegpt (default azure-code)"},
    {kWork, "--tiers", "NAME", Choice, F(tiers),
     "paper | strict (default paper, Table 3)"},
    {kWork, "--mix", "A,B,...", List, F(tierMix),
     "tier fractions summing to 1 (default equal)"},
    {kWork, "--low-priority", "F", Double, F(lowPriorityFraction),
     "fraction hinted low-priority (default 0)", &kUnit},
    {kWork, "--qps", "X", Double, F(qps), "Poisson arrival rate (default 3)",
     &kPositive},
    {kWork, "--duration", "S", Double, F(duration),
     "trace length in seconds (default 600)", &kPositive},
    {kWork, "--seed", "N", U64, F(seed), "workload seed (default 42)"},
    {kWork, "--trace-in", "FILE", Path, F(traceIn),
     "replay a CSV trace instead of synthesizing"},
    {kDeploy, "--policy", "NAME", Choice, F(serving.policy),
     "qoserve | fcfs | edf | sjf | srpf | medha | dp"},
    {kDeploy, "--hw", "NAME", Choice, F(serving.hw),
     "llama3-8b-a100-tp1 | qwen-7b-a100-tp2 |\nllama3-70b-h100-tp4"},
    {kDeploy, "--replicas", "N", Count, F(serving.numReplicas),
     "replica count (default 1)", &kAtLeastOne},
    {kDeploy, "--lb", "NAME", Choice, F(loadBalance),
     "rr | least-loaded | jsq (default rr)"},
    {kDeploy, "--chunk", "N", Count, F(serving.base.fixedChunkTokens),
     "fixed chunk tokens for baselines (default 256)", &kPositive},
    {kDeploy, "--alpha", "MS", Double, F(serving.qoserve.alphaMsPerToken),
     "hybrid alpha, ms/token (default 8)", &kNonNegative},
    {kDeploy, "--adaptive-alpha", "", Switch,
     F(serving.qoserve.adaptiveAlpha), "enable load-adaptive alpha"},
    {kDeploy, "--max-chunk", "N", Count, F(serving.qoserve.maxChunkTokens),
     "QoServe dynamic chunk cap (default 2560)"},
    {kDeploy, "--no-solver-cache", "", Switch,
     F(serving.qoserve.enableSolverMemo),
     "disable the chunk-budget solver memo (results\n"
     "are identical; only wall-clock changes)"},
    {kDeploy, "--oracle-predictor", "", Switch, F(serving.useForestPredictor),
     "use the oracle instead of the random forest"},
    {kDeploy, "--jobs", "N", Count, F(serving.trainJobs),
     "worker threads for predictor training\n"
     "(default 0 = hardware concurrency; any value\n"
     "yields bit-identical results)"},
    {kCache, "--prefix-cache", "", Switch, F(serving.prefixCache.enabled),
     "enable shared-prefix KV cache reuse"},
    {kCache, "--cache-capacity-frac", "F", Double,
     F(serving.prefixCache.capacityFrac),
     "fraction of KV blocks the cache may hold\n(default 0.5)"},
    {kCache, "--cache-affinity", "", Switch, F(serving.cacheAffinityRouting),
     "route each request to the replica holding the\n"
     "longest cached prefix (requires --prefix-cache)"},
    {kCache, "--share-ratio", "F", Double, F(sharedPrefix.shareRatio),
     "fraction of synthesized requests drawing a\n"
     "shared prompt prefix (default 0 = all unique)"},
    {kCache, "--prefix-pools", "N", Count, F(sharedPrefix.numPools),
     "system-prompt pool count for shared prefixes\n(default 8)"},
    {kCache, "--multi-turn", "F", Double, F(sharedPrefix.multiTurnFrac),
     "fraction of shared requests that continue an\n"
     "earlier conversation (default 0.5)"},
    {kFaults, "--fault-mtbf", "S", Double, F(fault.crashMtbf),
     "mean time between replica crashes, seconds\n"
     "(default 0 = no crashes)", &kNonNegative},
    {kFaults, "--fault-mttr", "S", Double, F(fault.crashMttr),
     "mean time to repair a crashed replica\n"
     "(default 20)", &kPositive, "--fault-mtbf"},
    {kFaults, "--straggler-mtbf", "S", Double, F(fault.stragglerMtbf),
     "mean time between straggler episodes\n"
     "(default 0 = no stragglers)", &kNonNegative},
    {kFaults, "--straggler-duration", "S", Double, F(fault.stragglerDuration),
     "mean straggler episode length (default 10)"},
    {kFaults, "--straggler-factor", "X", Double, F(fault.stragglerFactor),
     "latency multiplier while straggling\n(default 2)"},
    {kFaults, "--fault-seed", "N", U64, F(fault.seed),
     "fault-schedule seed, independent of the\nworkload seed (default 1)"},
    {kFaults, "--max-retries", "N", Count, F(retry.maxRetries),
     "re-dispatch budget per failed request\n(default 3; 0 = never retry)"},
    {kFaults, "--retry-backoff", "S", Double, F(retry.initialBackoff),
     "initial re-dispatch backoff, doubled per\n"
     "attempt (default 0.05)", &kPositive},
    {kFaults, "--no-health-aware", "", Switch, F(healthAwareRouting),
     "route blindly: ignore replica health and\n"
     "slowdown when picking a replica"},
    {kDomains, "--zones", "N", Count, F(domains.zones),
     "failure zones the replicas split into,\n"
     "contiguous index ranges (default 0 = none)", &kNonNegative},
    {kDomains, "--zone-mtbf", "S", Double, F(domains.zoneMtbf),
     "mean time between outages per zone, seconds\n"
     "(default 0 = off; requires --zones)", &kNonNegative},
    {kDomains, "--zone-mttr", "S", Double, F(domains.zoneMttr),
     "mean time to restore a failed zone\n"
     "(default 30)", &kPositive, "--zone-mtbf"},
    {kDomains, "--partition-mtbf", "S", Double, F(domains.partitionMtbf),
     "mean time between control-plane partitions\n"
     "(default 0 = off)", &kNonNegative},
    {kDomains, "--partition-mttr", "S", Double, F(domains.partitionMttr),
     "mean partition duration before the routing\n"
     "view heals (default 10)", &kPositive, "--partition-mtbf"},
    {kDomains, "--partition-frac", "F", Double, F(domains.partitionFrac),
     "fraction of replicas blinded per partition,\n"
     "in (0, 1] (default 0.25)", &kUnitOpenLow, "--partition-mtbf"},
    {kDomains, "--domain-seed", "N", U64, F(domains.seed),
     "failure-domain seed, independent of the\n"
     "workload and fault seeds (default 7)"},
    {kDegrade, "--breaker-threshold", "N", Count, F(breaker.failureThreshold),
     "consecutive dispatch failures that trip a\n"
     "replica's circuit breaker (default 0 = off)", &kNonNegative},
    {kDegrade, "--breaker-cooldown", "S", Double, F(breaker.cooldown),
     "seconds a tripped breaker stays open before\n"
     "its half-open probe (default 1)", &kPositive, "--breaker-threshold"},
    {kDegrade, "--deadline-cancel", "", Switch, F(deadlineCancel),
     "abandon a retried request when its completion\n"
     "deadline is provably unreachable"},
    {kDegrade, "--brownout", "", Switch, F(brownout.enabled),
     "enable the brownout controller"},
    {kDegrade, "--brownout-enter", "T", Double, F(brownout.enterBacklog),
     "pending prefill tokens per live replica above\n"
     "which it steps one level deeper (default 4096)", &kPositive,
     "--brownout"},
    {kDegrade, "--brownout-exit", "T", Double, F(brownout.exitBacklog),
     "backlog below which it steps back\n"
     "(default 1024)", &kNonNegative, "--brownout"},
    {kDegrade, "--brownout-interval", "S", Double, F(brownout.interval),
     "controller sampling cadence (default 1)", &kPositive, "--brownout"},
    {kDegrade, "--brownout-cap", "N", Count, F(brownout.capTokens),
     "decode-token cap at level >= 1 (default 128)", &kPositive,
     "--brownout"},
    {kDegrade, "--brownout-shed-tier", "N", Int, F(brownout.shedTier),
     "tier shed at level >= 2 (default -1 = the\n"
     "last tier of the table)", &kAtLeastMinusOne, "--brownout"},
    {kOutput, "--trace-out", "FILE", Path, F(traceOut),
     "dump the workload as CSV"},
    {kOutput, "--records-out", "FILE", Path, F(recordsOut),
     "dump per-request records as CSV"},
    {kOutput, "--telemetry-out", "FILE", Path, F(telemetryOut),
     "dump per-iteration engine telemetry as CSV"},
    {kOutput, "--summary-out", "FILE", Path, F(summaryOut),
     "dump the run summary as CSV"},
    {kOutput, "--trace", "FILE", Path, F(traceJsonOut),
     "dump the request-lifecycle trace as Chrome /\n"
     "Perfetto trace_event JSON (one process per\n"
     "replica, one thread per request)"},
    {kOutput, "--trace-csv", "FILE", Path, F(traceEventsOut),
     "dump the raw lifecycle events as flat CSV"},
    {kOutput, "--metrics-out", "FILE", Path, F(metricsOut),
     "dump the metrics time series as CSV"},
    {kOutput, "--metrics-interval", "S", Double, F(metricsInterval),
     "metrics sampling cadence in sim seconds\n"
     "(default 5; requires --metrics-out)", &kPositive, nullptr,
     "--metrics-out"},
    {kOutput, "--sketch-out", "FILE", Path, F(sketchOut),
     "dump per-tier latency quantile sketches as CSV"},
    {kOutput, "--sketch-alpha", "E", Double, F(sketchAlpha),
     "sketch relative-error bound in (0, 1)\n"
     "(default 0.01; requires --sketch-out)", &kUnitOpen, nullptr,
     "--sketch-out"},
    {kSlo, "--slo-monitor", "", Switch, F(sloMonitor),
     "run the multi-window burn-rate monitor as a\nread-only daemon observer"},
    {kSlo, "--slo-alert-budget", "F", Double, F(sloAlert.budget),
     "per-tier violation budget in (0, 1]\n"
     "(default 0.01)", &kUnitOpenLow, "--slo-monitor", "--slo-monitor"},
    {kSlo, "--slo-alert-burn", "X", Double, F(sloAlert.burn),
     "burn-rate threshold that fires an alert\n"
     "(default 14.4)", &kPositive, "--slo-monitor", "--slo-monitor"},
    {kSlo, "--slo-alert-short", "S", Double, F(sloAlert.shortWindow),
     "short alert window, sim seconds (default 300)", &kPositive,
     "--slo-monitor", "--slo-monitor"},
    {kSlo, "--slo-alert-long", "S", Double, F(sloAlert.longWindow),
     "long alert window, sim seconds (default 3600)", &kPositive,
     "--slo-monitor", "--slo-monitor"},
    {kSlo, "--slo-alert-interval", "S", Double, F(sloAlert.interval),
     "monitor evaluation cadence (default 10)", &kPositive,
     "--slo-monitor", "--slo-monitor"},
    {kSlo, "--slo-alerts-out", "FILE", Path, F(sloAlertsOut),
     "dump the alert timeline as CSV"},
    {kSlo, "--help", "", Switch, nullptr, "this text", nullptr, nullptr,
     nullptr, "-h"},
};

#undef F

const FlagRow *
findFlag(const std::string &name)
{
    for (const FlagRow &row : kFlags) {
        if (name == row.flag || (row.alias && name == row.alias))
            return &row;
    }
    return nullptr;
}

/** @p text as a T; fatal, naming the flag, when malformed, when not
 *  finite and, for a Count, when negative. */
template <typename T>
T
number(const FlagRow &row, const std::string &text)
{
    const T v = requireNumber<T>(text, "flag ", row.flag);
    const char *error = nullptr;
    if constexpr (std::is_floating_point_v<T>)
        error = std::isfinite(v) ? nullptr : "not a finite number";
    else if constexpr (std::is_signed_v<T>)
        error = row.kind == Count && v < 0 ? "must not be negative" : nullptr;
    if (error)
        QOSERVE_FATAL("flag ", row.flag, ": ", error, ": '", text, "'");
    return v;
}

/** Shortest text that parses back to exactly @p v. */
std::string
shortest(double v)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** @p text as one shell word: bare when safe, else single-quoted. */
std::string
shellWord(const std::string &text)
{
    const char *safe = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                       "0123456789_-+=.,:/@%";
    if (!text.empty() && text.find_first_not_of(safe) == std::string::npos)
        return text;
    std::string word = "'";
    for (char c : text)
        word += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return word + "'";
}

/** A set row's value as flag-line text. */
std::string
valueText(const FlagRow &row, const Scenario &sc)
{
    return std::visit(
        [&](auto *p) -> std::string {
            using T = std::remove_pointer_t<decltype(p)>;
            std::string text;
            if constexpr (std::is_same_v<T, double>) {
                text = shortest(*p);
            } else if constexpr (std::is_same_v<T, std::vector<double>>) {
                for (double v : *p)
                    text += (text.empty() ? "" : ",") + shortest(v);
            } else if constexpr (kIsChoice<T>) {
                for (const auto &[name, value] :
                     std::get<Choices<T>>(kChoices)) {
                    if (value == *p)
                        return name;
                }
                QOSERVE_PANIC("toFlagLine: the ", row.flag,
                              " value has no name");
            } else if constexpr (std::is_integral_v<T>) {
                text = std::to_string(*p);
            } else { // a path
                text = shellWord(**p);
            }
            return text;
        },
        row.fieldOf(sc));
}

} // namespace

FlagField
FlagRow::fieldOf(const Scenario &sc) const
{
    // The accessor only forms a pointer; reading through it leaves sc
    // unchanged.
    return field(const_cast<Scenario &>(sc));
}

bool
FlagRow::isSet(const Scenario &sc) const
{
    const FlagField deflt = fieldOf(kDefaults);
    return std::visit(
        [&](auto *p) { return !(*p == *std::get<decltype(p)>(deflt)); },
        fieldOf(sc));
}

void
FlagRow::checkRange(const Scenario &sc) const
{
    if (!range || (gate && !findFlag(gate)->isSet(sc)))
        return;
    const FlagField f = fieldOf(sc);
    const double v = std::holds_alternative<int *>(f)
                         ? *std::get<int *>(f)
                         : *std::get<double *>(f);
    if (!range->contains(v))
        QOSERVE_FATAL(flag, " must be ", range->text,
                      gate ? std::string(" with ") + gate + " set" : "",
                      ", got ", v);
}

std::span<const FlagRow>
flagTable()
{
    return kFlags;
}

void
applyFlag(const FlagRow &row, Scenario &sc, const std::string &value)
{
    std::visit(
        [&](auto *p) {
            using T = std::remove_pointer_t<decltype(p)>;
            if constexpr (std::is_same_v<T, bool>) {
                *p = !*std::get<bool *>(row.fieldOf(kDefaults));
            } else if constexpr (std::is_same_v<T, std::vector<double>>) {
                p->clear();
                for (const std::string &part : splitCsv(value))
                    p->push_back(number<double>(row, part));
            } else if constexpr (kIsChoice<T>) {
                *p = lookup<T>(row.flag, value);
            } else if constexpr (std::is_arithmetic_v<T>) {
                *p = number<T>(row, value);
            } else { // a path
                *p = value;
            }
        },
        row.field(sc));
}

std::string
cliUsage()
{
    constexpr std::size_t kHelpColumn = 24;
    std::string usage = "qoserve_sim — QoS-driven LLM serving simulator\n";
    std::string_view section;
    for (const FlagRow &row : kFlags) {
        if (row.section != section)
            usage += "\n" + std::string(section = row.section) + ":\n";
        std::string head = std::string("  ") + row.flag +
                           (*row.metavar ? " " : "") + row.metavar;
        head.append(head.size() < kHelpColumn ? kHelpColumn - head.size() : 2,
                    ' ');
        for (const std::string &line : splitCsv(row.help, '\n')) {
            usage += head + line + "\n";
            head.assign(kHelpColumn, ' ');
        }
    }
    return usage;
}

CliOptions
parseCliOptions(const std::vector<std::string> &args)
{
    CliOptions opts;
    std::vector<const FlagRow *> given;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const FlagRow *row = findFlag(args[i]);
        if (!row)
            QOSERVE_FATAL("unknown flag: ", args[i], " (try --help)");
        if (!row->field) {
            opts.helpRequested = true;
            continue;
        }
        if (row->kind != Switch && i + 1 == args.size())
            QOSERVE_FATAL("flag ", row->flag, " requires a value");
        applyFlag(*row, opts, row->kind == Switch ? "" : args[++i]);
        given.push_back(row);
    }

    opts.validate();

    // A value cannot tell a flag left unset from one set to its
    // default, so the enabler check runs on the flags as given.
    for (const FlagRow *row : given) {
        if (row->enabler && !findFlag(row->enabler)->isSet(opts))
            QOSERVE_FATAL(row->flag, " requires ", row->enabler,
                          " (tuning flags require ", row->enabler,
                          ", which turns on what they tune)");
    }
    return opts;
}

std::string
toFlagLine(const Scenario &sc)
{
    if (sc.requestCount > 0)
        QOSERVE_PANIC("toFlagLine: no flag sets requestCount");
    std::string line;
    for (const FlagRow &row : kFlags) {
        if (!row.field || !row.isSet(sc))
            continue;
        if (row.enabler && !findFlag(row.enabler)->isSet(sc))
            QOSERVE_PANIC("toFlagLine: ", row.flag, " is set without ",
                          row.enabler);
        line += (line.empty() ? "" : " ") + std::string(row.flag);
        if (row.kind != Switch)
            line += " " + valueText(row, sc);
    }
    return line;
}

} // namespace qoserve
