/**
 * @file
 * CLI option parsing implementation.
 */

#include "app/cli_options.hh"

#include "core/csv.hh"
#include "simcore/logging.hh"

namespace qoserve {

namespace {

double
parseDouble(const std::string &flag, const std::string &value)
{
    return requireNumber<double>(value, "flag ", flag);
}

std::uint64_t
parseU64(const std::string &flag, const std::string &value)
{
    return requireNumber<std::uint64_t>(value, "flag ", flag);
}

int
parseInt(const std::string &flag, const std::string &value)
{
    return requireNumber<int>(value, "flag ", flag);
}

/** A count flag: an int that must not be negative. */
int
parseCount(const std::string &flag, const std::string &value)
{
    int n = parseInt(flag, value);
    if (n < 0)
        QOSERVE_FATAL("flag ", flag, ": must not be negative: '", value,
                      "'");
    return n;
}

std::vector<double>
parseMix(const std::string &flag, const std::string &value)
{
    std::vector<double> mix;
    for (const std::string &part : splitCsv(value))
        mix.push_back(parseDouble(flag, part));
    return mix;
}

LoadBalancePolicy
parseLb(const std::string &value)
{
    if (value == "rr" || value == "round-robin")
        return LoadBalancePolicy::RoundRobin;
    if (value == "least-loaded")
        return LoadBalancePolicy::LeastLoaded;
    if (value == "jsq" || value == "shortest-queue")
        return LoadBalancePolicy::ShortestQueue;
    QOSERVE_FATAL("unknown load balancer: ", value,
                  " (rr|least-loaded|jsq)");
}

} // namespace

Policy
parsePolicyName(const std::string &name)
{
    if (name == "qoserve")
        return Policy::QoServe;
    if (name == "fcfs")
        return Policy::SarathiFcfs;
    if (name == "edf")
        return Policy::SarathiEdf;
    if (name == "sjf")
        return Policy::SarathiSjf;
    if (name == "srpf")
        return Policy::SarathiSrpf;
    if (name == "medha")
        return Policy::Medha;
    if (name == "dp")
        return Policy::SlosServeDp;
    QOSERVE_FATAL("unknown policy: ", name,
                  " (qoserve|fcfs|edf|sjf|srpf|medha|dp)");
}

ReplicaHwConfig
parseHwName(const std::string &name)
{
    if (name == "llama3-8b-a100-tp1")
        return llama3_8b_a100_tp1();
    if (name == "qwen-7b-a100-tp2")
        return qwen_7b_a100_tp2();
    if (name == "llama3-70b-h100-tp4")
        return llama3_70b_h100_tp4();
    QOSERVE_FATAL("unknown hardware preset: ", name,
                  " (llama3-8b-a100-tp1|qwen-7b-a100-tp2|"
                  "llama3-70b-h100-tp4)");
}

std::string
cliUsage()
{
    return R"(qoserve_sim — QoS-driven LLM serving simulator

workload:
  --dataset NAME        azure-code | azure-conv | sharegpt (default azure-code)
  --tiers NAME          paper | strict (default paper, Table 3)
  --mix A,B,...         tier fractions summing to 1 (default equal)
  --low-priority F      fraction hinted low-priority (default 0)
  --qps X               Poisson arrival rate (default 3)
  --duration S          trace length in seconds (default 600)
  --seed N              workload seed (default 42)
  --trace-in FILE       replay a CSV trace instead of synthesizing

deployment:
  --policy NAME         qoserve | fcfs | edf | sjf | srpf | medha | dp
  --hw NAME             llama3-8b-a100-tp1 | qwen-7b-a100-tp2 |
                        llama3-70b-h100-tp4
  --replicas N          replica count (default 1)
  --lb NAME             rr | least-loaded | jsq (default rr)
  --chunk N             fixed chunk tokens for baselines (default 256)
  --alpha MS            hybrid alpha, ms/token (default 8)
  --adaptive-alpha      enable load-adaptive alpha
  --max-chunk N         QoServe dynamic chunk cap (default 2560)
  --no-solver-cache     disable the chunk-budget solver memo (results
                        are identical; only wall-clock changes)
  --oracle-predictor    use the oracle instead of the random forest
  --jobs N              worker threads for predictor training
                        (default 0 = hardware concurrency; any value
                        yields bit-identical results)

prefix cache:
  --prefix-cache        enable shared-prefix KV cache reuse
  --cache-capacity-frac F  fraction of KV blocks the cache may hold
                        (default 0.5)
  --cache-affinity      route each request to the replica holding the
                        longest cached prefix (requires --prefix-cache)
  --share-ratio F       fraction of synthesized requests drawing a
                        shared prompt prefix (default 0 = all unique)
  --prefix-pools N      system-prompt pool count for shared prefixes
                        (default 8)
  --multi-turn F        fraction of shared requests that continue an
                        earlier conversation (default 0.5)

faults:
  --fault-mtbf S        mean time between replica crashes, seconds
                        (default 0 = no crashes)
  --fault-mttr S        mean time to repair a crashed replica
                        (default 20)
  --straggler-mtbf S    mean time between straggler episodes
                        (default 0 = no stragglers)
  --straggler-duration S  mean straggler episode length (default 10)
  --straggler-factor X  latency multiplier while straggling
                        (default 2)
  --fault-seed N        fault-schedule seed, independent of the
                        workload seed (default 1)
  --max-retries N       re-dispatch budget per failed request
                        (default 3; 0 = never retry)
  --retry-backoff S     initial re-dispatch backoff, doubled per
                        attempt (default 0.05)
  --no-health-aware     route blindly: ignore replica health and
                        slowdown when picking a replica

failure domains:
  --zones N             failure zones the replicas split into,
                        contiguous index ranges (default 0 = none)
  --zone-mtbf S         mean time between outages per zone, seconds
                        (default 0 = off; requires --zones)
  --zone-mttr S         mean time to restore a failed zone
                        (default 30)
  --partition-mtbf S    mean time between control-plane partitions
                        (default 0 = off)
  --partition-mttr S    mean partition duration before the routing
                        view heals (default 10)
  --partition-frac F    fraction of replicas blinded per partition,
                        in (0, 1] (default 0.25)
  --domain-seed N       failure-domain seed, independent of the
                        workload and fault seeds (default 7)

graceful degradation:
  --breaker-threshold N consecutive dispatch failures that trip a
                        replica's circuit breaker (default 0 = off)
  --breaker-cooldown S  seconds a tripped breaker stays open before
                        its half-open probe (default 1)
  --deadline-cancel     abandon a retried request when its completion
                        deadline is provably unreachable
  --brownout            enable the brownout controller
  --brownout-enter T    pending prefill tokens per live replica above
                        which it steps one level deeper (default 4096)
  --brownout-exit T     backlog below which it steps back
                        (default 1024)
  --brownout-interval S controller sampling cadence (default 1)
  --brownout-cap N      decode-token cap at level >= 1 (default 128)
  --brownout-shed-tier N  tier shed at level >= 2 (default -1 = the
                        last tier of the table)

output:
  --trace-out FILE      dump the workload as CSV
  --records-out FILE    dump per-request records as CSV
  --telemetry-out FILE  dump per-iteration engine telemetry as CSV
  --summary-out FILE    dump the run summary as CSV
  --trace FILE          dump the request-lifecycle trace as Chrome /
                        Perfetto trace_event JSON (one process per
                        replica, one thread per request)
  --trace-csv FILE      dump the raw lifecycle events as flat CSV
  --metrics-out FILE    dump the metrics time series as CSV
  --metrics-interval S  metrics sampling cadence in sim seconds
                        (default 5; requires --metrics-out)
  --sketch-out FILE     dump per-tier latency quantile sketches as CSV
  --sketch-alpha E      sketch relative-error bound in (0, 1)
                        (default 0.01; requires --sketch-out)

SLO monitoring (all --slo-alert-* flags require --slo-monitor):
  --slo-monitor         run the multi-window burn-rate monitor as a
                        read-only daemon observer
  --slo-alert-budget F  per-tier violation budget in (0, 1]
                        (default 0.01)
  --slo-alert-burn X    burn-rate threshold that fires an alert
                        (default 14.4)
  --slo-alert-short S   short alert window, sim seconds (default 300)
  --slo-alert-long S    long alert window, sim seconds (default 3600)
  --slo-alert-interval S  monitor evaluation cadence (default 10)
  --slo-alerts-out FILE dump the alert timeline as CSV
  --help                this text
)";
}

CliOptions
parseCliOptions(const std::vector<std::string> &args)
{
    CliOptions opts;

    // Config flags that merely tune an output/subsystem another flag
    // enables: remembered here so the validation below can reject
    // configuration without the enabler.
    bool metricsIntervalSet = false;
    bool sketchAlphaSet = false;
    bool sloAlertFlagSet = false;

    auto need_value = [&](std::size_t i, const std::string &flag) {
        if (i + 1 >= args.size())
            QOSERVE_FATAL("flag ", flag, " requires a value");
        return args[i + 1];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (flag == "--help" || flag == "-h") {
            opts.helpRequested = true;
        } else if (flag == "--dataset") {
            opts.dataset = datasetByName(need_value(i++, flag));
        } else if (flag == "--tiers") {
            std::string v = need_value(i++, flag);
            if (v == "paper")
                opts.tiers = paperTierTable();
            else if (v == "strict")
                opts.tiers = strictTierTable();
            else
                QOSERVE_FATAL("unknown tier table: ", v,
                              " (paper|strict)");
        } else if (flag == "--mix") {
            opts.tierMix = parseMix(flag, need_value(i++, flag));
        } else if (flag == "--low-priority") {
            opts.lowPriorityFraction =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--qps") {
            opts.qps = parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--duration") {
            opts.duration = parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--seed") {
            opts.seed = parseU64(flag, need_value(i++, flag));
        } else if (flag == "--trace-in") {
            opts.traceIn = need_value(i++, flag);
        } else if (flag == "--policy") {
            opts.serving.policy =
                parsePolicyName(need_value(i++, flag));
        } else if (flag == "--hw") {
            opts.serving.hw = parseHwName(need_value(i++, flag));
        } else if (flag == "--replicas") {
            opts.serving.numReplicas =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--lb") {
            opts.loadBalance = parseLb(need_value(i++, flag));
        } else if (flag == "--chunk") {
            opts.serving.base.fixedChunkTokens =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--alpha") {
            opts.serving.qoserve.alphaMsPerToken =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--adaptive-alpha") {
            opts.serving.qoserve.adaptiveAlpha = true;
        } else if (flag == "--max-chunk") {
            opts.serving.qoserve.maxChunkTokens =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--no-solver-cache") {
            opts.serving.qoserve.enableSolverMemo = false;
        } else if (flag == "--oracle-predictor") {
            opts.serving.useForestPredictor = false;
        } else if (flag == "--jobs") {
            opts.serving.trainJobs =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--prefix-cache") {
            opts.serving.prefixCache.enabled = true;
        } else if (flag == "--cache-capacity-frac") {
            opts.serving.prefixCache.capacityFrac =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--cache-affinity") {
            opts.serving.cacheAffinityRouting = true;
        } else if (flag == "--share-ratio") {
            opts.sharedPrefix.shareRatio =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--prefix-pools") {
            opts.sharedPrefix.numPools =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--multi-turn") {
            opts.sharedPrefix.multiTurnFrac =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--fault-mtbf") {
            opts.fault.crashMtbf =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--fault-mttr") {
            opts.fault.crashMttr =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--straggler-mtbf") {
            opts.fault.stragglerMtbf =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--straggler-duration") {
            opts.fault.stragglerDuration =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--straggler-factor") {
            opts.fault.stragglerFactor =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--fault-seed") {
            opts.fault.seed = parseU64(flag, need_value(i++, flag));
        } else if (flag == "--max-retries") {
            opts.retry.maxRetries =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--retry-backoff") {
            opts.retry.initialBackoff =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--no-health-aware") {
            opts.healthAwareRouting = false;
        } else if (flag == "--zones") {
            opts.domains.zones =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--zone-mtbf") {
            opts.domains.zoneMtbf =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--zone-mttr") {
            opts.domains.zoneMttr =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--partition-mtbf") {
            opts.domains.partitionMtbf =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--partition-mttr") {
            opts.domains.partitionMttr =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--partition-frac") {
            opts.domains.partitionFrac =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--domain-seed") {
            opts.domains.seed = parseU64(flag, need_value(i++, flag));
        } else if (flag == "--breaker-threshold") {
            opts.breaker.failureThreshold =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--breaker-cooldown") {
            opts.breaker.cooldown =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--deadline-cancel") {
            opts.deadlineCancel = true;
        } else if (flag == "--brownout") {
            opts.brownout.enabled = true;
        } else if (flag == "--brownout-enter") {
            opts.brownout.enterBacklog =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--brownout-exit") {
            opts.brownout.exitBacklog =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--brownout-interval") {
            opts.brownout.interval =
                parseDouble(flag, need_value(i++, flag));
        } else if (flag == "--brownout-cap") {
            opts.brownout.capTokens =
                parseCount(flag, need_value(i++, flag));
        } else if (flag == "--brownout-shed-tier") {
            opts.brownout.shedTier = parseInt(flag, need_value(i++, flag));
        } else if (flag == "--trace-out") {
            opts.traceOut = need_value(i++, flag);
        } else if (flag == "--trace") {
            opts.traceJsonOut = need_value(i++, flag);
        } else if (flag == "--trace-csv") {
            opts.traceEventsOut = need_value(i++, flag);
        } else if (flag == "--metrics-out") {
            opts.metricsOut = need_value(i++, flag);
        } else if (flag == "--metrics-interval") {
            opts.metricsInterval =
                parseDouble(flag, need_value(i++, flag));
            metricsIntervalSet = true;
        } else if (flag == "--sketch-out") {
            opts.sketchOut = need_value(i++, flag);
        } else if (flag == "--sketch-alpha") {
            opts.sketchAlpha =
                parseDouble(flag, need_value(i++, flag));
            sketchAlphaSet = true;
        } else if (flag == "--slo-monitor") {
            opts.sloMonitor = true;
        } else if (flag == "--slo-alert-budget") {
            opts.sloAlert.budget =
                parseDouble(flag, need_value(i++, flag));
            sloAlertFlagSet = true;
        } else if (flag == "--slo-alert-burn") {
            opts.sloAlert.burn =
                parseDouble(flag, need_value(i++, flag));
            sloAlertFlagSet = true;
        } else if (flag == "--slo-alert-short") {
            opts.sloAlert.shortWindow =
                parseDouble(flag, need_value(i++, flag));
            sloAlertFlagSet = true;
        } else if (flag == "--slo-alert-long") {
            opts.sloAlert.longWindow =
                parseDouble(flag, need_value(i++, flag));
            sloAlertFlagSet = true;
        } else if (flag == "--slo-alert-interval") {
            opts.sloAlert.interval =
                parseDouble(flag, need_value(i++, flag));
            sloAlertFlagSet = true;
        } else if (flag == "--slo-alerts-out") {
            opts.sloAlertsOut = need_value(i++, flag);
        } else if (flag == "--records-out") {
            opts.recordsOut = need_value(i++, flag);
        } else if (flag == "--telemetry-out") {
            opts.telemetryOut = need_value(i++, flag);
        } else if (flag == "--summary-out") {
            opts.summaryOut = need_value(i++, flag);
        } else {
            QOSERVE_FATAL("unknown flag: ", flag,
                          " (try --help)");
        }
    }

    opts.validate();

    // Flags that only tune what another flag enables.
    if (metricsIntervalSet && !opts.metricsOut)
        QOSERVE_FATAL("--metrics-interval requires --metrics-out: "
                      "the cadence configures the metrics series "
                      "that flag enables");
    if (sketchAlphaSet && !opts.sketchOut)
        QOSERVE_FATAL("--sketch-alpha requires --sketch-out: the "
                      "accuracy configures the sketch bank that flag "
                      "enables");
    if (sloAlertFlagSet && !opts.sloMonitor)
        QOSERVE_FATAL("--slo-alert-* flags require --slo-monitor: "
                      "they configure the burn-rate monitor that "
                      "flag enables");
    return opts;
}

} // namespace qoserve
