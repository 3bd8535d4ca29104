/**
 * @file
 * Workload table and single-run harness (see workloads.hh).
 */

#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>

#include "app/qoserve.hh"
#include "layer_timing.hh"
#include "obs/metrics_registry.hh"
#include "obs/quantile_sketch.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"

namespace qoserve {
namespace perfbench {

namespace {

/** Prefix-cache capacity (share of KV blocks) where the cache is on. */
constexpr double kPrefixCacheCapacity = 0.025;

/**
 * Laps of run() per session: the arrival window is cut into this many
 * equal stretches of simulated time, and the drain after it is the
 * last lap.
 */
constexpr int kLapsPerSession = 40;

} // namespace

SchedulerFactory
timedSchedulerFactory(const ServingConfig &cfg, SpanLedger &ledger,
                      KvOccupancy &kv)
{
    switch (cfg.policy) {
      case Policy::QoServe:
        return [&ledger, &kv, qos = cfg.qoserve, base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<TimedScheduler<QoServeScheduler>>(
                ledger, kv, env, qos, base);
        };
      case Policy::SarathiFcfs:
        return [&ledger, &kv, base = cfg.base](
                   const SchedulerEnv &env) -> std::unique_ptr<Scheduler> {
            return std::make_unique<TimedScheduler<FcfsScheduler>>(
                ledger, kv, env, base);
        };
      default:
        QOSERVE_FATAL("no timed scheduler for policy ",
                      policyName(cfg.policy));
    }
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v;

        Workload r64;
        r64.name = "qoserve_r64";
        r64.policy = Policy::QoServe;
        r64.replicas = 64;
        r64.qpsPerReplica = 2.0;
        r64.duration = 1200.0;
        v.push_back(r64);

        Workload fcfs;
        fcfs.name = "fcfs_sharegpt_r256";
        fcfs.policy = Policy::SarathiFcfs;
        fcfs.dataset = sharegpt();
        fcfs.replicas = 256;
        fcfs.qpsPerReplica = 1.0;
        fcfs.duration = 200.0;
        fcfs.lb = LoadBalancePolicy::LeastLoaded;
        v.push_back(fcfs);

        // At 3 QPS a replica's backlog grows for as long as arrivals
        // last, and the eviction scan's cost grows with it, so one
        // long trace's cost varies several-fold between seeds; many
        // short sessions average that out. At capacity 0.025 the
        // cache fills early in each session, so eviction still runs
        // through most of it (README, "Capacity").
        Workload prefix;
        prefix.name = "prefix_affinity_r8";
        prefix.policy = Policy::QoServe;
        prefix.replicas = 8;
        prefix.qpsPerReplica = 3.0;
        prefix.duration = 5.0;
        prefix.sessions = 64;
        prefix.sharedPrefix.shareRatio = 0.6;
        prefix.sharedPrefix.multiTurnFrac = 0.5;
        prefix.sharedPrefix.numPools = 8;
        prefix.prefixCache = true;
        v.push_back(prefix);

        Workload observed;
        observed.name = "observed_r16";
        observed.policy = Policy::QoServe;
        observed.replicas = 16;
        observed.qpsPerReplica = 2.0;
        observed.duration = 600.0;
        observed.observers = true;
        v.push_back(observed);

        return v;
    }();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

Mode
parseMode(const std::string &name)
{
    if (name == "plain")
        return Mode::Plain;
    if (name == "traced")
        return Mode::Traced;
    if (name == "noaudit")
        return Mode::TracedNoAudit;
    QOSERVE_FATAL("unknown mode '", name,
                  "' (expected plain, traced or noaudit)");
}

namespace {

/** FNV-1a 64 over a file's bytes, continuing from @p hash. */
std::uint64_t
hashFile(const std::string &path, std::uint64_t hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        QOSERVE_FATAL("cannot read ", path);
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
        for (std::streamsize i = 0; i < in.gcount(); ++i) {
            hash ^= static_cast<unsigned char>(buf[i]);
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

/** Lines in a file, or -1 when it is missing. */
std::int64_t
countLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return -1;
    std::int64_t lines = 0;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
        for (std::streamsize i = 0; i < in.gcount(); ++i)
            lines += buf[i] == '\n';
    }
    return lines;
}

/** File size in bytes, or -1 when it is missing. */
std::int64_t
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? static_cast<std::int64_t>(in.tellg()) : -1;
}

/** @p fn, timed as @p span when @p ledger is non-null. */
template <class Sig, class Fn>
std::function<Sig>
hook(SpanLedger *ledger, Span span, Fn fn)
{
    if (ledger == nullptr)
        return fn;
    return [ledger, span, fn = std::move(fn)](auto &&...args) {
        ScopedSpan scope(*ledger, span);
        return fn(std::forward<decltype(args)>(args)...);
    };
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Raw sums over one process's sessions; ratios are taken at the end. */
struct Tally
{
    std::uint64_t digest = 14695981039346656037ull;
    double synthSeconds = 0.0;
    double buildSeconds = 0.0;
    double exportSeconds = 0.0;
    double summarizeSeconds = 0.0;
    double writeSeconds = 0.0;

    double promptTokens = 0.0;
    double decodeTokens = 0.0;
    double sharedRequests = 0.0;
    std::vector<double> headlineLatencies;
    std::size_t violated = 0;

    ChunkSolverCache::Stats solver;
    SchedulerStats sched;
    PrefixCacheStats prefix;
    double iterations = 0.0;
    double busySeconds = 0.0;
    double replicaSeconds = 0.0;
    double poolSlots = 0.0;

    double samples = 0.0;
    double traceEvents = 0.0;
    double exportBytes = 0.0;
};

/**
 * One trace through a fresh cluster: synthesis and wiring count as
 * set-up, ClusterSim::run() as run, exports and CSVs as post.
 */
void
runSession(const Workload &w, const ServingConfig &sc, std::uint64_t seed,
           const LatencyPredictor *predictor, const RunOptions &opts,
           SpanLedger &ledger, KvOccupancy &occupancy, RunResult &res,
           Tally &tally)
{
    using RecordFn = void(const RequestRecord &);
    const bool traced = opts.mode != Mode::Plain;
    SpanLedger *hooks = traced ? &ledger : nullptr;
    const std::string dir = opts.outDir + "/";

    const Clock::time_point t0 = Clock::now();
    Trace trace = TraceBuilder()
                      .dataset(w.dataset)
                      .tiers(paperTierTable())
                      .sharedPrefix(w.sharedPrefix)
                      .seed(seed)
                      .build(PoissonArrivals(w.qpsPerReplica * w.replicas),
                             w.duration);
    const Clock::time_point t1 = Clock::now();

    const std::size_t requests = trace.requests.size();
    for (const RequestSpec &spec : trace.requests) {
        tally.promptTokens += spec.promptTokens;
        tally.decodeTokens += spec.decodeTokens;
        tally.sharedRequests += spec.promptSegments.empty() ? 0.0 : 1.0;
    }

    std::optional<InvariantAuditor> fullAuditor;
    TraceSink traceSink;
    MetricsRegistry registry;
    TelemetryRecorder telemetry;
    std::map<std::string, QuantileSketch> sketchBank;

    ClusterSim::Config cc;
    cc.replica.hw = sc.hw;
    cc.replica.perfParams = sc.perfParams;
    cc.replica.prefixCache = sc.prefixCache;
    cc.cacheAffinityRouting = sc.cacheAffinityRouting;
    cc.predictor = predictor;
    ClusterSim sim(cc, std::move(trace));
    if (opts.mode == Mode::TracedNoAudit) {
        sim.setAuditor(nullptr);
    } else if (opts.fullAudit) {
        InvariantAuditor::Options ao;
        ao.level = audit::CheckLevel::Full;
        fullAuditor.emplace(ao);
        sim.setAuditor(&*fullAuditor);
    }
    sim.addReplicaGroup(w.replicas,
                        traced ? timedSchedulerFactory(sc, ledger, occupancy)
                               : makeSchedulerFactory(sc),
                        w.lb);

    // Every observer qoserve_sim can attach, wired the same way.
    std::optional<RecordsCsvStreamWriter> recordsWriter;
    std::optional<SloMonitor> sloMonitor;
    std::optional<MetricsSampler> sampler;
    if (w.observers) {
        sim.setTraceSink(&traceSink);

        recordsWriter.emplace(sim.tiers(), dir + "records.csv");
        sim.metricsCollector().setRecordSink(hook<RecordFn>(
            hooks, Span::RecordCallback,
            [&recordsWriter](const RequestRecord &rec) {
                recordsWriter->write(rec);
            }));

        sim.metricsCollector().addRecordObserver(hook<RecordFn>(
            hooks, Span::RecordCallback,
            [&sketchBank, &sim](const RequestRecord &rec) {
                const QosTier &tier = sim.tiers()[rec.spec.tierId];
                const std::string prefix =
                    "tier" + std::to_string(rec.spec.tierId);
                auto sketchFor =
                    [&](const std::string &name) -> QuantileSketch & {
                    auto it = sketchBank.find(name);
                    if (it == sketchBank.end())
                        it = sketchBank.emplace(name, QuantileSketch(0.01))
                                 .first;
                    return it->second;
                };
                sketchFor(prefix + ".headline")
                    .insert(headlineLatency(rec, tier));
                sketchFor(prefix + ".ttft").insert(rec.ttft());
                sketchFor(prefix + ".ttlt").insert(rec.ttlt());
            }));

        TraceScope monitorScope;
        monitorScope.sink = &traceSink;
        monitorScope.clock = &sim.eventQueue();
        sloMonitor.emplace(sim.eventQueue(), monitorScope,
                           SloMonitorConfig{});
        sim.metricsCollector().addRecordObserver(hook<RecordFn>(
            hooks, Span::RecordCallback,
            [&sloMonitor, &sim](const RequestRecord &rec) {
                sloMonitor->observe(
                    rec.spec.tierId, sim.eventQueue().now(),
                    violatedSlo(rec, sim.tiers()[rec.spec.tierId]));
            }));
        sloMonitor->start();

        for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
            sim.replica(i).setBatchObserver(
                hook<void(const BatchObservation &)>(
                    hooks, Span::Telemetry,
                    telemetry.observerFor(
                        ReplicaId{static_cast<int>(i)})));
        }

        sampler.emplace(
            sim.eventQueue(), registry, 1.0,
            hook<void(MetricsRegistry &, SimTime)>(
                hooks, Span::Sampler,
                [&sim](MetricsRegistry &reg, SimTime) {
                    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
                        const Replica &rep = sim.replica(i);
                        const std::string tag = std::to_string(i);
                        reg.gauge("replica" + tag + "_prefill_queue") =
                            static_cast<double>(
                                rep.scheduler().prefillQueueSize());
                        reg.gauge("replica" + tag + "_decode_queue") =
                            static_cast<double>(
                                rep.scheduler().decodeQueueSize());
                        reg.gauge("replica" + tag +
                                  "_pending_prefill_tokens") =
                            static_cast<double>(
                                rep.scheduler().pendingPrefillTokens());
                        reg.gauge("replica" + tag + "_kv_blocks_used") =
                            static_cast<double>(rep.kv().usedBlocks());
                        reg.gauge("replica" + tag + "_up") =
                            rep.health() == ReplicaHealth::Down ? 0.0
                                                                : 1.0;
                        reg.histogram("queue_depth",
                                      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                       64.0, 128.0})
                            .observe(static_cast<double>(
                                rep.scheduler().prefillQueueSize()));
                        reg.histogram("batch_occupancy",
                                      {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
                                       64.0})
                            .observe(static_cast<double>(
                                rep.scheduler().decodeQueueSize()));
                    }
                    reg.counter("redispatches") =
                        static_cast<std::int64_t>(sim.redispatches());
                    reg.counter("retries_exhausted") =
                        static_cast<std::int64_t>(sim.retriesExhausted());
                    reg.counter("admission_rejected") =
                        static_cast<std::int64_t>(
                            sim.admission().rejected());
                    reg.counter("requests_completed") =
                        static_cast<std::int64_t>(sim.metrics().size());
                }));
        sampler->start();
    }

    // Lap timer: a daemon tick at each lap boundary inside the arrival
    // window, where real work is always pending, so no tick outlives
    // the run. Ticks only read the clock, and they fire in the same
    // order in every mode, so the simulation is unchanged.
    const SimDuration lapLength = w.duration / kLapsPerSession;
    Clock::time_point lapStart;
    int ticks = 0;
    EventFn tick = [&] {
        const Clock::time_point now = Clock::now();
        res.lapSeconds.push_back(secondsBetween(lapStart, now));
        lapStart = now;
        if (++ticks < kLapsPerSession - 1)
            sim.eventQueue().scheduleDaemonAfter(lapLength, tick);
    };
    sim.eventQueue().scheduleDaemonAfter(lapLength, tick);
    const Clock::time_point t2 = Clock::now();
    lapStart = t2;

    const MetricsCollector &metrics = sim.run();
    const Clock::time_point t3 = Clock::now();
    res.lapSeconds.push_back(secondsBetween(lapStart, t3));

    const std::string observerFiles[] = {"telemetry.csv", "trace.json",
                                         "trace_events.csv", "metrics.csv",
                                         "sketches.csv", "alerts.csv"};
    // Each export is a post part of its own, so each file's fastest
    // write can come from a different process.
    Clock::time_point partStart = t3;
    auto endPart = [&] {
        const Clock::time_point now = Clock::now();
        res.postParts.push_back(secondsBetween(partStart, now));
        partStart = now;
    };
    if (w.observers) {
        telemetry.writeCsvFile(dir + "telemetry.csv");
        endPart();
        writePerfettoJsonFile(traceSink.events(), dir + "trace.json");
        endPart();
        traceSink.writeCsvFile(dir + "trace_events.csv");
        endPart();
        registry.writeCsvFile(dir + "metrics.csv");
        endPart();
        writeSketchBankCsvFile(sketchBank, dir + "sketches.csv");
        endPart();
        writeAlertsCsvFile(sloMonitor->alerts(), dir + "alerts.csv");
    }
    endPart();
    const Clock::time_point t4 = partStart;
    const RunSummary summary = summarize(metrics);
    endPart();
    const Clock::time_point t5 = partStart;
    if (recordsWriter)
        recordsWriter->close();
    else
        writeRecordsCsvFile(metrics, dir + "records.csv");
    {
        std::ofstream out(dir + "summary.csv");
        writeSummaryCsv(summary, out);
        if (!out)
            QOSERVE_FATAL("cannot write ", dir, "summary.csv");
    }
    endPart();
    const Clock::time_point t6 = partStart;

    const double run_s = secondsBetween(t2, t3);
    res.requests += requests;
    res.events += sim.eventQueue().firedEvents() - ticks;
    res.setupSeconds += secondsBetween(t0, t2);
    res.runSeconds += run_s;
    res.postSeconds += secondsBetween(t3, t6);
    for (const auto &[from, to] : {std::pair{t0, t1}, std::pair{t1, t2}})
        res.setupParts.push_back(secondsBetween(from, to));
    tally.synthSeconds += secondsBetween(t0, t1);
    tally.buildSeconds += secondsBetween(t1, t2);
    tally.exportSeconds += w.observers ? secondsBetween(t3, t4) : 0.0;
    tally.summarizeSeconds += secondsBetween(t4, t5);
    tally.writeSeconds += secondsBetween(t5, t6);

    // Correctness: digest, lost requests, artefacts.
    tally.digest = hashFile(dir + "summary.csv",
                            hashFile(dir + "records.csv", tally.digest));
    for (const RequestRecord &rec : metrics.records()) {
        res.completed += !rec.rejected && !rec.retryExhausted;
        const QosTier &tier = sim.tiers()[rec.spec.tierId];
        tally.headlineLatencies.push_back(headlineLatency(rec, tier));
        tally.violated += violatedSlo(rec, tier);
    }

    std::map<std::string, std::int64_t> rows;
    rows["records.csv"] = countLines(dir + "records.csv") - 1;
    rows["summary.csv"] = countLines(dir + "summary.csv") - 1;
    bool ok = rows["records.csv"] == static_cast<std::int64_t>(requests) &&
              rows["summary.csv"] > 0;
    if (w.observers) {
        for (const std::string &f : observerFiles) {
            rows[f] = f == "trace.json" ? fileBytes(dir + f)
                                        : countLines(dir + f) - 1;
            tally.exportBytes += static_cast<double>(fileBytes(dir + f));
        }
        ok = ok &&
             rows["telemetry.csv"] ==
                 static_cast<std::int64_t>(telemetry.size()) &&
             rows["trace.json"] > 0 &&
             rows["trace_events.csv"] ==
                 static_cast<std::int64_t>(traceSink.size()) &&
             rows["metrics.csv"] ==
                 static_cast<std::int64_t>(sampler->samples()) &&
             rows["sketches.csv"] > 0 &&
             rows["alerts.csv"] ==
                 static_cast<std::int64_t>(sloMonitor->alerts().size());
        tally.samples += static_cast<double>(sampler->samples());
        tally.traceEvents += static_cast<double>(traceSink.size());
    }
    res.artefactsOk = res.artefactsOk && ok;

    // Layer counters the library already keeps.
    for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
        const Replica &rep = sim.replica(i);
        if (const auto *q =
                dynamic_cast<const QoServeScheduler *>(&rep.scheduler())) {
            tally.solver.solves += q->solverCacheStats().solves;
            tally.solver.replayHits += q->solverCacheStats().replayHits;
            tally.solver.queries += q->solverCacheStats().queries;
            tally.solver.hits += q->solverCacheStats().hits;
        }
        const SchedulerStats &s = rep.scheduler().stats();
        tally.sched.batchesFormed += s.batchesFormed;
        tally.sched.prefillTokensScheduled += s.prefillTokensScheduled;
        tally.sched.decodeTokensScheduled += s.decodeTokensScheduled;
        tally.sched.relegations += s.relegations;
        tally.sched.kvPreemptions += s.kvPreemptions;
        const PrefixCacheStats &p = rep.prefixCache().stats();
        tally.prefix.lookups += p.lookups;
        tally.prefix.hits += p.hits;
        tally.prefix.tokensAttached += p.tokensAttached;
        tally.prefix.blocksInserted += p.blocksInserted;
        tally.prefix.blocksEvicted += p.blocksEvicted;
        tally.prefix.cowCopies += p.cowCopies;
        tally.iterations += static_cast<double>(rep.iterations());
        tally.busySeconds += rep.busyTime();
    }
    tally.replicaSeconds += sim.eventQueue().now().seconds() *
                            static_cast<double>(sim.numReplicas());
    tally.poolSlots =
        std::max(tally.poolSlots,
                 static_cast<double>(sim.eventQueue().poolSlots()));
}

} // namespace

RunResult
runWorkload(const Workload &w, std::uint64_t seed, const RunOptions &opts)
{
    ServingConfig sc;
    sc.numReplicas = w.replicas;
    sc.policy = w.policy;
    sc.trainJobs = 1;
    sc.qoserve.enableSolverMemo = opts.solverMemo;
    sc.prefixCache.enabled = w.prefixCache;
    sc.prefixCache.capacityFrac = kPrefixCacheCapacity;
    sc.cacheAffinityRouting = w.prefixCache;

    RunResult res;
    Tally tally;
    SpanLedger ledger;
    KvOccupancy occupancy;

    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<const LatencyPredictor> predictor = makePredictor(sc);
    const double train_s = secondsBetween(t0, Clock::now());
    res.setupParts.push_back(train_s);
    std::optional<TimedPredictor> timedPredictor;
    if (opts.mode != Mode::Plain && predictor)
        timedPredictor.emplace(*predictor, ledger);

    for (int k = 0; k < w.sessions; ++k) {
        runSession(w, sc, seed * static_cast<std::uint64_t>(w.sessions) + k,
                   timedPredictor ? &*timedPredictor : predictor.get(), opts,
                   ledger, occupancy, res, tally);
    }
    res.setupSeconds += train_s;

    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(tally.digest));
    res.digest = digest;
    res.lost = res.requests - res.completed;
    res.violationPct =
        100.0 * ratio(static_cast<double>(tally.violated),
                      static_cast<double>(tally.headlineLatencies.size()));
    res.headlineP99 = percentile(tally.headlineLatencies, 99.0);

    auto &layer = res.layers;
    const double n = static_cast<double>(res.requests);
    auto spanLayer = [&](const std::string &name, Span span) {
        const SpanLedger::Totals &t = ledger.totals(span);
        layer[name + "_s"] = t.seconds;
        layer[name + "_calls"] = static_cast<double>(t.calls);
    };

    layer["workload.synth_s"] = tally.synthSeconds;
    layer["workload.requests"] = n;
    layer["workload.shared_prefix_frac"] = ratio(tally.sharedRequests, n);
    layer["workload.mean_prompt_tokens"] = ratio(tally.promptTokens, n);
    layer["workload.mean_decode_tokens"] = ratio(tally.decodeTokens, n);

    const ChunkSolverCache::Stats &solver = tally.solver;
    layer["predictor.train_s"] = predictor ? train_s : 0.0;
    layer["predictor.plane_builds"] = static_cast<double>(
        ledger.totals(Span::PredictorPlaneBuild).calls);
    layer["predictor.plane_build_s"] =
        ledger.totals(Span::PredictorPlaneBuild).seconds;
    layer["predictor.predict_calls"] =
        static_cast<double>(ledger.totals(Span::PredictorPredict).calls);
    layer["predictor.predict_s"] =
        ledger.totals(Span::PredictorPredict).seconds;
    layer["predictor.solves"] = static_cast<double>(solver.solves);
    layer["predictor.solve_replay_ratio"] =
        ratio(static_cast<double>(solver.replayHits),
              static_cast<double>(solver.solves));
    layer["predictor.plane_hit_ratio"] = ratio(
        static_cast<double>(solver.hits), static_cast<double>(solver.queries));

    const SchedulerStats &sched = tally.sched;
    spanLayer("sched.enqueue", Span::SchedEnqueue);
    spanLayer("sched.form_batch", Span::SchedFormBatch);
    spanLayer("sched.complete", Span::SchedComplete);
    spanLayer("sched.chunk_budget", Span::SchedChunkBudget);
    layer["sched.form_batch_self_s"] =
        ledger.totals(Span::SchedFormBatch).selfSeconds;
    layer["sched.complete_self_s"] =
        ledger.totals(Span::SchedComplete).selfSeconds;
    layer["sched.batches"] = static_cast<double>(sched.batchesFormed);
    layer["sched.prefill_tokens"] =
        static_cast<double>(sched.prefillTokensScheduled);
    layer["sched.decode_tokens"] =
        static_cast<double>(sched.decodeTokensScheduled);
    layer["sched.relegations"] = static_cast<double>(sched.relegations);

    layer["kvcache.mean_used_frac"] =
        ratio(occupancy.sumFrac, static_cast<double>(occupancy.samples));
    layer["kvcache.peak_used_frac"] = occupancy.peakFrac;
    layer["kvcache.preemptions"] = static_cast<double>(sched.kvPreemptions);

    const PrefixCacheStats &prefix = tally.prefix;
    layer["prefixcache.lookups"] = static_cast<double>(prefix.lookups);
    layer["prefixcache.hit_ratio"] =
        ratio(static_cast<double>(prefix.hits),
              static_cast<double>(prefix.lookups));
    layer["prefixcache.tokens_reused_frac"] =
        ratio(static_cast<double>(prefix.tokensAttached), tally.promptTokens);
    layer["prefixcache.blocks_inserted"] =
        static_cast<double>(prefix.blocksInserted);
    layer["prefixcache.blocks_evicted"] =
        static_cast<double>(prefix.blocksEvicted);
    layer["prefixcache.cow_copies"] = static_cast<double>(prefix.cowCopies);

    // Outermost spans are the timed children of run(); what is left is
    // the kernel, routing, replica glue, prefix attach/probe and the
    // auditor. Untraced runs time no children.
    const double events = static_cast<double>(res.events);
    const double run_self = res.runSeconds - ledger.topLevelSeconds();
    layer["cluster.build_s"] = tally.buildSeconds;
    layer["cluster.run_s"] = res.runSeconds;
    layer["cluster.run_self_s"] = run_self;
    layer["cluster.self_ns_per_event"] = ratio(run_self * 1e9, events);
    layer["cluster.iterations"] = tally.iterations;
    layer["cluster.busy_frac"] =
        ratio(tally.busySeconds, tally.replicaSeconds);
    layer["simcore.events"] = events;
    layer["simcore.pool_slots"] = tally.poolSlots;

    layer["metrics.summarize_s"] = tally.summarizeSeconds;
    layer["metrics.records_write_s"] = tally.writeSeconds;
    layer["metrics.record_callbacks_s"] =
        ledger.totals(Span::RecordCallback).seconds;
    layer["metrics.sampler_s"] = ledger.totals(Span::Sampler).seconds;
    layer["metrics.samples"] = tally.samples;
    layer["metrics.telemetry_s"] = ledger.totals(Span::Telemetry).seconds;
    layer["metrics.violation_pct"] = res.violationPct;

    layer["obs.trace_events"] = tally.traceEvents;
    layer["obs.export_s"] = tally.exportSeconds;
    layer["obs.export_mb"] = tally.exportBytes / (1024.0 * 1024.0);
    return res;
}

} // namespace perfbench
} // namespace qoserve
