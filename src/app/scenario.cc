/**
 * @file
 * Scenario validation, trace building and the run itself.
 */

#include "app/scenario.hh"

#include <map>
#include <ostream>

#include "app/cli_options.hh"
#include "core/csv.hh"
#include "metrics/report_io.hh"
#include "metrics/telemetry.hh"
#include "obs/metrics_registry.hh"
#include "obs/quantile_sketch.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"
#include "simcore/logging.hh"
#include "workload/arrival.hh"
#include "workload/trace_io.hh"

namespace qoserve {

void
Scenario::validate() const
{
    for (const FlagRow &row : flagTable())
        row.checkRange(*this);
    serving.prefixCache.validate();
    sharedPrefix.validate();

    // Rules that relate two fields; every single-field range is a row.
    if (serving.qoserve.maxChunkTokens < QoServeConfig::kMinChunkTokens)
        QOSERVE_FATAL("--max-chunk must be at least the chunk floor (",
                      QoServeConfig::kMinChunkTokens, " tokens), got ",
                      serving.qoserve.maxChunkTokens);
    if (serving.cacheAffinityRouting && !serving.prefixCache.enabled)
        QOSERVE_FATAL("--cache-affinity requires --prefix-cache");
    if (domains.zones > serving.numReplicas)
        QOSERVE_FATAL("--zones (", domains.zones, ") exceeds --replicas (",
                      serving.numReplicas, ")");
    if (domains.zoneMtbf > 0.0 && domains.zones == 0)
        QOSERVE_FATAL("--zone-mtbf requires --zones");
    if (brownout.enabled) {
        if (!(brownout.exitBacklog < brownout.enterBacklog))
            QOSERVE_FATAL("--brownout-exit (", brownout.exitBacklog,
                          ") must be below --brownout-enter (",
                          brownout.enterBacklog, ")");
        if (brownout.shedTier >= static_cast<int>(tiers.size()))
            QOSERVE_FATAL("--brownout-shed-tier ", brownout.shedTier,
                          " outside the tier table (", tiers.size(),
                          " tiers)");
    }
    if (sloAlertsOut && !sloMonitor)
        QOSERVE_FATAL("--slo-alerts-out requires --slo-monitor");
    if (sloMonitor && sloAlert.shortWindow > sloAlert.longWindow)
        QOSERVE_FATAL("--slo-alert-short (", sloAlert.shortWindow,
                      ") must not exceed --slo-alert-long (",
                      sloAlert.longWindow, ")");
}

Trace
buildTrace(const Scenario &sc, std::ostream *log_to)
{
    std::ostream discard(nullptr);
    std::ostream &log = log_to ? *log_to : discard;
    if (sc.traceIn) {
        Trace trace = readTraceCsvFile(*sc.traceIn, sc.tiers);
        log << "replaying " << trace.requests.size()
            << " requests from " << *sc.traceIn << "\n";
        return trace;
    }
    TraceBuilder builder = TraceBuilder()
                               .dataset(sc.dataset)
                               .tiers(sc.tiers)
                               .tierMix(sc.tierMix)
                               .lowPriorityFraction(sc.lowPriorityFraction)
                               .sharedPrefix(sc.sharedPrefix)
                               .seed(sc.seed);
    PoissonArrivals arrivals(sc.qps);
    if (sc.requestCount > 0)
        return builder.buildCount(arrivals, sc.requestCount);
    Trace trace = builder.build(arrivals, sc.duration);
    log << "synthesized " << trace.requests.size() << " requests ("
        << sc.dataset.name << " at " << sc.qps << " QPS over "
        << sc.duration << " s)\n";
    if (sc.sharedPrefix.enabled()) {
        log << "shared prefixes: ratio " << sc.sharedPrefix.shareRatio
            << ", " << sc.sharedPrefix.numPools
            << " prompt pools, multi-turn fraction "
            << sc.sharedPrefix.multiTurnFrac << "\n";
    }
    return trace;
}

namespace {

/** One replica's cells in the metrics registry. The registry keeps
 *  every cell at a fixed address, so once resolved they are written
 *  without building a name or looking one up. */
struct ReplicaCells
{
    double *prefillQueue = nullptr;
    double *decodeQueue = nullptr;
    double *pendingPrefillTokens = nullptr;
    double *kvBlocksUsed = nullptr;
    double *up = nullptr;
    MetricsHistogram *queueDepth = nullptr;     ///< Shared by all.
    MetricsHistogram *batchOccupancy = nullptr; ///< Shared by all.
};

/** Sample live queue, KV and health state into @p reg. The first
 *  sample resolves @p cells, creating the cells in the order their
 *  columns have always been interned in. Degradation cells exist only
 *  when their feature is on: columns are name-ordered, so a
 *  disabled-feature run keeps the exact pre-existing CSV bytes. */
void
sampleMetrics(MetricsRegistry &reg, std::vector<ReplicaCells> &cells,
              const Scenario &sc, const ClusterSim &sim,
              const BrownoutController &brownout)
{
    if (cells.empty()) {
        for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
            const std::string tag = "replica" + std::to_string(i);
            ReplicaCells c;
            c.prefillQueue = &reg.gauge(tag + "_prefill_queue");
            c.decodeQueue = &reg.gauge(tag + "_decode_queue");
            c.pendingPrefillTokens =
                &reg.gauge(tag + "_pending_prefill_tokens");
            c.kvBlocksUsed = &reg.gauge(tag + "_kv_blocks_used");
            c.up = &reg.gauge(tag + "_up");
            c.queueDepth = &reg.histogram(
                "queue_depth",
                {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
            c.batchOccupancy = &reg.histogram(
                "batch_occupancy",
                {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
            cells.push_back(c);
        }
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Replica &rep = sim.replica(i);
        const ReplicaCells &c = cells[i];
        const auto prefill =
            static_cast<double>(rep.scheduler().prefillQueueSize());
        const auto decode =
            static_cast<double>(rep.scheduler().decodeQueueSize());
        *c.prefillQueue = prefill;
        *c.decodeQueue = decode;
        *c.pendingPrefillTokens =
            static_cast<double>(rep.scheduler().pendingPrefillTokens());
        *c.kvBlocksUsed = static_cast<double>(rep.kv().usedBlocks());
        *c.up = rep.health() == ReplicaHealth::Down ? 0.0 : 1.0;
        c.queueDepth->observe(prefill);
        c.batchOccupancy->observe(decode);
    }
    reg.counter("redispatches") =
        static_cast<std::int64_t>(sim.redispatches());
    reg.counter("retries_exhausted") =
        static_cast<std::int64_t>(sim.retriesExhausted());
    reg.counter("admission_rejected") =
        static_cast<std::int64_t>(sim.admission().rejected());
    reg.counter("requests_completed") =
        static_cast<std::int64_t>(sim.metrics().size());
    if (sc.breaker.enabled())
        reg.counter("breaker_trips") =
            static_cast<std::int64_t>(sim.breakerTrips());
    if (sc.deadlineCancel)
        reg.counter("deadline_cancelled") =
            static_cast<std::int64_t>(sim.deadlineCancelled());
    if (sc.domains.partitionsEnabled())
        reg.gauge("replicas_blinded") =
            static_cast<double>(sim.blindedReplicas());
    if (sc.brownout.enabled) {
        reg.gauge("brownout_level") =
            static_cast<double>(brownout.level());
        reg.counter("brownout_shed") =
            static_cast<std::int64_t>(sim.brownoutShed());
    }
}

} // namespace

ScenarioResult
runScenario(const Scenario &sc, Trace trace, const RunHooks &hooks)
{
    sc.validate();
    std::ostream discard(nullptr);
    std::ostream &log = hooks.log ? *hooks.log : discard;
    const ServingConfig &serving = sc.serving;
    const bool tracing = sc.traceJsonOut || sc.traceEventsOut;
    if (sc.traceOut)
        writeTraceCsvFile(trace, *sc.traceOut);

    log << "policy " << policyName(serving.policy) << ", "
        << serving.numReplicas << "x " << serving.hw.model.name
        << " on " << serving.hw.gpu.name << " (TP"
        << serving.hw.tpDegree << "), "
        << loadBalanceName(sc.loadBalance) << " balancing\n";
    if (serving.prefixCache.enabled) {
        log << "prefix cache: capacity frac "
            << serving.prefixCache.capacityFrac
            << ", affinity routing "
            << (serving.cacheAffinityRouting ? "on" : "off")
            << "\n";
    }

    ScenarioResult result;
    const LatencyPredictor *predictor = nullptr;
    if (usesPredictor(serving)) {
        predictor = hooks.predictor;
        if (!predictor) {
            result.predictor = makePredictor(serving);
            predictor = result.predictor.get();
        }
    }

    ClusterSim::Config cc;
    cc.replica.hw = serving.hw;
    cc.replica.perfParams = serving.perfParams;
    cc.replica.prefixCache = serving.prefixCache;
    cc.cacheAffinityRouting = serving.cacheAffinityRouting;
    cc.predictor = predictor;
    cc.retry = sc.retry;
    cc.healthAwareRouting = sc.healthAwareRouting;
    cc.breaker = sc.breaker;
    cc.deadlineCancel = sc.deadlineCancel;

    // The cluster owns the trace from here on; read it through sim.
    result.cluster = std::make_unique<ClusterSim>(cc, std::move(trace));
    ClusterSim &sim = *result.cluster;
    sim.addReplicaGroup(serving.numReplicas, makeSchedulerFactory(serving),
                        sc.loadBalance);

    // Lifecycle tracing: attach the sink before any event can fire.
    TraceSink traceSink;
    if (tracing)
        sim.setTraceSink(&traceSink);

    // Stream per-request records to disk as they complete rather than
    // buffering them for a post-run dump: same bytes (the writers are
    // shared), but the file grows with the run and the driver never
    // holds a second copy of the record set.
    std::optional<RecordsCsvStreamWriter> recordsWriter;
    if (sc.recordsOut) {
        recordsWriter.emplace(sim.tiers(), *sc.recordsOut);
        sim.metricsCollector().setRecordSink(
            [&recordsWriter](const RequestRecord &rec) {
                recordsWriter->write(rec);
            });
    }

    // Streaming latency sketches: one sketch per tier and
    // headline metric, fed as records complete and dumped as a bank
    // for offline comparison (qoserve_report). The observer composes
    // with the streaming records writer above.
    std::map<std::string, QuantileSketch> sketchBank;
    if (sc.sketchOut) {
        sim.metricsCollector().addRecordObserver(
            [&sketchBank, &sim, &sc](const RequestRecord &rec) {
                const QosTier &tier = sim.tiers()[rec.spec.tierId];
                const std::string prefix =
                    "tier" + std::to_string(rec.spec.tierId);
                auto sketchFor =
                    [&](const std::string &name) -> QuantileSketch & {
                    auto it = sketchBank.find(name);
                    if (it == sketchBank.end())
                        it = sketchBank
                                 .emplace(name,
                                          QuantileSketch(sc.sketchAlpha))
                                 .first;
                    return it->second;
                };
                sketchFor(prefix + ".headline")
                    .insert(headlineLatency(rec, tier));
                sketchFor(prefix + ".ttft").insert(rec.ttft());
                sketchFor(prefix + ".ttlt").insert(rec.ttlt());
            });
    }

    // SLO burn-rate monitor: a cluster-scoped read-only daemon fed
    // one (tier, time, violated) observation per completed request.
    std::optional<SloMonitor> sloMonitor;
    if (sc.sloMonitor) {
        TraceScope monitorScope;
        if (tracing)
            monitorScope.sink = &traceSink;
        monitorScope.clock = &sim.eventQueue();
        sloMonitor.emplace(sim.eventQueue(), monitorScope, sc.sloAlert);
        sim.metricsCollector().addRecordObserver(
            [&sloMonitor, &sim](const RequestRecord &rec) {
                sloMonitor->observe(
                    rec.spec.tierId, sim.eventQueue().now(),
                    violatedSlo(rec, sim.tiers()[rec.spec.tierId]));
            });
        sloMonitor->start();
        log << "slo monitor: budget " << sc.sloAlert.budget
            << ", burn " << sc.sloAlert.burn << "x over "
            << sc.sloAlert.shortWindow << " s and "
            << sc.sloAlert.longWindow << " s, every "
            << sc.sloAlert.interval << " s\n";
    }

    // Independent faults, zone outages and control-plane partitions:
    // episodes may start any time up to the last arrival; in-flight
    // outages still resolve after that. A trace whose last arrival is
    // at 0 has nothing to fail.
    std::optional<FaultInjector> faults;
    if ((sc.fault.enabled() || sc.domains.enabled()) &&
        sim.lastArrival() > SimTime{}) {
        faults.emplace(sc.fault, sc.domains, sim);
        if (sc.fault.enabled())
            log << "injecting faults: crash MTBF " << sc.fault.crashMtbf
                << " s, MTTR " << sc.fault.crashMttr
                << " s, straggler MTBF " << sc.fault.stragglerMtbf
                << " s (seed " << sc.fault.seed << ")\n";
        if (sc.domains.enabled())
            log << "failure domains: " << sc.domains.zones
                << " zones, zone MTBF " << sc.domains.zoneMtbf
                << " s / MTTR " << sc.domains.zoneMttr
                << " s, partition MTBF " << sc.domains.partitionMtbf
                << " s / MTTR " << sc.domains.partitionMttr
                << " s (seed " << sc.domains.seed << ")\n";
    }

    // Graceful degradation: the brownout controller samples backlog
    // on its own cadence and steps the cluster's degraded modes.
    BrownoutController brownout(sc.brownout, sim);
    if (sc.brownout.enabled) {
        brownout.start();
        log << "brownout: enter " << sc.brownout.enterBacklog
            << " / exit " << sc.brownout.exitBacklog
            << " tokens per replica, every "
            << sc.brownout.interval << " s\n";
    }

    TelemetryRecorder telemetry;
    if (sc.telemetryOut) {
        for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
            sim.replica(i).setBatchObserver(
                telemetry.observerFor(ReplicaId{static_cast<int>(i)}));
        }
    }

    // Metrics cadence: poll live queue/KV/health state every interval.
    MetricsRegistry registry;
    std::vector<ReplicaCells> metricCells;
    std::optional<MetricsSampler> sampler;
    if (sc.metricsOut) {
        sampler.emplace(sim.eventQueue(), registry, sc.metricsInterval,
                        [&sim, &sc, &brownout, &metricCells](
                            MetricsRegistry &reg, SimTime) {
                            sampleMetrics(reg, metricCells, sc, sim,
                                          brownout);
                        });
        sampler->start();
    }

    if (hooks.beforeRun)
        hooks.beforeRun(sim);
    const MetricsCollector &metrics = sim.run();
    if (tracing)
        sim.setTraceSink(nullptr); // the sink dies with this frame

    if (sc.telemetryOut)
        telemetry.writeCsvFile(*sc.telemetryOut);
    if (sc.traceJsonOut)
        writePerfettoJsonFile(traceSink.events(), *sc.traceJsonOut);
    if (sc.traceEventsOut)
        traceSink.writeCsvFile(*sc.traceEventsOut);
    if (sc.metricsOut) {
        registry.writeCsvFile(*sc.metricsOut);
        log << "metrics: " << sampler->samples() << " samples every "
            << sc.metricsInterval << " s -> " << *sc.metricsOut
            << "\n";
    }
    if (tracing)
        log << "trace: " << traceSink.size()
            << " lifecycle events captured\n";

    result.summary = summarize(metrics);
    if (faults) {
        result.faults = faults->stats();
        result.machineAvailability = faults->machineAvailability();
    }
    result.brownoutMaxLevel = brownout.maxLevel();
    result.brownoutSteps = brownout.steps();

    if (sc.sketchOut) {
        writeSketchBankCsvFile(sketchBank, *sc.sketchOut);
        log << "sketches: " << sketchBank.size()
            << " latency sketches (alpha " << sc.sketchAlpha
            << ") -> " << *sc.sketchOut << "\n";
    }
    if (sloMonitor) {
        result.slo = ScenarioResult::SloCounts{
            sloMonitor->alerts().size(), sloMonitor->ticks(),
            sloMonitor->activeTiers().size()};
        if (sc.sloAlertsOut)
            writeAlertsCsvFile(sloMonitor->alerts(), *sc.sloAlertsOut);
    }

    if (recordsWriter)
        recordsWriter->close();
    if (sc.summaryOut) {
        writeArtefactFile(*sc.summaryOut, "summary", [&](std::ostream &out) {
            writeSummaryCsv(result.summary, out);
        });
    }
    return result;
}

} // namespace qoserve
