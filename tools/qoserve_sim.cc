/**
 * @file
 * qoserve_sim — standalone simulator driver.
 *
 * Runs one serving experiment end-to-end from the command line:
 * synthesize (or replay) a workload, serve it under the chosen
 * policy and deployment, and print / export the results.
 *
 * Examples:
 *   qoserve_sim --policy qoserve --qps 4 --duration 1200
 *   qoserve_sim --policy edf --dataset sharegpt --replicas 2 \
 *       --records-out records.csv
 *   qoserve_sim --trace-in trace.csv --policy qoserve \
 *       --summary-out summary.csv
 */

#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/cli_options.hh"
#include "app/qoserve.hh"
#include "cluster/brownout.hh"
#include "core/csv.hh"
#include "fault/failure_domains.hh"
#include "obs/metrics_registry.hh"
#include "obs/quantile_sketch.hh"
#include "obs/slo_monitor.hh"
#include "obs/trace_export.hh"
#include "obs/trace_sink.hh"

int
main(int argc, char **argv)
{
    using namespace qoserve;

    std::vector<std::string> args(argv + 1, argv + argc);
    CliOptions opts = parseCliOptions(args);
    if (opts.helpRequested) {
        std::cout << cliUsage();
        return 0;
    }

    // Workload: replay or synthesize.
    Trace trace;
    if (opts.traceIn) {
        trace = readTraceCsvFile(*opts.traceIn, opts.tiers);
        std::cerr << "replaying " << trace.requests.size()
                  << " requests from " << *opts.traceIn << "\n";
    } else {
        trace = TraceBuilder()
                    .dataset(opts.dataset)
                    .tiers(opts.tiers)
                    .tierMix(opts.tierMix)
                    .lowPriorityFraction(opts.lowPriorityFraction)
                    .sharedPrefix(opts.sharedPrefix)
                    .seed(opts.seed)
                    .build(PoissonArrivals(opts.qps), opts.duration);
        std::cerr << "synthesized " << trace.requests.size()
                  << " requests (" << opts.dataset.name << " at "
                  << opts.qps << " QPS over " << opts.duration
                  << " s)\n";
        if (opts.sharedPrefix.enabled()) {
            std::cerr << "shared prefixes: ratio "
                      << opts.sharedPrefix.shareRatio << ", "
                      << opts.sharedPrefix.numPools
                      << " prompt pools, multi-turn fraction "
                      << opts.sharedPrefix.multiTurnFrac << "\n";
        }
    }
    if (opts.traceOut)
        writeTraceCsvFile(trace, *opts.traceOut);

    // Deployment.
    std::cerr << "policy " << policyName(opts.serving.policy) << ", "
              << opts.serving.numReplicas << "x "
              << opts.serving.hw.model.name << " on "
              << opts.serving.hw.gpu.name << " (TP"
              << opts.serving.hw.tpDegree << "), "
              << loadBalanceName(opts.loadBalance) << " balancing\n";

    if (opts.serving.prefixCache.enabled) {
        std::cerr << "prefix cache: capacity frac "
                  << opts.serving.prefixCache.capacityFrac
                  << ", affinity routing "
                  << (opts.serving.cacheAffinityRouting ? "on" : "off")
                  << "\n";
    }

    auto predictor = makePredictor(opts.serving);
    ClusterSim::Config cc;
    cc.replica.hw = opts.serving.hw;
    cc.replica.perfParams = opts.serving.perfParams;
    cc.replica.prefixCache = opts.serving.prefixCache;
    cc.cacheAffinityRouting = opts.serving.cacheAffinityRouting;
    cc.predictor = predictor.get();
    cc.retry = opts.retry;
    cc.healthAwareRouting = opts.healthAwareRouting;
    cc.breaker = opts.breaker;
    cc.deadlineCancel = opts.deadlineCancel;

    ClusterSim sim(cc, trace);
    sim.addReplicaGroup(opts.serving.numReplicas,
                        makeSchedulerFactory(opts.serving),
                        opts.loadBalance);

    // Lifecycle tracing: attach the sink before any event can fire.
    TraceSink traceSink;
    if (opts.traceJsonOut || opts.traceEventsOut)
        sim.setTraceSink(&traceSink);

    // Stream per-request records to disk as they complete rather than
    // buffering them for a post-run dump: same bytes (the writers are
    // shared), but the file grows with the run and the driver never
    // holds a second copy of the record set.
    std::optional<RecordsCsvStreamWriter> recordsWriter;
    if (opts.recordsOut) {
        recordsWriter.emplace(trace.tiers, *opts.recordsOut);
        sim.metricsCollector().setRecordSink(
            [&recordsWriter](const RequestRecord &rec) {
                recordsWriter->write(rec);
            });
    }

    // Streaming latency sketches: one mergeable sketch per tier and
    // headline metric, fed as records complete and dumped as a bank
    // for offline comparison (qoserve_report). The observer composes
    // with the streaming records writer above.
    std::map<std::string, QuantileSketch> sketchBank;
    if (opts.sketchOut) {
        sim.metricsCollector().addRecordObserver(
            [&sketchBank, &trace, &opts](const RequestRecord &rec) {
                const QosTier &tier = trace.tiers[rec.spec.tierId];
                const std::string prefix =
                    "tier" + std::to_string(rec.spec.tierId);
                auto sketchFor =
                    [&](const std::string &name) -> QuantileSketch & {
                    auto it = sketchBank.find(name);
                    if (it == sketchBank.end())
                        it = sketchBank
                                 .emplace(name,
                                          QuantileSketch(
                                              opts.sketchAlpha))
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
    if (opts.sloMonitor) {
        TraceScope monitorScope;
        if (opts.traceJsonOut || opts.traceEventsOut)
            monitorScope.sink = &traceSink;
        monitorScope.clock = &sim.eventQueue();
        sloMonitor.emplace(sim.eventQueue(), monitorScope,
                           opts.sloAlert);
        sim.metricsCollector().addRecordObserver(
            [&sloMonitor, &sim, &trace](const RequestRecord &rec) {
                sloMonitor->observe(
                    rec.spec.tierId, sim.eventQueue().now(),
                    violatedSlo(rec, trace.tiers[rec.spec.tierId]));
            });
        sloMonitor->start();
        std::cerr << "slo monitor: budget " << opts.sloAlert.budget
                  << ", burn " << opts.sloAlert.burn << "x over "
                  << opts.sloAlert.shortWindow << " s and "
                  << opts.sloAlert.longWindow << " s, every "
                  << opts.sloAlert.interval << " s\n";
    }

    // Fault injection: episodes may start any time up to the last
    // arrival; in-flight outages still resolve after that.
    std::optional<FaultInjector> faults;
    if (opts.fault.enabled()) {
        opts.fault.horizon = trace.requests.empty()
                                 ? SimTime{}
                                 : trace.requests.back().arrival;
        if (opts.fault.horizon > SimTime{}) {
            faults.emplace(opts.fault, sim);
            std::cerr << "injecting faults: crash MTBF "
                      << opts.fault.crashMtbf << " s, MTTR "
                      << opts.fault.crashMttr << " s, straggler MTBF "
                      << opts.fault.stragglerMtbf << " s (seed "
                      << opts.fault.seed << ")\n";
        }
    }

    // Failure domains: correlated zone outages and control-plane
    // partitions, on the same horizon discipline as the independent
    // injector.
    std::optional<DomainInjector> domains;
    if (opts.domains.enabled()) {
        opts.domains.horizon = trace.requests.empty()
                                   ? SimTime{}
                                   : trace.requests.back().arrival;
        if (opts.domains.horizon > SimTime{}) {
            domains.emplace(opts.domains, sim);
            std::cerr << "failure domains: " << opts.domains.zones
                      << " zones, zone MTBF " << opts.domains.zoneMtbf
                      << " s / MTTR " << opts.domains.zoneMttr
                      << " s, partition MTBF "
                      << opts.domains.partitionMtbf << " s / MTTR "
                      << opts.domains.partitionMttr << " s (seed "
                      << opts.domains.seed << ")\n";
        }
    }

    // Graceful degradation: the brownout controller samples backlog
    // on its own cadence and steps the cluster's degraded modes.
    BrownoutController brownout(opts.brownout, sim);
    if (opts.brownout.enabled) {
        brownout.start();
        std::cerr << "brownout: enter " << opts.brownout.enterBacklog
                  << " / exit " << opts.brownout.exitBacklog
                  << " tokens per replica, every "
                  << opts.brownout.interval << " s\n";
    }

    TelemetryRecorder telemetry;
    if (opts.telemetryOut) {
        for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
            sim.replica(i).setBatchObserver(
                telemetry.observerFor(ReplicaId{static_cast<int>(i)}));
        }
    }

    // Metrics cadence: poll live queue/KV/health state every interval.
    MetricsRegistry registry;
    std::optional<MetricsSampler> sampler;
    if (opts.metricsOut) {
        sampler.emplace(
            sim.eventQueue(), registry, opts.metricsInterval,
            [&sim, &opts, &brownout](MetricsRegistry &reg, SimTime) {
                for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
                    const Replica &rep = sim.replica(i);
                    const std::string tag = std::to_string(i);
                    reg.gauge("replica" + tag + "_prefill_queue") =
                        static_cast<double>(
                            rep.scheduler().prefillQueueSize());
                    reg.gauge("replica" + tag + "_decode_queue") =
                        static_cast<double>(
                            rep.scheduler().decodeQueueSize());
                    reg.gauge("replica" + tag + "_pending_prefill_tokens") =
                        static_cast<double>(
                            rep.scheduler().pendingPrefillTokens());
                    reg.gauge("replica" + tag + "_kv_blocks_used") =
                        static_cast<double>(rep.kv().usedBlocks());
                    reg.gauge("replica" + tag + "_up") =
                        rep.health() == ReplicaHealth::Down ? 0.0 : 1.0;
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
                reg.counter("redispatches") = static_cast<std::int64_t>(
                    sim.redispatches());
                reg.counter("retries_exhausted") =
                    static_cast<std::int64_t>(sim.retriesExhausted());
                reg.counter("admission_rejected") =
                    static_cast<std::int64_t>(sim.admission().rejected());
                reg.counter("requests_completed") =
                    static_cast<std::int64_t>(sim.metrics().size());
                // Degradation cells exist only when their feature is
                // on: columns are name-ordered, so a disabled-feature
                // run keeps the exact pre-existing CSV bytes.
                if (opts.breaker.enabled()) {
                    reg.counter("breaker_trips") =
                        static_cast<std::int64_t>(sim.breakerTrips());
                }
                if (opts.deadlineCancel) {
                    reg.counter("deadline_cancelled") =
                        static_cast<std::int64_t>(
                            sim.deadlineCancelled());
                }
                if (opts.domains.partitionsEnabled()) {
                    reg.gauge("replicas_blinded") = static_cast<double>(
                        sim.blindedReplicas());
                }
                if (opts.brownout.enabled) {
                    reg.gauge("brownout_level") =
                        static_cast<double>(brownout.level());
                    reg.counter("brownout_shed") =
                        static_cast<std::int64_t>(sim.brownoutShed());
                }
            });
        sampler->start();
    }

    const MetricsCollector &metrics = sim.run();
    if (opts.telemetryOut)
        telemetry.writeCsvFile(*opts.telemetryOut);
    if (opts.traceJsonOut)
        writePerfettoJsonFile(traceSink.events(), *opts.traceJsonOut);
    if (opts.traceEventsOut)
        traceSink.writeCsvFile(*opts.traceEventsOut);
    if (opts.metricsOut) {
        registry.writeCsvFile(*opts.metricsOut);
        std::cerr << "metrics: " << sampler->samples()
                  << " samples every " << opts.metricsInterval
                  << " s -> " << *opts.metricsOut << "\n";
    }
    if (opts.traceJsonOut || opts.traceEventsOut) {
        std::cerr << "trace: " << traceSink.size()
                  << " lifecycle events captured\n";
    }

    RunSummary summary = summarize(metrics);
    printSummary(summary, trace.tiers, std::cout);
    if (faults) {
        const FaultStats &fs = faults->stats();
        std::cout << "faults: " << fs.crashes << " crashes, "
                  << fs.stragglerEpisodes
                  << " straggler episodes, observed MTTR "
                  << fs.meanTimeToRepair()
                  << " s, machine availability "
                  << 100.0 * faults->machineAvailability() << "%\n";
        std::cout << "recovery: " << sim.redispatches()
                  << " re-dispatches, " << sim.retriesExhausted()
                  << " retry budgets exhausted\n";
    }
    if (domains) {
        const DomainStats &ds = domains->stats();
        std::cout << "domains: " << ds.zoneOutages
                  << " zone outages (" << ds.replicasDowned
                  << " replicas downed, " << ds.zoneDownSeconds
                  << " zone-down s), " << ds.partitions
                  << " partitions\n";
    }
    if (opts.breaker.enabled()) {
        std::cout << "breaker: " << sim.breakerTrips()
                  << " trips (threshold "
                  << opts.breaker.failureThreshold << ", cooldown "
                  << opts.breaker.cooldown << " s)\n";
    }
    if (opts.deadlineCancel) {
        std::cout << "deadline cancel: " << sim.deadlineCancelled()
                  << " requests abandoned as provably late\n";
    }
    if (opts.brownout.enabled) {
        std::cout << "brownout: peak level " << brownout.maxLevel()
                  << " (" << brownoutModeName(static_cast<BrownoutMode>(
                                 brownout.maxLevel()))
                  << "), " << brownout.steps() << " steps, "
                  << sim.brownoutShed() << " shed, "
                  << sim.brownoutCapped() << " capped\n";
    }
    if (opts.serving.prefixCache.enabled) {
        PrefixCacheStats agg;
        for (std::size_t i = 0; i < sim.numReplicas(); ++i) {
            const PrefixCacheStats &s =
                sim.replica(i).prefixCache().stats();
            agg.lookups += s.lookups;
            agg.hits += s.hits;
            agg.tokensAttached += s.tokensAttached;
            agg.cowCopies += s.cowCopies;
            agg.blocksInserted += s.blocksInserted;
            agg.blocksEvicted += s.blocksEvicted;
        }
        std::cout << "prefix cache: " << agg.hits << "/" << agg.lookups
                  << " lookups hit, " << agg.tokensAttached
                  << " prompt tokens reused, " << agg.cowCopies
                  << " COW copies\n";
        std::cout << "cache blocks: " << agg.blocksInserted
                  << " inserted, " << agg.blocksEvicted
                  << " evicted\n";
    }

    if (opts.sketchOut) {
        writeSketchBankCsvFile(sketchBank, *opts.sketchOut);
        std::cerr << "sketches: " << sketchBank.size()
                  << " latency sketches (alpha " << opts.sketchAlpha
                  << ") -> " << *opts.sketchOut << "\n";
    }
    if (sloMonitor) {
        std::cout << "slo alerts: " << sloMonitor->alerts().size()
                  << " episodes over " << sloMonitor->ticks()
                  << " evaluations, "
                  << sloMonitor->activeTiers().size()
                  << " still active at drain\n";
        if (opts.sloAlertsOut)
            writeAlertsCsvFile(sloMonitor->alerts(),
                               *opts.sloAlertsOut);
    }

    if (recordsWriter)
        recordsWriter->close();
    if (opts.summaryOut) {
        writeArtefactFile(*opts.summaryOut, "summary",
                          [&](std::ostream &out) {
                              writeSummaryCsv(summary, out);
                          });
    }
    return 0;
}
