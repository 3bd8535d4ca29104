/**
 * @file
 * Scheduling-overhead microbenchmarks (google-benchmark).
 *
 * §4.5.3 argues QoServe's scheduling step costs O(log N_new) via its
 * priority queue, unlike SLOs-Serve's O(N * N_new * M) dynamic
 * program. These benchmarks measure the wall-clock cost of one
 * scheduling iteration (formBatchInto + onBatchComplete) as the
 * prefill backlog grows, plus the cost of the two predictor paths
 * consulted per iteration.
 */

#include <benchmark/benchmark.h>

#include "app/qoserve.hh"

namespace qoserve {
namespace {

/** Steady-state scheduling iteration at a given backlog size. */
template <typename SchedT>
void
runIterationBenchmark(benchmark::State &state, SchedT &sched,
                      const PerfModel &perf)
{
    (void)perf;
    const auto backlog = static_cast<std::size_t>(state.range(0));
    TierTable tiers = paperTierTable();
    std::vector<std::unique_ptr<Request>> owned;
    std::uint64_t next_id = 0;
    SimTime now;

    std::size_t completed = 0;
    sched.setCompletionHandler([&](Request *) { ++completed; });

    auto enqueue_one = [&]() {
        RequestSpec spec;
        spec.id = next_id++;
        spec.arrival = SimTime{now};
        spec.promptTokens = 512;
        spec.decodeTokens = 1; // retire at prefill completion
        spec.tierId = static_cast<int>(spec.id % 3);
        spec.appId = spec.tierId;
        owned.push_back(std::make_unique<Request>(
            spec, tiers[spec.tierId], AppStats{8.0, 4.0}));
        sched.enqueue(owned.back().get(), now);
    };

    for (std::size_t i = 0; i < backlog; ++i)
        enqueue_one();

    Batch batch;
    for (auto _ : state) {
        completed = 0;
        sched.formBatchInto(batch, now);
        now += 0.05;
        sched.onBatchComplete(batch, now);
        benchmark::DoNotOptimize(batch.prefills.data());
        // Refill to keep the backlog constant across iterations.
        state.PauseTiming();
        for (std::size_t i = 0; i < completed; ++i)
            enqueue_one();
        state.ResumeTiming();
    }
    state.SetLabel("backlog=" + std::to_string(backlog));
}

/**
 * QoServe: per-iteration cost bounded by the chunk budget, not the
 * backlog — the O(log N_new) claim of §4.5.3.
 */
void
BM_QoServeIteration(benchmark::State &state)
{
    PerfModel perf(llama3_8b_a100_tp1());
    BlockManager kv(TokenCount{perf.hw().kvCapacityTokens()}, TokenCount{16});
    OracleLatencyPredictor oracle(perf);
    SchedulerEnv env{&kv, &perf, &oracle};
    QoServeScheduler sched(env);
    runIterationBenchmark(state, sched, perf);
}

BENCHMARK(BM_QoServeIteration)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/**
 * SLOs-Serve-style DP: per-iteration cost grows with the whole
 * queue (O(N * M) knapsack), the scalability limit §4.5.3 argues
 * against.
 */
void
BM_SlosServeDpIteration(benchmark::State &state)
{
    PerfModel perf(llama3_8b_a100_tp1());
    BlockManager kv(TokenCount{perf.hw().kvCapacityTokens()}, TokenCount{16});
    SchedulerEnv env{&kv, &perf, nullptr};
    DpScheduler sched(env, DpScheduler::Options{});
    runIterationBenchmark(state, sched, perf);
}

BENCHMARK(BM_SlosServeDpIteration)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384);

/** Cost of one analytical execution-time query. */
void
BM_PerfModelIterationTime(benchmark::State &state)
{
    PerfModel perf(llama3_8b_a100_tp1());
    BatchWork w;
    w.prefillTokens = 512;
    w.prefillCtxProduct = 512.0 * 1024.0;
    w.numDecodes = 64;
    w.decodeCtxSum = 64 * 2000;
    for (auto _ : state)
        benchmark::DoNotOptimize(perf.iterationTime(w));
}

BENCHMARK(BM_PerfModelIterationTime);

/** Cost of one random-forest latency prediction (CPU-side, §3.6.1). */
void
BM_ForestPredict(benchmark::State &state)
{
    static PerfModel perf(llama3_8b_a100_tp1());
    static ForestLatencyPredictor forest(perf);
    BatchFeatures f;
    f.chunkTokens = 512;
    f.prefillContext = 1024;
    f.numDecodes = 64;
    f.decodeCtxSum = 64 * 2000;
    for (auto _ : state)
        benchmark::DoNotOptimize(forest.predict(f));
}

BENCHMARK(BM_ForestPredict);

/** Cost of solving the dynamic chunk budget (binary search). */
void
BM_ChunkBudgetSolve(benchmark::State &state)
{
    static PerfModel perf(llama3_8b_a100_tp1());
    static ForestLatencyPredictor forest(perf);
    BatchFeatures f;
    f.numDecodes = 64;
    f.decodeCtxSum = 64 * 2000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            solveChunkBudget(forest, f, 0.05, 2560, 64));
    }
}

BENCHMARK(BM_ChunkBudgetSolve);

/**
 * Predictor-eval phase through a chunk plane — the probe every
 * QoServe cold solve makes (contrast with BM_ForestPredict, the
 * full-forest walk). The plane is built once, as a solve whose
 * composition stays inside the plane box finds it; each iteration is
 * one tracked probe, which also narrows the solve record's box.
 */
void
BM_ForestPredictPlane(benchmark::State &state)
{
    static PerfModel perf(llama3_8b_a100_tp1());
    static ForestLatencyPredictor forest(perf);
    BatchFeatures f;
    f.prefillContext = 1024;
    f.numDecodes = 64;
    f.decodeCtxSum = 64 * 2000;
    ChunkPlane plane;
    forest.buildChunkPlane(f, plane);
    FeatureSupport box;
    box.reset(BatchFeatures::kCount);
    auto x = f.toArray();
    int chunk = 64;
    for (auto _ : state) {
        // Cycle the probed chunk like the solver's bisection does;
        // a solve resets its record box once per cold search.
        chunk = chunk >= 2560 ? 64 : chunk + 64;
        if (chunk == 64)
            box.reset(BatchFeatures::kCount);
        x[0] = static_cast<double>(chunk);
        benchmark::DoNotOptimize(
            plane.forest.predictQuantileTracked(
                x.data(), BatchFeatures::kCount, plane.quantile, box) *
            plane.safetyMargin);
    }
}

BENCHMARK(BM_ForestPredictPlane);

/**
 * Budget-solve phase with the memoised solver under a drifting
 * prefill context — the per-iteration mix of replay hits and cold
 * plane searches the QoServe scheduler sees, versus
 * BM_ChunkBudgetSolve's always-cold uncached search.
 */
void
BM_ChunkBudgetSolveMemoised(benchmark::State &state)
{
    static PerfModel perf(llama3_8b_a100_tp1());
    static ForestLatencyPredictor forest(perf);
    ChunkSolverCache cache;
    BatchFeatures f;
    f.numDecodes = 64;
    f.decodeCtxSum = 64 * 2000;
    double pctx = 0.0;
    for (auto _ : state) {
        // The head prefill's context advances by the granted chunk
        // each iteration and resets when the prefill finishes.
        f.prefillContext = pctx;
        int solved = solveChunkBudget(forest, f, 0.05, 2560, 64, &cache);
        benchmark::DoNotOptimize(solved);
        pctx += static_cast<double>(solved > 0 ? solved : 64);
        if (pctx > 8192.0)
            pctx = 0.0;
    }
}

BENCHMARK(BM_ChunkBudgetSolveMemoised);

/**
 * Event-queue phase: steady-state schedule + fire through the slot
 * pool and flat heap. Batches of 64 keep the heap populated the way
 * a running cluster does.
 */
void
BM_EventQueueOps(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 64; ++i)
            eq.schedule(eq.now() + 0.001 * (64 - i), [&fired] { ++fired; });
        eq.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}

BENCHMARK(BM_EventQueueOps);

} // namespace
} // namespace qoserve

/**
 * Same perf-JSON convention as the sweep benches: `--json PATH` maps
 * onto google-benchmark's native JSON reporter, so the scheduler
 * microbenchmarks land in the same trajectory record
 * (BENCH_parallel.json's sched_overhead sibling) without a custom
 * serializer.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--json requires a value\n");
                return 1;
            }
            args.push_back(std::string("--benchmark_out=") + argv[++i]);
            args.push_back("--benchmark_out_format=json");
        } else {
            args.push_back(std::move(arg));
        }
    }

    std::vector<char *> argp;
    argp.reserve(args.size());
    for (std::string &a : args)
        argp.push_back(a.data());
    int count = static_cast<int>(argp.size());

    benchmark::Initialize(&count, argp.data());
    if (benchmark::ReportUnrecognizedArguments(count, argp.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
