/**
 * @file
 * Baseline scheduling policies from §2.4 and §4.
 *
 * All four run on the shared chunked-prefill machinery with a fixed
 * chunk budget (the Sarathi configuration), differing only in the
 * priority key:
 *
 *  - Sarathi-FCFS: arrival order (the production default);
 *  - Sarathi-EDF: earliest urgency deadline (TTFT or TTLT SLO);
 *  - Sarathi-SJF: shortest estimated total job;
 *  - Sarathi-SRPF: shortest remaining prompt first.
 */

#ifndef QOSERVE_SCHED_BASELINE_SCHEDULERS_HH
#define QOSERVE_SCHED_BASELINE_SCHEDULERS_HH

#include "sched/scheduler.hh"

namespace qoserve {

/** First-come-first-served over arrival time. */
class FcfsScheduler : public Scheduler
{
  public:
    FcfsScheduler(const SchedulerEnv &env, ChunkedSchedulerConfig cfg = {});

  protected:
    double priorityOf(const Request &req, SimTime now) const override;
};

/** Earliest-deadline-first over the urgency deadline. */
class EdfScheduler : public Scheduler
{
  public:
    EdfScheduler(const SchedulerEnv &env, ChunkedSchedulerConfig cfg = {});

  protected:
    double priorityOf(const Request &req, SimTime now) const override;
};

/** Shortest-job-first over estimated total processing tokens. */
class SjfScheduler : public Scheduler
{
  public:
    SjfScheduler(const SchedulerEnv &env, ChunkedSchedulerConfig cfg = {});

  protected:
    double priorityOf(const Request &req, SimTime now) const override;
};

/** Shortest-remaining-prompt-first (preemptive SJF on prefill). */
class SrpfScheduler : public Scheduler
{
  public:
    SrpfScheduler(const SchedulerEnv &env, ChunkedSchedulerConfig cfg = {});

  protected:
    double priorityOf(const Request &req, SimTime now) const override;
};

/**
 * Medha-style adaptive chunking (§4.5.1) under FCFS ordering.
 *
 * Starts each prefill with a large chunk and progressively shrinks
 * the chunk as the request's cached context grows, so the iteration
 * time stays at a fixed TBT target despite the quadratic attention
 * term. Unlike QoServe it is unaware of slack accumulated by the
 * current decode batch.
 */
class MedhaScheduler : public Scheduler
{
  public:
    struct Options
    {
        /** Iteration-time target the chunk is sized for. */
        SimDuration tbtTarget = 0.05;

        /** Upper bound on the chunk. */
        static constexpr int kMaxChunkTokens = 4096;

        /** Chunk granularity. */
        static constexpr int kChunkStep = 64;
    };

    MedhaScheduler(const SchedulerEnv &env, Options options,
                   ChunkedSchedulerConfig cfg = {});

  protected:
    double priorityOf(const Request &req, SimTime now) const override;
    int chunkBudget(SimTime now, const Batch &batch) const override;

  private:
    Options options_;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_BASELINE_SCHEDULERS_HH
