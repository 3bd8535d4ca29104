/**
 * @file
 * SLOs-Serve-style dynamic-programming scheduler (§4.5.3).
 *
 * The paper compares QoServe qualitatively against SLOs-Serve, which
 * "employs periodic dynamic programming to optimize scheduling across
 * all active and queued requests" with O(N * N_new * M) per-step
 * complexity, arguing the approach does not scale. This is a
 * simplified, clean-room reconstruction of that scheduler family so
 * the comparison can be made quantitative (see the sched_overhead
 * bench): every iteration it solves a 0/1 knapsack over *all* queued
 * prefill requests — value = deadline urgency, weight = chunk tokens
 * — to choose the chunk set, instead of popping a priority queue.
 *
 * Scheduling quality is comparable to deadline-aware policies at
 * small queue depths; the point of the reconstruction is the cost:
 * per-iteration work grows linearly with queue length (times budget
 * units), where QoServe's walk is bounded by the budget alone.
 */

#ifndef QOSERVE_SCHED_DP_SCHEDULER_HH
#define QOSERVE_SCHED_DP_SCHEDULER_HH

#include "sched/scheduler.hh"

namespace qoserve {

/**
 * Per-iteration knapsack scheduler.
 */
class DpScheduler : public Scheduler
{
  public:
    /** Token budget per iteration (fixed, like Sarathi). */
    static constexpr int kChunkTokens = 512;

    /** Knapsack quantum: tokens per DP capacity unit. */
    static constexpr int kTokenQuantum = 64;

    /** Largest chunk one request may take per iteration. */
    static constexpr int kMaxItemTokens = 512;

    explicit DpScheduler(const SchedulerEnv &env,
                         ChunkedSchedulerConfig cfg = {});

    void formBatchInto(Batch &batch, SimTime now) override;

    /** DP table cells evaluated so far (overhead diagnostics). */
    std::uint64_t dpCellsEvaluated() const { return dpCells_; }

  protected:
    double priorityOf(const Request &req, SimTime now) const override;

  private:
    std::uint64_t dpCells_ = 0;

    /** Per-iteration scratch hoisted out of formBatchInto(). */
    std::vector<Request *> candidates_;
    std::vector<Request *> chosen_;
    std::vector<int> weight_;
    std::vector<double> value_;
    std::vector<double> table_; ///< (n+1) × (capacity+1), row-major.
};

} // namespace qoserve

#endif // QOSERVE_SCHED_DP_SCHEDULER_HH
