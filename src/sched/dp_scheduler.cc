/**
 * @file
 * DP scheduler implementation.
 */

#include "sched/dp_scheduler.hh"

#include <algorithm>
#include <cmath>


namespace qoserve {

DpScheduler::DpScheduler(const SchedulerEnv &env,
                         ChunkedSchedulerConfig cfg)
    : Scheduler(env, cfg)
{
    static_assert(kChunkTokens > 0, "empty DP budget");
    static_assert(kMaxItemTokens >= kTokenQuantum,
                  "item below one quantum");
}

double
DpScheduler::priorityOf(const Request &req, SimTime) const
{
    // The queue order only provides a stable iteration order; the
    // actual selection is the per-iteration knapsack.
    return req.urgencyDeadline().seconds();
}

void
DpScheduler::formBatchInto(Batch &batch, SimTime now)
{
    batch.clear();
    fillDecodes(batch);

    int budget = kvCappedBudget(kChunkTokens);
    int decode_slots =
        ChunkedSchedulerConfig::kMaxDecodeBatch - batch.numDecodes;

    // Same wedge guard as the base scheduler: if every block is held
    // by paused prefills and nothing decodes, reclaim a victim.
    if (budget <= 0 && batch.numDecodes == 0 &&
        prefillQueueSize() > 0) {
        if (preemptForKv(now))
            budget = kvCappedBudget(kChunkTokens);
    }

    prefillSnapshotInto(candidates_);
    if (budget > 0 && !candidates_.empty()) {
        // Build knapsack items: one per queued request.
        int capacity = budget / kTokenQuantum;
        int n = static_cast<int>(candidates_.size());

        weight_.assign(static_cast<std::size_t>(n), 0);
        value_.assign(static_cast<std::size_t>(n), 0.0);
        for (int i = 0; i < n; ++i) {
            Request *r = candidates_[i];
            int take = std::min(r->prefillRemaining(), kMaxItemTokens);
            weight_[i] =
                std::max(1, (take + kTokenQuantum - 1) / kTokenQuantum);
            // Urgency value: inverse slack to the urgency deadline,
            // so requests close to violating dominate the solution;
            // a completion bonus favours finishing prefills.
            double slack =
                std::max(0.01, r->urgencyDeadline() - now -
                                   estPrefillTime(static_cast<double>(
                                       r->prefillRemaining())));
            value_[i] = 1.0 / slack;
            if (take == r->prefillRemaining())
                value_[i] *= 1.5;
        }

        // 0/1 knapsack over all queued requests — the O(N * M)
        // per-iteration cost the paper's complexity argument is
        // about. The table is a flat row-major scratch member so the
        // allocation is amortised across iterations.
        int stride = capacity + 1;
        table_.assign(static_cast<std::size_t>(n + 1) *
                          static_cast<std::size_t>(stride),
                      0.0);
        auto cell = [&](int i, int c) -> double & {
            return table_[static_cast<std::size_t>(i) *
                              static_cast<std::size_t>(stride) +
                          static_cast<std::size_t>(c)];
        };
        for (int i = 1; i <= n; ++i) {
            for (int c = 0; c <= capacity; ++c) {
                ++dpCells_;
                cell(i, c) = cell(i - 1, c);
                if (weight_[i - 1] <= c) {
                    cell(i, c) = std::max(
                        cell(i, c), cell(i - 1, c - weight_[i - 1]) +
                                        value_[i - 1]);
                }
            }
        }

        // Backtrack the chosen set.
        chosen_.clear();
        int c = capacity;
        for (int i = n; i >= 1; --i) {
            if (cell(i, c) != cell(i - 1, c)) {
                chosen_.push_back(candidates_[i - 1]);
                c -= weight_[i - 1];
            }
        }
        // Serve the chosen set most-urgent first.
        // total: equal deadlines break on request id.
        std::sort(chosen_.begin(), chosen_.end(),
                  [](Request *a, Request *b) {
                      if (a->urgencyDeadline() != b->urgencyDeadline())
                          return a->urgencyDeadline() <
                                 b->urgencyDeadline();
                      return a->id() < b->id();
                  });
        for (Request *r : chosen_) {
            if (budget <= 0)
                break;
            int cap = std::min(
                budget, std::min(r->prefillRemaining(), kMaxItemTokens));
            int got = tryScheduleChunk(r, batch, cap, decode_slots);
            budget -= got;
        }
    }

    if (!batch.empty()) {
        SchedulerStats &stats = mutableStats();
        ++stats.batchesFormed;
        stats.prefillTokensScheduled += batch.prefillTokens();
        stats.decodeTokensScheduled += batch.numDecodes;
    }
}

} // namespace qoserve
