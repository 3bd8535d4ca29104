/**
 * @file
 * The unit of work dispatched to the execution engine each iteration.
 *
 * A batch fuses one or more prefill chunks with every decoding
 * sequence, as in Sarathi-style chunked-prefill serving (§2.1).
 */

#ifndef QOSERVE_SCHED_BATCH_HH
#define QOSERVE_SCHED_BATCH_HH

#include <vector>

#include "model/perf_model.hh"
#include "sched/request.hh"

namespace qoserve {

/** One prefill chunk scheduled in a batch. */
struct ScheduledChunk
{
    Request *request = nullptr;

    /** Prompt tokens to process this iteration. */
    int chunkTokens = 0;

    /** KV context of the request before this chunk runs. */
    std::int64_t contextBefore = 0;
};

/**
 * One iteration's batch.
 */
struct Batch
{
    /** Prefill chunks, in scheduling order. */
    std::vector<ScheduledChunk> prefills;

    /** Requests decoding one token this iteration: the scheduler's
     *  first numDecodes decode lanes. */
    int numDecodes = 0;

    /** Total prefill tokens across chunks. */
    int prefillTokens() const;

    /** True when nothing is scheduled. */
    bool
    empty() const
    {
        return prefills.empty() && numDecodes == 0;
    }

    /**
     * Summed KV context over the decode side. The scheduler sets it
     * from its running sum when it fills the decode side; the
     * requests themselves may lag their decode lanes, so nothing
     * recomputes it from them.
     */
    std::int64_t decodeCtxSum = 0;

    /** Reset for reuse, keeping vector capacity. */
    void clear();

    /** Aggregate work for the execution-time model. */
    BatchWork work() const;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_BATCH_HH
