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

    /** All requests in decode phase this iteration. */
    std::vector<Request *> decodes;

    /** Total prefill tokens across chunks. */
    int prefillTokens() const;

    /** True when nothing is scheduled. */
    bool
    empty() const
    {
        return prefills.empty() && decodes.empty();
    }

    /**
     * Summed KV context over the decode side, computed once.
     *
     * Several consumers (the dynamic-chunk solver, the execution-time
     * model) need this sum each iteration; the first call walks the
     * decode list, later calls return the memo. Valid only while the
     * decode set and contexts are frozen, i.e. between formBatchInto()
     * and onBatchComplete().
     */
    std::int64_t decodeCtxSum() const;

    /** Reset for reuse, keeping vector capacity. */
    void clear();

    /** Aggregate work for the execution-time model. */
    BatchWork work() const;

  private:
    /** Memo for decodeCtxSum(); -1 until computed. */
    mutable std::int64_t decodeCtxSumCache_ = -1;
};

} // namespace qoserve

#endif // QOSERVE_SCHED_BATCH_HH
