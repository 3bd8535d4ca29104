/**
 * @file
 * Batch aggregation helpers.
 */

#include "sched/batch.hh"

namespace qoserve {

int
Batch::prefillTokens() const
{
    int total = 0;
    for (const auto &c : prefills)
        total += c.chunkTokens;
    return total;
}

void
Batch::clear()
{
    prefills.clear();
    numDecodes = 0;
    decodeCtxSum = 0;
}

BatchWork
Batch::work() const
{
    BatchWork w;
    for (const auto &c : prefills) {
        w.prefillTokens += c.chunkTokens;
        w.prefillCtxProduct +=
            static_cast<double>(c.chunkTokens) *
            (static_cast<double>(c.contextBefore) + c.chunkTokens / 2.0);
    }
    w.numDecodes = numDecodes;
    w.decodeCtxSum = decodeCtxSum;
    return w;
}

} // namespace qoserve
