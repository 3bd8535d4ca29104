/**
 * @file
 * Runtime invariant auditor for the simulation loop.
 *
 * The auditor is the dynamic half of the correctness tooling layer
 * (the static half is tools/qoserve_lint and the clang-tidy profile):
 * it hooks the end of every replica iteration and verifies that the
 * state machines the results depend on have not corrupted — KV block
 * conservation, event-clock monotonicity, scheduler queue
 * consistency, and SLO record sanity. ClusterSim installs one
 * automatically when the build's QOSERVE_CHECK_LEVEL is not `off`;
 * tests construct their own (usually with failFast disabled) to
 * inspect violations.
 *
 * All check methods are compiled unconditionally — the compile-time
 * level only selects the *default* runtime level and whether the
 * hot-path hooks are wired — so unit tests can exercise every
 * invariant regardless of the build configuration.
 */

#ifndef QOSERVE_AUDIT_INVARIANT_AUDITOR_HH
#define QOSERVE_AUDIT_INVARIANT_AUDITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/check_level.hh"
#include "kvcache/block_manager.hh"
#include "simcore/time.hh"
#include "workload/qos.hh"

namespace qoserve {

class EventQueue;
class PrefixCache;
class Scheduler;
struct RequestRecord;
struct SchedulerAuditView;

/**
 * Snapshot of the KV manager's shared-block state for refcount
 * conservation checks. checkBlockManager() builds one from a live
 * BlockManager; tests feed deliberately corrupt snapshots directly
 * (the manager's own API cannot produce them).
 */
struct KvSharedAuditView
{
    /** One owner's shared-block references. */
    struct OwnerRefs
    {
        KvOwnerId owner = 0;
        std::int64_t sharedTokens = 0;
        std::vector<KvBlockId> sharedIds;
    };

    int blockTokens = 16;
    std::vector<OwnerRefs> owners;
    std::vector<KvSharedBlockInfo> table; ///< Sorted by block id.
    std::int64_t cacheHeldBlocks = 0;     ///< The manager's counter.
    std::int64_t evictableBlocks = 0;     ///< The manager's counter.
    std::int64_t cacheWatermark = 0;      ///< 0 when unconfigured.
};

/**
 * Verifies global simulation invariants; see DESIGN.md §7 for the
 * catalogue.
 */
class InvariantAuditor
{
  public:
    /** One detected invariant violation. */
    struct Violation
    {
        /** Short invariant identifier, e.g. "kv-conservation". */
        std::string invariant;

        /** Human-readable description of the corrupt state. */
        std::string detail;

        /** Simulation time at which the violation was observed. */
        SimTime when;
    };

    /** Auditor configuration. */
    struct Options
    {
        /** Runtime check level (default: the compiled level). */
        // qoserve-lint: allow(unset-option) perfbench runs at Full
        audit::CheckLevel level = audit::kCompiledLevel;

        /**
         * Panic on the first violation (the production setting: a
         * corrupt simulation must not keep producing numbers).
         * Disable in tests to collect and inspect violations.
         */
        // qoserve-lint: allow(unset-option) a test seam
        bool failFast = true;

        /** Retained violations when failFast is off (count is
         *  unbounded; the list is capped). */
        static constexpr std::size_t kMaxRetained = 64;
    };

    /** Construct with the compiled default options. */
    InvariantAuditor();

    explicit InvariantAuditor(Options opts);

    /** Runtime level in effect. */
    audit::CheckLevel level() const { return opts_.level; }

    /**
     * Audit hook for one completed replica iteration: clock
     * monotonicity, KV conservation, scheduler consistency and the
     * cross-layer KV-vs-request agreement, at the configured level.
     * @p cache, when non-null and enabled, adds the prefix-cache
     * tree-vs-block-table agreement check.
     */
    void onIterationComplete(const BlockManager &kv,
                             const Scheduler &sched,
                             const EventQueue &eq,
                             const PrefixCache *cache = nullptr);

    /**
     * Check KV block accounting: used within [0, total]; at full
     * level, per-owner block/token sums (plus shared blocks) match
     * the aggregate, each owner's blocks exactly cover its tokens,
     * and the shared-block table conserves refcounts: every shared
     * block's refcount equals the owners referencing it plus the
     * cache's own hold, the cache-held and evictable tallies match
     * the table, and the cache stays under its watermark.
     */
    void checkBlockManager(const BlockManager &kv, SimTime now);

    /**
     * Check shared-block refcount conservation on one snapshot (full
     * level): every block's refcount equals the owners referencing it
     * plus the cache's hold, per-owner shared tokens are block-
     * aligned, the cache-held / evictable tallies match the table,
     * and the cache respects its watermark. Exposed so tests can feed
     * deliberately corrupt snapshots (see KvSharedAuditView).
     */
    void checkSharedTable(const KvSharedAuditView &view, SimTime now);

    /**
     * Check the prefix cache's radix tree against the KV manager's
     * shared-block table (full level): the tree's blocks must be
     * exactly the cache-held blocks, one node per block.
     */
    void checkPrefixCache(const PrefixCache &cache,
                          const BlockManager &kv, SimTime now);

    /**
     * Check that observed event-queue time never moves backwards
     * across calls (the auditor remembers the last observed clock).
     */
    void checkEventTime(const EventQueue &eq);

    /**
     * Check a scheduler's queues via its audit view: decode batch
     * within bounds; at full level, queue exclusivity, phase/queue
     * agreement, pending-token accounting and priority ordering.
     * @p kv, when non-null, enables the cross-layer checks that every
     * queued request's KV allocation equals its context length, that
     * every queued request's KV slot is open under its own id, and
     * that no open slot belongs to a request the queues do not hold.
     */
    void checkScheduler(const Scheduler &sched, const BlockManager *kv,
                        SimTime now);

    /**
     * Check one scheduler audit view directly (exposed so tests can
     * feed deliberately corrupt views without a scheduler).
     */
    void checkSchedulerView(const SchedulerAuditView &view,
                            const BlockManager *kv, SimTime now);

    /**
     * Check a full-detail view's decode lanes (full level): every
     * lane's request is Decoding and, the lanes having been written
     * back, equals its lane (progress, Eq. 2 terms and KV slot), and
     * the lanes' contexts sum to the scheduler's running sum.
     */
    void checkDecodeLanes(const SchedulerAuditView &view, SimTime now);

    /**
     * Check a completed-request record: valid tier, non-negative
     * TTFT/TBT samples, ordered token timestamps, miss counts within
     * the token budget, non-negative retry count.
     */
    void checkRecord(const RequestRecord &rec, const TierTable &tiers);

    /**
     * Audit hook for a replica crash, called after the failure path
     * tore the replica down: the KV cache must hold zero blocks,
     * zero owners and zero shared blocks (block conservation across
     * crash-release, including the prefix cache's holdings), the
     * rebuilt scheduler must be idle, and no request may still be
     * owned by the dead replica (no request stranded).
     */
    void onReplicaCrash(const BlockManager &kv, const Scheduler &sched,
                        std::size_t live_requests, SimTime now);

    /** Iterations audited so far. */
    std::uint64_t iterationsAudited() const { return iterations_; }

    /** Total violations detected (including ones beyond the cap). */
    std::uint64_t violationCount() const { return violationCount_; }

    /** Retained violations (capped at Options::kMaxRetained). */
    const std::vector<Violation> &violations() const
    {
        return violations_;
    }

    /** True when no violation has been detected. */
    bool clean() const { return violationCount_ == 0; }

  private:
    /** Record (or panic on) one violation. */
    void report(const char *invariant, std::string detail, SimTime when);

    bool cheap() const
    {
        return opts_.level >= audit::CheckLevel::Cheap;
    }

    bool full() const
    {
        return opts_.level >= audit::CheckLevel::Full;
    }

    Options opts_;
    SimTime lastEventTime_{-kTimeNever.seconds()};
    std::uint64_t iterations_ = 0;
    std::uint64_t violationCount_ = 0;
    std::vector<Violation> violations_;
};

} // namespace qoserve

#endif // QOSERVE_AUDIT_INVARIANT_AUDITOR_HH
