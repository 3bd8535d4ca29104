/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a time-ordered queue of callbacks. Components schedule
 * work at future simulated times; run() drains events in timestamp
 * order, advancing the clock to each event as it fires. Ties are broken
 * by insertion order so simulations are fully deterministic.
 *
 * Storage is split into two arenas so the hot path stays allocation-
 * free at steady state:
 *
 *  - a slot pool holding the callbacks, recycled through a free list
 *    (a slot's generation counter is bumped on every release, which
 *    both invalidates stale EventIds and turns cancel() into an O(1)
 *    operation);
 *  - a binary heap of trivially-copyable 24-byte entries {when, seq,
 *    slot, gen} — sift operations move plain structs, never
 *    std::function objects.
 */

#ifndef QOSERVE_SIMCORE_EVENT_QUEUE_HH
#define QOSERVE_SIMCORE_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/time.hh"

namespace qoserve {

/** Callback type executed when an event fires. */
using EventFn = std::function<void()>;

/**
 * Handle that can be used to cancel a scheduled event.
 *
 * Encodes (slot index << 32) | slot generation; generations start at
 * 1, so 0 is never a valid handle and handles from released slots
 * never collide with live ones.
 */
using EventId = std::uint64_t;

/**
 * A deterministic discrete-event queue with a simulation clock.
 *
 * Typical use:
 * @code
 *   EventQueue eq;
 *   eq.schedule(0.5, [&]{ ... });
 *   eq.run();
 * @endcode
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * @param when Absolute simulation time; must be finite and not
     *        in the past (panics otherwise — enforced, not merely
     *        documented, so a NaN or past timestamp is caught at the
     *        call that produced it rather than as heap corruption).
     * @param fn Callback to execute.
     * @return Handle usable with cancel().
     */
    EventId schedule(SimTime when, EventFn fn);

    /**
     * Schedule @p fn to run @p delay seconds from now.
     *
     * @param delay Must be finite and non-negative (panics
     *        otherwise).
     * @param fn Callback to execute.
     */
    EventId scheduleAfter(SimDuration delay, EventFn fn);

    /**
     * Schedule a *daemon* event: one that observes the simulation but
     * must never keep it alive. Daemon events fire exactly like
     * normal ones; the difference is bookkeeping — they are excluded
     * from hasRealWork(), which is what self-rescheduling cadences
     * (metrics samplers, controllers) consult before rescheduling.
     * With two or more observers the naive `!empty()` check deadlocks
     * the drain: each sees the other's pending tick and they keep
     * each other alive forever. Checking hasRealWork() from a daemon
     * tick cannot, because observer ticks don't count as work.
     */
    EventId scheduleDaemon(SimTime when, EventFn fn);

    /** Daemon variant of scheduleAfter(). */
    EventId scheduleDaemonAfter(SimDuration delay, EventFn fn);

    /** True while any non-daemon event is pending. */
    bool hasRealWork() const { return pendingCount_ > daemonPending_; }

    /**
     * Cancel a pending event in O(1).
     *
     * Cancelling an event that already fired (or was already
     * cancelled) is a harmless no-op: its slot generation no longer
     * matches the handle. The callback is destroyed immediately; the
     * heap entry is dropped lazily when it reaches the top.
     *
     * @param id Handle returned by schedule().
     * @return True if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Number of pending (non-cancelled) events. */
    std::size_t pendingEvents() const { return pendingCount_; }

    /** True if no events remain. */
    bool empty() const { return pendingCount_ == 0; }

    /**
     * Run events until the queue empties or the clock would pass
     * @p until.
     *
     * Events scheduled exactly at @p until still fire. The clock is
     * left at the last fired event (or at @p until when finite and
     * reached).
     *
     * @param until Stop once the next event is later than this.
     * @return Number of events executed.
     */
    std::uint64_t run(SimTime until = kTimeNever);

    /** Total events executed over the queue's lifetime. */
    std::uint64_t firedEvents() const { return firedCount_; }

    /** Slots currently allocated in the pool (diagnostics). */
    std::size_t poolSlots() const { return slots_.size(); }

  private:
    /** Pooled callback storage. */
    struct Slot
    {
        EventFn fn;
        std::uint32_t gen = 1;  ///< Bumped on every release.
        bool active = false;    ///< Scheduled and not yet fired.
        bool daemon = false;    ///< Excluded from hasRealWork().
    };

    /** Heap entry: plain data only, cheap to sift. */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /**
     * Min-heap order on (when, seq), a total order. A function
     * object, not a function pointer, so the heap algorithms inline
     * the compare.
     */
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Acquire a slot for @p fn; returns its index. */
    std::uint32_t acquireSlot(EventFn fn);

    /** Release a slot back to the free list, bumping its generation. */
    void releaseSlot(std::uint32_t index);

    /**
     * Pop heap entries until the top is live; move its callback into
     * @p fn and release the slot. Returns false when the heap empties
     * or the next live event is later than @p until.
     */
    bool takeNext(SimTime until, SimTime &when, EventFn &fn);

    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<HeapEntry> heap_;
    SimTime now_;
    std::uint64_t nextSeq_ = 0;
    std::size_t pendingCount_ = 0;
    std::size_t daemonPending_ = 0;
    std::uint64_t firedCount_ = 0;
};

} // namespace qoserve

#endif // QOSERVE_SIMCORE_EVENT_QUEUE_HH
