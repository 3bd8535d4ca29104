/**
 * @file
 * Discrete-event queue implementation.
 */

#include "simcore/event_queue.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simcore/logging.hh"

namespace qoserve {

std::uint32_t
EventQueue::acquireSlot(EventFn fn)
{
    std::uint32_t index;
    if (!freeSlots_.empty()) {
        index = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        index = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &slot = slots_[index];
    slot.fn = std::move(fn);
    slot.active = true;
    return index;
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    Slot &slot = slots_[index];
    if (slot.daemon) {
        slot.daemon = false;
        --daemonPending_;
    }
    slot.active = false;
    slot.fn = nullptr;
    // Bumping the generation invalidates every outstanding EventId
    // for this slot, so stale heap entries and stale cancel() handles
    // are rejected by a plain integer compare.
    ++slot.gen;
    freeSlots_.push_back(index);
}

EventId
EventQueue::schedule(SimTime when, EventFn fn)
{
    // A NaN timestamp would poison every heap comparison and an
    // infinite one would wedge run(); both are always rejected, as is
    // scheduling into the simulated past.
    if (!std::isfinite(when.seconds())) {
        QOSERVE_PANIC("event scheduled at non-finite time ", when,
                      " (now=", now_, ")");
    }
    if (when < now_) {
        QOSERVE_PANIC("event scheduled in the past: ", when, " < now=",
                      now_);
    }
    std::uint32_t index = acquireSlot(std::move(fn));
    std::uint32_t gen = slots_[index].gen;
    heap_.push_back(HeapEntry{when, nextSeq_++, index, gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++pendingCount_;
    return (static_cast<EventId>(index) << 32) | gen;
}

EventId
EventQueue::scheduleAfter(SimDuration delay, EventFn fn)
{
    if (!std::isfinite(delay) || delay < 0.0) {
        QOSERVE_PANIC("event delay must be finite and non-negative, "
                      "got ", delay);
    }
    return schedule(now_ + delay, std::move(fn));
}

EventId
EventQueue::scheduleDaemon(SimTime when, EventFn fn)
{
    EventId id = schedule(when, std::move(fn));
    slots_[static_cast<std::uint32_t>(id >> 32)].daemon = true;
    ++daemonPending_;
    return id;
}

EventId
EventQueue::scheduleDaemonAfter(SimDuration delay, EventFn fn)
{
    EventId id = scheduleAfter(delay, std::move(fn));
    slots_[static_cast<std::uint32_t>(id >> 32)].daemon = true;
    ++daemonPending_;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    auto index = static_cast<std::uint32_t>(id >> 32);
    auto gen = static_cast<std::uint32_t>(id & 0xffffffffu);
    if (index >= slots_.size())
        return false;
    Slot &slot = slots_[index];
    if (slot.gen != gen || !slot.active)
        return false;
    // The heap entry stays behind as a tombstone — its generation no
    // longer matches — and is dropped when it surfaces.
    releaseSlot(index);
    if (pendingCount_ > 0)
        --pendingCount_;
    return true;
}

bool
EventQueue::takeNext(SimTime until, SimTime &when, EventFn &fn)
{
    while (!heap_.empty()) {
        const HeapEntry &top = heap_.front();
        Slot &slot = slots_[top.slot];
        if (slot.gen != top.gen || !slot.active) {
            // Tombstone of a cancelled event.
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            heap_.pop_back();
            continue;
        }
        if (top.when > until)
            return false;
        when = top.when;
        std::uint32_t index = top.slot;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
        fn = std::move(slot.fn);
        releaseSlot(index);
        --pendingCount_;
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run(SimTime until)
{
    std::uint64_t fired = 0;
    SimTime when;
    EventFn fn;
    while (takeNext(until, when, fn)) {
        QOSERVE_ASSERT(when >= now_,
                       "clock would move backwards: ", when, " < ",
                       now_);
        now_ = when;
        fn();
        fn = nullptr;
        ++fired;
        ++firedCount_;
    }
    return fired;
}

} // namespace qoserve
