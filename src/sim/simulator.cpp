#include "sim/simulator.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace onelab::sim {

namespace {

/// Handle ids pack (slot index + 1) in the high half and the slot's
/// generation in the low half; 0 stays the invalid-handle sentinel.
constexpr std::uint64_t makeId(std::uint32_t slot, std::uint32_t generation) noexcept {
    return (std::uint64_t(slot + 1) << 32) | generation;
}
constexpr std::uint32_t idSlot(std::uint64_t id) noexcept {
    return std::uint32_t(id >> 32) - 1;
}
constexpr std::uint32_t idGeneration(std::uint64_t id) noexcept {
    return std::uint32_t(id);
}

/// Events dispatched under one sim_event profile scope. Two clock
/// reads per batch instead of per event bounds the enabled-profiler
/// overhead at roughly 1/128th of the per-event cost.
constexpr std::size_t kProfileEventBatch = 128;

}  // namespace

Simulator::Simulator()
    : eventsExecuted_(&obs::Registry::instance().counter("sim.events_executed")),
      eventsScheduled_(&obs::Registry::instance().counter("sim.events_scheduled")),
      eventsCancelled_(&obs::Registry::instance().counter("sim.events_cancelled")) {}

std::uint32_t Simulator::acquireSlot() {
    if (!freeSlots_.empty()) {
        const std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return slot;
    }
    const auto slot = std::uint32_t(slots_.size());
    slots_.emplace_back();
    return slot;
}

EventHandle Simulator::enqueueSlot(std::uint32_t slot, SimTime when) {
    Slot& entry = slots_[slot];
    entry.heapIndex = std::uint32_t(heap_.size());
    heap_.push_back(HeapEntry{std::max(when, now_), nextSequence_++, slot});
    siftUp(heap_.size() - 1);
    if (running_)
        ++pendingScheduled_;
    else
        eventsScheduled_->inc();
    return EventHandle{makeId(slot, entry.generation)};
}

bool Simulator::cancel(EventHandle handle) {
    if (!handle.valid()) return false;
    const std::uint32_t slot = idSlot(handle.id());
    if (slot >= slots_.size()) return false;
    Slot& entry = slots_[slot];
    // A stale generation means the event already fired, was cancelled,
    // or was dropped by clear() — nothing pending to cancel.
    if (entry.generation != idGeneration(handle.id()) || entry.heapIndex == kNoHeapIndex)
        return false;
    removeHeapIndex(entry.heapIndex);
    releaseSlot(slot);
    if (running_)
        ++pendingCancelled_;
    else
        eventsCancelled_->inc();
    return true;
}

void Simulator::siftUp(std::size_t index) {
    const HeapEntry entry = heap_[index];
    while (index > 0) {
        const std::size_t parent = (index - 1) / kHeapArity;
        if (!firesBefore(entry, heap_[parent])) break;
        heap_[index] = heap_[parent];
        slots_[heap_[index].slot].heapIndex = std::uint32_t(index);
        index = parent;
    }
    heap_[index] = entry;
    slots_[entry.slot].heapIndex = std::uint32_t(index);
}

void Simulator::siftDown(std::size_t index) {
    const HeapEntry entry = heap_[index];
    const std::size_t size = heap_.size();
    for (;;) {
        const std::size_t first = kHeapArity * index + 1;
        if (first >= size) break;
        const std::size_t last = std::min(first + kHeapArity, size);
        std::size_t best = first;
        for (std::size_t child = first + 1; child < last; ++child)
            if (firesBefore(heap_[child], heap_[best])) best = child;
        if (!firesBefore(heap_[best], entry)) break;
        heap_[index] = heap_[best];
        slots_[heap_[index].slot].heapIndex = std::uint32_t(index);
        index = best;
    }
    heap_[index] = entry;
    slots_[entry.slot].heapIndex = std::uint32_t(index);
}

void Simulator::popRoot() {
    const std::size_t last = heap_.size() - 1;
    if (last == 0) {
        heap_.pop_back();
        return;
    }
    // The filler comes from a leaf, so it can only travel down — no
    // siftUp leg, unlike the general removeHeapIndex.
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    heap_[0] = moved;
    slots_[moved.slot].heapIndex = 0;
    siftDown(0);
}

void Simulator::removeHeapIndex(std::size_t index) {
    const std::size_t last = heap_.size() - 1;
    if (index == last) {
        heap_.pop_back();
        return;
    }
    const HeapEntry moved = heap_[last];
    heap_.pop_back();
    heap_[index] = moved;
    slots_[moved.slot].heapIndex = std::uint32_t(index);
    // The filler may need to travel either direction; one of these is
    // always a no-op.
    siftDown(index);
    siftUp(slots_[moved.slot].heapIndex);
}

void Simulator::releaseSlot(std::uint32_t slot) {
    Slot& entry = slots_[slot];
    entry.action.reset();
    entry.heapIndex = kNoHeapIndex;
    ++entry.generation;
    freeSlots_.push_back(slot);
}

void Simulator::fireTop() {
    const std::uint32_t slot = heap_.front().slot;
    Slot& entry = slots_[slot];
    now_ = heap_.front().when;
    // Move the callback out and retire the slot BEFORE invoking it:
    // the action may reschedule into the same slot (or grow slots_),
    // and a cancel() of the executing event's own handle must report
    // "no longer pending".
    InplaceAction action = std::move(entry.action);
    popRoot();
    releaseSlot(slot);
    ++executed_;
    ++pendingExecuted_;
    action.invokeOnce();
}

void Simulator::flushCounters() noexcept {
    if (pendingScheduled_) {
        eventsScheduled_->inc(pendingScheduled_);
        pendingScheduled_ = 0;
    }
    if (pendingExecuted_) {
        eventsExecuted_->inc(pendingExecuted_);
        pendingExecuted_ = 0;
    }
    if (pendingCancelled_) {
        eventsCancelled_->inc(pendingCancelled_);
        pendingCancelled_ = 0;
    }
    pool_.syncCounters();
}

std::size_t Simulator::runUntil(SimTime until) {
    const std::size_t ran = dispatch(until);
    // Advance the clock to the horizon even if the queue drained early,
    // so successive runUntil calls observe monotonic time.
    now_ = std::max(now_, until);
    return ran;
}

std::size_t Simulator::run() { return dispatch(SimTime::max()); }

std::size_t Simulator::dispatch(SimTime until) {
    const bool outermost = !running_;
    running_ = true;
    std::size_t ran = 0;
    // Loop machinery time lands in sim_run; datapath stages opened by
    // event actions subtract themselves out (self-time attribution).
    obs::ProfileScope runScope(obs::ProfileCategory::sim_run);
    // Hoisted so the common (profiler-off) loop pays nothing per event.
    obs::Profiler* const profiler = obs::Profiler::currentIfEnabled();
    try {
        if (profiler) {
            // One sim_event scope per batch, not per event: two clock
            // reads amortised over kProfileEventBatch dispatches keeps
            // the enabled-profiler cost under the 2% overhead budget,
            // and the open scope still absorbs datapath child scopes.
            while (!heap_.empty() && heap_.front().when <= until) {
                obs::ProfileScope eventScope(obs::ProfileCategory::sim_event);
                std::size_t inBatch = 0;
                while (inBatch < kProfileEventBatch && !heap_.empty() &&
                       heap_.front().when <= until) {
                    fireTop();
                    ++ran;
                    ++inBatch;
                }
            }
        } else {
            while (!heap_.empty() && heap_.front().when <= until) {
                fireTop();
                ++ran;
            }
        }
    } catch (...) {
        if (outermost) {
            running_ = false;
            flushCounters();
        }
        throw;
    }
    if (outermost) {
        running_ = false;
        flushCounters();
    }
    return ran;
}

void Simulator::clear() {
    // Release via the heap (not a slot sweep) so freelist order — and
    // therefore slot reuse after clear() — is deterministic.
    while (!heap_.empty()) {
        const std::uint32_t slot = heap_.back().slot;
        heap_.pop_back();
        releaseSlot(slot);
    }
}

void Simulator::attachLogClock() {
    util::LogConfig::instance().setClock([this] { return std::int64_t(now_.count()); });
    // The recorder stamps records with the same simulated clock (the
    // profiler keeps wall time: it measures cost, not schedule).
    obs::Tracer::instance().setClock([this] { return std::int64_t(now_.count()); });
}

}  // namespace onelab::sim
