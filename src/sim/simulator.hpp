#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/buffer_pool.hpp"
#include "sim/inplace_action.hpp"
#include "sim/time.hpp"

namespace onelab::obs {
class Counter;
}

namespace onelab::sim {

/// Handle returned by Simulator::schedule; can cancel a pending event.
/// Encodes a slot index plus the slot's generation, so a handle goes
/// stale the moment its event fires, is cancelled, or the queue is
/// cleared — cancel() on a stale handle is a cheap, safe no-op.
class EventHandle {
  public:
    EventHandle() = default;

    [[nodiscard]] bool valid() const noexcept { return id_ != 0; }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  private:
    friend class Simulator;
    explicit EventHandle(std::uint64_t id) : id_(id) {}
    std::uint64_t id_ = 0;
};

/// Single-threaded discrete-event simulator. Events at the same
/// timestamp fire in scheduling order (FIFO tie-break), which keeps
/// runs deterministic.
///
/// The event queue is an indexed 4-ary heap over generation-tagged
/// slots. Heap entries carry their own (when, sequence) sort key, so
/// sift comparisons never leave the contiguous heap array; callables
/// are constructed directly inside a recycled slot's InplaceAction
/// storage, so schedule/fire touch no allocator; cancel is an O(1)
/// slot lookup plus an O(log n) heap removal, and there are no
/// lazily-cancelled tombstones for run loops to skip over.
class Simulator {
  public:
    Simulator();
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current simulated time.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Schedule `action` to run `delay` after now (delay clamped to
    /// >= 0). The callable is constructed in place inside the event
    /// slot — no intermediate InplaceAction materializes on this path.
    template <typename F>
    EventHandle schedule(SimTime delay, F&& action) {
        return scheduleAt(now_ + std::max(SimTime{0}, delay), std::forward<F>(action));
    }

    /// Schedule at an absolute simulated time (clamped to >= now).
    template <typename F>
    EventHandle scheduleAt(SimTime when, F&& action) {
        const std::uint32_t slot = acquireSlot();
        slots_[slot].action = std::forward<F>(action);
        return enqueueSlot(slot, when);
    }

    /// Cancel a pending event; returns true if it was still pending.
    /// Handles of fired events, previously cancelled events, or events
    /// dropped by clear() return false.
    bool cancel(EventHandle handle);

    /// Run until the event queue drains or `until` is reached. Events
    /// scheduled exactly at `until` do run. Returns the number of
    /// events executed.
    std::size_t runUntil(SimTime until);

    /// Run until the queue drains completely.
    std::size_t run();

    /// Drop every pending event (used between experiment repetitions)
    /// and invalidate all outstanding handles. The clock (`now()`) and
    /// the lifetime `executedEvents()` count are deliberately NOT
    /// reset: both are monotonic over the simulator's life so that
    /// successive phases of one run observe consistent time and
    /// counters. Start a fresh Simulator for a fresh timeline.
    void clear();

    [[nodiscard]] std::size_t pendingEvents() const noexcept { return heap_.size(); }
    [[nodiscard]] std::uint64_t executedEvents() const noexcept { return executed_; }

    /// Buffer freelist shared by this simulator's datapath (pppd
    /// frames, pipe writes, RLC chunks); single-threaded like the
    /// simulator itself.
    [[nodiscard]] BufferPool& bufferPool() noexcept { return pool_; }

    /// Install this simulator as the log and recorder clock so log
    /// lines and obs::Tracer records carry simulated time.
    void attachLogClock();

  private:
    static constexpr std::uint32_t kNoHeapIndex = ~std::uint32_t{0};
    /// 4-ary: half the levels of a binary heap, and the four children
    /// sit in adjacent heap entries (one or two cache lines).
    static constexpr std::size_t kHeapArity = 4;

    /// One event slot. Slots are recycled through a freelist; the
    /// generation counter increments on every release, so handles into
    /// a reused slot from an earlier life cannot cancel the new event.
    struct Slot {
        std::uint32_t generation = 1;
        std::uint32_t heapIndex = kNoHeapIndex;  ///< position in heap_, or free
        InplaceAction action;
    };

    /// Heap entries own the sort key so sift loops compare within the
    /// contiguous heap array instead of dereferencing slots.
    struct HeapEntry {
        SimTime when{};
        std::uint64_t sequence = 0;  ///< FIFO tie-break
        std::uint32_t slot = 0;
    };

    [[nodiscard]] static bool firesBefore(const HeapEntry& a, const HeapEntry& b) noexcept {
        if (a.when != b.when) return a.when < b.when;
        return a.sequence < b.sequence;
    }

    /// Pop a free slot (or grow) — the caller constructs the action.
    std::uint32_t acquireSlot();
    /// Push an acquired slot onto the heap and account the schedule.
    EventHandle enqueueSlot(std::uint32_t slot, SimTime when);
    void siftUp(std::size_t index);
    void siftDown(std::size_t index);
    /// Remove the root (the firing event): pop-last + siftDown only.
    void popRoot();
    void removeHeapIndex(std::size_t index);
    /// Return a slot to the freelist, destroying its action and
    /// invalidating outstanding handles via the generation bump.
    void releaseSlot(std::uint32_t slot);
    /// Pop the earliest event, advance the clock and run it.
    void fireTop();
    /// The one run loop: fire events in order while the earliest is
    /// due at or before `until`. Leaves the clock at the last event.
    std::size_t dispatch(SimTime until);

    // Declared before the slots so pooled buffers captured in pending
    // actions are destroyed while the pool is still alive.
    BufferPool pool_;
    std::vector<Slot> slots_;
    std::vector<HeapEntry> heap_;           ///< min-heap by (when, sequence)
    std::vector<std::uint32_t> freeSlots_;  ///< recycled slot indices
    SimTime now_{0};
    std::uint64_t nextSequence_ = 1;
    std::uint64_t executed_ = 0;
    // Registry mirrors (sim.events_*) live on scattered cache lines,
    // so the hot loop accumulates deltas in these members and flushes
    // at run-loop exit; outside a loop, updates go straight through.
    // Every observation point (telemetry export, test assertions) runs
    // outside the loop and therefore sees exact values.
    bool running_ = false;
    std::uint64_t pendingScheduled_ = 0;
    std::uint64_t pendingExecuted_ = 0;
    std::uint64_t pendingCancelled_ = 0;
    void flushCounters() noexcept;
    // Registry-backed mirrors of the local counters (sim.events_*);
    // shared across Simulator instances by name.
    obs::Counter* eventsExecuted_;
    obs::Counter* eventsScheduled_;
    obs::Counter* eventsCancelled_;
};

}  // namespace onelab::sim
