// Microbenchmarks of the hot event-core path: schedule/fire and
// schedule/cancel throughput of the indexed-heap Simulator against an
// in-file replica of the previous core (priority_queue of events with
// a lazily-cancelled pending set and std::function callbacks), plus
// pooled pipe goodput. The replica IS the old src/sim implementation,
// kept here verbatim-in-spirit as the measurement baseline after the
// real one was replaced.
//
// Usage: micro_simcore [google-benchmark flags] [--json [path]]
//   --json   after the run, write a machine-readable summary (every
//            benchmark's throughput plus the new-vs-legacy speedup
//            ratios) to `path`, default BENCH_simcore.json.
#include <benchmark/benchmark.h>

#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "micro_json.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "sim/pipe.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"

namespace {

using namespace onelab;

// ---------------------------------------------------------------------------
// Legacy event core (the pre-refactor Simulator): binary heap of whole
// Event objects, unordered_set pending-ids for lazy cancellation,
// std::function callbacks. Faithful to the removed implementation,
// including the cached registry-counter increments it paid per event —
// atomic read-modify-writes, because the old registry was one
// process-wide instance any thread could share.
// ---------------------------------------------------------------------------
class LegacySimulator {
  public:
    [[nodiscard]] sim::SimTime now() const noexcept { return now_; }

    std::uint64_t schedule(sim::SimTime delay, std::function<void()> action) {
        return scheduleAt(now_ + std::max(sim::SimTime{0}, delay), std::move(action));
    }

    std::uint64_t scheduleAt(sim::SimTime when, std::function<void()> action) {
        const std::uint64_t sequence = nextSequence_++;
        queue_.push(Event{std::max(when, now_), sequence, std::move(action)});
        pending_.insert(sequence);
        eventsScheduled_->inc();
        return sequence;
    }

    bool cancel(std::uint64_t id) {
        const bool wasPending = pending_.erase(id) > 0;
        if (wasPending) eventsCancelled_->inc();
        return wasPending;
    }

    std::size_t run() {
        std::size_t ran = 0;
        while (!queue_.empty()) {
            Event event = std::move(const_cast<Event&>(queue_.top()));
            queue_.pop();
            if (pending_.erase(event.sequence) == 0) continue;  // tombstone
            now_ = event.when;
            ++ran;
            eventsExecuted_->inc();
            event.action();
        }
        return ran;
    }

    std::size_t runUntil(sim::SimTime until) {
        std::size_t ran = 0;
        while (!queue_.empty()) {
            // Discard lazily-cancelled entries before the horizon
            // check — the tombstone workaround the old runUntil paid
            // as an extra hash lookup on every live event too.
            if (pending_.count(queue_.top().sequence) == 0) {
                queue_.pop();
                continue;
            }
            if (queue_.top().when > until) break;
            Event event = std::move(const_cast<Event&>(queue_.top()));
            queue_.pop();
            pending_.erase(event.sequence);
            now_ = event.when;
            ++ran;
            eventsExecuted_->inc();
            event.action();
        }
        now_ = std::max(now_, until);
        return ran;
    }

  private:
    struct Event {
        sim::SimTime when{};
        std::uint64_t sequence = 0;
        std::function<void()> action;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.when != b.when) return a.when > b.when;
            return a.sequence > b.sequence;
        }
    };
    /// The shared-registry counter of the old design: a true atomic
    /// fetch_add per increment.
    struct SharedCounter {
        void inc() noexcept { value.fetch_add(1, std::memory_order_relaxed); }
        std::atomic<std::uint64_t> value{0};
    };

    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    std::unordered_set<std::uint64_t> pending_;
    sim::SimTime now_{0};
    std::uint64_t nextSequence_ = 1;
    SharedCounter counters_[3];
    SharedCounter* eventsExecuted_ = &counters_[0];
    SharedCounter* eventsScheduled_ = &counters_[1];
    SharedCounter* eventsCancelled_ = &counters_[2];
};

// Spread timestamps so the heap actually reorders (7919 is prime vs
// the batch size; delays land all over a 1000-tick window).
constexpr std::int64_t delayFor(int i) noexcept { return (i * 7919) % 1000; }

/// What a real delivery closure carries: an object pointer, a
/// liveness guard, an epoch and a buffer handle — 40 bytes, which the
/// InplaceAction stores inline but std::function boxes on the heap
/// (libstdc++ inlines only up to two words).
struct EventPayload {
    std::uint64_t* counter;
    void* object;
    std::uint64_t epoch;
    std::uint64_t guard;
    std::uint64_t bytes;
};

// ---------------------------------------------------------------------------
// schedule + fire: the datapath's dominant pattern, with
// production-sized closures. The large arg models a busy fleet's
// standing event population (fat legacy heap entries vs 4-byte heap
// indices over recycled slots).
// ---------------------------------------------------------------------------
void BM_ScheduleFire_EventCore(benchmark::State& state) {
    sim::Simulator sim;
    const int batch = int(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            const EventPayload payload{&fired, &sim, std::uint64_t(i), 0, 1500};
            sim.schedule(sim::SimTime{delayFor(i)},
                         [payload] { *payload.counter += payload.bytes != 0; });
        }
        sim.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleFire_EventCore)->Arg(64)->Arg(1024)->Arg(65536);

void BM_ScheduleFire_LegacyCore(benchmark::State& state) {
    LegacySimulator sim;
    const int batch = int(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            const EventPayload payload{&fired, &sim, std::uint64_t(i), 0, 1500};
            sim.schedule(sim::SimTime{delayFor(i)},
                         [payload] { *payload.counter += payload.bytes != 0; });
        }
        sim.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleFire_LegacyCore)->Arg(64)->Arg(1024)->Arg(65536);

// ---------------------------------------------------------------------------
// The same schedule+fire batch with the sim-time profiler enabled: the
// run loop opens a sim_run scope plus one sim_event scope per 128-event
// dispatch batch, so the two clock reads amortise across the batch.
// Compared against the plain EventCore run above, this is the
// profiler's observed overhead — the acceptance budget is <2% on this
// benchmark.
// ---------------------------------------------------------------------------
void BM_ScheduleFire_EventCoreProfiled(benchmark::State& state) {
    obs::Profiler profiler;
    profiler.setEnabled(true);
    obs::Profiler* const previous = obs::Profiler::setCurrent(&profiler);
    sim::Simulator sim;
    const int batch = int(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i) {
            const EventPayload payload{&fired, &sim, std::uint64_t(i), 0, 1500};
            sim.schedule(sim::SimTime{delayFor(i)},
                         [payload] { *payload.counter += payload.bytes != 0; });
        }
        sim.run();
    }
    obs::Profiler::setCurrent(previous);
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleFire_EventCoreProfiled)->Arg(1024)->Arg(65536);

// ---------------------------------------------------------------------------
// schedule + fire with an MTU frame riding in the event — the shape
// Pipe::write schedules on every transfer, driven through runUntil the
// way the scenario loop drives it. Per event the old stack paid a
// fresh shared_ptr<Bytes> (control block + initialised payload
// allocation), a heap-boxed std::function (40-byte capture), the
// matching frees, and runUntil's per-event tombstone-guard hash
// lookup; the new core carries a pooled buffer inline in the slot —
// freelist pop + move, no allocator in steady state. Both closures
// keep the liveness guard the real delivery uses. (Filling the
// payload costs the same on both stacks and is excluded from both;
// provisioning the buffer is what differs.)
// ---------------------------------------------------------------------------
void BM_ScheduleFireFrame_EventCore(benchmark::State& state) {
    sim::Simulator sim;
    sim::BufferPool* pool = &sim.bufferPool();
    const int batch = int(state.range(0));
    const auto alive = std::make_shared<bool>(true);
    std::uint64_t received = 0;
    for (auto _ : state) {
        const sim::SimTime horizon = sim.now() + sim::SimTime{1000};
        // The burst is written from inside an event, as pipe traffic
        // is (a source's send event scheduling deliveries mid-run).
        sim.schedule(sim::SimTime{0}, [&sim, &received, &alive, pool, batch] {
            for (int i = 0; i < batch; ++i) {
                util::Bytes frame = pool->acquire(1500);
                frame[0] = std::uint8_t(i);
                std::weak_ptr<bool> guard = alive;
                sim.schedule(sim::SimTime{delayFor(i)},
                             [&received, guard, pool, frame = std::move(frame)]() mutable {
                                 const auto lock = guard.lock();
                                 if (!lock || !*lock) return;
                                 received += frame.size();
                                 pool->release(std::move(frame));
                             });
            }
        });
        sim.runUntil(horizon);
    }
    benchmark::DoNotOptimize(received);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleFireFrame_EventCore)->Arg(256);

void BM_ScheduleFireFrame_LegacyCore(benchmark::State& state) {
    LegacySimulator sim;
    const int batch = int(state.range(0));
    const auto alive = std::make_shared<bool>(true);
    std::uint64_t received = 0;
    for (auto _ : state) {
        const sim::SimTime horizon = sim.now() + sim::SimTime{1000};
        sim.schedule(sim::SimTime{0}, [&sim, &received, &alive, batch] {
            for (int i = 0; i < batch; ++i) {
                auto frame = std::make_shared<util::Bytes>(std::size_t{1500});
                (*frame)[0] = std::uint8_t(i);
                std::weak_ptr<bool> guard = alive;
                sim.schedule(sim::SimTime{delayFor(i)}, [&received, guard, frame] {
                    const auto lock = guard.lock();
                    if (!lock || !*lock) return;
                    received += frame->size();
                });
            }
        });
        sim.runUntil(horizon);
    }
    benchmark::DoNotOptimize(received);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleFireFrame_LegacyCore)->Arg(256);

// ---------------------------------------------------------------------------
// schedule + cancel + drain: retransmit-timer churn. The legacy core
// pays for cancelled events twice (tombstones pop through the heap).
// ---------------------------------------------------------------------------
void BM_ScheduleCancel_EventCore(benchmark::State& state) {
    sim::Simulator sim;
    const int batch = int(state.range(0));
    std::vector<sim::EventHandle> handles(static_cast<std::size_t>(batch));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            handles[std::size_t(i)] =
                sim.schedule(sim::SimTime{delayFor(i)}, [&fired] { ++fired; });
        for (int i = 0; i < batch; ++i) sim.cancel(handles[std::size_t(i)]);
        sim.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleCancel_EventCore)->Arg(1024);

void BM_ScheduleCancel_LegacyCore(benchmark::State& state) {
    LegacySimulator sim;
    const int batch = int(state.range(0));
    std::vector<std::uint64_t> handles(static_cast<std::size_t>(batch));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < batch; ++i)
            handles[std::size_t(i)] =
                sim.schedule(sim::SimTime{delayFor(i)}, [&fired] { ++fired; });
        for (int i = 0; i < batch; ++i) sim.cancel(handles[std::size_t(i)]);
        sim.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ScheduleCancel_LegacyCore)->Arg(1024);

// ---------------------------------------------------------------------------
// Pipe goodput: write MTU-sized frames through the pooled datapath
// (pooled copy -> scheduled delivery -> handler -> buffer recycle).
// ---------------------------------------------------------------------------
void BM_PipeGoodput(benchmark::State& state) {
    sim::Simulator sim;
    sim::Pipe pipe{sim, sim::millis(1)};
    std::uint64_t received = 0;
    pipe.b().onData([&received](util::SharedBytes data) { received += data.size(); });
    const util::Bytes frame(std::size_t(state.range(0)), std::uint8_t{0xAB});
    sim::BufferPool& pool = sim.bufferPool();
    for (auto _ : state) {
        pipe.a().write(pool.acquireShared(frame));
        pipe.a().write(pool.acquireShared(frame));
        pipe.a().write(pool.acquireShared(frame));
        pipe.a().write(pool.acquireShared(frame));
        sim.run();
    }
    benchmark::DoNotOptimize(received);
    state.SetBytesProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_PipeGoodput)->Arg(1500);

// ---------------------------------------------------------------------------
// --json reporting
// ---------------------------------------------------------------------------

void writeSummary(std::ostream& out, const bench::MicroRuns& runs) {
    using bench::throughputFor;
    // Headline: the frame-carrying schedule/fire pair — the shape the
    // datapath actually schedules (see BM_ScheduleFireFrame_*). The
    // bare pair (empty-payload events) is recorded separately.
    const double fireNew = throughputFor(runs, "BM_ScheduleFireFrame_EventCore/256");
    const double fireLegacy = throughputFor(runs, "BM_ScheduleFireFrame_LegacyCore/256");
    const double bareNew = throughputFor(runs, "BM_ScheduleFire_EventCore/1024");
    const double bareLegacy = throughputFor(runs, "BM_ScheduleFire_LegacyCore/1024");
    const double cancelNew = throughputFor(runs, "BM_ScheduleCancel_EventCore/1024");
    const double cancelLegacy = throughputFor(runs, "BM_ScheduleCancel_LegacyCore/1024");
    const double barePlain = throughputFor(runs, "BM_ScheduleFire_EventCore/65536");
    const double bareProfiled = throughputFor(runs, "BM_ScheduleFire_EventCoreProfiled/65536");

    out << ",\"speedup\":{";
    out << "\"schedule_fire_vs_legacy\":"
        << onelab::util::format("%.2f", fireLegacy > 0.0 ? fireNew / fireLegacy : 0.0);
    out << ",\"schedule_fire_bare_vs_legacy\":"
        << onelab::util::format("%.2f", bareLegacy > 0.0 ? bareNew / bareLegacy : 0.0);
    out << ",\"schedule_cancel_vs_legacy\":"
        << onelab::util::format("%.2f",
                                cancelLegacy > 0.0 ? cancelNew / cancelLegacy : 0.0);
    out << "},\"profiler\":{";
    // Fractional throughput lost to leaving the profiler on (the
    // acceptance budget is < 0.02 at the 65536-event batch).
    out << "\"events_per_second_off\":" << onelab::util::format("%.1f", barePlain)
        << ",\"events_per_second_on\":" << onelab::util::format("%.1f", bareProfiled)
        << ",\"overhead_fraction\":"
        << onelab::util::format(
               "%.4f", barePlain > 0.0 ? 1.0 - bareProfiled / barePlain : 0.0);
    out << '}';
}

}  // namespace

int main(int argc, char** argv) {
    return onelab::bench::runMicrobench(argc, argv, "micro_simcore", "BENCH_simcore.json",
                                        writeSummary);
}
