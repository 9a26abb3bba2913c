#include "net/queue.hpp"

#include "obs/registry.hpp"
#include "sim/time.hpp"

namespace onelab::net {

namespace {

/// Aggregate net.queue.* metrics, shared by every TxQueue in the
/// current registry (net::Internet's per-attachment egress queues).
/// The cache is thread-local and keyed by the registry's process-wide
/// unique id: when a RunContext swaps the thread's registry the stale
/// references are rebound instead of dangling into the old one.
struct QueueMetrics {
    std::uint64_t registryId = 0;  ///< 0 never matches a live registry
    obs::Counter* dropped = nullptr;
    obs::Counter* completed = nullptr;
    obs::Gauge* depth = nullptr;

    static QueueMetrics& get() {
        thread_local QueueMetrics metrics;
        obs::Registry& registry = obs::Registry::instance();
        if (metrics.registryId != registry.id()) {
            metrics.registryId = registry.id();
            metrics.dropped = &registry.counter("net.queue.dropped");
            metrics.completed = &registry.counter("net.queue.completed");
            metrics.depth = &registry.gauge("net.queue.depth");
        }
        return metrics;
    }
};

}  // namespace

bool TxQueue::enqueue(std::size_t bytes, std::function<void()> onSerialized) {
    if (backlogBytes_ + bytes > byteLimit_) {
        ++drops_;
        QueueMetrics::get().dropped->inc();
        return false;
    }
    queue_.push_back(Item{bytes, std::move(onSerialized)});
    backlogBytes_ += bytes;
    QueueMetrics::get().depth->add(std::int64_t(bytes));
    if (!busy_) startNext();
    return true;
}

void TxQueue::startNext() {
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    const Item& head = queue_.front();
    const sim::SimTime duration = sim::transmissionTime(head.bytes, rateBps_);
    const std::uint64_t epoch = epoch_;
    sim_.schedule(duration, [this, epoch, alive = std::weak_ptr<bool>(alive_)] {
        const auto stillAlive = alive.lock();
        if (!stillAlive || !*stillAlive) return;  // queue destroyed
        if (epoch != epoch_) return;              // queue was cleared meanwhile
        Item item = std::move(queue_.front());
        queue_.pop_front();
        backlogBytes_ -= item.bytes;
        QueueMetrics::get().depth->add(-std::int64_t(item.bytes));
        ++completed_;
        QueueMetrics::get().completed->inc();
        if (item.action) item.action();
        startNext();
    });
}

void TxQueue::clear() {
    QueueMetrics::get().depth->add(-std::int64_t(backlogBytes_));
    queue_.clear();
    backlogBytes_ = 0;
    busy_ = false;
    ++epoch_;
}

}  // namespace onelab::net
