#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "sim/simulator.hpp"

namespace onelab::sim {
class Simulator;
}

namespace onelab::net {

/// Rate-limited drop-tail transmit queue. Items are opaque byte
/// counts paired with a completion action; when an item finishes
/// serialising at the configured rate the action fires. net::Internet
/// builds one per attachment for its egress (the UMTS RLC buffer is
/// umts::BearerLink).
class TxQueue {
  public:
    TxQueue(sim::Simulator& simulator, double rateBitsPerSecond, std::size_t byteLimit)
        : sim_(simulator), rateBps_(rateBitsPerSecond), byteLimit_(byteLimit) {}
    ~TxQueue() { *alive_ = false; }

    TxQueue(const TxQueue&) = delete;
    TxQueue& operator=(const TxQueue&) = delete;

    /// Enqueue an item; returns false (and counts a drop) when the
    /// byte limit would be exceeded.
    bool enqueue(std::size_t bytes, std::function<void()> onSerialized);

    [[nodiscard]] std::size_t backlogBytes() const noexcept { return backlogBytes_; }
    [[nodiscard]] std::size_t backlogPackets() const noexcept { return queue_.size(); }
    [[nodiscard]] std::size_t byteLimit() const noexcept { return byteLimit_; }
    [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }
    [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

    /// Drop all queued items without running their actions (link
    /// teardown flushes the buffer).
    void clear();

  private:
    struct Item {
        std::size_t bytes;
        std::function<void()> action;
    };

    void startNext();

    sim::Simulator& sim_;
    /// Guards scheduled completions against the queue being destroyed
    /// with items still "on the air".
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
    const double rateBps_;
    std::size_t byteLimit_;
    std::deque<Item> queue_;
    std::size_t backlogBytes_ = 0;
    bool busy_ = false;
    std::uint64_t drops_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t epoch_ = 0;  ///< invalidates in-flight completions after clear()
};

}  // namespace onelab::net
