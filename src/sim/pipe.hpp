#pragma once

#include <functional>
#include <memory>

#include "sim/simulator.hpp"
#include "util/shared_bytes.hpp"

namespace onelab::sim {

/// One end of a bidirectional byte stream (a TTY, a serial line, the
/// byte side of a radio bearer). Bytes cross it as refcounted
/// util::SharedBytes slices, the datapath's one currency: a writer
/// holding text or a scratch buffer hands over a pooled copy
/// (sim.bufferPool().acquireShared(view)), a receiver that forwards
/// bytes onward keeps the slice itself, and one that parses in place
/// reads view().
class ByteChannel {
  public:
    virtual ~ByteChannel() = default;

    /// Write a slice toward the peer.
    virtual void write(const util::SharedBytes& data) = 0;

    /// Install the receive callback (slices arriving from the peer).
    virtual void onData(std::function<void(util::SharedBytes)> handler) = 0;
};

/// An in-memory byte pipe connecting two ByteChannel endpoints.
/// Deliveries are deferred through the simulator (never re-entrant)
/// with a configurable per-write latency, and remain FIFO.
class Pipe {
  public:
    /// Create a connected pair. `latency` is the per-write transfer
    /// delay (a local TTY is effectively instantaneous; leave 0).
    Pipe(Simulator& simulator, SimTime latency = SimTime{0});
    ~Pipe();

    Pipe(const Pipe&) = delete;
    Pipe& operator=(const Pipe&) = delete;

    /// Endpoint A (e.g. the host side of a TTY).
    [[nodiscard]] ByteChannel& a() noexcept;
    /// Endpoint B (e.g. the device side of a TTY).
    [[nodiscard]] ByteChannel& b() noexcept;

    /// Fault hook: hold all deliveries (both directions) written from
    /// now until `duration` has elapsed; held bytes arrive, in order,
    /// once the stall ends. Models a wedged serial line / driver stall.
    void injectStall(SimTime duration);

    /// Fault hook: flip each transferred byte with the given
    /// probability, drawing from a stream seeded deterministically.
    /// Probability 0 (the default) disables corruption.
    void setCorruption(double byteFlipProbability, std::uint64_t seed);

    /// Total bytes corrupted by setCorruption since construction.
    [[nodiscard]] std::uint64_t corruptedBytes() const noexcept;

  private:
    class End;
    std::unique_ptr<End> a_;
    std::unique_ptr<End> b_;
};

}  // namespace onelab::sim
