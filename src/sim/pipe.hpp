#pragma once

#include <functional>
#include <memory>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"

namespace onelab::sim {

/// One end of a bidirectional byte stream (a TTY, a serial line, the
/// byte side of a radio bearer). Writes go to the peer; data arriving
/// from the peer is delivered through the onData callback.
///
/// Zero-copy extension: a writer holding a refcounted pooled slice can
/// hand it over with write(SharedBytes), and a receiver that forwards
/// bytes onward (rather than consuming them in place) installs
/// onDataShared() to get the slice itself. Channels that don't
/// override the shared forms degrade to the copying view path, so the
/// two worlds interoperate hop by hop.
class ByteChannel {
  public:
    virtual ~ByteChannel() = default;

    /// Write bytes toward the peer.
    virtual void write(util::ByteView data) = 0;

    /// Write a refcounted slice toward the peer. Default: view copy.
    virtual void write(const util::SharedBytes& data) { write(data.view()); }

    /// Install the receive callback (bytes arriving from the peer).
    virtual void onData(std::function<void(util::ByteView)> handler) = 0;

    /// Slice-aware receive: the handler gets the writer's refcounted
    /// buffer when one rode the channel intact, or a wrapped copy
    /// otherwise. Installing it replaces any onData handler (one
    /// receive callback is active at a time).
    virtual void onDataShared(std::function<void(util::SharedBytes)> handler) {
        onData([handler = std::move(handler)](util::ByteView data) {
            handler(util::SharedBytes::copy(data));
        });
    }
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
