#include "sim/pipe.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "util/rand.hpp"

namespace onelab::sim {

class Pipe::End final : public ByteChannel {
  public:
    End(Simulator& simulator, SimTime latency)
        : sim_(simulator),
          latency_(latency),
          alive_(std::make_shared<bool>(true)),
          droppedNoHandler_(
              &obs::Registry::instance().counter("sim.pipe.dropped_no_handler")) {}

    ~End() override { *alive_ = false; }

    void connect(End* peer) { peer_ = peer; }

    void write(util::ByteView data) override {
        obs::ProfileScope scope(obs::ProfileCategory::pipe);
        if (!peer_) return;
        if (!peer_->handler_ && !peer_->sharedHandler_) {
            // The peer never installed a receive callback: the bytes
            // would be dropped at delivery time anyway, so skip the
            // copy, the corruption pass and the scheduled event — but
            // keep the count visible. (Handlers are installed before
            // traffic in every bring-up path; a write landing here is
            // a half-wired endpoint, not an in-flight race.)
            droppedNoHandler_->inc(data.size());
            return;
        }
        // Copy now (into a pooled buffer); deliver later. FIFO order is
        // guaranteed because the simulator breaks timestamp ties in
        // scheduling order. The peer's alive flag guards against
        // delivery after destruction.
        util::Bytes copy = sim_.bufferPool().acquire(data);
        if (corruption_ && corruptProbability_ > 0.0) {
            for (auto& byte : copy) {
                if (!corruption_->chance(corruptProbability_)) continue;
                // XOR with a nonzero mask so a corrupted byte always
                // differs from the original.
                byte ^= std::uint8_t(corruption_->uniformInt(1, 255));
                ++corruptedBytes_;
            }
        }
        End* peer = peer_;
        std::weak_ptr<bool> peerAlive = peer->alive_;
        // A stall delays delivery until the stall window closes; FIFO
        // survives because held writes share the same release instant
        // and the simulator breaks ties in scheduling order.
        const SimTime departure = sim_.now() + latency_;
        const SimTime delivery = std::max(departure, stallUntil_);
        BufferPool* pool = &sim_.bufferPool();
        sim_.schedule(delivery - sim_.now(),
                      [peer, peerAlive, pool, buffer = std::move(copy)]() mutable {
            const auto alive = peerAlive.lock();
            if (!alive || !*alive) return;
            // Copy the handler before invoking: handlers may replace
            // themselves (wvdial hands the TTY from chat to pppd from
            // within a delivery), and invoking the member directly
            // would destroy the executing closure.
            if (peer->sharedHandler_) {
                // Slice-aware receiver: hand the pooled buffer over as
                // a refcounted slice (it recycles when the last hop
                // lets go) instead of releasing it here.
                const auto handler = peer->sharedHandler_;
                handler(pool->share(std::move(buffer)));
                return;
            }
            const auto handler = peer->handler_;
            if (handler) handler(buffer);
            // Recycle the buffer for the next write. An event that
            // never fires (cancel/clear) just frees it — fine.
            pool->release(std::move(buffer));
        });
    }

    /// Zero-copy write: the delivery event holds a reference to the
    /// writer's slice instead of a pooled copy. Falls back to the
    /// copying path when the bytes must be privately owned (corruption
    /// mutates them).
    void write(const util::SharedBytes& data) override {
        obs::ProfileScope scope(obs::ProfileCategory::pipe);
        if (!peer_) return;
        if (corruption_ && corruptProbability_ > 0.0) {
            write(data.view());
            return;
        }
        if (!peer_->handler_ && !peer_->sharedHandler_) {
            droppedNoHandler_->inc(data.size());
            return;
        }
        End* peer = peer_;
        std::weak_ptr<bool> peerAlive = peer->alive_;
        const SimTime departure = sim_.now() + latency_;
        const SimTime delivery = std::max(departure, stallUntil_);
        sim_.schedule(delivery - sim_.now(), [peer, peerAlive, buffer = data] {
            const auto alive = peerAlive.lock();
            if (!alive || !*alive) return;
            if (peer->sharedHandler_) {
                const auto handler = peer->sharedHandler_;
                handler(buffer);
                return;
            }
            const auto handler = peer->handler_;
            if (handler) handler(buffer.view());
        });
    }

    void onData(std::function<void(util::ByteView)> handler) override {
        handler_ = std::move(handler);
        sharedHandler_ = nullptr;
    }

    void onDataShared(std::function<void(util::SharedBytes)> handler) override {
        sharedHandler_ = std::move(handler);
        handler_ = nullptr;
    }

    void stallFor(SimTime duration) {
        stallUntil_ = std::max(stallUntil_, sim_.now() + duration);
    }

    void setCorruption(double probability, std::uint64_t seed) {
        corruptProbability_ = probability;
        if (probability > 0.0)
            corruption_ = std::make_unique<util::RandomStream>(seed);
        else
            corruption_.reset();
    }

    [[nodiscard]] std::uint64_t corruptedBytes() const noexcept {
        return corruptedBytes_;
    }

  private:
    Simulator& sim_;
    SimTime latency_;
    std::shared_ptr<bool> alive_;
    End* peer_ = nullptr;
    std::function<void(util::ByteView)> handler_;
    std::function<void(util::SharedBytes)> sharedHandler_;
    SimTime stallUntil_{0};
    double corruptProbability_ = 0.0;
    std::unique_ptr<util::RandomStream> corruption_;
    std::uint64_t corruptedBytes_ = 0;
    obs::Counter* droppedNoHandler_;
};

Pipe::Pipe(Simulator& simulator, SimTime latency)
    : a_(std::make_unique<End>(simulator, latency)),
      b_(std::make_unique<End>(simulator, latency)) {
    a_->connect(b_.get());
    b_->connect(a_.get());
}

Pipe::~Pipe() = default;

ByteChannel& Pipe::a() noexcept { return *a_; }
ByteChannel& Pipe::b() noexcept { return *b_; }

void Pipe::injectStall(SimTime duration) {
    a_->stallFor(duration);
    b_->stallFor(duration);
}

void Pipe::setCorruption(double byteFlipProbability, std::uint64_t seed) {
    // Derive distinct per-direction seeds so the two ends do not mirror
    // each other's draws.
    a_->setCorruption(byteFlipProbability, seed * 2654435761u + 1);
    b_->setCorruption(byteFlipProbability, seed * 2654435761u + 2);
}

std::uint64_t Pipe::corruptedBytes() const noexcept {
    return a_->corruptedBytes() + b_->corruptedBytes();
}

}  // namespace onelab::sim
