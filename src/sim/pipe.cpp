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

    void write(const util::SharedBytes& data) override {
        obs::ProfileScope scope(obs::ProfileCategory::pipe);
        if (!peer_) return;
        if (!peer_->handler_) {
            // The peer never installed a receive callback: the bytes
            // would be dropped at delivery time anyway, so skip the
            // corruption pass and the scheduled event — but keep the
            // count visible. (Handlers are installed before traffic in
            // every bring-up path; a write landing here is a half-wired
            // endpoint, not an in-flight race.)
            droppedNoHandler_->inc(data.size());
            return;
        }
        // The delivery event holds a reference to the writer's slice;
        // corruption flips bytes in a private pooled copy instead, so
        // the writer's bytes are never mutated. The peer's alive flag
        // guards against delivery after destruction.
        util::SharedBytes buffer =
            corruption_ && corruptProbability_ > 0.0 ? corrupt(data.view()) : data;
        End* peer = peer_;
        std::weak_ptr<bool> peerAlive = peer->alive_;
        // A stall delays delivery until the stall window closes; FIFO
        // survives because held writes share the same release instant
        // and the simulator breaks ties in scheduling order.
        const SimTime departure = sim_.now() + latency_;
        const SimTime delivery = std::max(departure, stallUntil_);
        sim_.schedule(delivery - sim_.now(),
                      [peer, peerAlive, buffer = std::move(buffer)]() mutable {
            const auto alive = peerAlive.lock();
            if (!alive || !*alive) return;
            // Copy the handler before invoking: handlers may replace
            // themselves (wvdial hands the TTY from chat to pppd from
            // within a delivery), and invoking the member directly
            // would destroy the executing closure. The slice moves into
            // the handler, so a handler that keeps nothing recycles the
            // buffer as it returns.
            const auto handler = peer->handler_;
            if (handler) handler(std::move(buffer));
        });
    }

    void onData(std::function<void(util::SharedBytes)> handler) override {
        handler_ = std::move(handler);
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
    /// A pooled copy of `data` with each byte flipped at the
    /// configured probability.
    util::SharedBytes corrupt(util::ByteView data) {
        util::Bytes copy = sim_.bufferPool().acquire(data);
        for (auto& byte : copy) {
            if (!corruption_->chance(corruptProbability_)) continue;
            // XOR with a nonzero mask so a corrupted byte always
            // differs from the original.
            byte ^= std::uint8_t(corruption_->uniformInt(1, 255));
            ++corruptedBytes_;
        }
        return sim_.bufferPool().share(std::move(copy));
    }

    Simulator& sim_;
    SimTime latency_;
    std::shared_ptr<bool> alive_;
    End* peer_ = nullptr;
    std::function<void(util::SharedBytes)> handler_;
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
