// Differential test for the AT engine's data-mode "+++" scan: the
// run-level scan must match the per-byte loop it replaced, kept here
// verbatim as the oracle, on seeded '+'-dense chunk streams. Both see
// the same chunks at the same sim times; the escape fire times, the
// guard.at.escape_spam increments and the sim.events_cancelled
// increments must agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "modem/at_engine.hpp"
#include "obs/registry.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"

namespace onelab::modem {
namespace {

// ------------------------------------------------------------------
// Reference: the per-byte escape scan as it stood before the run-level
// rewrite, with the engine state it touches.
// ------------------------------------------------------------------

class EscapeScanReference {
  public:
    explicit EscapeScanReference(sim::Simulator& simulator)
        : sim_(simulator), log_("modem.at.reference"),
          escapeSpamMetric_(obs::Registry::instance().counter("guard.at.escape_spam")) {}

    std::function<void()> onEscape;

    void scanEscapeSequence(util::ByteView data) {
        // Scan for the escape sequence: guard, "+++", guard.
        for (const std::uint8_t byte : data) {
            const sim::SimTime now = sim_.now();
            if (byte == '+') {
                const bool guardOk = plusCount_ > 0 || (now - lastDataByte_) >= kGuardTime;
                plusCount_ = guardOk ? plusCount_ + 1 : 0;
                if (plusCount_ == 0) {
                    // '+' runs inside flowing data are escape attempts
                    // without the guard silence — three in a row is the
                    // "+++ spam" signature (counted, never escapes).
                    if (++rawPlusRun_ >= 3) {
                        escapeSpamMetric_.inc();
                        rawPlusRun_ = 0;
                    }
                } else {
                    rawPlusRun_ = 0;
                }
                if (plusCount_ == 3) {
                    // Arm the trailing guard: if nothing follows for a
                    // guard time, escape fires.
                    if (escapeTimer_.valid()) sim_.cancel(escapeTimer_);
                    escapeTimer_ = sim_.schedule(kGuardTime, [this] {
                        escapeTimer_ = {};
                        plusCount_ = 0;
                        log_.info() << "escape sequence detected";
                        if (onEscape) onEscape();
                    });
                }
            } else {
                plusCount_ = 0;
                rawPlusRun_ = 0;
                if (escapeTimer_.valid()) {
                    sim_.cancel(escapeTimer_);
                    escapeTimer_ = {};
                }
            }
            lastDataByte_ = now;
        }
    }

  private:
    sim::Simulator& sim_;
    util::Logger log_;
    static constexpr sim::SimTime kGuardTime = sim::millis(1000);
    sim::SimTime lastDataByte_{-10'000'000'000};
    int plusCount_ = 0;
    sim::EventHandle escapeTimer_;
    int rawPlusRun_ = 0;
    obs::Counter& escapeSpamMetric_;
};

/// Host side of the TTY reduced to its handler: chunks reach the
/// engine exactly when the test's events fire, with no pipe latency.
class DirectTty final : public sim::ByteChannel {
  public:
    void write(const util::SharedBytes&) override {}
    void onData(std::function<void(util::SharedBytes)> handler) override {
        handler_ = std::move(handler);
    }
    std::function<void(util::SharedBytes)> handler_;
};

struct Chunk {
    sim::SimTime at;
    util::Bytes bytes;
};

/// A '+'-dense stream: chunk sizes 0-64 B (a third of them 0-4 B, so
/// bare "+++" bursts are common) plus some 1500 B, each chunk 50%, 90%
/// or 100% '+', and gaps of 0, 0.5 s, exactly 1 s and 1.5 s so both
/// guard edges are hit.
std::vector<Chunk> makeStream(std::uint64_t seed, int chunks) {
    util::RandomStream rng{seed};
    constexpr sim::SimTime kGaps[] = {sim::SimTime{0}, sim::millis(500), sim::millis(1000),
                                      sim::millis(1500)};
    constexpr double kDensity[] = {0.5, 0.9, 1.0};
    std::vector<Chunk> stream;
    sim::SimTime at{0};
    for (int i = 0; i < chunks; ++i) {
        at += kGaps[rng.uniformInt(0, 3)];
        const std::int64_t shape = rng.uniformInt(0, 9);
        const std::int64_t size =
            shape == 0 ? 1500 : shape <= 3 ? rng.uniformInt(0, 4) : rng.uniformInt(0, 64);
        const double density = kDensity[rng.uniformInt(0, 2)];
        util::Bytes bytes(std::size_t(size), 0);
        for (auto& byte : bytes) {
            byte = '+';
            if (!rng.chance(density)) {
                while (byte == '+') byte = std::uint8_t(rng.uniformInt(0, 255));
            }
        }
        stream.push_back({at, std::move(bytes)});
    }
    return stream;
}

struct Outcome {
    std::vector<sim::SimTime> escapes;
    std::uint64_t spam = 0;       ///< guard.at.escape_spam increments
    std::uint64_t cancelled = 0;  ///< sim.events_cancelled increments
    std::uint64_t sunk = 0;       ///< bytes the engine passed on to its sink
};

std::uint64_t counterValue(const char* name) {
    return obs::Registry::instance().counter(name).value();
}

/// Play `stream` through `deliver`, scheduled on `simulator` at each
/// chunk's time, and record the escapes and counter increments.
template <typename Deliver>
void play(sim::Simulator& simulator, const std::vector<Chunk>& stream, Deliver deliver,
          Outcome& outcome) {
    const std::uint64_t spam0 = counterValue("guard.at.escape_spam");
    const std::uint64_t cancelled0 = counterValue("sim.events_cancelled");
    for (const Chunk& chunk : stream)
        simulator.scheduleAt(chunk.at, [&deliver, &chunk] { deliver(chunk.bytes); });
    simulator.run();
    outcome.spam = counterValue("guard.at.escape_spam") - spam0;
    outcome.cancelled = counterValue("sim.events_cancelled") - cancelled0;
}

Outcome runEngine(const std::vector<Chunk>& stream) {
    Outcome outcome;
    sim::Simulator simulator;
    DirectTty tty;
    AtEngine engine{simulator, "differential"};
    engine.attachTty(tty);
    engine.enterDataMode([&outcome](util::SharedBytes data) { outcome.sunk += data.size(); });
    engine.onEscape = [&] { outcome.escapes.push_back(simulator.now()); };
    play(
        simulator, stream,
        [&](const util::Bytes& bytes) {
            tty.handler_(simulator.bufferPool().acquireShared({bytes.data(), bytes.size()}));
        },
        outcome);
    return outcome;
}

Outcome runReference(const std::vector<Chunk>& stream) {
    Outcome outcome;
    sim::Simulator simulator;
    EscapeScanReference reference{simulator};
    reference.onEscape = [&] { outcome.escapes.push_back(simulator.now()); };
    play(
        simulator, stream,
        [&](const util::Bytes& bytes) {
            reference.scanEscapeSequence({bytes.data(), bytes.size()});
            outcome.sunk += bytes.size();
        },
        outcome);
    return outcome;
}

TEST(AtScanDifferential, RunLevelScanMatchesPerByteLoop) {
    Outcome totals;
    for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8}) {
        const std::vector<Chunk> stream = makeStream(seed, 2000);
        const Outcome reference = runReference(stream);
        const Outcome engine = runEngine(stream);
        EXPECT_EQ(engine.escapes, reference.escapes) << "seed " << seed;
        EXPECT_EQ(engine.spam, reference.spam) << "seed " << seed;
        EXPECT_EQ(engine.cancelled, reference.cancelled) << "seed " << seed;
        EXPECT_EQ(engine.sunk, reference.sunk) << "seed " << seed;
        totals.escapes.insert(totals.escapes.end(), reference.escapes.begin(),
                              reference.escapes.end());
        totals.spam += reference.spam;
        totals.cancelled += reference.cancelled;
    }
    // The streams must exercise every branch the comparison covers.
    EXPECT_GT(totals.escapes.size(), 100u);
    EXPECT_GT(totals.spam, 1000u);
    EXPECT_GT(totals.cancelled, 100u);
}

TEST(AtScanDifferential, EscapeNeedsTheFullGuardOnBothSides) {
    // The guard edges exactly: 1 s of silence before "+++" is enough and
    // 1 s minus a nanosecond is not; data before the trailing guard
    // ends cancels the escape, data exactly at its end races the timer
    // the same way in both; "+" and "++" a gap apart still count as
    // one sequence; a data byte in front of "+++" in the same chunk
    // makes it spam.
    const auto plus = util::Bytes{'+', '+', '+'};
    const auto data = util::Bytes{'x'};
    const std::vector<std::vector<Chunk>> cases = {
        {{sim::millis(0), data}, {sim::millis(1000), plus}},
        {{sim::millis(0), data}, {sim::millis(1000) - sim::SimTime{1}, plus}},
        {{sim::millis(0), data}, {sim::millis(1000), plus}, {sim::millis(2000), data}},
        {{sim::millis(0), data}, {sim::millis(1000), plus}, {sim::millis(1999), data}},
        {{sim::millis(0), data},
         {sim::millis(1000), util::Bytes{'+'}},
         {sim::millis(1500), util::Bytes{'+', '+'}}},
        {{sim::millis(0), util::Bytes{'x', '+', '+', '+'}}},
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Outcome reference = runReference(cases[i]);
        const Outcome engine = runEngine(cases[i]);
        EXPECT_EQ(engine.escapes, reference.escapes) << "case " << i;
        EXPECT_EQ(engine.spam, reference.spam) << "case " << i;
        EXPECT_EQ(engine.cancelled, reference.cancelled) << "case " << i;
    }
    EXPECT_EQ(runEngine(cases[0]).escapes, std::vector<sim::SimTime>{sim::millis(2000)});
    EXPECT_TRUE(runEngine(cases[1]).escapes.empty());
    EXPECT_TRUE(runEngine(cases[3]).escapes.empty());
    EXPECT_EQ(runEngine(cases[5]).spam, 1u);
}

}  // namespace
}  // namespace onelab::modem
