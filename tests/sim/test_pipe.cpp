#include "sim/pipe.hpp"

#include <gtest/gtest.h>

#include <string>

#include "obs/registry.hpp"
#include "obs/run_context.hpp"

namespace onelab::sim {
namespace {

util::Bytes toBytes(const std::string& text) {
    return util::Bytes{text.begin(), text.end()};
}

/// A pooled copy of `text`, the way a text writer hands bytes over.
util::SharedBytes pooled(Simulator& sim, const std::string& text) {
    return sim.bufferPool().acquireShared(toBytes(text));
}

void append(std::string& out, const util::SharedBytes& data) {
    out.append(data.view().begin(), data.view().end());
}

TEST(Pipe, BidirectionalDelivery) {
    Simulator sim;
    Pipe pipe{sim};
    std::string atB;
    std::string atA;
    pipe.b().onData([&](util::SharedBytes data) { append(atB, data); });
    pipe.a().onData([&](util::SharedBytes data) { append(atA, data); });

    pipe.a().write(pooled(sim, "hello"));
    pipe.b().write(pooled(sim, "world"));
    sim.run();
    EXPECT_EQ(atB, "hello");
    EXPECT_EQ(atA, "world");
}

TEST(Pipe, DeliveryIsDeferredNotReentrant) {
    Simulator sim;
    Pipe pipe{sim};
    bool delivered = false;
    pipe.b().onData([&](util::SharedBytes) { delivered = true; });
    pipe.a().write(pooled(sim, "x"));
    EXPECT_FALSE(delivered);  // not until events run
    sim.run();
    EXPECT_TRUE(delivered);
}

TEST(Pipe, PreservesWriteOrder) {
    Simulator sim;
    Pipe pipe{sim};
    std::string received;
    pipe.b().onData([&](util::SharedBytes data) { append(received, data); });
    for (const char* chunk : {"a", "b", "c", "d"}) pipe.a().write(pooled(sim, chunk));
    sim.run();
    EXPECT_EQ(received, "abcd");
}

TEST(Pipe, LatencyApplied) {
    Simulator sim;
    Pipe pipe{sim, millis(5)};
    SimTime deliveredAt{-1};
    pipe.b().onData([&](util::SharedBytes) { deliveredAt = sim.now(); });
    pipe.a().write(pooled(sim, "x"));
    sim.run();
    EXPECT_EQ(deliveredAt, millis(5));
}

TEST(Pipe, WriteWithoutHandlerIsDropped) {
    Simulator sim;
    Pipe pipe{sim};
    pipe.a().write(pooled(sim, "lost"));
    EXPECT_NO_FATAL_FAILURE(sim.run());
}

TEST(Pipe, WriteWithoutHandlerEarlyOutsAndCounts) {
    obs::RunContext context;
    Simulator sim;
    Pipe pipe{sim};
    const util::SharedBytes data = pooled(sim, "lost");
    pipe.a().write(data);
    // The early-out skips the delivery event; the dropped bytes stay
    // visible in the counter.
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(obs::Registry::instance().counter("sim.pipe.dropped_no_handler").value(),
              data.size());
    // Once a handler is installed, writes flow again.
    std::string received;
    pipe.b().onData([&](util::SharedBytes delivered) { append(received, delivered); });
    pipe.a().write(data);
    sim.run();
    EXPECT_EQ(received, "lost");
    EXPECT_EQ(obs::Registry::instance().counter("sim.pipe.dropped_no_handler").value(),
              data.size());
}

TEST(Pipe, DeliveryRecyclesPooledBuffers) {
    Simulator sim;
    Pipe pipe{sim};
    pipe.b().onData([](util::SharedBytes) {});
    pipe.a().write(pooled(sim, "steady-state frame"));
    sim.run();  // first copy allocates; delivery returns it to the pool
    pipe.a().write(pooled(sim, "steady-state frame"));
    sim.run();
    EXPECT_EQ(sim.bufferPool().allocations(), 1u);
    EXPECT_EQ(sim.bufferPool().reuses(), 1u);
}

TEST(Pipe, SharedWriteDeliversTheSameCoreZeroCopy) {
    Simulator sim;
    Pipe pipe{sim};
    util::SharedBytes delivered;
    pipe.b().onData([&](util::SharedBytes data) { delivered = std::move(data); });

    util::Bytes frame = sim.bufferPool().acquire(std::size_t{64});
    for (std::size_t i = 0; i < frame.size(); ++i) frame[i] = std::uint8_t(i);
    const std::uint8_t* payload = frame.data();
    util::SharedBytes slice = sim.bufferPool().share(std::move(frame));
    pipe.a().write(slice);
    sim.run();
    ASSERT_EQ(delivered.size(), 64u);
    EXPECT_EQ(delivered.data(), payload);  // the writer's bytes, not a copy
    EXPECT_EQ(delivered.view()[63], 63);
    // Writer + receiver hold the same core.
    EXPECT_EQ(slice.refCount(), 2u);
    slice.reset();
    delivered.reset();
    EXPECT_EQ(sim.bufferPool().outstandingShared(), 0u);
    EXPECT_EQ(sim.bufferPool().pooledBuffers(), 1u);  // capacity recycled
}

TEST(Pipe, SharedWriteWithCorruptionStillCorrupts) {
    Simulator sim;
    Pipe pipe{sim};
    pipe.setCorruption(1.0, 7);  // flip every byte
    util::SharedBytes delivered;
    pipe.b().onData([&](util::SharedBytes data) { delivered = std::move(data); });
    const auto text = toBytes("mutate me");
    util::SharedBytes slice = sim.bufferPool().acquireShared(text);
    pipe.a().write(slice);
    sim.run();
    ASSERT_EQ(delivered.size(), text.size());
    // The writer's slice is untouched — corruption forced a private copy.
    EXPECT_EQ(std::string(slice.view().begin(), slice.view().end()), "mutate me");
    EXPECT_NE(delivered.data(), slice.data());
    int differing = 0;
    for (std::size_t i = 0; i < text.size(); ++i)
        if (delivered.view()[i] != text[i]) ++differing;
    EXPECT_EQ(differing, int(text.size()));
}

TEST(Pipe, DestroyedPipeDoesNotDeliver) {
    Simulator sim;
    bool delivered = false;
    {
        Pipe pipe{sim, millis(10)};
        pipe.b().onData([&](util::SharedBytes) { delivered = true; });
        pipe.a().write(pooled(sim, "x"));
    }  // pipe destroyed with the delivery still in flight
    sim.run();
    EXPECT_FALSE(delivered);
}

TEST(Pipe, HandlerCanBeReplaced) {
    Simulator sim;
    Pipe pipe{sim};
    int firstCount = 0;
    int secondCount = 0;
    pipe.b().onData([&](util::SharedBytes) { ++firstCount; });
    pipe.a().write(pooled(sim, "1"));
    sim.run();
    pipe.b().onData([&](util::SharedBytes) { ++secondCount; });
    pipe.a().write(pooled(sim, "1"));
    sim.run();
    EXPECT_EQ(firstCount, 1);
    EXPECT_EQ(secondCount, 1);
}

}  // namespace
}  // namespace onelab::sim
