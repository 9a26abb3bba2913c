#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace onelab::net {
namespace {

using sim::millis;
using sim::seconds;

TEST(TxQueue, SerializesAtConfiguredRate) {
    sim::Simulator sim;
    TxQueue queue{sim, 8000.0, 1 << 20};  // 1000 bytes/s
    sim::SimTime done{};
    queue.enqueue(500, [&] { done = sim.now(); });
    sim.run();
    EXPECT_EQ(done, millis(500));
}

TEST(TxQueue, BackToBackItemsQueueSequentially) {
    sim::Simulator sim;
    TxQueue queue{sim, 8000.0, 1 << 20};
    std::vector<double> completions;
    for (int i = 0; i < 3; ++i)
        queue.enqueue(250, [&] { completions.push_back(sim::toSeconds(sim.now())); });
    EXPECT_EQ(queue.backlogPackets(), 3u);
    sim.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_NEAR(completions[0], 0.25, 1e-9);
    EXPECT_NEAR(completions[1], 0.50, 1e-9);
    EXPECT_NEAR(completions[2], 0.75, 1e-9);
    EXPECT_EQ(queue.completed(), 3u);
}

TEST(TxQueue, DropTailOnByteLimit) {
    sim::Simulator sim;
    TxQueue queue{sim, 8000.0, 1000};
    EXPECT_TRUE(queue.enqueue(600, nullptr));
    EXPECT_TRUE(queue.enqueue(400, nullptr));
    EXPECT_FALSE(queue.enqueue(1, nullptr));  // would exceed the limit
    EXPECT_EQ(queue.drops(), 1u);
    EXPECT_EQ(queue.backlogBytes(), 1000u);
}

TEST(TxQueue, BacklogDrainsAsItemsComplete) {
    sim::Simulator sim;
    TxQueue queue{sim, 8000.0, 1000};
    queue.enqueue(1000, nullptr);
    sim.run();
    EXPECT_EQ(queue.backlogBytes(), 0u);
    EXPECT_TRUE(queue.enqueue(1000, nullptr));
}

TEST(TxQueue, ClearDropsPendingWithoutRunningActions) {
    sim::Simulator sim;
    TxQueue queue{sim, 8000.0, 1 << 20};
    int completed = 0;
    queue.enqueue(1000, [&] { ++completed; });
    queue.enqueue(1000, [&] { ++completed; });
    queue.clear();
    sim.run();
    EXPECT_EQ(completed, 0);
    EXPECT_EQ(queue.backlogBytes(), 0u);
}

TEST(TxQueue, UsableAfterClear) {
    sim::Simulator sim;
    TxQueue queue{sim, 8000.0, 1 << 20};
    queue.enqueue(1000, nullptr);
    queue.clear();
    bool done = false;
    queue.enqueue(100, [&] { done = true; });
    sim.run();
    EXPECT_TRUE(done);
}

}  // namespace
}  // namespace onelab::net
