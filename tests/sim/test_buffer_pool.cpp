// sim::BufferPool coverage: reuse semantics, retention caps, the
// copying acquire, and exactness of the delta-synced registry mirrors
// (sim.pool.buffers_*) across syncCounters() and registry resets.
#include "sim/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/run_context.hpp"

namespace onelab::sim {
namespace {

TEST(BufferPool, AcquireAllocatesWhenEmpty) {
    obs::RunContext context;
    BufferPool pool;
    const util::Bytes buffer = pool.acquire(100);
    EXPECT_EQ(buffer.size(), 100u);
    EXPECT_EQ(pool.allocations(), 1u);
    EXPECT_EQ(pool.reuses(), 0u);
}

TEST(BufferPool, ReleaseThenAcquireReuses) {
    obs::RunContext context;
    BufferPool pool;
    util::Bytes buffer = pool.acquire(1500);
    pool.release(std::move(buffer));
    EXPECT_EQ(pool.pooledBuffers(), 1u);
    const util::Bytes again = pool.acquire(64);  // smaller is fine — capacity recycled
    EXPECT_EQ(again.size(), 64u);
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(pool.allocations(), 1u);
    EXPECT_EQ(pool.pooledBuffers(), 0u);
}

TEST(BufferPool, RetentionIsBounded) {
    obs::RunContext context;
    BufferPool pool;
    for (int i = 0; i < 300; ++i) pool.release(util::Bytes(16));
    EXPECT_EQ(pool.pooledBuffers(), 256u);  // kMaxPooled
}

TEST(BufferPool, OversizeBuffersAreNotPooled) {
    obs::RunContext context;
    BufferPool pool;
    pool.release(util::Bytes(128 * 1024));  // above kMaxBufferBytes
    EXPECT_EQ(pool.pooledBuffers(), 0u);
}

TEST(BufferPool, AcquireCopiesData) {
    obs::RunContext context;
    BufferPool pool;
    const std::string text = "pooled payload";
    const util::Bytes buffer = pool.acquire(
        util::ByteView{reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
    ASSERT_EQ(buffer.size(), text.size());
    EXPECT_EQ(std::string(buffer.begin(), buffer.end()), text);
}

TEST(BufferPool, SyncCountersIsExactAndDeltaBased) {
    obs::RunContext context;
    auto& registry = obs::Registry::instance();
    BufferPool pool;
    util::Bytes first = pool.acquire(100);
    const util::Bytes second = pool.acquire(100);
    pool.release(std::move(first));
    (void)pool.acquire(100);  // reuse
    pool.syncCounters();
    EXPECT_EQ(registry.counter("sim.pool.buffers_allocated").value(), 2u);
    EXPECT_EQ(registry.counter("sim.pool.buffers_reused").value(), 1u);

    // A beginRun()-style reset zeroes the mirrors; only NEW activity
    // may land afterwards — the pool pushes deltas, not totals.
    registry.reset();
    util::Bytes third = pool.acquire(100);
    pool.release(std::move(third));
    (void)pool.acquire(100);
    pool.syncCounters();
    EXPECT_EQ(registry.counter("sim.pool.buffers_allocated").value(), 1u);
    EXPECT_EQ(registry.counter("sim.pool.buffers_reused").value(), 1u);
}

TEST(BufferPool, ShareRecyclesCapacityOnLastReference) {
    obs::RunContext context;
    BufferPool pool;
    util::Bytes buffer = pool.acquire(256);
    const std::uint8_t* payload = buffer.data();
    {
        util::SharedBytes slice = pool.share(std::move(buffer));
        EXPECT_EQ(slice.data(), payload);  // no copy on the way out
        EXPECT_EQ(pool.outstandingShared(), 1u);
        util::SharedBytes also = slice;
        also.reset();
        EXPECT_EQ(pool.outstandingShared(), 1u);  // still one live core
    }
    // Last reference dropped: capacity is back in the freelist.
    EXPECT_EQ(pool.outstandingShared(), 0u);
    EXPECT_EQ(pool.pooledBuffers(), 1u);
    const util::Bytes again = pool.acquire(64);
    EXPECT_EQ(pool.reuses(), 1u);
    EXPECT_EQ(again.data(), payload);  // same capacity came around
}

TEST(BufferPool, AcquireSharedCopiesAndRoundTrips) {
    obs::RunContext context;
    BufferPool pool;
    const util::Bytes source{1, 2, 3, 4, 5};
    util::SharedBytes slice = pool.acquireShared({source.data(), source.size()});
    EXPECT_EQ(slice.size(), 5u);
    EXPECT_EQ(slice.view()[4], 5);
    EXPECT_NE(slice.data(), source.data());  // a pooled copy, not the source
    EXPECT_EQ(pool.outstandingShared(), 1u);
    slice.reset();
    EXPECT_EQ(pool.outstandingShared(), 0u);
}

TEST(BufferPool, CoreShellsAreReusedAcrossShares) {
    obs::RunContext context;
    BufferPool pool;
    for (int i = 0; i < 4; ++i) {
        util::SharedBytes slice = pool.share(pool.acquire(std::size_t{32}));
        EXPECT_EQ(pool.outstandingShared(), 1u);
    }
    EXPECT_EQ(pool.allocations(), 1u);  // one buffer recycled throughout
    EXPECT_EQ(pool.reuses(), 3u);
}

TEST(BufferPool, DestructionOrphansOutstandingSlices) {
    obs::RunContext context;
    util::SharedBytes survivor;
    {
        BufferPool pool;
        survivor = pool.share(pool.acquire(std::size_t{64}));
        EXPECT_EQ(pool.outstandingShared(), 1u);
    }  // pool gone first: the slice must stay valid and self-free
    EXPECT_EQ(survivor.size(), 64u);
    survivor.reset();  // ASan would flag a double free / leak here
}

TEST(BufferPool, DestructorSyncsOutstandingTallies) {
    obs::RunContext context;
    auto& registry = obs::Registry::instance();
    {
        BufferPool pool;
        (void)pool.acquire(100);
    }  // no explicit syncCounters() — the destructor settles the books
    EXPECT_EQ(registry.counter("sim.pool.buffers_allocated").value(), 1u);
}

}  // namespace
}  // namespace onelab::sim
