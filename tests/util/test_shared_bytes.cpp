#include "util/shared_bytes.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace onelab::util {
namespace {

Bytes sequence(std::size_t n) {
    Bytes data(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = std::uint8_t(i);
    return data;
}

TEST(SharedBytes, DefaultIsEmpty) {
    SharedBytes slice;
    EXPECT_TRUE(slice.empty());
    EXPECT_EQ(slice.size(), 0u);
    EXPECT_EQ(slice.refCount(), 0u);
}

TEST(SharedBytes, WrapTakesOwnershipWithoutCopy) {
    Bytes buffer = sequence(32);
    const std::uint8_t* payload = buffer.data();
    SharedBytes slice = SharedBytes::wrap(std::move(buffer));
    EXPECT_EQ(slice.size(), 32u);
    EXPECT_EQ(slice.data(), payload);  // same heap bytes, no copy
    EXPECT_EQ(slice.refCount(), 1u);
}

TEST(SharedBytes, CopyConstructionSharesTheCore) {
    SharedBytes a = SharedBytes::wrap(sequence(16));
    SharedBytes b = a;
    EXPECT_EQ(a.refCount(), 2u);
    EXPECT_EQ(b.data(), a.data());
    b.reset();
    EXPECT_EQ(a.refCount(), 1u);
    EXPECT_EQ(a.view()[5], 5);
}

TEST(SharedBytes, MoveTransfersTheReference) {
    SharedBytes a = SharedBytes::wrap(sequence(16));
    SharedBytes b = std::move(a);
    EXPECT_EQ(b.refCount(), 1u);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): pinned post-state
    SharedBytes c;
    c = std::move(b);
    EXPECT_EQ(c.refCount(), 1u);
    EXPECT_EQ(c.size(), 16u);
}

TEST(SharedBytes, CopyAssignReplacesExistingReference) {
    SharedBytes a = SharedBytes::wrap(sequence(8));
    SharedBytes b = SharedBytes::wrap(sequence(4));
    b = a;
    EXPECT_EQ(a.refCount(), 2u);
    EXPECT_EQ(b.size(), 8u);
    b = b;  // self-assignment is a no-op
    EXPECT_EQ(a.refCount(), 2u);
}

/// Recycler stub: records which cores came back instead of freeing.
class RecordingRecycler final : public SharedBytesRecycler {
  public:
    void recycleShared(SharedBytesCore* core) noexcept override {
        recycled.push_back(core);
    }
    std::vector<SharedBytesCore*> recycled;

    ~RecordingRecycler() {
        for (SharedBytesCore* core : recycled) delete core;
    }
};

TEST(SharedBytes, LastRefInvokesTheRecycler) {
    RecordingRecycler recycler;
    auto* core = new SharedBytesCore;
    core->data = sequence(8);
    core->recycler = &recycler;
    {
        SharedBytes a = SharedBytes::adopt(core);
        SharedBytes b = a;
        EXPECT_EQ(a.refCount(), 2u);
        EXPECT_TRUE(recycler.recycled.empty());
    }
    ASSERT_EQ(recycler.recycled.size(), 1u);
    EXPECT_EQ(recycler.recycled[0], core);
}

TEST(SharedBytes, OrphanedCoreSelfDeletes) {
    auto* core = new SharedBytesCore;
    core->data = sequence(8);
    core->recycler = nullptr;  // no owner: last unref deletes (ASan-checked)
    { SharedBytes slice = SharedBytes::adopt(core); }
}

}  // namespace
}  // namespace onelab::util
