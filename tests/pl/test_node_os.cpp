#include "pl/node_os.hpp"

#include <gtest/gtest.h>

namespace onelab::pl {
namespace {

struct NodeOsTest : ::testing::Test {
    sim::Simulator sim;
    NodeOs node{sim, "planetlab1.unina.it"};
};

TEST_F(NodeOsTest, SlicesGetDistinctXids) {
    Slice& a = node.createSlice("unina_umts");
    Slice& b = node.createSlice("unina_other");
    EXPECT_NE(a.xid, b.xid);
    EXPECT_GT(a.xid, 0);
    EXPECT_EQ(a.defaultMark(), std::uint32_t(a.xid));
}

TEST_F(NodeOsTest, CreateSliceIsIdempotent) {
    Slice& a = node.createSlice("s");
    Slice& again = node.createSlice("s");
    EXPECT_EQ(&a, &again);
    EXPECT_EQ(node.slices().size(), 1u);
}

TEST_F(NodeOsTest, SliceReferencesStableAcrossGrowth) {
    Slice& first = node.createSlice("first");
    const int firstXid = first.xid;
    for (int i = 0; i < 100; ++i) node.createSlice("slice" + std::to_string(i));
    EXPECT_EQ(first.xid, firstXid);
    EXPECT_EQ(node.findSlice("first"), &first);
}

TEST_F(NodeOsTest, FindSliceMissingReturnsNull) {
    EXPECT_EQ(node.findSlice("ghost"), nullptr);
}

TEST_F(NodeOsTest, RootShellRequiresRootContext) {
    Slice& slice = node.createSlice("s");
    const auto denied = node.shell(node.sliceContext(slice));
    ASSERT_FALSE(denied.ok());
    EXPECT_EQ(denied.error().code, util::Error::Code::permission_denied);

    const auto granted = node.shell(node.rootContext());
    ASSERT_TRUE(granted.ok());
    EXPECT_NE(granted.value(), nullptr);
}

TEST_F(NodeOsTest, DefaultContextIsNotRoot) {
    Context context;
    EXPECT_FALSE(context.isRoot());
    EXPECT_TRUE(node.rootContext().isRoot());
}

TEST_F(NodeOsTest, SliceSocketsCarryXid) {
    Slice& slice = node.createSlice("s");
    const auto socket = node.openSliceUdp(slice, 5000);
    ASSERT_TRUE(socket.ok());
    EXPECT_EQ(socket.value()->sliceXid(), slice.xid);
    const auto rootSocket = node.openRootUdp(5001);
    ASSERT_TRUE(rootSocket.ok());
    EXPECT_EQ(rootSocket.value()->sliceXid(), 0);
}

TEST_F(NodeOsTest, TcpHostIsLazySharedAndHostnameSeeded) {
    net::TcpHost& first = node.tcp();
    EXPECT_EQ(&first, &node.tcp());  // one shared layer per node
    EXPECT_EQ(first.connectionCount(), 0u);

    // Seeding is a pure function of the hostname: two nodes with the
    // same name draw identical ISS/port sequences, different names
    // diverge. A node's draws never depend on which other nodes exist
    // or the order they were built in.
    NodeOs twinA{sim, "twin.example.org"};
    NodeOs twinB{sim, "twin.example.org"};
    NodeOs other{sim, "other.example.org"};
    Slice& sliceA = twinA.createSlice("pl_probe");
    Slice& sliceB = twinB.createSlice("pl_probe");
    Slice& sliceC = other.createSlice("pl_probe");
    const net::Ipv4Address nowhere{192, 0, 2, 1};
    net::TcpConnection* a =
        twinA.tcp().connect(nowhere, 80, twinA.sliceContext(sliceA).xid());
    net::TcpConnection* b =
        twinB.tcp().connect(nowhere, 80, twinB.sliceContext(sliceB).xid());
    net::TcpConnection* c =
        other.tcp().connect(nowhere, 80, other.sliceContext(sliceC).xid());
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(a->iss().value(), b->iss().value());
    EXPECT_NE(a->iss().value(), c->iss().value());
    // VNET+ tagging: the connection carries the slice's xid.
    EXPECT_EQ(a->sliceXid(), twinA.sliceContext(sliceA).xid());
}

TEST_F(NodeOsTest, VsysIsPerNode) {
    node.vsys().install("umts", [](const Slice&, const std::vector<std::string>&,
                                   Vsys::Completion done) { done(VsysResult{0, {}}); });
    EXPECT_EQ(node.vsys().scripts().size(), 1u);
    NodeOs other{sim, "other"};
    EXPECT_TRUE(other.vsys().scripts().empty());
}

}  // namespace
}  // namespace onelab::pl
