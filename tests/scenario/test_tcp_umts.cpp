// Extension coverage: TCP behaviour across the UMTS uplink — bulk
// upload completes through the whole stack (slice -> ppp0 -> radio
// bearer -> GGSN -> INRIA) and the RLC buffer shows up as bufferbloat.
#include <gtest/gtest.h>

#include "net/tcp.hpp"
#include "scenario/fleet.hpp"

namespace onelab::scenario {
namespace {

struct TcpUmtsTest : ::testing::Test {
    TcpUmtsTest() {
        EXPECT_TRUE(napoli.startUmts().ok());
        EXPECT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
        clientTcp = std::make_unique<net::TcpHost>(fleet.sim(), napoli.node().stack(),
                                                   util::RandomStream{101});
        serverTcp = std::make_unique<net::TcpHost>(fleet.sim(), inria.node().stack(),
                                                   util::RandomStream{102});
    }

    Fleet fleet{makeUniformFleet(1)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    std::unique_ptr<net::TcpHost> clientTcp;
    std::unique_ptr<net::TcpHost> serverTcp;
};

TEST_F(TcpUmtsTest, BulkUploadCompletesOverTheRadio) {
    std::size_t received = 0;
    ASSERT_TRUE(serverTcp
                    ->listen(8080,
                             [&](net::TcpConnection& c) {
                                 c.onData = [&](util::ByteView d) { received += d.size(); };
                                 c.onPeerClosed = [&c] { c.close(); };
                             })
                    .ok());
    net::TcpConnection* conn =
        clientTcp->connect(inria.address(), 8080, napoli.umtsSlice().xid);
    constexpr std::size_t kTotal = 100 * 1024;
    const sim::SimTime start = fleet.now();
    std::optional<sim::SimTime> doneAt;
    conn->onConnected = [&] {
        const util::Bytes blob(kTotal, 0x77);
        ASSERT_TRUE(conn->send({blob.data(), blob.size()}).ok());
        conn->close();
    };
    conn->onClosed = [&] { doneAt = fleet.now(); };
    fleet.runFor(sim::seconds(120.0));

    EXPECT_EQ(received, kTotal);
    // The SYN rode ppp0 (marked slice traffic to the registered dst).
    EXPECT_GT(napoli.node().stack().findInterface("ppp0")->counters().txPackets, 50u);
    // Goodput bounded by the 144 kbps DCH: the 100 KiB take > 5 s but
    // complete well before the 120 s horizon.
    ASSERT_TRUE(doneAt.has_value());
    const double seconds = sim::toSeconds(*doneAt - start);
    EXPECT_GT(seconds, 5.0);
    EXPECT_LT(seconds, 90.0);
}

TEST_F(TcpUmtsTest, UploadInflatesLatencyForConcurrentTraffic) {
    // Bufferbloat: the deep RLC buffer turns a bulk TCP upload into
    // seconds of extra delay for everything sharing the link.
    std::optional<net::PingReply> idlePing;
    ASSERT_TRUE(napoli.node().stack()
                    .ping(inria.address(), [&](net::PingReply r) { idlePing = r; },
                          napoli.umtsSlice().xid)
                    .ok());
    fleet.runFor(sim::seconds(5.0));
    ASSERT_TRUE(idlePing.has_value());
    const double idleMs = sim::toMillis(idlePing->rtt);

    ASSERT_TRUE(serverTcp->listen(8080, [&](net::TcpConnection& c) {
        c.onData = [](util::ByteView) {};
    }).ok());
    net::TcpConnection* conn =
        clientTcp->connect(inria.address(), 8080, napoli.umtsSlice().xid);
    conn->onConnected = [&] {
        const util::Bytes blob(512 * 1024, 0x11);
        (void)conn->send({blob.data(), blob.size()});
    };
    // Let the upload fill the RLC buffer, then ping again.
    fleet.runFor(sim::seconds(15.0));
    std::optional<net::PingReply> loadedPing;
    ASSERT_TRUE(napoli.node().stack()
                    .ping(inria.address(), [&](net::PingReply r) { loadedPing = r; },
                          napoli.umtsSlice().xid)
                    .ok());
    fleet.runFor(sim::seconds(15.0));
    ASSERT_TRUE(loadedPing.has_value());
    const double loadedMs = sim::toMillis(loadedPing->rtt);

    EXPECT_LT(idleMs, 500.0);
    EXPECT_GT(loadedMs, idleMs * 3.0);   // at least 3x inflation
    EXPECT_GT(loadedMs, 1000.0);         // seconds-class queueing delay
}

TEST_F(TcpUmtsTest, DownloadRidesTheFatDownlink) {
    // HSDPA-class downlink: a download is far faster than the upload.
    std::size_t received = 0;
    ASSERT_TRUE(serverTcp
                    ->listen(8080,
                             [&](net::TcpConnection& c) {
                                 const util::Bytes blob(200 * 1024, 0x22);
                                 (void)c.send({blob.data(), blob.size()});
                                 c.close();
                             })
                    .ok());
    net::TcpConnection* conn =
        clientTcp->connect(inria.address(), 8080, napoli.umtsSlice().xid);
    const sim::SimTime start = fleet.now();
    std::optional<sim::SimTime> doneAt;
    conn->onData = [&](util::ByteView d) { received += d.size(); };
    conn->onPeerClosed = [&] {
        doneAt = fleet.now();
        conn->close();
    };
    fleet.runFor(sim::seconds(120.0));
    EXPECT_EQ(received, 200u * 1024);
    ASSERT_TRUE(doneAt.has_value());
    // 200 KiB at 1.8 Mbps is ~1 s (plus handshake/ACK clocking); far
    // below what the 144 kbps uplink would need (>11 s).
    EXPECT_LT(sim::toSeconds(*doneAt - start), 11.0);
}

}  // namespace
}  // namespace onelab::scenario
