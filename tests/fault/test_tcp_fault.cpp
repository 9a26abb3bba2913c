// TCP under injected faults: the conformance ladder proves the stack
// against a scripted wire; these tests prove it against the real
// PPP/UMTS datapath while the FaultInjector pulls the rug mid-transfer
// — an RLC loss burst and a full bearer drop. The contract is the same
// both times: retransmission recovers and the delivered byte stream is
// identical to what was sent. Runs under the sanitized soak leg too.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/tcp.hpp"
#include "scenario/fleet.hpp"
#include "supervise/supervisor.hpp"
#include "umts/bearer.hpp"
#include "umts/network.hpp"

namespace onelab::fault {
namespace {

/// Deterministic non-trivial payload: corruption anywhere shows up as
/// a byte mismatch, not just a length mismatch.
util::Bytes patternedBlob(std::size_t size) {
    util::Bytes blob(size);
    for (std::size_t i = 0; i < size; ++i)
        blob[i] = std::uint8_t((i * 31 + (i >> 8)) & 0xFF);
    return blob;
}

/// A bulk upload from the Napoli slice to INRIA over the radio, with
/// the server accumulating every delivered byte in order.
struct TcpTransfer {
    TcpTransfer(scenario::Fleet& fleet, std::size_t totalBytes)
        : blob(patternedBlob(totalBytes)) {
        scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
        scenario::WiredSite& inria = fleet.wiredSite(0);
        serverTcp = std::make_unique<net::TcpHost>(fleet.sim(), inria.node().stack(),
                                                   util::RandomStream{202});
        EXPECT_TRUE(serverTcp
                        ->listen(8080,
                                 [this](net::TcpConnection& c) {
                                     c.onData = [this](util::ByteView d) {
                                         received.insert(received.end(), d.begin(),
                                                         d.end());
                                     };
                                     c.onPeerClosed = [&c] { c.close(); };
                                 })
                        .ok());
        conn = napoli.node().tcp().connect(inria.address(), 8080, napoli.umtsSlice().xid);
        conn->onConnected = [this] {
            ASSERT_TRUE(conn->send({blob.data(), blob.size()}).ok());
            conn->close();
        };
        conn->onClosed = [this] { closed = true; };
    }

    util::Bytes blob;
    util::Bytes received;
    std::unique_ptr<net::TcpHost> serverTcp;
    net::TcpConnection* conn = nullptr;
    bool closed = false;
};

TEST(TcpFault, RlcLossBurstMidTransferRecoversByteExact) {
    scenario::Fleet fleet{scenario::makeUniformFleet(1)};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());

    TcpTransfer transfer{fleet, 256 * 1024};
    // 30% RLC loss for 8 s, early enough to land inside the transfer
    // even after the bearer upgrades to the 384 kbps DCH.
    FaultPlan plan;
    plan.add({fleet.now() + sim::seconds(2.0), FaultKind::rlc_loss_burst, 0, 0.30,
              sim::seconds(8.0)});
    FaultInjector injector{fleet, plan};
    injector.arm();

    fleet.runFor(sim::seconds(180.0));

    EXPECT_EQ(injector.stats().fired, 1u);
    EXPECT_EQ(injector.stats().skipped, 0u);
    ASSERT_TRUE(transfer.closed);
    // Byte-exact: same length, same content, in order.
    EXPECT_EQ(transfer.received, transfer.blob);
    // The burst really bit — recovery happened through retransmission.
    EXPECT_GT(transfer.conn->stats().retransmissions, 0u);
    EXPECT_EQ(transfer.conn->state(), net::TcpState::closed);
}

TEST(TcpFault, BearerDropMidTransferRecoversByteExact) {
    // Supervised testbed with a fast recovery ladder: the bearer drop
    // fires NO CARRIER, the supervisor redials, the single UE gets its
    // subscriber address back from the pool, and the stalled
    // connection's RTO backoff outlives the outage.
    scenario::FleetConfig config = scenario::makeUniformFleet(1);
    scenario::UmtsNodeSiteConfig::Supervise& supervision = config.umtsSites[0].supervise;
    supervision.enable = true;
    supervision.config.stabilityWindow = sim::seconds(5.0);
    supervision.config.redialInitialBackoff = sim::seconds(1.0);
    supervision.config.redialMaxBackoff = sim::seconds(4.0);
    scenario::Fleet fleet{config};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    ASSERT_TRUE(napoli.startUmts().ok());
    ASSERT_TRUE(napoli.addUmtsDestination(inria.address().str() + "/32").ok());
    const net::Ipv4Address addressBefore =
        fleet.operatorNetwork().sessionAt(0)->subscriberAddress();

    TcpTransfer transfer{fleet, 256 * 1024};
    FaultPlan plan;
    plan.add({fleet.now() + sim::seconds(2.0), FaultKind::bearer_drop, 0, 0.0, {}});
    FaultInjector injector{fleet, plan};
    injector.arm();

    const sim::SimTime deadline = fleet.now() + sim::seconds(300.0);
    while (!transfer.closed && fleet.now() < deadline)
        fleet.runFor(sim::seconds(1.0));

    EXPECT_EQ(injector.stats().fired, 1u);
    EXPECT_EQ(injector.stats().skipped, 0u);
    ASSERT_TRUE(transfer.closed);
    EXPECT_EQ(transfer.received, transfer.blob);
    EXPECT_GT(transfer.conn->stats().timeouts, 0u);
    // The redial reclaimed the same subscriber address — that is what
    // let the old connection's 4-tuple survive the outage.
    ASSERT_NE(fleet.operatorNetwork().sessionAt(0), nullptr);
    EXPECT_EQ(fleet.operatorNetwork().sessionAt(0)->subscriberAddress(), addressBefore);
    // The supervisor saw the incident and recovered the link.
    ASSERT_NE(napoli.supervisor(), nullptr);
    EXPECT_GE(napoli.supervisor()->incidents(), 1);
}

}  // namespace
}  // namespace onelab::fault
