// Failure injection: PPP over a line that corrupts or drops bytes.
// The FCS must reject damaged frames and the control protocols must
// retransmit their way to an open link.
#include <gtest/gtest.h>

#include "net/packet.hpp"
#include "ppp/pppd.hpp"
#include "util/rand.hpp"

namespace onelab::ppp {
namespace {

/// A byte channel pair that flips bits / drops chunks with given
/// probabilities before handing data to the peer.
class LossyWire {
  public:
    LossyWire(sim::Simulator& sim, double corruptProbability, double dropProbability,
              std::uint64_t seed)
        : sim_(sim),
          corrupt_(corruptProbability),
          drop_(dropProbability),
          rng_(seed),
          a_(*this, 0),
          b_(*this, 1) {}

    sim::ByteChannel& a() noexcept { return a_; }
    sim::ByteChannel& b() noexcept { return b_; }
    [[nodiscard]] int corruptedChunks() const noexcept { return corrupted_; }

  private:
    class End final : public sim::ByteChannel {
      public:
        End(LossyWire& wire, int side) : wire_(wire), side_(side) {}
        void write(const util::SharedBytes& data) override {
            wire_.transfer(side_, data.view());
        }
        void onData(std::function<void(util::SharedBytes)> handler) override {
            handler_ = std::move(handler);
        }
        std::function<void(util::SharedBytes)> handler_;

      private:
        LossyWire& wire_;
        int side_;
    };

    void transfer(int fromSide, util::ByteView data) {
        if (rng_.chance(drop_)) return;
        util::Bytes copy{data.begin(), data.end()};
        if (!copy.empty() && rng_.chance(corrupt_)) {
            copy[std::size_t(rng_.uniformInt(0, long(copy.size() - 1)))] ^= 0x20;
            ++corrupted_;
        }
        End& target = fromSide == 0 ? b_ : a_;
        sim_.schedule(sim::micros(50),
                      [&target, chunk = util::SharedBytes::wrap(std::move(copy))] {
            if (target.handler_) target.handler_(chunk);
        });
    }

    sim::Simulator& sim_;
    double corrupt_;
    double drop_;
    util::RandomStream rng_;
    End a_;
    End b_;
    int corrupted_ = 0;
};

PppdConfig client() {
    PppdConfig config;
    config.name = "client";
    config.credentials = {"u", "p"};
    config.seed = 5;
    return config;
}

PppdConfig server() {
    PppdConfig config;
    config.name = "server";
    config.isServer = true;
    config.localAddress = net::Ipv4Address{93, 57, 0, 1};
    config.addressForPeer = net::Ipv4Address{93, 57, 0, 16};
    config.seed = 6;
    return config;
}

class LossyNegotiation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LossyNegotiation, OpensDespiteCorruptionAndDrops) {
    sim::Simulator sim;
    LossyWire wire{sim, 0.10, 0.05, GetParam()};  // 10% corrupt, 5% drop
    Pppd ue{sim, client()};
    Pppd ggsn{sim, server()};
    ue.attach(wire.a());
    ggsn.attach(wire.b());
    ggsn.start();
    ue.start();
    // Plenty of retransmission budget.
    sim.runUntil(sim::seconds(30.0));
    EXPECT_TRUE(ue.isRunning()) << "seed " << GetParam();
    EXPECT_TRUE(ggsn.isRunning()) << "seed " << GetParam();
    EXPECT_GT(wire.corruptedChunks(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyNegotiation, ::testing::Values(1, 2, 3, 4, 5));

TEST(LossyData, CorruptedFramesAreDroppedNotDelivered) {
    sim::Simulator sim;
    LossyWire wire{sim, 0.30, 0.0, 9};
    Pppd ue{sim, client()};
    Pppd ggsn{sim, server()};
    // Negotiate over a CLEAN period first: corruption applies all
    // along, so allow extra time.
    ue.attach(wire.a());
    ggsn.attach(wire.b());
    ggsn.start();
    ue.start();
    sim.runUntil(sim::seconds(60.0));
    ASSERT_TRUE(ue.isRunning());

    // Push 200 datagrams with known payloads; every one that arrives
    // must be byte-identical (bad FCS frames are discarded).
    int delivered = 0;
    int intact = 0;
    ggsn.onIpDatagram = [&](util::ByteView data) {
        ++delivered;
        const auto parsed = net::Packet::parse(data);
        if (parsed.ok() && parsed.value().payload == util::Bytes(64, 0x42)) ++intact;
    };
    for (int i = 0; i < 200; ++i) {
        const net::Packet pkt =
            net::makeUdpPacket(net::Ipv4Address{93, 57, 0, 16}, 1, net::Ipv4Address{1, 1, 1, 1},
                               2, util::Bytes(64, 0x42));
        const util::Bytes frame = pkt.serialize();
        (void)ue.sendIpDatagram({frame.data(), frame.size()});
        sim.runUntil(sim.now() + sim::millis(10));
    }
    sim.runUntil(sim.now() + sim::seconds(1.0));
    EXPECT_GT(delivered, 50);      // plenty get through
    EXPECT_LT(delivered, 200);     // some were eaten by the FCS check
    EXPECT_EQ(intact, delivered);  // nothing corrupted slipped past
}

TEST(LossyData, TotalLineCutKillsEchoKeepalive) {
    sim::Simulator sim;
    PppdConfig ueConfig = client();
    ueConfig.enableEcho = true;
    ueConfig.echoInterval = sim::seconds(1.0);
    ueConfig.echoFailureLimit = 2;
    sim::Pipe pipe{sim};
    Pppd ue{sim, ueConfig};
    Pppd ggsn{sim, server()};
    ue.attach(pipe.a());
    ggsn.attach(pipe.b());
    ggsn.start();
    ue.start();
    sim.runUntil(sim::seconds(10.0));
    ASSERT_TRUE(ue.isRunning());

    // Cut the wire: replace the UE's view of the line with a stub that
    // swallows everything.
    class NullChannel final : public sim::ByteChannel {
      public:
        void write(const util::SharedBytes&) override {}
        void onData(std::function<void(util::SharedBytes)>) override {}
    } nullChannel;
    ue.attach(nullChannel);
    std::string reason;
    ue.onLinkDown = [&](const std::string& r) { reason = r; };
    sim.runUntil(sim.now() + sim::seconds(20.0));
    EXPECT_FALSE(ue.isRunning());
    EXPECT_EQ(reason, "keepalive timeout");
}

}  // namespace
}  // namespace onelab::ppp
