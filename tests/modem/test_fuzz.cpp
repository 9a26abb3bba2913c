// Hostile input on the modem TTY: random bytes and degenerate command
// lines must never crash the AT engine or wedge it.
#include <gtest/gtest.h>

#include "modem/cards.hpp"
#include "net/internet.hpp"

namespace onelab::modem {
namespace {

class AtFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtFuzz, RandomBytesNeverCrashOrWedge) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{1}};
    umts::UmtsNetwork network{sim, internet, umts::commercialItalianOperator(),
                              util::RandomStream{2}};
    sim::Pipe pipe{sim};
    HuaweiE620Modem modem{sim, &network, {}};
    modem.attachTty(pipe.b());
    std::string received;
    pipe.a().onData([&](util::SharedBytes data) {
        received.append(data.view().begin(), data.view().end());
    });

    util::RandomStream rng{GetParam()};
    for (int burst = 0; burst < 100; ++burst) {
        util::Bytes noise(std::size_t(rng.uniformInt(1, 40)));
        for (auto& byte : noise) byte = std::uint8_t(rng.uniformInt(0, 255));
        pipe.a().write(sim.bufferPool().acquireShared(noise));
        sim.runUntil(sim.now() + sim::millis(20));
    }
    // The engine must still answer a clean command afterwards.
    received.clear();
    const std::string probe = "\rAT\r";
    pipe.a().write(sim.bufferPool().acquireShared(
        {reinterpret_cast<const std::uint8_t*>(probe.data()), probe.size()}));
    sim.runUntil(sim.now() + sim::millis(100));
    EXPECT_NE(received.find("OK"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtFuzz, ::testing::Values(11, 22, 33, 44));

/// Property fuzz: seeded streams mixing valid commands, corrupted
/// copies of valid commands and raw noise, delivered at arbitrary
/// chunk boundaries while the card's unsolicited ^RSSI chatter stays
/// enabled (so URCs interleave with responses on the wire). Whatever
/// arrives, the parser must neither crash nor wedge: a clean probe
/// afterwards always gets its final result.
class AtStreamFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtStreamFuzz, ArbitrarySplitBoundariesAndCorruptionResync) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{1}};
    umts::UmtsNetwork network{sim, internet, umts::commercialItalianOperator(),
                              util::RandomStream{2}};
    sim::Pipe pipe{sim};
    // Huawei: periodic ^RSSI URCs are ON by default (tests do not send
    // AT^CURC=0), so solicited replies and URCs interleave.
    HuaweiE620Modem modem{sim, &network, {}};
    modem.attachTty(pipe.b());
    std::string received;
    pipe.a().onData([&](util::SharedBytes data) {
        received.append(data.view().begin(), data.view().end());
    });

    const std::vector<std::string> valid = {
        "AT\r",      "ATI\r",      "AT+CSQ\r",  "AT+CGATT?\r",
        "AT+COPS?\r", "AT+CPIN?\r", "ATE1\r",   "AT+CGDCONT?\r",
    };

    util::RandomStream rng{GetParam()};
    // Build one long hostile stream...
    util::Bytes stream;
    for (int segment = 0; segment < 60; ++segment) {
        const std::int64_t shape = rng.uniformInt(0, 2);
        if (shape == 0) {  // valid command
            const std::string& cmd = valid[std::size_t(
                rng.uniformInt(0, std::int64_t(valid.size()) - 1))];
            stream.insert(stream.end(), cmd.begin(), cmd.end());
        } else if (shape == 1) {  // corrupted valid command
            std::string cmd = valid[std::size_t(
                rng.uniformInt(0, std::int64_t(valid.size()) - 1))];
            const auto victim = std::size_t(
                rng.uniformInt(0, std::int64_t(cmd.size()) - 1));
            cmd[victim] = char(rng.uniformInt(0, 255));
            stream.insert(stream.end(), cmd.begin(), cmd.end());
        } else {  // raw noise
            const auto length = std::size_t(rng.uniformInt(1, 64));
            for (std::size_t i = 0; i < length; ++i)
                stream.push_back(std::uint8_t(rng.uniformInt(0, 255)));
        }
    }
    // ...and deliver it at arbitrary split boundaries.
    std::size_t offset = 0;
    while (offset < stream.size()) {
        const auto chunk = std::min(std::size_t(rng.uniformInt(1, 23)),
                                    stream.size() - offset);
        pipe.a().write(sim.bufferPool().acquireShared({stream.data() + offset, chunk}));
        offset += chunk;
        if (rng.chance(0.3)) sim.runUntil(sim.now() + sim::millis(rng.uniform(1.0, 30.0)));
    }
    sim.runUntil(sim.now() + sim::seconds(2.0));

    // Resynchronisation property: a clean probe still gets a final
    // result, whatever garbage preceded it.
    received.clear();
    const std::string probe = "\rAT\r";
    pipe.a().write(sim.bufferPool().acquireShared(
        {reinterpret_cast<const std::uint8_t*>(probe.data()), probe.size()}));
    sim.runUntil(sim.now() + sim::millis(500));
    EXPECT_TRUE(received.find("OK") != std::string::npos ||
                received.find("ERROR") != std::string::npos)
        << "engine wedged after hostile stream, probe got: " << received;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtStreamFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

/// Injected AT failures (the fault layer's forced finals) must consume
/// exactly `count` commands and then let the engine recover.
TEST(AtFaultInjection, ForcedFinalsConsumeAndRecover) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{1}};
    umts::UmtsNetwork network{sim, internet, umts::commercialItalianOperator(),
                              util::RandomStream{2}};
    sim::Pipe pipe{sim};
    HuaweiE620Modem modem{sim, &network, {}};
    modem.attachTty(pipe.b());
    std::string received;
    pipe.a().onData([&](util::SharedBytes data) {
        received.append(data.view().begin(), data.view().end());
    });

    modem.injectAtFailure("ERROR", 2);
    auto send = [&](const std::string& text) {
        received.clear();
        pipe.a().write(sim.bufferPool().acquireShared(
            {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
        sim.runUntil(sim.now() + sim::millis(100));
    };
    send("AT\r");
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    send("AT\r");
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    send("AT\r");  // injection exhausted: back to normal
    EXPECT_NE(received.find("OK"), std::string::npos);
    EXPECT_EQ(received.find("ERROR"), std::string::npos);
}

TEST(AtEdgeCases, DegenerateLines) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{1}};
    umts::UmtsNetwork network{sim, internet, umts::commercialItalianOperator(),
                              util::RandomStream{2}};
    sim::Pipe pipe{sim};
    HuaweiE620Modem modem{sim, &network, {}};
    modem.attachTty(pipe.b());
    std::string received;
    pipe.a().onData([&](util::SharedBytes data) {
        received.append(data.view().begin(), data.view().end());
    });

    auto send = [&](const std::string& text) {
        received.clear();
        pipe.a().write(sim.bufferPool().acquireShared(
            {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
        sim.runUntil(sim.now() + sim::millis(50));
    };
    send("\r\r\r");                      // empty lines: silence
    EXPECT_EQ(received.find("ERROR"), std::string::npos);
    send(std::string(4096, 'A') + "\r");  // monster line: ERROR, no crash
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    send("AT+CGDCONT=\r");               // malformed setter
    EXPECT_NE(received.find("ERROR"), std::string::npos);
    send("AT+CPIN=\r");                  // empty pin attempt
    EXPECT_NE(received.find("OK"), std::string::npos);  // SIM has no PIN: OK
    send("AT\r");                        // still alive
    EXPECT_NE(received.find("OK"), std::string::npos);
}

}  // namespace
}  // namespace onelab::modem
