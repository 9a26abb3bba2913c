#include "modem/cards.hpp"

#include <gtest/gtest.h>

#include "net/internet.hpp"

namespace onelab::modem {
namespace {

struct CardsTest : ::testing::Test {
    CardsTest()
        : internet(sim, util::RandomStream{3}),
          network(sim, internet, umts::commercialItalianOperator(), util::RandomStream{4}),
          pipe(sim) {}

    void attach(UmtsModem& modem) {
        modem.attachTty(pipe.b());
        pipe.a().onData([this](util::SharedBytes data) {
            received.append(data.view().begin(), data.view().end());
        });
    }

    std::string command(const std::string& line, double waitSeconds = 0.1) {
        received.clear();
        const std::string wire = line + "\r";
        pipe.a().write(sim.bufferPool().acquireShared(
            {reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()}));
        sim.runUntil(sim.now() + sim::seconds(waitSeconds));
        return received;
    }

    sim::Simulator sim;
    net::Internet internet;
    umts::UmtsNetwork network;
    sim::Pipe pipe;
    std::string received;
};

TEST_F(CardsTest, GlobetrotterIdentity) {
    GlobetrotterModem modem{sim, &network, {}};
    attach(modem);
    EXPECT_NE(command("AT+CGMI").find("Option N.V."), std::string::npos);
    EXPECT_NE(command("AT+CGMM").find("GlobeTrotter"), std::string::npos);
}

TEST_F(CardsTest, GlobetrotterOpsysQuirk) {
    GlobetrotterModem modem{sim, &network, {}};
    attach(modem);
    EXPECT_EQ(modem.opsys(), 3);  // factory default: prefer 3G
    EXPECT_NE(command("AT_OPSYS?").find("_OPSYS: 3,2"), std::string::npos);
    EXPECT_NE(command("AT_OPSYS=1,2").find("OK"), std::string::npos);
    EXPECT_EQ(modem.opsys(), 1);
    EXPECT_NE(command("AT_OPSYS=9").find("ERROR"), std::string::npos);
    EXPECT_EQ(modem.opsys(), 1);
}

TEST_F(CardsTest, GlobetrotterCfunStub) {
    GlobetrotterModem modem{sim, &network, {}};
    attach(modem);
    EXPECT_NE(command("AT+CFUN=1").find("OK"), std::string::npos);
}

TEST_F(CardsTest, HuaweiIdentityAndSyscfg) {
    HuaweiE620Modem modem{sim, &network, {}};
    attach(modem);
    EXPECT_NE(command("AT+CGMI").find("huawei"), std::string::npos);
    EXPECT_NE(command("AT^SYSCFG=2,2,3FFFFFFF,1,2").find("OK"), std::string::npos);
}

TEST_F(CardsTest, HuaweiRssiChatterAndCurc) {
    HuaweiE620Modem modem{sim, &network, {}};
    attach(modem);
    EXPECT_TRUE(modem.unsolicitedReportsEnabled());
    sim.runUntil(sim.now() + sim::seconds(12.0));  // registered + two ^RSSI periods
    EXPECT_NE(received.find("^RSSI:"), std::string::npos);

    EXPECT_NE(command("AT^CURC=0").find("OK"), std::string::npos);
    EXPECT_FALSE(modem.unsolicitedReportsEnabled());
    received.clear();
    sim.runUntil(sim.now() + sim::seconds(12.0));
    EXPECT_EQ(received.find("^RSSI:"), std::string::npos);
}

TEST_F(CardsTest, HuaweiCurcQuery) {
    HuaweiE620Modem modem{sim, &network, {}};
    attach(modem);
    EXPECT_NE(command("AT^CURC?").find("^CURC: 1"), std::string::npos);
    command("AT^CURC=0");
    EXPECT_NE(command("AT^CURC?").find("^CURC: 0"), std::string::npos);
}

TEST_F(CardsTest, BothCardsCompleteDataCall) {
    for (const int kind : {0, 1}) {
        sim::Pipe localPipe{sim};
        std::unique_ptr<UmtsModem> modem;
        if (kind == 0)
            modem = std::make_unique<GlobetrotterModem>(sim, &network, ModemConfig{});
        else
            modem = std::make_unique<HuaweiE620Modem>(sim, &network, ModemConfig{});
        modem->attachTty(localPipe.b());
        std::string local;
        localPipe.a().onData([&](util::SharedBytes data) {
            local.append(data.view().begin(), data.view().end());
        });
        sim.runUntil(sim.now() + sim::seconds(5.0));
        ASSERT_EQ(modem->registration(), RegistrationState::registered_home) << kind;
        auto send = [&](const std::string& line, double wait) {
            local.clear();
            const std::string wire = line + "\r";
            localPipe.a().write(sim.bufferPool().acquireShared(
                {reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()}));
            sim.runUntil(sim.now() + sim::seconds(wait));
        };
        send("AT+CGDCONT=1,\"IP\",\"internet.it\"", 0.1);
        send("ATD*99***1#", 3.0);
        EXPECT_NE(local.find("CONNECT"), std::string::npos) << kind;
        modem->dropDtr();
        sim.runUntil(sim.now() + sim::seconds(0.5));
    }
}

}  // namespace
}  // namespace onelab::modem
