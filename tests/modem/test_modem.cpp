#include "modem/umts_modem.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "modem/cards.hpp"
#include "net/internet.hpp"

namespace onelab::modem {
namespace {

/// A Huawei card on a TTY against a commercial operator network.
struct ModemTest : ::testing::Test {
    ModemTest()
        : internet(sim, util::RandomStream{3}),
          network(sim, internet, umts::commercialItalianOperator(), util::RandomStream{4}),
          pipe(sim) {}

    void makeModem(ModemConfig config = {}) {
        modem = std::make_unique<HuaweiE620Modem>(sim, &network, config);
        modem->attachTty(pipe.b());
        pipe.a().onData([this](util::SharedBytes data) {
            received.append(data.view().begin(), data.view().end());
        });
    }

    std::string command(const std::string& line, double waitSeconds = 0.1) {
        return raw(line + "\r", waitSeconds);
    }

    /// Raw bytes without the trailing CR (for "+++").
    std::string raw(const std::string& text, double waitSeconds = 0.1) {
        received.clear();
        pipe.a().write(sim.bufferPool().acquireShared(
            {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()}));
        sim.runUntil(sim.now() + sim::seconds(waitSeconds));
        return received;
    }

    void registerModem() {
        sim.runUntil(sim.now() + sim::seconds(5.0));  // auto-registration
        ASSERT_EQ(modem->registration(), RegistrationState::registered_home);
    }

    sim::Simulator sim;
    net::Internet internet;
    umts::UmtsNetwork network;
    sim::Pipe pipe;
    std::unique_ptr<UmtsModem> modem;
    std::string received;
};

TEST_F(ModemTest, AutoRegistersWithoutPin) {
    makeModem();
    EXPECT_TRUE(modem->pinUnlocked());
    EXPECT_EQ(modem->registration(), RegistrationState::searching);
    sim.runUntil(sim::seconds(5.0));
    EXPECT_EQ(modem->registration(), RegistrationState::registered_home);
    EXPECT_NE(command("AT+CREG?").find("+CREG: 0,1"), std::string::npos);
}

TEST_F(ModemTest, PinLockedUntilCorrectPin) {
    ModemConfig config;
    config.pin = "1234";
    makeModem(config);
    EXPECT_FALSE(modem->pinUnlocked());
    EXPECT_NE(command("AT+CPIN?").find("SIM PIN"), std::string::npos);
    // No registration while locked.
    sim.runUntil(sim.now() + sim::seconds(5.0));
    EXPECT_EQ(modem->registration(), RegistrationState::not_registered);

    EXPECT_NE(command("AT+CPIN=\"1234\"").find("OK"), std::string::npos);
    EXPECT_TRUE(modem->pinUnlocked());
    EXPECT_NE(command("AT+CPIN?").find("READY"), std::string::npos);
    sim.runUntil(sim.now() + sim::seconds(5.0));
    EXPECT_EQ(modem->registration(), RegistrationState::registered_home);
}

TEST_F(ModemTest, WrongPinThreeTimesBlocksSim) {
    ModemConfig config;
    config.pin = "1234";
    makeModem(config);
    for (int i = 0; i < 3; ++i)
        EXPECT_NE(command("AT+CPIN=\"0000\"").find("+CME ERROR"), std::string::npos);
    EXPECT_TRUE(modem->simBlocked());
    EXPECT_NE(command("AT+CPIN?").find("SIM PUK"), std::string::npos);
    EXPECT_NE(command("AT+CPIN=\"1234\"").find("+CME ERROR"), std::string::npos);
}

TEST_F(ModemTest, IdentityCommands) {
    makeModem();
    EXPECT_NE(command("AT+CGMI").find("huawei"), std::string::npos);
    EXPECT_NE(command("AT+CGMM").find("E620"), std::string::npos);
    EXPECT_NE(command("AT+CGSN").find("356938035643809"), std::string::npos);
    EXPECT_NE(command("ATI").find("huawei"), std::string::npos);
}

TEST_F(ModemTest, CopsReportsOperatorOnceRegistered) {
    makeModem();
    EXPECT_NE(command("AT+COPS?").find("+COPS: 0\r"), std::string::npos);
    registerModem();
    EXPECT_NE(command("AT+COPS?").find("IT Mobile"), std::string::npos);
}

TEST_F(ModemTest, CsqReflectsNetwork) {
    makeModem();
    const std::string response = command("AT+CSQ");
    EXPECT_NE(response.find("+CSQ: "), std::string::npos);
}

TEST_F(ModemTest, CgdcontDefineAndQuery) {
    makeModem();
    EXPECT_NE(command("AT+CGDCONT=1,\"IP\",\"internet.it\"").find("OK"), std::string::npos);
    const std::string listing = command("AT+CGDCONT?");
    EXPECT_NE(listing.find("internet.it"), std::string::npos);
}

TEST_F(ModemTest, DialWithoutPdpContextErrors) {
    makeModem();
    registerModem();
    EXPECT_NE(command("ATD*99***1#", 3.0).find("ERROR"), std::string::npos);
}

TEST_F(ModemTest, DialWithoutRegistrationNoCarrier) {
    ModemConfig config;
    config.pin = "9999";  // locked -> never registers
    makeModem(config);
    command("AT+CGDCONT=1,\"IP\",\"internet.it\"");
    EXPECT_NE(command("ATD*99***1#", 3.0).find("NO CARRIER"), std::string::npos);
}

TEST_F(ModemTest, SuccessfulDataCallEntersDataMode) {
    makeModem();
    registerModem();
    command("AT+CGDCONT=1,\"IP\",\"internet.it\"");
    const std::string response = command("ATD*99***1#", 3.0);
    EXPECT_NE(response.find("CONNECT"), std::string::npos);
    EXPECT_TRUE(modem->inDataMode());
    ASSERT_NE(modem->session(), nullptr);
    EXPECT_EQ(network.activeSessions(), 1u);
}

TEST_F(ModemTest, DtrDropHangsUp) {
    makeModem();
    registerModem();
    command("AT+CGDCONT=1,\"IP\",\"internet.it\"");
    command("ATD*99***1#", 3.0);
    ASSERT_TRUE(modem->inDataMode());
    modem->dropDtr();
    EXPECT_FALSE(modem->inDataMode());
    EXPECT_EQ(modem->session(), nullptr);
    EXPECT_EQ(network.activeSessions(), 0u);
}

TEST_F(ModemTest, NetworkTeardownRaisesNoCarrier) {
    makeModem();
    registerModem();
    command("AT+CGDCONT=1,\"IP\",\"internet.it\"");
    command("ATD*99***1#", 3.0);
    ASSERT_NE(modem->session(), nullptr);
    received.clear();
    network.deactivatePdp(modem->session());
    sim.runUntil(sim.now() + sim::millis(100));
    EXPECT_EQ(modem->session(), nullptr);
    EXPECT_FALSE(modem->inDataMode());
    EXPECT_NE(received.find("NO CARRIER"), std::string::npos);
}

TEST_F(ModemTest, EscapeThenAtoResumes) {
    makeModem();
    registerModem();
    command("AT+CGDCONT=1,\"IP\",\"internet.it\"");
    command("ATD*99***1#", 3.0);
    ASSERT_TRUE(modem->inDataMode());

    sim.runUntil(sim.now() + sim::seconds(1.5));  // leading guard
    raw("+++", 1.5);  // escape: bare pluses, trailing guard elapses
    EXPECT_FALSE(modem->inDataMode());
    EXPECT_NE(modem->session(), nullptr);  // call still up

    EXPECT_NE(command("ATO", 1.0).find("CONNECT"), std::string::npos);
    EXPECT_TRUE(modem->inDataMode());
}

TEST_F(ModemTest, HangupCommandAfterEscape) {
    makeModem();
    registerModem();
    command("AT+CGDCONT=1,\"IP\",\"internet.it\"");
    command("ATD*99***1#", 3.0);
    sim.runUntil(sim.now() + sim::seconds(1.5));
    raw("+++", 1.5);
    EXPECT_NE(command("ATH").find("OK"), std::string::npos);
    EXPECT_EQ(modem->session(), nullptr);
    EXPECT_NE(command("ATO", 1.0).find("NO CARRIER"), std::string::npos);
}

TEST_F(ModemTest, CgattQueryAndDetach) {
    makeModem();
    registerModem();
    EXPECT_NE(command("AT+CGATT?").find("+CGATT: 1"), std::string::npos);
    EXPECT_NE(command("AT+CGATT=0").find("OK"), std::string::npos);
    EXPECT_NE(command("AT+CGATT?").find("+CGATT: 0"), std::string::npos);
}

TEST_F(ModemTest, WvdialStyleInitStringsAccepted) {
    makeModem();
    // The classic wvdial init: these must all come back OK.
    for (const char* init : {"ATZ", "ATQ0", "ATE1", "AT&F", "AT&C1", "AT&D2", "AT+FCLASS=0",
                             "ATS0=0", "ATX3", "ATM1"})
        EXPECT_NE(command(init).find("OK"), std::string::npos) << init;
}

TEST(ModemRegistration, BarredCardRegistersSoonAfterBarringLifts) {
    sim::Simulator sim;
    net::Internet internet{sim, util::RandomStream{3}};
    umts::OperatorProfile profile = umts::commercialItalianOperator();
    profile.signalingGuard.barringLimit = 1;     // one attach in flight bars the rest
    profile.signalingGuard.congestionStart = 0;  // no congestion slowdown
    umts::UmtsNetwork network{sim, internet, profile, util::RandomStream{4}};

    // A storm of synthetic identities keeps one attach in flight, and
    // so the cell barred, for 40 s.
    const sim::SimTime stormEnd = sim::seconds(40.0);
    sim::SimTime barringLifted{0};
    int stormSeq = 0;
    std::function<void()> attachNext = [&] {
        network.attachUe("99988" + std::to_string(10000000 + stormSeq++),
                         [&](util::Result<void>) {
                             if (sim.now() < stormEnd)
                                 attachNext();
                             else
                                 barringLifted = sim.now();
                         });
    };
    attachNext();

    HuaweiE620Modem modem{sim, &network, ModemConfig{}};
    sim.runUntil(stormEnd + profile.registrationDelay);
    ASSERT_GT(barringLifted, stormEnd);
    EXPECT_NE(modem.registration(), RegistrationState::registered_home);

    // Barred attempts retry at the initial 5 s interval, so the card
    // is back within one retry plus one registration. A doubling
    // ladder would have slept through the lift.
    sim.runUntil(barringLifted + sim::seconds(5.0) + profile.registrationDelay);
    EXPECT_EQ(modem.registration(), RegistrationState::registered_home);
}

}  // namespace
}  // namespace onelab::modem
