#include "tools/chat.hpp"

#include <gtest/gtest.h>

namespace onelab::tools {
namespace {

/// Drives the chat against a scripted fake modem on the far pipe end.
struct ChatTest : ::testing::Test {
    ChatTest() : pipe(sim), chat(sim, pipe.a(), "test") {
        pipe.b().onData([this](util::SharedBytes data) {
            lineBuffer.append(data.view().begin(), data.view().end());
            const auto cr = lineBuffer.find('\r');
            if (cr == std::string::npos) return;
            const std::string command = lineBuffer.substr(0, cr);
            lineBuffer.clear();
            if (responder) responder(command);
        });
    }

    void modemSays(const std::string& text) {
        const std::string framed = "\r\n" + text + "\r\n";
        pipe.b().write(sim.bufferPool().acquireShared(
            {reinterpret_cast<const std::uint8_t*>(framed.data()), framed.size()}));
    }

    sim::Simulator sim;
    sim::Pipe pipe;
    AtChat chat;
    std::string lineBuffer;
    std::function<void(const std::string&)> responder;
};

TEST_F(ChatTest, CollectsLinesUntilFinal) {
    responder = [this](const std::string& command) {
        EXPECT_EQ(command, "AT+CSQ");
        modemSays("+CSQ: 17,99");
        modemSays("OK");
    };
    std::optional<ChatResponse> response;
    chat.send("AT+CSQ", sim::seconds(2.0),
              [&](util::Result<ChatResponse> r) { response = r.value(); });
    sim.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->ok());
    ASSERT_EQ(response->lines.size(), 1u);
    EXPECT_EQ(response->lines[0], "+CSQ: 17,99");
}

TEST_F(ChatTest, ErrorFinalCode) {
    responder = [this](const std::string&) { modemSays("ERROR"); };
    std::optional<ChatResponse> response;
    chat.send("AT+BAD", sim::seconds(2.0),
              [&](util::Result<ChatResponse> r) { response = r.value(); });
    sim.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->ok());
    EXPECT_EQ(response->finalCode, "ERROR");
}

TEST_F(ChatTest, ConnectIsFinal) {
    responder = [this](const std::string&) { modemSays("CONNECT 3600000"); };
    std::optional<ChatResponse> response;
    chat.send("ATD*99#", sim::seconds(2.0),
              [&](util::Result<ChatResponse> r) { response = r.value(); });
    sim.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->connected());
}

TEST_F(ChatTest, CmeErrorIsFinal) {
    responder = [this](const std::string&) { modemSays("+CME ERROR: SIM PIN required"); };
    std::optional<ChatResponse> response;
    chat.send("AT+CPIN=\"0\"", sim::seconds(2.0),
              [&](util::Result<ChatResponse> r) { response = r.value(); });
    sim.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(response->ok());
}

TEST_F(ChatTest, TimesOutWithoutResponse) {
    responder = [](const std::string&) {};  // silent modem
    std::optional<util::Error::Code> code;
    chat.send("AT", sim::millis(500), [&](util::Result<ChatResponse> r) {
        if (!r.ok()) code = r.error().code;
    });
    sim.runUntil(sim::seconds(2.0));
    EXPECT_EQ(code, util::Error::Code::timeout);
}

TEST_F(ChatTest, EchoFiltered) {
    responder = [this](const std::string& command) {
        modemSays(command);  // modem echo of the command itself
        modemSays("OK");
    };
    std::optional<ChatResponse> response;
    chat.send("AT+CREG?", sim::seconds(2.0),
              [&](util::Result<ChatResponse> r) { response = r.value(); });
    sim.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->lines.empty());  // echo did not leak in
}

TEST_F(ChatTest, UnsolicitedLinesRouted) {
    std::vector<std::string> unsolicited;
    chat.onUnsolicited = [&](const std::string& line) { unsolicited.push_back(line); };
    modemSays("^RSSI:18");
    sim.runUntil(sim::millis(100));
    ASSERT_EQ(unsolicited.size(), 1u);
    EXPECT_EQ(unsolicited[0], "^RSSI:18");
}

TEST_F(ChatTest, UnsolicitedDuringCommandTreatedAsInfo) {
    responder = [this](const std::string&) {
        modemSays("^RSSI:20");  // chatter between command and final
        modemSays("OK");
    };
    std::optional<ChatResponse> response;
    chat.send("AT", sim::seconds(2.0),
              [&](util::Result<ChatResponse> r) { response = r.value(); });
    sim.runUntil(sim::seconds(1.0));
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(response->ok());  // the OK still terminates correctly
}

TEST_F(ChatTest, SecondSendWhileBusyFails) {
    responder = [](const std::string&) {};
    chat.send("AT", sim::seconds(5.0), [](util::Result<ChatResponse>) {});
    std::optional<util::Error::Code> code;
    chat.send("AT+CSQ", sim::seconds(5.0), [&](util::Result<ChatResponse> r) {
        if (!r.ok()) code = r.error().code;
    });
    EXPECT_EQ(code, util::Error::Code::busy);
}

TEST_F(ChatTest, ReleaseFailsPendingCommand) {
    responder = [](const std::string&) {};
    std::optional<util::Error::Code> code;
    chat.send("AT", sim::seconds(5.0), [&](util::Result<ChatResponse> r) {
        if (!r.ok()) code = r.error().code;
    });
    sim.runUntil(sim::millis(10));
    chat.release();
    EXPECT_EQ(code, util::Error::Code::state);
}

}  // namespace
}  // namespace onelab::tools
