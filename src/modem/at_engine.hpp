#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "obs/registry.hpp"
#include "sim/pipe.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"

namespace onelab::modem {

/// Hayes AT command engine: the serial-facing half of a modem. Parses
/// command lines from the host TTY, echoes when enabled, dispatches to
/// registered handlers, and supports online (data) mode with the
/// "+++ guard time" escape back to command mode.
///
/// Handlers may complete asynchronously: they receive the engine and
/// call reply()/final() when ready; the engine holds off further
/// command parsing until the final result is issued.
class AtEngine {
  public:
    /// Handler receives the full command ("AT+CPIN?") and the tail
    /// after the registered prefix ("?" here, for prefix "+CPIN").
    using Handler = std::function<void(const std::string& command, const std::string& tail)>;

    AtEngine(sim::Simulator& simulator, std::string logTag);

    /// Attach to the device side of the host TTY.
    void attachTty(sim::ByteChannel& tty);

    /// Register a command by prefix (without the "AT"); longest
    /// matching prefix wins. Example prefixes: "+CPIN", "D", "H", "I".
    void registerCommand(const std::string& prefix, Handler handler);

    // --- responses (used by handlers) ---
    /// Send an information line ("+CSQ: 17,99").
    void reply(const std::string& line);
    /// Send the final result code ("OK", "ERROR", "CONNECT 3600000",
    /// "NO CARRIER", "+CME ERROR: ...") and unblock the parser.
    void final(const std::string& result);
    /// Unsolicited result code (allowed any time in command mode).
    void unsolicited(const std::string& line);

    // --- data (online) mode ---
    /// Enter data mode: the slices arriving on the host TTY flow to
    /// `fromHost` instead of the command parser, so the modem bridge
    /// forwards them to the bearer without a copy. Call after sending
    /// the CONNECT final.
    void enterDataMode(std::function<void(util::SharedBytes)> fromHost);
    /// Back to command mode (on hangup or escape).
    void leaveDataMode();
    [[nodiscard]] bool inDataMode() const noexcept { return dataMode_; }
    /// Raw bytes toward the host while in data mode (PPP frames),
    /// forwarded to the TTY as-is.
    void sendToHost(const util::SharedBytes& data);

    /// Fired when "+++" with proper guard times is detected in data
    /// mode; the modem decides what to do (switch to command mode).
    std::function<void()> onEscape;

    void setEcho(bool echo) noexcept { echo_ = echo; }
    [[nodiscard]] bool echo() const noexcept { return echo_; }

    [[nodiscard]] std::uint64_t commandsHandled() const noexcept { return commandsHandled_; }

    /// Fault hook: answer the next `count` commands with `result`
    /// ("ERROR", "NO CARRIER", "+CME ERROR: 30", ...) instead of
    /// invoking their handlers. Models wedged firmware / SIM glitches.
    void forceFinal(const std::string& result, int count = 1);
    [[nodiscard]] int forcedFinalsPending() const noexcept { return forcedCount_; }

    // --- hostile-input hardening (guard layer) ---
    /// Command-line length cap: CR-less hostile input is discarded at
    /// the cap (one ERROR per overflowed line) instead of growing the
    /// line buffer without bound. Counted as guard.at.line_overflow.
    void setMaxLineLength(std::size_t bytes) noexcept { maxLineLength_ = bytes; }
    [[nodiscard]] std::size_t maxLineLength() const noexcept { return maxLineLength_; }
    /// ATD dial-string validation: charset/length checked before the
    /// handler runs; malformed dials answer ERROR immediately and are
    /// counted as guard.at.dial_rejected. On by default.
    void setDialValidation(bool on) noexcept { validateDial_ = on; }
    [[nodiscard]] bool dialValidation() const noexcept { return validateDial_; }
    /// True when `tail` (everything after the ATD, optional T/P
    /// prefix) is a well-formed dial string: digits and *#+, only,
    /// at most 40 significant characters.
    [[nodiscard]] static bool validDialString(const std::string& tail);

  private:
    void onHostData(const util::SharedBytes& data);
    void scanEscapeSequence(util::ByteView data);
    void processLine(const std::string& line);
    void dispatch(const std::string& body);

    sim::Simulator& sim_;
    util::Logger log_;
    sim::ByteChannel* tty_ = nullptr;
    std::map<std::string, Handler> handlers_;
    std::string lineBuffer_;
    bool echo_ = true;
    bool busy_ = false;       ///< a handler owes a final result
    std::string openSpan_;    ///< command name of the open tracer span, if any
    bool dataMode_ = false;
    std::function<void(util::SharedBytes)> dataSink_;
    util::Bytes echoBuffer_;  ///< command-mode echo, flushed per chunk

    // "+++" escape detection (1 s guard before, three '+', 1 s after).
    static constexpr sim::SimTime kGuardTime = sim::millis(1000);
    sim::SimTime lastDataByte_{-10'000'000'000};
    int plusCount_ = 0;
    sim::EventHandle escapeTimer_;

    std::uint64_t commandsHandled_ = 0;
    std::string forcedResult_;
    int forcedCount_ = 0;

    // Hostile-input hardening state.
    std::size_t maxLineLength_ = 1024;
    bool lineOverflow_ = false;  ///< discarding the rest of an oversized line
    bool validateDial_ = true;
    int rawPlusRun_ = 0;  ///< consecutive '+' without the guard silence

    obs::Counter& commandsMetric_;     ///< modem.at.commands
    obs::Counter& overflowMetric_;     ///< guard.at.line_overflow
    obs::Counter& dialRejectMetric_;   ///< guard.at.dial_rejected
    obs::Counter& escapeSpamMetric_;   ///< guard.at.escape_spam
};

}  // namespace onelab::modem
