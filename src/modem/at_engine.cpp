#include "modem/at_engine.hpp"

#include <cstring>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace onelab::modem {

AtEngine::AtEngine(sim::Simulator& simulator, std::string logTag)
    : sim_(simulator), log_("modem.at." + logTag),
      commandsMetric_(obs::Registry::instance().counter("modem.at.commands")),
      overflowMetric_(obs::Registry::instance().counter("guard.at.line_overflow")),
      dialRejectMetric_(obs::Registry::instance().counter("guard.at.dial_rejected")),
      escapeSpamMetric_(obs::Registry::instance().counter("guard.at.escape_spam")) {}

void AtEngine::attachTty(sim::ByteChannel& tty) {
    tty_ = &tty;
    tty.onData([this](util::SharedBytes data) { onHostData(data); });
}

void AtEngine::registerCommand(const std::string& prefix, Handler handler) {
    handlers_[util::toUpper(prefix)] = std::move(handler);
}

void AtEngine::reply(const std::string& line) {
    if (!tty_) return;
    const std::string framed = "\r\n" + line + "\r\n";
    tty_->write(sim_.bufferPool().acquireShared(
        {reinterpret_cast<const std::uint8_t*>(framed.data()), framed.size()}));
}

void AtEngine::final(const std::string& result) {
    busy_ = false;
    if (!openSpan_.empty()) {
        obs::Tracer::instance().instant("modem.at", "final", result);
        obs::Tracer::instance().end("modem.at", openSpan_);
        openSpan_.clear();
    }
    reply(result);
}

void AtEngine::unsolicited(const std::string& line) {
    if (dataMode_) return;  // never corrupt the data stream
    reply(line);
}

void AtEngine::enterDataMode(std::function<void(util::SharedBytes)> fromHost) {
    dataMode_ = true;
    dataSink_ = std::move(fromHost);
    plusCount_ = 0;
}

void AtEngine::leaveDataMode() {
    dataMode_ = false;
    dataSink_ = nullptr;
    if (escapeTimer_.valid()) sim_.cancel(escapeTimer_);
    escapeTimer_ = {};
    lineBuffer_.clear();
}

void AtEngine::sendToHost(const util::SharedBytes& data) {
    if (tty_) tty_->write(data);
}

void AtEngine::scanEscapeSequence(util::ByteView data) {
    // Scan for the escape sequence: guard, "+++", guard. No event fires
    // during the scan, so the whole chunk arrives at one sim time, and
    // every byte of a run without '+' applies the same reset: it is
    // applied once per run, and memchr finds the next '+'.
    const sim::SimTime now = sim_.now();
    const std::uint8_t* p = data.data();
    const std::uint8_t* const end = p + data.size();
    while (p != end) {
        if (*p != '+') {
            plusCount_ = 0;
            rawPlusRun_ = 0;
            if (escapeTimer_.valid()) {
                sim_.cancel(escapeTimer_);
                escapeTimer_ = {};
            }
            lastDataByte_ = now;
            if (++p == end) return;
            if (*p != '+') {
                p = static_cast<const std::uint8_t*>(std::memchr(p, '+', std::size_t(end - p)));
                if (!p) return;
            }
        }
        const bool guardOk = plusCount_ > 0 || (now - lastDataByte_) >= kGuardTime;
        plusCount_ = guardOk ? plusCount_ + 1 : 0;
        if (plusCount_ == 0) {
            // '+' runs inside flowing data are escape attempts without
            // the guard silence — three in a row is the "+++ spam"
            // signature (counted, never escapes).
            if (++rawPlusRun_ >= 3) {
                escapeSpamMetric_.inc();
                rawPlusRun_ = 0;
            }
        } else {
            rawPlusRun_ = 0;
        }
        if (plusCount_ == 3) {
            // Arm the trailing guard: if nothing follows for a guard
            // time, escape fires.
            if (escapeTimer_.valid()) sim_.cancel(escapeTimer_);
            escapeTimer_ = sim_.schedule(kGuardTime, [this] {
                escapeTimer_ = {};
                plusCount_ = 0;
                log_.info() << "escape sequence detected";
                if (onEscape) onEscape();
            });
        }
        lastDataByte_ = now;
        ++p;
    }
}

void AtEngine::onHostData(const util::SharedBytes& data) {
    if (dataMode_) {
        {
            // The scope closes before the sink runs, so the bearer's
            // enqueue bills to its own category.
            obs::ProfileScope scope(obs::ProfileCategory::modem_at);
            scanEscapeSequence(data.view());
        }
        // Copy before invoking: the sink may switch the engine back to
        // command mode (escape/hangup paths) while executing.
        const auto sink = dataSink_;
        if (sink) sink(data);
        return;
    }

    obs::ProfileScope scope(obs::ProfileCategory::modem_at);

    // Echoed characters are batched into one TTY write per chunk,
    // flushed before any command reply so the host still sees echo
    // bytes ahead of the result codes they triggered.
    const auto flushEcho = [this] {
        if (echoBuffer_.empty()) return;
        if (tty_) tty_->write(sim_.bufferPool().acquireShared(echoBuffer_));
        echoBuffer_.clear();
    };
    for (const std::uint8_t byte : data.view()) {
        const char c = char(byte);
        if (echo_ && tty_) echoBuffer_.push_back(byte);
        if (c == '\r' || c == '\n') {
            if (lineOverflow_) {
                // The oversized line ends here; it was discarded past
                // the cap, so answer ERROR instead of parsing it.
                lineOverflow_ = false;
                lineBuffer_.clear();
                flushEcho();
                reply("ERROR");
            } else if (!lineBuffer_.empty()) {
                std::string line;
                line.swap(lineBuffer_);
                flushEcho();
                processLine(line);
            }
            continue;
        }
        if (c == 0x08 || c == 0x7f) {  // backspace
            if (!lineBuffer_.empty()) lineBuffer_.pop_back();
            continue;
        }
        if (lineOverflow_) continue;
        if (lineBuffer_.size() >= maxLineLength_) {
            lineOverflow_ = true;
            overflowMetric_.inc();
            log_.warn() << "command line over " << maxLineLength_
                        << " B cap; discarding to end of line";
            continue;
        }
        lineBuffer_.push_back(c);
    }
    flushEcho();
}

void AtEngine::processLine(const std::string& line) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty()) return;
    const std::string upper = util::toUpper(trimmed);
    if (!util::startsWith(upper, "AT")) {
        reply("ERROR");
        return;
    }
    if (busy_) {
        log_.warn() << "command while busy: " << trimmed;
        reply("ERROR");
        return;
    }
    ++commandsHandled_;
    commandsMetric_.inc();
    if (forcedCount_ > 0) {
        --forcedCount_;
        log_.warn() << "injected final for " << trimmed << ": " << forcedResult_;
        obs::Registry::instance().counter("fault.modem.at_forced").inc();
        reply(forcedResult_);
        return;
    }
    const std::string body = trimmed.substr(2);
    if (body.empty()) {
        reply("OK");
        return;
    }
    dispatch(body);
}

void AtEngine::forceFinal(const std::string& result, int count) {
    forcedResult_ = result;
    forcedCount_ = count;
}

bool AtEngine::validDialString(const std::string& tail) {
    std::string number = util::trim(tail);
    if (!number.empty() && (number[0] == 'T' || number[0] == 't' || number[0] == 'P' ||
                            number[0] == 'p'))
        number = number.substr(1);
    if (number.size() > 40) return false;
    for (const char c : number) {
        const bool ok = (c >= '0' && c <= '9') || c == '*' || c == '#' || c == '+' || c == ',';
        if (!ok) return false;
    }
    return true;
}

void AtEngine::dispatch(const std::string& body) {
    const std::string upper = util::toUpper(body);
    // Longest registered prefix that matches wins.
    const Handler* best = nullptr;
    std::size_t bestLength = 0;
    for (const auto& [prefix, handler] : handlers_) {
        if (util::startsWith(upper, prefix) && prefix.size() > bestLength) {
            best = &handler;
            bestLength = prefix.size();
        }
    }
    if (!best) {
        log_.debug() << "unknown command AT" << body;
        reply("ERROR");
        return;
    }
    if (validateDial_ && upper[0] == 'D' && bestLength == 1 &&
        !validDialString(body.substr(1))) {
        dialRejectMetric_.inc();
        log_.warn() << "rejected malformed dial string: AT" << body;
        reply("ERROR");
        return;
    }
    busy_ = true;
    // Span covering the whole exchange: dispatch -> final result.
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
        openSpan_ = "AT" + upper;
        tracer.begin("modem.at", openSpan_);
    }
    (*best)("AT" + body, body.substr(bestLength));
}

}  // namespace onelab::modem
