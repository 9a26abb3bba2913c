#include "tools/chat.hpp"

#include "util/strings.hpp"

namespace onelab::tools {

AtChat::AtChat(sim::Simulator& simulator, sim::ByteChannel& tty, std::string logTag)
    : sim_(simulator), tty_(tty), log_("tools.chat." + logTag) {
    tty_.onData([this](util::SharedBytes data) { onData(data.view()); });
}

AtChat::~AtChat() {
    *alive_ = false;
    if (timeout_.valid()) sim_.cancel(timeout_);
}

void AtChat::send(const std::string& command, sim::SimTime timeout, Callback done) {
    if (pending_) {
        if (done)
            done(util::err(util::Error::Code::busy, "chat busy with '" + sentCommand_ + "'"));
        return;
    }
    pending_ = true;
    sentCommand_ = command;
    current_ = ChatResponse{};
    callback_ = std::move(done);
    log_.debug() << ">> " << command;
    const std::string wire = command + "\r";
    tty_.write(sim_.bufferPool().acquireShared(
        {reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()}));
    timeout_ = sim_.schedule(timeout, [this] {
        timeout_ = {};
        finish(util::err(util::Error::Code::timeout,
                         "no final response to '" + sentCommand_ + "'"));
    });
}

void AtChat::release() {
    if (pending_)
        finish(util::err(util::Error::Code::state, "chat released mid-command"));
    tty_.onData(nullptr);
}

void AtChat::onData(util::ByteView data) {
    // A completion callback fired from onLine may destroy this object;
    // hold the guard and stop touching members once it trips.
    const std::shared_ptr<bool> alive = alive_;
    for (const std::uint8_t byte : data) {
        const char c = char(byte);
        if (c == '\r' || c == '\n') {
            if (!buffer_.empty()) {
                std::string line;
                line.swap(buffer_);
                onLine(util::trim(line));
                if (!*alive) return;
            }
            continue;
        }
        buffer_.push_back(c);
    }
}

bool AtChat::isFinalCode(const std::string& line) {
    return line == "OK" || line == "ERROR" || line == "NO CARRIER" || line == "BUSY" ||
           line == "NO DIALTONE" || util::startsWith(line, "CONNECT") ||
           util::startsWith(line, "+CME ERROR") || util::startsWith(line, "+CMS ERROR");
}

void AtChat::onLine(const std::string& line) {
    if (line.empty()) return;
    if (!pending_) {
        log_.debug() << "<< (unsolicited) " << line;
        if (onUnsolicited) onUnsolicited(line);
        return;
    }
    if (line == sentCommand_) return;  // modem echo
    log_.debug() << "<< " << line;
    if (isFinalCode(line)) {
        current_.finalCode = line;
        finish(ChatResponse{current_});
        return;
    }
    current_.lines.push_back(line);
}

void AtChat::finish(util::Result<ChatResponse> result) {
    if (!pending_) return;
    pending_ = false;
    if (timeout_.valid()) {
        sim_.cancel(timeout_);
        timeout_ = {};
    }
    Callback callback;
    callback.swap(callback_);
    if (callback) callback(std::move(result));
}

}  // namespace onelab::tools
