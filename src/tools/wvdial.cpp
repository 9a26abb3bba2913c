#include "tools/wvdial.hpp"

namespace onelab::tools {

WvDial::WvDial(sim::Simulator& simulator, sim::ByteChannel& tty, WvDialConfig config)
    : sim_(simulator), tty_(tty), config_(std::move(config)) {}

WvDial::~WvDial() = default;

void WvDial::fail(util::Error error) {
    dialing_ = false;
    log_.warn() << "dial failed: " << error.message;
    if (done_) {
        auto done = std::move(done_);
        done_ = nullptr;
        done(std::move(error));
    }
}

void WvDial::dial(std::function<void(util::Result<ppp::IpcpResult>)> done) {
    if (dialing_ || connected()) {
        if (done) done(util::err(util::Error::Code::busy, "wvdial already active"));
        return;
    }
    dialing_ = true;
    done_ = std::move(done);
    chat_ = std::make_unique<AtChat>(sim_, tty_, "wvdial");

    // Sending ATZ first mirrors wvdial's "Init1". The PDP context uses
    // cid 1 to match the *99***1# dial string.
    chat_->send("ATZ", config_.commandTimeout, [this](util::Result<ChatResponse> r1) {
        if (!r1.ok()) return fail(r1.error());
        chat_->send("AT+CGDCONT=1,\"IP\",\"" + config_.apn + "\"", config_.commandTimeout,
                    [this](util::Result<ChatResponse> r2) {
                        if (!r2.ok()) return fail(r2.error());
                        if (!r2.value().ok())
                            return fail(util::err(util::Error::Code::io,
                                                  "CGDCONT -> " + r2.value().finalCode));
                        chat_->send("ATD" + config_.phone, config_.connectTimeout,
                                    [this](util::Result<ChatResponse> r3) {
                                        if (!r3.ok()) return fail(r3.error());
                                        if (!r3.value().connected())
                                            return fail(util::err(
                                                util::Error::Code::io,
                                                "dial -> " + r3.value().finalCode));
                                        log_.info() << r3.value().finalCode
                                                    << " — starting pppd";
                                        // Hand the TTY to pppd.
                                        chat_->release();
                                        chat_.reset();

                                        ppp::PppdConfig pppConfig;
                                        pppConfig.name = "ue";
                                        pppConfig.credentials = {config_.username,
                                                                 config_.password};
                                        pppConfig.requestDns = config_.requestDns;
                                        pppConfig.ccp = config_.ccp;
                                        pppConfig.enableEcho = config_.lcpEcho;
                                        pppConfig.echoInterval = config_.lcpEchoInterval;
                                        pppConfig.echoFailureLimit = config_.lcpEchoFailure;
                                        pppConfig.echoAdaptive = config_.lcpEchoAdaptive;
                                        pppConfig.seed = config_.seed;
                                        pppd_ = std::make_unique<ppp::Pppd>(sim_, pppConfig);
                                        pppd_->attach(tty_);
                                        pppd_->onNetworkUp =
                                            [this](const ppp::IpcpResult& result) {
                                                dialing_ = false;
                                                if (done_) {
                                                    auto done = std::move(done_);
                                                    done_ = nullptr;
                                                    done(ppp::IpcpResult{result});
                                                }
                                            };
                                        pppd_->onLinkDown = [this](const std::string& reason) {
                                            if (dialing_) {
                                                fail(util::err(util::Error::Code::io,
                                                               "ppp failed: " + reason));
                                                return;
                                            }
                                            if (onDisconnected) onDisconnected(reason);
                                        };
                                        pppd_->start();
                                    });
                    });
    });
}

void WvDial::carrierLost() {
    log_.warn() << "carrier lost";
    if (pppd_) pppd_->abortLink();
}

void WvDial::hangup() {
    if (pppd_) {
        pppd_->stop();
        // Give LCP the terminate handshake, then drop DTR so the modem
        // returns to command mode (pppd's disconnect script).
        sim_.schedule(sim::millis(500), [this] {
            if (dropDtr) dropDtr();
        });
    } else if (dropDtr) {
        dropDtr();
    }
    dialing_ = false;
}

}  // namespace onelab::tools
