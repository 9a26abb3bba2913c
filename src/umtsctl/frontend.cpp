#include "umtsctl/frontend.hpp"

#include "umtsctl/backend.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace onelab::umtsctl {

UmtsReport UmtsFrontend::parseReport(const std::vector<std::string>& lines) {
    UmtsReport report;
    for (const std::string& line : lines) {
        const auto eq = line.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        if (key == "locked") report.locked = value == "1";
        else if (key == "owner") report.owner = value;
        else if (key == "connected") report.connected = value == "1";
        else if (key == "status") report.connected = value == "connected" ||
                                                     value == "already-connected";
        else if (key == "ip") {
            const auto addr = net::Ipv4Address::parse(value);
            if (addr.ok()) report.address = addr.value();
        } else if (key == "operator") report.operatorName = value;
        else if (key == "csq") {
            const auto csq = util::parseInt(value);
            if (csq.ok()) report.signalQuality = int(csq.value());
        } else if (key == "destination") report.destinations.push_back(value);
        else if (key == "last_error") report.lastError = value;
        else if (key == "failover") report.failedOverToWired = value == "wired";
        else if (key == "parked_destination") report.parkedDestinations.push_back(value);
        else if (key == "supervise_state") report.superviseState = value;
        else if (key == "supervise_time_in_state_ms") {
            const auto ms = util::parseInt(value);
            if (ms.ok()) report.superviseTimeInStateMs = long(ms.value());
        } else if (key == "supervise_last_recovery_ms") {
            const auto ms = util::parseInt(value);
            if (ms.ok()) report.superviseLastRecoveryMs = long(ms.value());
        }
    }
    return report;
}

util::Error UmtsFrontend::toError(const pl::VsysResult& result) {
    std::string message = "exit " + std::to_string(result.exitCode);
    for (const std::string& line : result.output)
        if (util::startsWith(line, "error=")) message = line.substr(6);
    util::Error::Code code = util::Error::Code::io;
    switch (result.exitCode) {
        case exit_code::busy: code = util::Error::Code::busy; break;
        case exit_code::perm: code = util::Error::Code::permission_denied; break;
        case exit_code::inval: code = util::Error::Code::invalid_argument; break;
        case exit_code::noent: code = util::Error::Code::not_found; break;
        default: break;
    }
    return util::Error{code, message};
}

namespace {

/// The `umts stats` reply as an aligned metric/type/value table.
std::string renderStats(const std::vector<std::string>& lines) {
    // Backend lines are `<metric>=<kind>:<value>`.
    util::Table table({"metric", "type", "value"});
    for (const std::string& line : lines) {
        const auto eq = line.find('=');
        if (eq == std::string::npos) continue;
        const std::string name = line.substr(0, eq);
        std::string rest = line.substr(eq + 1);
        std::string kind;
        const auto colon = rest.find(':');
        if (colon != std::string::npos) {
            kind = rest.substr(0, colon);
            rest = rest.substr(colon + 1);
        }
        table.addRow({name, kind, rest});
    }
    return table.render();
}

/// Parse for the verbs whose reply carries nothing the caller needs.
util::Result<void> ignoreReply(const std::vector<std::string>&) { return {}; }

}  // namespace

template <typename T, typename Parse>
void UmtsFrontend::invoke(std::vector<std::string> args,
                          std::function<void(util::Result<T>)> done, Parse parse) {
    node_.vsys().invoke(slice_, "umts", std::move(args),
                        [done = std::move(done), parse](util::Result<pl::VsysResult> result) {
                            if (!done) return;
                            if (!result.ok()) return done(result.error());
                            if (!result.value().ok()) return done(toError(result.value()));
                            done(parse(result.value().output));
                        });
}

void UmtsFrontend::start(std::function<void(util::Result<UmtsReport>)> done) {
    invoke({"start"}, std::move(done), parseReport);
}

void UmtsFrontend::status(std::function<void(util::Result<UmtsReport>)> done) {
    invoke({"status"}, std::move(done), parseReport);
}

void UmtsFrontend::stats(std::function<void(util::Result<std::string>)> done,
                         bool includeAll) {
    std::vector<std::string> args{"stats"};
    if (includeAll) args.push_back("all");
    invoke(std::move(args), std::move(done), renderStats);
}

void UmtsFrontend::stop(std::function<void(util::Result<void>)> done) {
    invoke({"stop"}, std::move(done), ignoreReply);
}

void UmtsFrontend::addDestination(const std::string& destination,
                                  std::function<void(util::Result<void>)> done) {
    invoke({"add", "destination", destination}, std::move(done), ignoreReply);
}

void UmtsFrontend::delDestination(const std::string& destination,
                                  std::function<void(util::Result<void>)> done) {
    invoke({"del", "destination", destination}, std::move(done), ignoreReply);
}

}  // namespace onelab::umtsctl
