#pragma once

#include <functional>
#include <string>

#include "net/address.hpp"
#include "pl/node_os.hpp"

namespace onelab::umtsctl {

/// Parsed `umts status` / `umts start` report as seen from a slice.
struct UmtsReport {
    bool locked = false;
    std::string owner;
    bool connected = false;
    net::Ipv4Address address;
    std::string operatorName;
    int signalQuality = 0;
    std::vector<std::string> destinations;
    std::string lastError;
    bool failedOverToWired = false;
    std::vector<std::string> parkedDestinations;
    /// Supervisor ladder rows (present only on supervised nodes).
    std::string superviseState;
    long superviseTimeInStateMs = -1;    ///< -1 = not reported
    long superviseLastRecoveryMs = -1;   ///< -1 = none yet / not reported
};

/// The slice-side `umts` command (§2.2): a thin front-end that passes
/// the user's request through the vsys pipes and parses the backend's
/// key=value reply. One instance per (node, slice).
class UmtsFrontend {
  public:
    UmtsFrontend(pl::NodeOs& node, const pl::Slice& slice) : node_(node), slice_(slice) {}

    /// `umts start`: bring the connection up.
    void start(std::function<void(util::Result<UmtsReport>)> done);
    /// `umts stop`: tear it down.
    void stop(std::function<void(util::Result<void>)> done);
    /// `umts status`.
    void status(std::function<void(util::Result<UmtsReport>)> done);
    /// `umts stats`: fetch the node's live metrics registry and render
    /// it as an aligned metric/type/value table. The backend scopes
    /// per-session bearer metrics to the calling node's own session;
    /// `includeAll` sends `stats all` to dump the whole registry.
    void stats(std::function<void(util::Result<std::string>)> done, bool includeAll = false);
    /// `umts add destination <dst>`: route `dst` via the UMTS link.
    void addDestination(const std::string& destination,
                        std::function<void(util::Result<void>)> done);
    /// `umts del destination <dst>`.
    void delDestination(const std::string& destination,
                        std::function<void(util::Result<void>)> done);

    [[nodiscard]] const pl::Slice& slice() const noexcept { return slice_; }

  private:
    /// One round trip through the vsys pipe: `done` gets `parse` of the
    /// backend's reply lines when it answered exit 0, otherwise the
    /// mapped error. A null `done` drops the reply.
    template <typename T, typename Parse>
    void invoke(std::vector<std::string> args, std::function<void(util::Result<T>)> done,
                Parse parse);
    static UmtsReport parseReport(const std::vector<std::string>& lines);
    static util::Error toError(const pl::VsysResult& result);

    pl::NodeOs& node_;
    pl::Slice slice_;
};

}  // namespace onelab::umtsctl
