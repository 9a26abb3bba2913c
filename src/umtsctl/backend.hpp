#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "pl/node_os.hpp"
#include "tools/comgt.hpp"
#include "tools/wvdial.hpp"
#include "util/backoff.hpp"

namespace onelab::umtsctl {

/// Exit codes the backend writes to the vsys response pipe (mapped
/// from errno values the real scripts would exit with).
namespace exit_code {
inline constexpr int ok = 0;
inline constexpr int error = 1;
inline constexpr int perm = 4;
inline constexpr int noent = 2;
inline constexpr int busy = 16;
inline constexpr int inval = 22;
}  // namespace exit_code

/// Backend configuration: which TTY the UMTS card sits on, how to
/// register (comgt) and dial (wvdial), and the routing/firewall ids
/// the isolation rules use.
struct UmtsBackendConfig {
    std::string pppInterface = "ppp0";
    int routingTable = 100;     ///< the additional table (§2.3)
    int addressRulePriority = 1000;
    int destinationRulePriority = 1001;
    tools::ComgtConfig comgt;
    tools::WvDialConfig dialer;
    /// Kernel modules `umts start` modprobes before touching the TTY
    /// (§2.3): the PPP stack plus the card's driver.
    std::vector<std::string> requiredModules{"ppp_async", "ppp_deflate", "bsd_comp"};
    /// When set, `umts stats` hides per-session bearer metric families
    /// ("umts.bearer.<imsi>.*") belonging to OTHER sessions, so a node
    /// in an N-UE fleet only reports its own radio link. Node-wide
    /// metrics (and "umts stats all") are unaffected. Empty = no
    /// scoping, everything is shown.
    std::string statsScopeImsi;
    /// The only slice allowed the unscoped `umts stats all` dump. Any
    /// other caller — including a hostile slice speaking the raw FIFO
    /// protocol — is silently scoped to its own session and counted as
    /// guard.umtsctl.stats_denied. Empty = nobody gets "all".
    std::string statsAllSlice;
    /// Automatic re-dial after an unexpected link loss on a node
    /// without a supervisor: the backend keeps the slice's lock, parks
    /// its destination rules, calls redial() with capped exponential
    /// backoff (2 s doubling to 60 s, ±20 % jitter) and fails the rules
    /// back once a redial succeeds. Off by default (historic behaviour:
    /// report the error, release the lock, stay down).
    struct AutoRedial {
        bool enable = false;
        int maxAttempts = 6;
        /// Seeds the backoff jitter so N UEs recovering from a
        /// shared-cell outage don't redial in lockstep.
        std::uint64_t jitterSeed = 0;
    };
    AutoRedial autoRedial;
};

/// Connection state the backend reports.
struct UmtsState {
    bool locked = false;
    std::string owner;          ///< slice holding the lock
    bool connected = false;
    net::Ipv4Address address;   ///< ppp0 address when connected
    std::string operatorName;
    int signalQuality = 0;
    std::string lastError;
};

/// The root-context half of the `umts` command (§2.3). Installed as a
/// vsys backend, it owns the modem TTY, drives comgt + wvdial, creates
/// the ppp interface on the node stack and enforces the slice
/// isolation policy with policy routing and netfilter rules:
///
///   ip route add default dev ppp0 table 100
///   ip rule add prio 1000 fwmark M from <ppp0-addr>/32 lookup 100
///   ip rule add prio 1001 fwmark M to <dest> lookup 100    (per add)
///   iptables -t mangle -A OUTPUT -m slice --xid X -j MARK --set-mark M
///   iptables -A OUTPUT -o ppp0 -m slice ! --xid X -j DROP
class UmtsBackend {
  public:
    UmtsBackend(sim::Simulator& simulator, pl::NodeOs& node, sim::ByteChannel& modemTty,
                UmtsBackendConfig config);
    ~UmtsBackend();

    UmtsBackend(const UmtsBackend&) = delete;
    UmtsBackend& operator=(const UmtsBackend&) = delete;

    /// Register as the vsys script "umts" on the node.
    void installVsys();

    /// DTR line to the modem (wired by the testbed; out-of-band).
    std::function<void()> dropDtr;

    /// DCD line from the modem: the data call died under us. Tears the
    /// data plane down and releases the lock.
    void notifyCarrierLost();

    // --- recovery driver surface ----------------------------------
    // When a recovery driver exists (onConnectionLost is set, or
    // autoRedial.enable), an unexpected link loss keeps the slice's
    // lock and parks the installed destination rules: traffic falls
    // back to the wired default route. The driver then calls redial()
    // until one succeeds, and failbackRoutes(). A supervisor
    // (src/supervise) wins over the built-in auto-redial.

    /// Link died unexpectedly (data plane already torn down, routes
    /// parked). The supervisor owns recovery from here.
    std::function<void(const std::string& reason)> onConnectionLost;
    /// Data plane came up (initial start or a successful redial).
    std::function<void()> onConnectionEstablished;

    /// Extra key=value lines appended to `umts status` output. Wired
    /// by the site so the frontend can show supervisor ladder state
    /// (supervise_state=..., supervise_time_in_state_ms=...,
    /// supervise_last_recovery_ms=...) without umtsctl linking against
    /// the supervise layer.
    std::function<std::vector<std::string>()> statusExtra;

    /// One supervised dial attempt (registration + dial + data plane).
    /// Parked destination rules stay parked — the caller decides when
    /// to fail traffic back with failbackRoutes().
    void redial(std::function<void(util::Result<void>)> done);
    /// Remove the slice's installed destination rules while the link
    /// stays up: marked flows fall through to the wired main table.
    void failoverRoutes();
    /// Re-install every parked destination rule (requires connected).
    void failbackRoutes();
    [[nodiscard]] bool routesParked() const noexcept { return routesParked_; }
    [[nodiscard]] bool busy() const noexcept { return busy_; }
    /// The live pppd of the current connection, or nullptr.
    [[nodiscard]] ppp::Pppd* livePppd() noexcept {
        return wvdial_ ? wvdial_->pppd() : nullptr;
    }

    [[nodiscard]] const UmtsState& state() const noexcept { return state_; }

    // Direct entry points (the vsys backend dispatches to these).
    void cmdStart(const pl::Slice& caller, pl::Vsys::Completion done);
    void cmdStop(const pl::Slice& caller, pl::Vsys::Completion done);
    void cmdStatus(const pl::Slice& caller, pl::Vsys::Completion done);
    /// `stats` scopes per-session metrics to `statsScopeImsi`;
    /// `stats all` (includeAll) dumps the whole registry.
    void cmdStats(const pl::Slice& caller, pl::Vsys::Completion done,
                  bool includeAll = false);
    void cmdAddDestination(const pl::Slice& caller, const std::string& destination,
                           pl::Vsys::Completion done);
    void cmdDelDestination(const pl::Slice& caller, const std::string& destination,
                           pl::Vsys::Completion done);

  private:
    void dispatch(const pl::Slice& caller, const std::vector<std::string>& args,
                  pl::Vsys::Completion done);
    /// The registration + dial chain shared by cmdStart and redial();
    /// on success the data plane is up.
    void startConnection(std::function<void(util::Result<ppp::IpcpResult>)> done);
    void setupDataPlane(const ppp::IpcpResult& addresses);
    void teardownDataPlane();
    void onLinkLost(const std::string& reason);
    /// Arm the next auto-redial attempt after one backoff step.
    void scheduleRedial();
    void cancelRedial();
    /// `ip rule <verb> prio P fwmark M to <destination> lookup T`: add
    /// or del one of the slice's destination rules.
    util::Result<std::string> destinationRule(const char* verb, const std::string& destination);
    [[nodiscard]] tools::RootShell& shell();
    [[nodiscard]] std::uint32_t mark() const noexcept { return ownerMark_; }
    static void reply(pl::Vsys::Completion& done, int code,
                      std::vector<std::string> lines);

    sim::Simulator& sim_;
    pl::NodeOs& node_;
    sim::ByteChannel& modemTty_;
    UmtsBackendConfig config_;
    util::Logger log_{"umtsctl.backend"};

    UmtsState state_;
    int ownerXid_ = 0;
    std::uint32_t ownerMark_ = 0;
    std::unique_ptr<tools::Comgt> comgt_;
    std::unique_ptr<tools::WvDial> wvdial_;
    std::set<std::string> destinations_;
    bool busy_ = false;  ///< a start/stop is in flight

    // Auto-redial recovery state.
    sim::EventHandle redialTimer_;
    int redialAttempt_ = 0;
    std::optional<util::JitteredBackoff> redialBackoff_;

    // Failover state: destination rules pulled off the UMTS path
    // (either by a link loss or an explicit failoverRoutes()), waiting
    // for failbackRoutes() to re-install them.
    std::set<std::string> parkedDestinations_;
    bool routesParked_ = false;
};

}  // namespace onelab::umtsctl
