#pragma once

#include <memory>
#include <string>
#include <vector>

#include "guard/slice_guard.hpp"
#include "modem/cards.hpp"
#include "net/internet.hpp"
#include "pl/node_os.hpp"
#include "supervise/supervisor.hpp"
#include "umts/network.hpp"
#include "umtsctl/backend.hpp"
#include "umtsctl/frontend.hpp"

namespace onelab::scenario {

/// Which UMTS card sits in a UMTS-equipped node.
enum class CardKind { globetrotter, huawei_e620 };

/// Ethernet access-link parameters shared by both site kinds.
struct EthernetParams {
    double accessRateBps = 100e6;
    double jitterStddevMillis = 0.06;
};

// --------------------------------------------------------- wired site

struct WiredSiteConfig {
    std::string hostname;
    net::Ipv4Address address;
    /// Slices created on the node, in order.
    std::vector<std::string> sliceNames;
    EthernetParams ethernet;
};

/// An Ethernet-connected PlanetLab site: a NodeOs wired into the
/// Internet with a default route over eth0 and its slices created.
class WiredSite {
  public:
    WiredSite(sim::Simulator& simulator, net::Internet& internet, WiredSiteConfig config);

    WiredSite(const WiredSite&) = delete;
    WiredSite& operator=(const WiredSite&) = delete;

    [[nodiscard]] pl::NodeOs& node() noexcept { return *node_; }
    [[nodiscard]] net::Interface& eth() noexcept { return *eth_; }
    [[nodiscard]] net::Ipv4Address address() const noexcept { return config_.address; }
    [[nodiscard]] const std::string& hostname() const noexcept { return config_.hostname; }

    /// Slice by name; nullptr when the config did not create it.
    [[nodiscard]] pl::Slice* slice(const std::string& name) noexcept;
    /// The first configured slice (the usual receiver slice).
    [[nodiscard]] pl::Slice& firstSlice() noexcept { return *slices_.front(); }

  private:
    WiredSiteConfig config_;
    std::unique_ptr<pl::NodeOs> node_;
    net::Interface* eth_ = nullptr;
    std::vector<pl::Slice*> slices_;
};

// ---------------------------------------------------- UMTS node site

struct UmtsNodeSiteConfig {
    std::string hostname = "planetlab1.unina.it";
    net::Ipv4Address ethAddress{143, 225, 229, 10};
    /// The SIM identity; also the bearer's per-instance metric prefix
    /// ("umts.bearer.<imsi>.*") and therefore unique per fleet.
    std::string imsi = "222880000000001";
    CardKind card = CardKind::huawei_e620;
    std::string simPin = "1234";
    /// PIN the backend's comgt config uses; empty = same as simPin.
    std::string backendPinOverride;
    std::string umtsSliceName = "unina_umts";
    /// Further slices on the node (NOT added to the umts vsys ACL).
    std::vector<std::string> extraSliceNames;
    bool dialerCompression = false;
    std::vector<std::string> extraRequiredModules;
    /// Tag the dialer seed is derived from the fleet root stream with.
    /// Must be unique per site; the default reproduces the historical
    /// single-node testbed stream.
    std::string dialerSeedTag = "dialer";
    EthernetParams ethernet;
    /// Backend auto-redial after an unexpected link loss: park the
    /// slice's destination rules, redial with jittered backoff, fail
    /// the rules back on success. Off by default (historic behaviour:
    /// the lock is released and the link stays down); chaos runs turn
    /// it on so drops recover instead of staying down.
    umtsctl::UmtsBackendConfig::AutoRedial autoRedial;
    /// Per-slice admission control on the umts vsys FIFO (rate +
    /// queue-depth guard at the trust boundary). The defaults are
    /// lenient; set `fifoGuard.enabled = false` to reproduce the
    /// unguarded historic backend.
    guard::SliceFifoGuardConfig fifoGuard;
    /// Per-site link supervision. It drives the same backend recovery
    /// surface as autoRedial (parked rules, redial(), failbackRoutes())
    /// and wins over it when both are enabled. Turns on the dialer's
    /// adaptive LCP keepalive.
    struct Supervise {
        bool enable = false;
        /// Dialer keepalive (pppd lcp-echo-interval / lcp-echo-failure).
        sim::SimTime echoInterval = sim::seconds(10.0);
        int echoFailureLimit = 3;
        /// Supervisor tuning. `name`/`seed` left at their defaults are
        /// filled in per site (IMSI, derived stream).
        supervise::SupervisorConfig config;
    };
    Supervise supervise;
};

/// A UMTS-equipped PlanetLab site — the paper's full Napoli bundle:
/// NodeOs with a wired eth0, the data card on its TTY, the `umts`
/// backend with its vsys entry ACL'ed to the experiment slice, and a
/// frontend bound to that slice.
class UmtsNodeSite {
  public:
    UmtsNodeSite(sim::Simulator& simulator, net::Internet& internet,
                 umts::UmtsNetwork& operatorNetwork, const util::RandomStream& rootRng,
                 UmtsNodeSiteConfig config);
    ~UmtsNodeSite();

    UmtsNodeSite(const UmtsNodeSite&) = delete;
    UmtsNodeSite& operator=(const UmtsNodeSite&) = delete;

    [[nodiscard]] pl::NodeOs& node() noexcept { return *node_; }
    [[nodiscard]] net::Interface& eth() noexcept { return *eth_; }
    [[nodiscard]] net::Ipv4Address ethAddress() const noexcept { return config_.ethAddress; }
    [[nodiscard]] const std::string& hostname() const noexcept { return config_.hostname; }
    [[nodiscard]] const std::string& imsi() const noexcept { return config_.imsi; }
    [[nodiscard]] modem::UmtsModem& card() noexcept { return *modem_; }
    /// The serial line between backend and card — exposed so fault
    /// injection can corrupt/stall bytes on the wire.
    [[nodiscard]] sim::Pipe& tty() noexcept { return *tty_; }
    [[nodiscard]] umtsctl::UmtsBackend& backend() noexcept { return *backend_; }
    [[nodiscard]] umtsctl::UmtsFrontend& frontend() noexcept { return *frontend_; }
    /// The vsys FIFO guard installed on this node's "umts" script.
    [[nodiscard]] guard::SliceFifoGuard& fifoGuard() noexcept { return *fifoGuard_; }
    /// The site's link supervisor; nullptr unless config.supervise.enable.
    [[nodiscard]] supervise::LinkSupervisor* supervisor() noexcept {
        return supervisor_.get();
    }
    [[nodiscard]] pl::Slice& umtsSlice() noexcept { return *umtsSlice_; }
    [[nodiscard]] pl::Slice* slice(const std::string& name) noexcept;

    // --- synchronous drivers (run the simulator until completion) ---
    util::Result<umtsctl::UmtsReport> startUmts(sim::SimTime timeout = sim::seconds(60.0));
    util::Result<void> addUmtsDestination(const std::string& destination,
                                          sim::SimTime timeout = sim::seconds(5.0));
    util::Result<void> stopUmts(sim::SimTime timeout = sim::seconds(10.0));

  private:
    UmtsNodeSiteConfig config_;
    sim::Simulator& sim_;
    std::unique_ptr<pl::NodeOs> node_;
    net::Interface* eth_ = nullptr;
    std::unique_ptr<sim::Pipe> tty_;
    std::unique_ptr<modem::UmtsModem> modem_;
    std::unique_ptr<umtsctl::UmtsBackend> backend_;
    std::unique_ptr<guard::SliceFifoGuard> fifoGuard_;
    std::unique_ptr<umtsctl::UmtsFrontend> frontend_;
    /// Declared after backend_/modem_ (and destroyed first): the
    /// supervisor unhooks its backend/pppd callbacks on destruction.
    std::unique_ptr<supervise::LinkSupervisor> supervisor_;
    pl::Slice* umtsSlice_ = nullptr;
    std::vector<pl::Slice*> extraSlices_;
};

/// Wire a node's eth0 into the Internet with a default route — shared
/// by both site kinds.
net::Interface& wireEthernet(pl::NodeOs& node, net::Internet& internet,
                             net::Ipv4Address address, const EthernetParams& params);

}  // namespace onelab::scenario
