#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ditg/decoder.hpp"
#include "scenario/site.hpp"

namespace onelab::scenario {

/// Fleet parameters: one shared simulator + Internet + operator cell,
/// N UMTS-equipped sites, and M wired (receiver) sites. Defaults leave
/// the site lists empty; `makeUniformFleet()` builds the common
/// "N UEs in one cell, one wired receiver" shape.
struct FleetConfig {
    std::uint64_t seed = 42;
    umts::OperatorProfile operatorProfile = umts::commercialItalianOperator();

    sim::SimTime ethTransitOneWay = sim::millis(9);   ///< UE site <-> wired site
    sim::SimTime ggsnTransitOneWay = sim::millis(6);  ///< operator core <-> any site

    std::vector<UmtsNodeSiteConfig> umtsSites;
    std::vector<WiredSiteConfig> wiredSites;
};

/// Uniform N-UE shared-cell fleet: `ueCount` UMTS sites (distinct
/// hostnames, eth addresses, IMSIs and dialer seeds) camping on one
/// cell of `profile`, plus a single wired receiver site at INRIA.
/// `makeUniformFleet(1)` is the paper's §3 testbed: the Napoli node
/// (planetlab1.unina.it, slice unina_umts) and the INRIA receiver
/// (planetlab1.inria.fr, slice inria_recv).
[[nodiscard]] FleetConfig makeUniformFleet(
    std::size_t ueCount, std::uint64_t seed = 42,
    umts::OperatorProfile profile = umts::commercialItalianOperator());

/// Per-UE outcome of a fleet-wide CBR run.
struct FleetCbrRun {
    std::string imsi;
    ditg::QosSummary summary;
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsReceived = 0;
    int bearerUpgrades = 0;
    int deniedUpgrades = 0;
    bool admissionTrimmed = false;
};

/// Per-UE outcome of a fleet-wide TCP probe run.
struct FleetTcpRun {
    std::string imsi;
    ditg::QosSummary summary;
    std::uint64_t probesSent = 0;
    std::uint64_t probesReceived = 0;
    net::TcpStats tcp;  ///< sender connection stats at wave end
};

/// The N-UE testbed: every UMTS site shares one operator network (and
/// thus one CellCapacity pool), every site pair is reachable over the
/// wired Internet, and the operator's resolver knows every hostname.
/// This is the substrate the contention experiments sweep over, and
/// with one UE and one wired site it is the paper's two-node testbed.
class Fleet {
  public:
    explicit Fleet(FleetConfig config);
    ~Fleet();

    Fleet(const Fleet&) = delete;
    Fleet& operator=(const Fleet&) = delete;

    /// The one simulator every site, the operator network and the
    /// wired hub are scheduled on.
    [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
    [[nodiscard]] sim::SimTime now() const noexcept { return sim_.now(); }
    void runUntil(sim::SimTime target) { sim_.runUntil(target); }
    void runFor(sim::SimTime duration) { runUntil(now() + duration); }
    [[nodiscard]] net::Internet& internet() noexcept { return *internet_; }
    [[nodiscard]] umts::UmtsNetwork& operatorNetwork() noexcept { return *operator_; }
    [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

    [[nodiscard]] std::size_t umtsSiteCount() const noexcept { return umtsSites_.size(); }
    [[nodiscard]] std::size_t wiredSiteCount() const noexcept { return wiredSites_.size(); }
    [[nodiscard]] UmtsNodeSite& umtsSite(std::size_t index) noexcept {
        return *umtsSites_[index];
    }
    [[nodiscard]] WiredSite& wiredSite(std::size_t index) noexcept {
        return *wiredSites_[index];
    }

    // --- synchronous drivers (run the simulator until completion) ---

    /// `umts start` on one site.
    util::Result<umtsctl::UmtsReport> startUmts(std::size_t index,
                                                sim::SimTime timeout = sim::seconds(60.0));
    /// Dial every UMTS site concurrently (the realistic fleet bring-up:
    /// the attach/PDP handshakes overlap) and wait for all of them.
    util::Result<void> startAll(sim::SimTime timeout = sim::seconds(120.0));
    util::Result<void> addUmtsDestination(std::size_t index, const std::string& destination,
                                          sim::SimTime timeout = sim::seconds(5.0));
    /// Route every UMTS site's traffic to wired site 0 via the UMTS
    /// interface (the per-slice policy route).
    util::Result<void> addDestinationAll(sim::SimTime timeout = sim::seconds(5.0));
    util::Result<void> stopUmts(std::size_t index, sim::SimTime timeout = sim::seconds(10.0));

    /// Drive one CBR flow from UMTS site `index` to wired site 0 and
    /// run it to completion (plus a drain tail).
    FleetCbrRun runCbr(std::size_t index, double durationSeconds);
    /// Drive concurrent CBR flows from EVERY umts site to wired site 0
    /// — the shared-cell contention workload. Flows start together.
    std::vector<FleetCbrRun> runCbrAll(double durationSeconds);

    /// Drive one TCP probe flow (framed D-ITG probes over the real TCP
    /// stack) from UMTS site `index` to wired site 0. Waves are
    /// self-cleaning: connections are closed, TIME-WAIT drains, and
    /// every CLOSED connection is reaped before returning, so repeated
    /// soak waves rebind their ports deterministically.
    FleetTcpRun runTcp(std::size_t index, double durationSeconds,
                       net::CcAlgorithm congestion = net::CcAlgorithm::newreno);
    /// Concurrent TCP flows from every UMTS site to wired site 0.
    std::vector<FleetTcpRun> runTcpAll(double durationSeconds,
                                       net::CcAlgorithm congestion = net::CcAlgorithm::newreno);

    /// Register a hook run at the START of fleet destruction, before
    /// any site is torn down. External layers holding scheduled
    /// simulator events against fleet members (e.g. a fault injector)
    /// register a cancellation here so no event fires into a destroyed
    /// node. Hooks run in reverse registration order.
    void addTeardownHook(std::function<void()> hook);

    /// Export the run's telemetry (obs::writeTelemetry).
    [[nodiscard]] util::Result<void> writeTelemetry(const std::string& directory);

  private:
    std::vector<FleetCbrRun> runCbrOnSites(const std::vector<std::size_t>& indices,
                                           double durationSeconds);
    std::vector<FleetTcpRun> runTcpOnSites(const std::vector<std::size_t>& indices,
                                           double durationSeconds,
                                           net::CcAlgorithm congestion);

    FleetConfig config_;
    sim::Simulator sim_;
    util::RandomStream rng_;
    std::unique_ptr<net::Internet> internet_;
    std::unique_ptr<umts::UmtsNetwork> operator_;
    std::vector<std::unique_ptr<UmtsNodeSite>> umtsSites_;
    std::vector<std::unique_ptr<WiredSite>> wiredSites_;
    std::vector<std::function<void()>> teardownHooks_;
};

}  // namespace onelab::scenario
