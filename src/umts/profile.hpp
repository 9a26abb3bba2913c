#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "ppp/lcp.hpp"
#include "sim/time.hpp"

namespace onelab::umts {

/// Everything that characterises one UMTS operator: radio bearer
/// ladder, delay/jitter behaviour, on-demand resource allocation, core
/// network layout and subscriber handling. Two presets reproduce the
/// networks the paper used (§2.1): a commercial Italian operator and
/// the private Alcatel-Lucent 3G Reality Center micro-cell.
struct OperatorProfile {
    std::string name;         ///< short id ("commercial-it")
    std::string displayName;  ///< AT+COPS operator string
    std::string apn = "internet";
    std::string mccMnc = "22288";

    // --- radio bearers ---
    /// Uplink DCH rate ladder (RLC-level bits per second). Allocation
    /// starts at `initialUplinkIndex` and is upgraded on demand.
    std::vector<double> uplinkRatesBps{64e3, 144e3, 384e3};
    std::size_t initialUplinkIndex = 1;
    double downlinkRateBps = 1.8e6;  ///< HSDPA category rate
    std::size_t rlcUplinkBufferBytes = 40 * 1024;
    std::size_t rlcDownlinkBufferBytes = 128 * 1024;

    // --- latency model ---
    sim::SimTime uplinkBaseDelay = sim::millis(60);
    sim::SimTime downlinkBaseDelay = sim::millis(40);
    sim::SimTime ttiQuantum = sim::millis(10);  ///< transmission time interval
    double jitterGammaShape = 2.0;              ///< per-chunk extra delay ~ Gamma
    double jitterGammaScaleMs = 4.0;

    /// Radio "bad state": intervals where the bearer serves at a
    /// fraction of its granted rate (fading, cell breathing, shared-
    /// cell congestion). Delay then builds gradually — small per-packet
    /// jitter but RTT excursions of hundreds of ms, matching Figs 2-3.
    /// Exponential inter-arrival and duration.
    double badStateRatePerSec = 0.05;                    ///< ~ every 20 s
    sim::SimTime badStateMeanDuration = sim::millis(600);
    sim::SimTime badStateMaxDuration = sim::millis(1200);
    double badStateRateFactor = 0.25;  ///< serving rate multiplier while degraded

    /// Residual post-RLC loss (acknowledged mode makes this tiny).
    double residualLossProbability = 0.0;

    // --- shared cell capacity ---
    /// Aggregate uplink/downlink rate the cell can grant across all
    /// active bearers (the Node B's code/power budget). Every bearer
    /// allocation comes out of this pool: with one UE in the cell the
    /// full ladder fits and nothing changes; with many UEs on-demand
    /// upgrades get denied and admissions get trimmed down the ladder.
    /// The lowest ladder step (and `downlinkFloorBps` downlink) is
    /// always granted — admission is never refused, the cell degrades
    /// instead, which is what a loaded commercial cell does.
    double cellUplinkCapacityBps = 768e3;
    double cellDownlinkCapacityBps = 7.2e6;
    /// Guaranteed downlink floor per bearer when the pool runs dry.
    double downlinkFloorBps = 384e3;

    // --- on-demand allocation (the paper's Fig. 4 knee) ---
    bool onDemandAllocation = true;
    double upgradeBacklogFraction = 0.5;   ///< backlog threshold to count as saturated
    sim::SimTime upgradeSustain = sim::seconds(2.0);    ///< saturation must persist
    sim::SimTime upgradeGrantDelayMin = sim::seconds(40.0);
    sim::SimTime upgradeGrantDelayMax = sim::seconds(52.0);
    sim::SimTime downgradeIdle = sim::seconds(30.0);    ///< idle time before downgrade

    // --- RRC connection states ---
    /// After enough idle time the RAN demotes the UE from CELL_DCH to
    /// CELL_FACH; the next packet then pays a promotion delay while
    /// the dedicated channel is re-established (the classic 3G
    /// "first-packet lag").
    bool rrcStates = true;
    sim::SimTime fachPromotionDelay = sim::millis(650);
    sim::SimTime dchIdleTimeout = sim::seconds(10.0);

    // --- control-plane timing ---
    sim::SimTime registrationDelay = sim::seconds(2.2);  ///< CREG 0 -> 1
    sim::SimTime pdpActivationDelay = sim::millis(900);  ///< ATD*99# -> CONNECT
    int signalQualityCsq = 17;                           ///< AT+CSQ typical value

    // --- core network / GGSN ---
    net::Prefix subscriberPool{net::Ipv4Address{93, 57, 0, 0}, 16};
    net::Ipv4Address ggsnAddress{93, 57, 0, 1};
    net::Ipv4Address dnsServer{93, 57, 0, 53};
    sim::SimTime coreDelay = sim::millis(15);  ///< RNC/SGSN/GGSN traversal, one-way
    /// Operators firewall their subscribers: only flows initiated by
    /// the UE may cross inbound (the paper: "firewalls or filters that
    /// do not allow to reach the UMTS-equipped host", §2.2).
    bool statefulFirewall = true;

    /// Some operators NAT their subscribers instead of handing out
    /// routable addresses: the GGSN rewrites UDP/ICMP-echo flows to
    /// its own public address with per-flow ports. Set the subscriber
    /// pool to private space (e.g. 10.x) when enabling this.
    bool natSubscribers = false;

    // --- trust-boundary guards (src/guard, PR 10) ---
    /// Attach-signaling model + admission throttle. The congestion
    /// half is physics: registration under RACH/core overload takes
    /// longer for everyone, scaling with the attach backlog. The
    /// barring half is the guard: past `barringLimit` in-flight
    /// attaches, new ones are rejected busy (access class barring),
    /// which is what keeps a signaling storm from inflating everyone
    /// else's registration delay without bound.
    struct SignalingGuard {
        bool enabled = true;          ///< access class barring on/off
        std::size_t congestionStart = 12;  ///< in-flight attaches before slowdown
        double maxCongestionFactor = 16.0; ///< registration-delay multiplier cap
        std::size_t barringLimit = 32;     ///< reject attaches past this backlog
    };
    SignalingGuard signalingGuard;

    /// NAT/firewall table hygiene + churn guard (natSubscribers and
    /// statefulFirewall profiles). Capacities bound the state an
    /// operator-side churner can create; the per-subscriber quota is
    /// the guard that stops one subscriber's spray from evicting a
    /// victim's bindings/flows. bindingTimeout 0 = never expire
    /// (historic behaviour).
    struct NatGuard {
        sim::SimTime bindingTimeout{0};    ///< idle NAT binding expiry
        std::size_t maxBindings = 4096;    ///< NAT table cap (oldest-idle evicted)
        std::size_t maxFirewallFlows = 8192;  ///< firewall flow-table cap
        std::size_t perSubscriberQuota = 256; ///< 0 = unlimited (guard off)
    };
    NatGuard natGuard;

    /// Fair-share clamp on on-demand uplink growth (CellCapacity): a
    /// claimant already holding its fair share of the cell budget is
    /// denied further growth while others share the cell. Contains a
    /// greedy upgrade-spammer; honest contention is decided by
    /// headroom exactly as before.
    bool cellFairnessClamp = true;

    // --- subscriber authentication (PPP level) ---
    ppp::AuthProtocol authProtocol = ppp::AuthProtocol::chap_md5;
    /// Commercial operators typically accept any credentials on the
    /// consumer APN; the private micro-cell checks its list.
    bool acceptAnyCredentials = true;
    std::map<std::string, std::string> subscribers;  ///< user -> secret
};

/// The commercial Italian operator used in §3 ("one of the major
/// operators in Italy"): public network, on-demand allocation, heavy
/// cross-traffic, stateful firewall.
[[nodiscard]] OperatorProfile commercialItalianOperator();

/// The private Alcatel-Lucent micro-cell at the 3G Reality Center in
/// Vimercate: clean cell, immediate full-rate allocation, known
/// subscribers only.
[[nodiscard]] OperatorProfile alcatelLucentMicrocell();

}  // namespace onelab::umts
