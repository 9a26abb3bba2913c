#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "net/dns.hpp"
#include "net/internet.hpp"
#include "net/stack.hpp"
#include "ppp/pppd.hpp"
#include "sim/pipe.hpp"
#include "umts/bearer.hpp"
#include "umts/cell.hpp"
#include "umts/profile.hpp"

namespace onelab::umts {

class UmtsNetwork;

/// One active PDP context: the UE's pipe into the operator network.
/// The modem bridges its TTY to `ueChannel()` while in data mode; the
/// other end terminates in the GGSN's per-session pppd.
class UmtsSession {
  public:
    ~UmtsSession();
    UmtsSession(const UmtsSession&) = delete;
    UmtsSession& operator=(const UmtsSession&) = delete;

    /// UE-side byte channel (PPP frames ride this over the bearer).
    [[nodiscard]] sim::ByteChannel& ueChannel() noexcept;

    [[nodiscard]] RadioBearer& bearer() noexcept { return *bearer_; }
    /// The GGSN-side pppd terminating this context (fault injection
    /// drives LCP renegotiation from here; the UE's pppd follows).
    [[nodiscard]] ppp::Pppd& ggsnPppd() noexcept { return *ggsnPppd_; }
    [[nodiscard]] net::Ipv4Address subscriberAddress() const noexcept { return subscriberAddr_; }
    [[nodiscard]] const std::string& imsi() const noexcept { return imsi_; }
    [[nodiscard]] bool active() const noexcept { return active_; }

    /// Invoked just before the network tears the session down, so the
    /// modem can drop its pointer and raise NO CARRIER.
    std::function<void()> onTeardown;

  private:
    friend class UmtsNetwork;
    class Channel;

    UmtsSession(UmtsNetwork& network, std::string imsi, net::Ipv4Address subscriberAddr,
                int sessionId);

    UmtsNetwork& network_;
    std::string imsi_;
    net::Ipv4Address subscriberAddr_;
    int sessionId_;
    bool active_ = true;

    std::unique_ptr<RadioBearer> bearer_;
    std::unique_ptr<Channel> ueChannel_;
    std::unique_ptr<Channel> netChannel_;
    std::unique_ptr<ppp::Pppd> ggsnPppd_;
    std::string pdpIfaceName_;
};

/// The operator network: UE attach/registration, PDP context
/// activation, and the GGSN — a forwarding router with the subscriber
/// pool announced into the wired Internet, per-session network-side
/// pppd, and (for commercial profiles) a stateful firewall that blocks
/// unsolicited inbound traffic toward subscribers.
class UmtsNetwork {
  public:
    UmtsNetwork(sim::Simulator& simulator, net::Internet& internet, OperatorProfile profile,
                util::RandomStream rng);
    ~UmtsNetwork();

    UmtsNetwork(const UmtsNetwork&) = delete;
    UmtsNetwork& operator=(const UmtsNetwork&) = delete;

    [[nodiscard]] const OperatorProfile& profile() const noexcept { return profile_; }

    // --- control plane (driven by the modem) ---
    [[nodiscard]] bool hasCoverage() const noexcept { return coverage_; }
    void setCoverage(bool coverage) noexcept { coverage_ = coverage; }
    /// AT+CSQ-style signal quality (0..31) with measurement noise.
    [[nodiscard]] int signalQuality();

    /// GPRS/UMTS attach; completes asynchronously after the
    /// registration delay (what `comgt` polls CREG for).
    void attachUe(const std::string& imsi, std::function<void(util::Result<void>)> done);
    void detachUe(const std::string& imsi);
    [[nodiscard]] bool isAttached(const std::string& imsi) const;
    /// Registrations currently in flight — what the signaling guard's
    /// barring limit bounds (the adversary bench's storm invariant).
    [[nodiscard]] std::size_t attachBacklog() const noexcept { return attaching_.size(); }

    /// Register a callback fired when the NETWORK detaches this IMSI
    /// (injected detach, coverage loss). UE-initiated detachUe() does
    /// not fire it. Pass nullptr to unregister.
    void onUeDetached(const std::string& imsi, std::function<void()> callback);

    // --- fault hooks (driven by fault::FaultInjector) ---
    /// Network-initiated detach: drops registration and any sessions,
    /// then notifies the UE's detach listener so the card re-scans.
    void injectDetach(const std::string& imsi);
    /// Drop this IMSI's PDP context/radio bearer without detaching;
    /// the modem sees NO CARRIER and the host must re-dial. Returns
    /// false if no active session matched.
    bool injectBearerDrop(const std::string& imsi);
    /// Coverage hole: every camped UE is detached (listeners fire) and
    /// attach attempts fail until coverage returns after `duration`.
    /// Overlapping outages extend to the farthest restore instant.
    void injectCoverageOutage(sim::SimTime duration);

    // --- adversary hook (driven by adversary::AdversaryDriver) ---
    /// Operator-side churn: synthesize `flows` outbound subscriber
    /// flows from `subscriber` (firewall state, plus NAT bindings on
    /// natSubscribers profiles), rotating source ports from
    /// `basePort`. Models a busy neighbouring subscriber's flow spray
    /// without building a full UE stack for it. Returns how many new
    /// firewall flow entries were actually recorded (quota denials and
    /// stateless profiles record none).
    std::size_t injectFlowChurn(net::Ipv4Address subscriber, net::Ipv4Address destination,
                                std::uint16_t basePort, std::size_t flows);

    /// Activate a PDP context (ATD*99# path). Asynchronous; the modem
    /// reports CONNECT when the callback delivers the session.
    void activatePdp(const std::string& imsi, const std::string& apn,
                     std::function<void(util::Result<UmtsSession*>)> done);
    void deactivatePdp(UmtsSession* session);

    [[nodiscard]] std::size_t activeSessions() const noexcept { return sessions_.size(); }
    /// Access an active session by index (tests/experiments hook the
    /// bearer's rate-change callback through this).
    [[nodiscard]] UmtsSession* sessionAt(std::size_t index) noexcept {
        return index < sessions_.size() ? sessions_[index].get() : nullptr;
    }

    /// The GGSN router (exposed for tests and the firewall bench).
    [[nodiscard]] net::NetworkStack& ggsn() noexcept { return *ggsn_; }
    [[nodiscard]] net::Interface& wanInterface() noexcept { return *wanIface_; }

    /// The shared cell budget every bearer allocates from.
    [[nodiscard]] CellCapacity& cell() noexcept { return cell_; }
    [[nodiscard]] const CellCapacity& cell() const noexcept { return cell_; }

    [[nodiscard]] std::uint64_t firewallBlockedInbound() const noexcept {
        return firewallBlocked_;
    }

    /// NAT statistics (profiles with natSubscribers).
    [[nodiscard]] std::size_t natBindingCount() const noexcept { return natBindings_.size(); }
    [[nodiscard]] std::uint64_t natTranslations() const noexcept { return natTranslations_; }
    [[nodiscard]] std::uint64_t natEvictions() const noexcept { return natEvictions_; }
    [[nodiscard]] std::uint64_t natQuotaDenials() const noexcept { return natQuotaDenials_; }
    /// Firewall flow-table size (bounded by natGuard.maxFirewallFlows).
    [[nodiscard]] std::size_t firewallFlowCount() const noexcept { return flows_.size(); }
    /// Whether any firewall flow state is held for `subscriber` — the
    /// adversary bench's victim probe: did a quiet subscriber's
    /// return-path state survive a neighbour's churn?
    [[nodiscard]] bool hasFlowStateFor(net::Ipv4Address subscriber) const noexcept {
        return flowsBySrc_.count(subscriber.value()) > 0;
    }

    /// The operator's resolver (the address IPCP hands to dialers).
    void addDnsRecord(const std::string& name, net::Ipv4Address address);
    [[nodiscard]] net::DnsServer& dns() noexcept { return *dns_; }

  private:
    friend class UmtsSession;

    bool forwardAllowed(const net::Packet& pkt, const std::string& iif);
    net::Ipv4Address allocateSubscriberAddress();
    void releaseSubscriberAddress(net::Ipv4Address addr);
    void installSession(UmtsSession& session);
    void removeSession(UmtsSession& session);
    void notifyDetached(const std::string& imsi);

    sim::Simulator& sim_;
    net::Internet& internet_;
    OperatorProfile profile_;
    util::RandomStream rng_;
    util::Logger log_;
    CellCapacity cell_;

    std::unique_ptr<net::NetworkStack> ggsn_;
    net::Interface* wanIface_ = nullptr;
    std::unique_ptr<net::DnsServer> dns_;

    bool coverage_ = true;
    std::set<std::string> attached_;
    std::map<std::string, sim::EventHandle> attaching_;
    std::map<std::string, std::function<void()>> detachListeners_;
    sim::EventHandle coverageRestore_;
    sim::SimTime coverageRestoreAt_{0};

    std::vector<std::unique_ptr<UmtsSession>> sessions_;
    int nextSessionId_ = 1;
    std::uint32_t nextHostOffset_ = 16;
    std::vector<net::Ipv4Address> freedAddresses_;

    // Stateful firewall flow table: key -> (last activity, subscriber
    // src). Bounded by natGuard.maxFirewallFlows with expired-first
    // purge then oldest eviction; the per-subscriber quota keeps one
    // subscriber's flow spray from evicting a victim's state.
    struct FlowEntry {
        sim::SimTime last{0};
        std::uint32_t src = 0;
    };
    using FlowTable = std::map<std::string, FlowEntry>;
    /// Idle order: last activity, then key. Its front is the entry a
    /// full scan with strict `<` in key order would pick, so eviction
    /// and the expired purge pop the front instead of scanning.
    struct FlowIdleOrder {
        bool operator()(FlowTable::iterator a, FlowTable::iterator b) const noexcept {
            return std::tie(a->second.last, a->first) < std::tie(b->second.last, b->first);
        }
    };
    void recordFlow(const std::string& key, std::uint32_t src);
    /// Every write of FlowEntry::last goes through here (re-keys the index).
    void touchFlow(FlowTable::iterator it, sim::SimTime now);
    void eraseFlow(FlowTable::iterator it);
    FlowTable flows_;
    std::set<FlowTable::iterator, FlowIdleOrder> flowsByIdle_;
    std::map<std::uint32_t, std::size_t> flowsBySrc_;
    sim::SimTime flowTimeout_ = sim::seconds(300.0);
    std::uint64_t firewallBlocked_ = 0;

    // NAT state (natSubscribers profiles): public port/id -> binding.
    // Same hygiene as the flow table: idle expiry (when configured),
    // capacity cap with oldest-idle eviction, per-subscriber quota.
    void natOutbound(net::Packet& pkt, const std::string& oif);
    void natInbound(net::Packet& pkt, const std::string& iif);
    struct NatBinding {
        net::Ipv4Address subscriber;
        std::uint16_t subscriberPort = 0;
        sim::SimTime lastActivity{0};
        std::string flowKey;  ///< the natByFlow_ entry to drop with this binding
    };
    using NatTable = std::map<std::uint32_t, NatBinding>;  ///< key: proto<<16 | publicPort
    /// Every write of NatBinding::lastActivity goes through here.
    void touchNatBinding(NatTable::iterator it, sim::SimTime now);
    void dropNatBinding(NatTable::iterator it);
    /// Make room for one more binding for `subscriber`. Returns false
    /// when the per-subscriber quota denies the allocation.
    bool reserveNatBinding(net::Ipv4Address subscriber);
    NatTable natBindings_;
    /// Idle order (last activity, key), popped from the front like flowsByIdle_.
    std::set<std::pair<sim::SimTime, std::uint32_t>> natByIdle_;
    std::map<std::string, std::uint16_t> natByFlow_;    ///< subscriber flow -> public port
    std::map<std::uint32_t, std::size_t> natBySubscriber_;
    std::uint16_t nextNatPort_ = 20000;
    std::uint64_t natTranslations_ = 0;
    std::uint64_t natEvictions_ = 0;
    std::uint64_t natQuotaDenials_ = 0;
};

}  // namespace onelab::umts
