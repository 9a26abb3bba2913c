#pragma once

#include <map>
#include <memory>
#include <vector>

#include "net/interface.hpp"
#include "net/queue.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"

namespace onelab::net {

/// Parameters of one attachment's access link into the cloud.
struct AccessLink {
    double rateBitsPerSecond = 100e6;       ///< egress serialisation rate
    sim::SimTime baseDelay = sim::micros(200);  ///< one-way propagation to the core
    double lossProbability = 0.0;           ///< independent per-packet loss
    double jitterStddevMillis = 0.0;        ///< truncated-normal extra delay
    std::size_t queueBytes = 512 * 1024;    ///< egress drop-tail buffer
};

/// The wired Internet between sites, modelled as a star: every
/// attachment has an access link into a core that adds a per-pair
/// transit delay. This reproduces the paper's Ethernet-to-Ethernet
/// path (Napoli <-> INRIA across GEANT-class research networks) and
/// carries the UMTS operator's traffic once it leaves the GGSN.
///
/// Per-(src,dst) FIFO ordering is enforced: jitter never reorders
/// packets of the same flow direction, matching wired reality.
class Internet {
  public:
    Internet(sim::Simulator& simulator, util::RandomStream rng);

    /// Attach an interface: the cloud takes over the interface's tx
    /// handler; packets whose destination matches another attachment
    /// (by address or announced prefix) are delivered there.
    void attach(Interface& iface, AccessLink params);

    /// Detach (e.g. node shutdown); pending deliveries are dropped.
    void detach(Interface& iface);

    /// Announce that `prefix` is reachable via `iface` (the GGSN
    /// announces the UMTS subscriber pool this way).
    void announcePrefix(Prefix prefix, Interface& iface);
    void withdrawPrefix(Prefix prefix);

    /// Extra one-way transit delay between two attachments
    /// (symmetric). Defaults to `defaultTransitDelay`.
    void setTransitDelay(const Interface& a, const Interface& b, sim::SimTime oneWay);
    void setDefaultTransitDelay(sim::SimTime oneWay) noexcept { defaultTransit_ = oneWay; }

    [[nodiscard]] std::uint64_t deliveredPackets() const noexcept { return delivered_; }
    [[nodiscard]] std::uint64_t lostPackets() const noexcept { return lost_; }
    [[nodiscard]] std::uint64_t unroutablePackets() const noexcept { return unroutable_; }

  private:
    struct Attachment {
        Interface* iface;
        AccessLink params;
        std::unique_ptr<TxQueue> egress;
    };

    void forward(Attachment& from, Packet pkt);
    Attachment* routeTo(Ipv4Address dst);
    [[nodiscard]] sim::SimTime transitBetween(const Interface* a, const Interface* b) const;

    sim::Simulator& sim_;
    util::RandomStream rng_;
    util::Logger log_{"net.internet"};
    std::vector<std::unique_ptr<Attachment>> attachments_;
    std::vector<std::pair<Prefix, Interface*>> prefixes_;
    std::map<std::pair<const Interface*, const Interface*>, sim::SimTime> transit_;
    std::map<std::pair<const Interface*, const Interface*>, sim::SimTime> lastArrival_;
    sim::SimTime defaultTransit_ = sim::millis(5);
    std::uint64_t delivered_ = 0;
    std::uint64_t lost_ = 0;
    std::uint64_t unroutable_ = 0;
};

}  // namespace onelab::net
