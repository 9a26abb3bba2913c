#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/interface.hpp"
#include "sim/simulator.hpp"
#include "util/logging.hpp"
#include "util/rand.hpp"

namespace onelab::obs {
class Counter;
class Gauge;
}  // namespace onelab::obs

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
/// Each attachment's egress is a drop-tail byte-limited queue that
/// serialises one packet at a time at the access link rate; its
/// aggregate state is the `net.queue.*` family, registered up front.
/// Per-(src,dst) FIFO ordering is enforced: jitter never reorders
/// packets of the same flow direction, matching wired reality.
/// Scheduled serialisations and arrivals point into the Internet, so
/// its simulator must not run on after it is destroyed.
class Internet {
  public:
    Internet(sim::Simulator& simulator, util::RandomStream rng);

    /// Attach an interface: the cloud takes over the interface's tx
    /// handler; packets whose destination matches another attachment
    /// (by address or announced prefix) are delivered there.
    void attach(Interface& iface, AccessLink params);

    /// Detach (e.g. node shutdown); the egress backlog and pending
    /// deliveries are dropped.
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
        std::deque<Packet> egress;     ///< head is on the wire
        std::size_t egressBytes = 0;
        sim::EventHandle serialising;  ///< the head's serialisation; unset when idle
    };

    void forward(Attachment& from, Packet pkt);
    void serialiseHead(Attachment& from);
    /// The head finished serialising: it leaves the queue, crosses
    /// the cloud and the next packet goes on the wire.
    void serialised(Attachment& from);
    /// Loss, routing, transit and jitter, then the FIFO arrival.
    void cross(Attachment& from, Packet pkt);
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
    obs::Counter& queueDropped_;
    obs::Counter& queueCompleted_;
    obs::Gauge& queueDepth_;
};

}  // namespace onelab::net
