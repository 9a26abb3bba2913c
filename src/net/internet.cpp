#include "net/internet.hpp"

#include <algorithm>
#include <cmath>

namespace onelab::net {

Internet::Internet(sim::Simulator& simulator, util::RandomStream rng)
    : sim_(simulator), rng_(std::move(rng)) {}

void Internet::attach(Interface& iface, AccessLink params) {
    auto attachment = std::make_unique<Attachment>();
    attachment->iface = &iface;
    attachment->params = params;
    attachment->egress =
        std::make_unique<TxQueue>(sim_, params.rateBitsPerSecond, params.queueBytes);
    Attachment* raw = attachment.get();
    iface.setTxHandler([this, raw](Packet pkt) { forward(*raw, std::move(pkt)); });
    attachments_.push_back(std::move(attachment));
}

void Internet::detach(Interface& iface) {
    prefixes_.erase(std::remove_if(prefixes_.begin(), prefixes_.end(),
                                   [&](const auto& entry) { return entry.second == &iface; }),
                    prefixes_.end());
    const auto it = std::find_if(attachments_.begin(), attachments_.end(),
                                 [&](const auto& a) { return a->iface == &iface; });
    if (it != attachments_.end()) {
        (*it)->egress->clear();
        iface.setTxHandler(nullptr);
        attachments_.erase(it);
    }
}

void Internet::announcePrefix(Prefix prefix, Interface& iface) {
    prefixes_.emplace_back(prefix, &iface);
}

void Internet::withdrawPrefix(Prefix prefix) {
    prefixes_.erase(std::remove_if(prefixes_.begin(), prefixes_.end(),
                                   [&](const auto& entry) { return entry.first == prefix; }),
                    prefixes_.end());
}

void Internet::setTransitDelay(const Interface& a, const Interface& b, sim::SimTime oneWay) {
    transit_[{&a, &b}] = oneWay;
    transit_[{&b, &a}] = oneWay;
}

sim::SimTime Internet::transitBetween(const Interface* a, const Interface* b) const {
    const auto it = transit_.find({a, b});
    return it == transit_.end() ? defaultTransit_ : it->second;
}

Internet::Attachment* Internet::routeTo(Ipv4Address dst) {
    for (const auto& attachment : attachments_)
        if (attachment->iface->address() == dst) return attachment.get();
    // Longest announced prefix wins (the GGSN's subscriber pool).
    Interface* best = nullptr;
    int bestLength = -1;
    for (const auto& [prefix, iface] : prefixes_) {
        if (prefix.contains(dst) && prefix.length() > bestLength) {
            best = iface;
            bestLength = prefix.length();
        }
    }
    if (best) {
        for (const auto& attachment : attachments_)
            if (attachment->iface == best) return attachment.get();
    }
    return nullptr;
}

void Internet::forward(Attachment& from, Packet pkt) {
    const std::size_t bytes = pkt.wireSize();
    // Egress serialisation at the access link rate, drop-tail.
    auto shared = std::make_shared<Packet>(std::move(pkt));
    from.egress->enqueue(bytes, [this, &from, shared] {
        if (rng_.chance(from.params.lossProbability)) {
            ++lost_;
            return;
        }
        Attachment* to = routeTo(shared->ip.dst);
        if (!to) {
            ++unroutable_;
            log_.debug() << "unroutable " << shared->describe();
            return;
        }
        sim::SimTime delay = from.params.baseDelay + to->params.baseDelay +
                             transitBetween(from.iface, to->iface);
        const double jitterMs = std::max(
            0.0, rng_.normal(0.0, from.params.jitterStddevMillis + to->params.jitterStddevMillis));
        delay += sim::millis(jitterMs);

        // FIFO per direction: arrival never precedes the previous one.
        const std::pair<const Interface*, const Interface*> key{from.iface, to->iface};
        sim::SimTime arrival = sim_.now() + delay;
        const auto last = lastArrival_.find(key);
        if (last != lastArrival_.end()) arrival = std::max(arrival, last->second);
        lastArrival_[key] = arrival;

        Interface* destIface = to->iface;
        sim_.scheduleAt(arrival, [this, destIface, shared] {
            // Destination may have detached meanwhile.
            const auto it = std::find_if(attachments_.begin(), attachments_.end(),
                                         [&](const auto& a) { return a->iface == destIface; });
            if (it == attachments_.end()) return;
            ++delivered_;
            destIface->deliver(std::move(*shared));
        });
    });
}

}  // namespace onelab::net
