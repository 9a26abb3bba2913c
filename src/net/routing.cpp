#include "net/routing.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace onelab::net {

std::string Route::describe() const {
    std::string out = dst.length() == 0 ? "default" : dst.str();
    if (gateway) out += " via " + gateway->str();
    out += " dev " + oifName;
    if (metric != 0) out += " metric " + std::to_string(metric);
    return out;
}

void RoutingTable::addRoute(Route route) {
    const auto it = std::find_if(routes_.begin(), routes_.end(), [&](const Route& r) {
        return r.dst == route.dst && r.oifName == route.oifName && r.gateway == route.gateway;
    });
    if (it != routes_.end())
        *it = std::move(route);
    else
        routes_.push_back(std::move(route));
}

std::size_t RoutingTable::delRoute(Prefix dst, const std::string& oifName) {
    const std::size_t before = routes_.size();
    routes_.erase(std::remove_if(routes_.begin(), routes_.end(),
                                 [&](const Route& r) {
                                     return r.dst == dst &&
                                            (oifName.empty() || r.oifName == oifName);
                                 }),
                  routes_.end());
    return before - routes_.size();
}

std::optional<Route> RoutingTable::lookup(Ipv4Address dst) const {
    const Route* best = nullptr;
    for (const Route& route : routes_) {
        if (!route.dst.contains(dst)) continue;
        if (!best || route.dst.length() > best->dst.length() ||
            (route.dst.length() == best->dst.length() && route.metric < best->metric))
            best = &route;
    }
    if (!best) return std::nullopt;
    return *best;
}

bool PolicyRule::matches(const Packet& pkt) const {
    if (fwmark && pkt.fwmark != *fwmark) return false;
    if (srcSelector && !srcSelector->contains(pkt.ip.src)) return false;
    if (dstSelector && !dstSelector->contains(pkt.ip.dst)) return false;
    return true;
}

std::string PolicyRule::describe() const {
    std::string out = std::to_string(priority) + ":";
    if (srcSelector) out += " from " + srcSelector->str();
    if (dstSelector) out += " to " + dstSelector->str();
    if (fwmark) out += util::format(" fwmark 0x%x", *fwmark);
    out += " lookup " + std::to_string(tableId);
    return out;
}

PolicyRouter::PolicyRouter() {
    tables_.emplace(kMainTable, RoutingTable{});
    // Default catch-all rule, like Linux's `32766: from all lookup main`.
    PolicyRule catchAll;
    catchAll.priority = 32766;
    catchAll.tableId = kMainTable;
    rules_.push_back(catchAll);
}

RoutingTable& PolicyRouter::table(int tableId) { return tables_[tableId]; }

const RoutingTable* PolicyRouter::findTable(int tableId) const {
    const auto it = tables_.find(tableId);
    return it == tables_.end() ? nullptr : &it->second;
}

void PolicyRouter::dropTable(int tableId) {
    if (tableId != kMainTable) tables_.erase(tableId);
}

void PolicyRouter::addRule(PolicyRule rule) {
    const auto pos = std::upper_bound(
        rules_.begin(), rules_.end(), rule,
        [](const PolicyRule& a, const PolicyRule& b) { return a.priority < b.priority; });
    rules_.insert(pos, std::move(rule));
}

std::size_t PolicyRouter::delRule(const PolicyRule& pattern) {
    const std::size_t before = rules_.size();
    rules_.erase(std::remove_if(rules_.begin(), rules_.end(),
                                [&](const PolicyRule& r) {
                                    return r.priority == pattern.priority &&
                                           r.tableId == pattern.tableId &&
                                           r.fwmark == pattern.fwmark &&
                                           r.srcSelector == pattern.srcSelector &&
                                           r.dstSelector == pattern.dstSelector;
                                }),
                 rules_.end());
    return before - rules_.size();
}

util::Result<Route> PolicyRouter::resolve(const Packet& pkt) const {
    for (const PolicyRule& rule : rules_) {
        if (!rule.matches(pkt)) continue;
        const auto it = tables_.find(rule.tableId);
        if (it == tables_.end()) continue;
        if (const auto route = it->second.lookup(pkt.ip.dst)) return *route;
    }
    return util::err(util::Error::Code::not_found,
                     "no route to " + pkt.ip.dst.str());
}

}  // namespace onelab::net
