// Path discovery from a UMTS-equipped PlanetLab node: ping and
// traceroute over both interfaces, showing what an experimenter sees —
// the wired path is one direct hop, the UMTS path crosses the
// operator's GGSN and costs an order of magnitude more delay.
//
// Run:  ./path_discovery [seed]

#include <cstdio>
#include <cstdlib>

#include "net/traceroute.hpp"
#include "scenario/fleet.hpp"

using namespace onelab;
using namespace onelab::scenario;

namespace {

void runTraceroute(Fleet& fleet, const char* label, int sliceXid) {
    WiredSite& inria = fleet.wiredSite(0);
    net::Traceroute traceroute{fleet.sim(), fleet.umtsSite(0).node().stack()};
    net::TracerouteOptions options;
    options.sliceXid = sliceXid;
    std::optional<std::vector<net::TracerouteHop>> hops;
    traceroute.run(inria.address(),
                   [&](std::vector<net::TracerouteHop> h) { hops = std::move(h); }, options);
    fleet.runFor(sim::seconds(30.0));
    std::printf("traceroute to %s (%s):\n", inria.node().hostname().c_str(), label);
    if (!hops) {
        std::printf("  (no result)\n");
        return;
    }
    for (const net::TracerouteHop& hop : *hops) {
        if (hop.timedOut)
            std::printf("  %2d  * * *\n", hop.ttl);
        else
            std::printf("  %2d  %-16s %.1f ms%s\n", hop.ttl, hop.router.str().c_str(),
                        sim::toMillis(hop.rtt), hop.reachedDestination ? "  <- destination" : "");
    }
}

double pingMs(Fleet& fleet, int sliceXid) {
    std::optional<net::PingReply> reply;
    (void)fleet.umtsSite(0).node().stack().ping(fleet.wiredSite(0).address(),
                                                [&](net::PingReply r) { reply = r; }, sliceXid);
    fleet.runFor(sim::seconds(5.0));
    return reply ? sim::toMillis(reply->rtt) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
    Fleet fleet{makeUniformFleet(1, seed)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);

    std::printf("== Path discovery: eth0 vs ppp0 ==\n\n");
    std::printf("ping via eth0: %.1f ms\n", pingMs(fleet, 0));
    runTraceroute(fleet, "eth0, default route", 0);

    const auto started = napoli.startUmts();
    if (!started.ok()) {
        std::fprintf(stderr, "umts start failed: %s\n", started.error().message.c_str());
        return 1;
    }
    (void)napoli.addUmtsDestination(fleet.wiredSite(0).address().str() + "/32");
    std::printf("\nUMTS up: ppp0 %s via %s\n\n", started.value().address.str().c_str(),
                started.value().operatorName.c_str());
    std::printf("ping via ppp0: %.1f ms\n", pingMs(fleet, napoli.umtsSlice().xid));
    runTraceroute(fleet, "ppp0, marked slice traffic", napoli.umtsSlice().xid);

    (void)napoli.stopUmts();
    return 0;
}
