// Extension experiment: TCP over the UMTS uplink. The deep RLC buffer
// that caps Fig. 7's RTT at ~3 s becomes classic bufferbloat once a
// TCP bulk upload fills it: goodput sits at the bearer rate while the
// latency floor for everything else rises by orders of magnitude.
// (The kind of follow-up study the integrated testbed was built for.)
//
// Usage: ext_tcp_bufferbloat [seed] [--cc reno|newreno|cubic]
#include <cstdio>
#include <cstring>

#include "net/tcp.hpp"
#include "scenario/fleet.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace onelab;
using namespace onelab::scenario;

namespace {

struct UploadResult {
    double goodputKbps = 0.0;
    double idleRttMs = 0.0;
    double loadedRttMs = 0.0;
    std::uint64_t retransmissions = 0;
    double srttMs = 0.0;
};

double pingMs(Fleet& fleet, int sliceXid) {
    std::optional<net::PingReply> reply;
    (void)fleet.umtsSite(0).node().stack().ping(fleet.wiredSite(0).address(),
                                                [&](net::PingReply r) { reply = r; }, sliceXid);
    fleet.runFor(sim::seconds(10.0));
    return reply ? sim::toMillis(reply->rtt) : -1.0;
}

UploadResult uploadOver(bool viaUmts, std::uint64_t seed, net::CcAlgorithm cc) {
    Fleet fleet{makeUniformFleet(1, seed)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    int sliceXid = 0;
    if (viaUmts) {
        if (!napoli.startUmts().ok() ||
            !napoli.addUmtsDestination(inria.address().str() + "/32").ok())
            return {};
        sliceXid = napoli.umtsSlice().xid;
    }
    net::TcpHost client{fleet.sim(), napoli.node().stack(), util::RandomStream{seed}};
    net::TcpHost server{fleet.sim(), inria.node().stack(), util::RandomStream{seed + 1}};

    UploadResult result;
    result.idleRttMs = pingMs(fleet, sliceXid);

    std::size_t received = 0;
    sim::SimTime lastByteAt{};
    (void)server.listen(8080, [&](net::TcpConnection& c) {
        c.onData = [&](util::ByteView d) {
            received += d.size();
            lastByteAt = fleet.now();
        };
    });
    net::TcpOptions options;
    options.congestion = cc;
    net::TcpConnection* conn =
        client.connect(inria.address(), 8080, sliceXid, {}, options);
    conn->onConnected = [&] {
        const util::Bytes blob(2 * 1024 * 1024, 0x42);  // 2 MiB upload
        (void)conn->send({blob.data(), blob.size()});
    };
    const sim::SimTime start = fleet.now();
    const double measureSeconds = 60.0;
    // Measure the loaded RTT while the transfer is still in progress
    // (early on, so even the fast wired path has data in flight).
    fleet.runUntil(start + sim::millis(viaUmts ? 20000 : 300));
    result.loadedRttMs = pingMs(fleet, sliceXid);
    fleet.runUntil(start + sim::seconds(measureSeconds));
    const double activeSeconds =
        lastByteAt > start ? sim::toSeconds(lastByteAt - start) : measureSeconds;
    result.goodputKbps = double(received) * 8.0 / activeSeconds / 1000.0;
    result.retransmissions = conn->stats().retransmissions;
    result.srttMs = conn->stats().srttSeconds * 1e3;
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t seed = 42;
    net::CcAlgorithm cc = net::CcAlgorithm::newreno;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cc") == 0 && i + 1 < argc) {
            const auto parsed = net::ccFromName(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "unknown --cc algorithm: %s\n", argv[i]);
                return 2;
            }
            cc = *parsed;
        } else {
            seed = std::strtoull(argv[i], nullptr, 10);
        }
    }
    std::printf("=== Extension: TCP bulk upload and bufferbloat over UMTS ===\n");
    std::printf("2 MiB upload Napoli -> INRIA, 60 s measurement, seed %llu, %s\n\n",
                (unsigned long long)seed, net::ccName(cc));

    const UploadResult umts = uploadOver(true, seed, cc);
    const UploadResult eth = uploadOver(false, seed, cc);

    util::Table table({"path", "goodput [kbps]", "idle RTT [ms]", "loaded RTT [ms]",
                       "TCP srtt [ms]", "retransmissions"});
    table.addRow({"UMTS (144/384 kbps DCH)", util::format("%.1f", umts.goodputKbps),
                  util::format("%.1f", umts.idleRttMs), util::format("%.1f", umts.loadedRttMs),
                  util::format("%.1f", umts.srttMs), std::to_string(umts.retransmissions)});
    table.addRow({"Ethernet (100 Mbps)", util::format("%.1f", eth.goodputKbps),
                  util::format("%.1f", eth.idleRttMs), util::format("%.1f", eth.loadedRttMs),
                  util::format("%.1f", eth.srttMs), std::to_string(eth.retransmissions)});
    std::printf("%s\n", table.render().c_str());
    std::printf("TCP pins the UMTS goodput at the bearer rate, and the standing queue\n"
                "in the RLC buffer inflates everyone's RTT by ~%0.0fx — the uplink\n"
                "behaviour behind the paper's recommendation to keep control traffic\n"
                "(ssh, vsys) on the wired interface.\n",
                umts.idleRttMs > 0 ? umts.loadedRttMs / umts.idleRttMs : 0.0);
    return 0;
}
