// Quickstart: bring UMTS connectivity up on a PlanetLab node and push
// a few probe packets across it — the full §2 workflow end to end.
//
//   slice --vsys--> umts backend --comgt/wvdial--> modem --PPP--> GGSN
//
// Run:  ./quickstart [seed]

#include <cstdio>
#include <cstdlib>

#include "ditg/decoder.hpp"
#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "scenario/fleet.hpp"
#include "util/logging.hpp"

using namespace onelab;

int main(int argc, char** argv) {
    util::LogConfig::instance().setLevel(util::LogLevel::info);

    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

    // The paper's testbed: one UMTS-equipped node, one wired receiver.
    scenario::Fleet fleet{scenario::makeUniformFleet(1, seed)};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    scenario::WiredSite& inria = fleet.wiredSite(0);
    fleet.sim().attachLogClock();

    std::printf("== OneLab UMTS quickstart (seed %llu) ==\n", (unsigned long long)seed);
    std::printf("Napoli node:  %s (eth0 %s)\n", napoli.hostname().c_str(),
                napoli.ethAddress().str().c_str());
    std::printf("INRIA node:   %s (eth0 %s)\n", inria.hostname().c_str(),
                inria.address().str().c_str());
    std::printf("Operator:     %s (APN %s)\n",
                fleet.operatorNetwork().profile().displayName.c_str(),
                fleet.operatorNetwork().profile().apn.c_str());

    // 1. `umts start` from inside the slice (via vsys).
    const auto started = napoli.startUmts();
    if (!started.ok()) {
        std::printf("umts start FAILED: %s\n", started.error().message.c_str());
        return 1;
    }
    std::printf("\n`umts start` -> connected\n");
    std::printf("  ppp0 address: %s\n", started.value().address.str().c_str());
    std::printf("  operator:     %s\n", started.value().operatorName.c_str());
    std::printf("  signal (CSQ): %d\n", started.value().signalQuality);

    // 2. Route the INRIA receiver through the UMTS connection.
    const auto added = napoli.addUmtsDestination(inria.address().str() + "/32");
    if (!added.ok()) {
        std::printf("add destination FAILED: %s\n", added.error().message.c_str());
        return 1;
    }
    std::printf("`umts add destination %s/32` -> ok\n",
                inria.address().str().c_str());

    // 3. Ten seconds of VoIP-like probes through the UMTS link.
    auto recvSocket = inria.node().openSliceUdp(inria.firstSlice(), 9001).value();
    ditg::ItgRecv receiver{*recvSocket};
    auto sendSocket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ditg::FlowSpec spec = ditg::voipG711Flow(1, 10.0);
    ditg::ItgSend sender{fleet.sim(), *sendSocket, std::move(spec), inria.address(), 9001,
                         util::RandomStream{seed}.derive("flow")};
    sender.start();
    fleet.runFor(sim::seconds(13.0));

    const auto summary = ditg::ItgDec::summarize(sender.log(), receiver.log(1));
    std::printf("\n10 s VoIP-like flow over UMTS:\n");
    std::printf("  sent=%llu received=%llu lost=%llu (%.2f%%)\n",
                (unsigned long long)summary.sent, (unsigned long long)summary.received,
                (unsigned long long)summary.lost, summary.lossRate * 100.0);
    std::printf("  bitrate  mean %.1f kbps\n", summary.meanBitrateKbps);
    std::printf("  RTT      mean %.1f ms, max %.1f ms\n", summary.meanRttSeconds * 1e3,
                summary.maxRttSeconds * 1e3);
    std::printf("  jitter   mean %.2f ms, max %.2f ms\n", summary.meanJitterSeconds * 1e3,
                summary.maxJitterSeconds * 1e3);

    // 4. Tear down.
    const auto stopped = napoli.stopUmts();
    std::printf("\n`umts stop` -> %s\n", stopped.ok() ? "ok" : stopped.error().message.c_str());
    return summary.received > 0 && stopped.ok() ? 0 : 1;
}
