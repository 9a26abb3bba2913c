// Extension experiment: the DOWNLINK direction the paper leaves for
// future work. The HSDPA-class downlink (1.8 Mbps) is an order of
// magnitude faster than the uplink, so the same 1 Mbps CBR flow that
// crushes the uplink fits downstream. The receiver first punches a
// hole through the operator's stateful firewall (one upstream packet),
// exactly what a real PlanetLab experimenter would have to do.
#include <cstdio>

#include "ditg/decoder.hpp"
#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "scenario/fleet.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace onelab;
using namespace onelab::scenario;

namespace {

ditg::QosSummary downlinkRun(double mbps, std::uint64_t seed) {
    Fleet fleet{makeUniformFleet(1, seed)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    const auto started = napoli.startUmts();
    if (!started.ok()) return {};
    (void)napoli.addUmtsDestination(inria.address().str() + "/32");

    // Receiver lives in the UMTS slice. Punch the firewall hole from
    // the SAME socket toward the sender's (fixed) port, so the
    // operator's conntrack records the exact 5-tuple the downstream
    // flow will reverse.
    auto rxSocket = napoli.node().openSliceUdp(napoli.umtsSlice(), 9001).value();
    (void)rxSocket->sendTo(inria.address(), 9002, util::Bytes{1});
    fleet.runFor(sim::seconds(2.0));
    ditg::ItgRecv receiver{*rxSocket};

    // Sender at INRIA (fixed source port 9002) toward the subscriber.
    auto txSocket = inria.node().openSliceUdp(inria.firstSlice(), 9002).value();
    const double pps = mbps * 1e6 / 8.0 / 1024.0;
    ditg::FlowSpec spec = ditg::cbrFlow(9, pps, 1024, 30.0, "downlink");
    ditg::ItgSend sender{fleet.sim(), *txSocket, std::move(spec), started.value().address, 9001,
                         util::RandomStream{seed}.derive("down")};
    sender.start();
    fleet.runFor(sim::seconds(40.0));
    return ditg::ItgDec::summarize(sender.log(), receiver.log(9));
}

}  // namespace

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
    std::printf("=== Extension: downlink characterization (HSDPA direction) ===\n");
    std::printf("UDP CBR INRIA -> UMTS subscriber, 1024 B packets, 30 s each, seed %llu\n\n",
                (unsigned long long)seed);

    util::Table table({"offered [Mbps]", "goodput [kbps]", "loss", "mean OWD [ms]",
                       "mean jitter [ms]"});
    for (const double mbps : {0.5, 1.0, 1.5, 2.5}) {
        const ditg::QosSummary summary = downlinkRun(mbps, seed);
        table.addRow({util::format("%.1f", mbps),
                      util::format("%.1f", summary.meanBitrateKbps),
                      util::format("%.1f%%", summary.lossRate * 100.0),
                      util::format("%.1f", summary.meanOwdSeconds * 1e3),
                      util::format("%.2f", summary.meanJitterSeconds * 1e3)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("The 1 Mbps flow that saturates the uplink (Figs 4-7) fits the\n"
                "1.8 Mbps downlink with no loss; pushing past the HSDPA rate\n"
                "reproduces the same buffer-and-drop behaviour downstream.\n");
    return 0;
}
