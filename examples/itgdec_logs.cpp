// The §3.1 measurement workflow end to end: run a flow over the UMTS
// path, have sender and receiver write their D-ITG-style binary log
// files, "retrieve" them, and decode with ITGDec — exactly the
// sequence the paper describes ("we retrieved the log files from the
// two nodes and we analyzed them by means of ITGDec").
//
// Run:  ./itgdec_logs [seed]

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "ditg/decoder.hpp"
#include "ditg/logfile.hpp"
#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "scenario/fleet.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace onelab;
using namespace onelab::scenario;

int main(int argc, char** argv) {
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

    // --- run the measurement on the testbed ---
    Fleet fleet{makeUniformFleet(1, seed)};
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);
    if (!napoli.startUmts().ok() ||
        !napoli.addUmtsDestination(inria.address().str() + "/32").ok()) {
        std::fprintf(stderr, "UMTS setup failed\n");
        return 1;
    }
    auto rxSocket = inria.node().openSliceUdp(inria.firstSlice(), 9001).value();
    ditg::ItgRecv receiver{*rxSocket};
    auto txSocket = napoli.node().openSliceUdp(napoli.umtsSlice()).value();
    ditg::ItgSend sender{fleet.sim(), *txSocket, ditg::voipG711Flow(1, 30.0),
                         inria.address(), 9001, util::RandomStream{seed}.derive("flow")};
    sender.start();
    fleet.runFor(sim::seconds(35.0));

    // --- write the log files on "both nodes" (under the working
    // directory, so concurrent runs elsewhere never share them) ---
    std::error_code dirError;  // a failure surfaces as the write error below
    std::filesystem::create_directories("out", dirError);
    const std::string senderPath = "out/onelab_umts_sender.itg";
    const std::string receiverPath = "out/onelab_umts_receiver.itg";
    const util::Bytes senderBlob = ditg::logfile::encodeSenderLog(sender.log());
    const util::Bytes receiverBlob = ditg::logfile::encodeReceiverLog(receiver.log(1));
    if (!ditg::logfile::writeFile(senderPath, {senderBlob.data(), senderBlob.size()}).ok() ||
        !ditg::logfile::writeFile(receiverPath, {receiverBlob.data(), receiverBlob.size()})
             .ok()) {
        std::fprintf(stderr, "cannot write log files\n");
        return 1;
    }
    std::printf("wrote %s (%zu bytes) and %s (%zu bytes)\n", senderPath.c_str(),
                senderBlob.size(), receiverPath.c_str(), receiverBlob.size());

    // --- "retrieve" and decode them with ITGDec ---
    const auto senderRead = ditg::logfile::readFile(senderPath);
    const auto receiverRead = ditg::logfile::readFile(receiverPath);
    const auto senderLog = ditg::logfile::decodeSenderLog(
        {senderRead.value().data(), senderRead.value().size()});
    const auto receiverLog = ditg::logfile::decodeReceiverLog(
        {receiverRead.value().data(), receiverRead.value().size()});
    if (!senderLog.ok() || !receiverLog.ok()) {
        std::fprintf(stderr, "undecodable logs\n");
        return 1;
    }

    const ditg::QosSummary summary =
        ditg::ItgDec::summarize(senderLog.value(), receiverLog.value());
    const ditg::QosSeries series =
        ditg::ItgDec::decode(senderLog.value(), receiverLog.value());

    std::printf("\nITGDec summary (30 s VoIP-like flow over UMTS):\n");
    util::Table table({"metric", "value"});
    table.addRow({"packets sent / received",
                  util::format("%llu / %llu", (unsigned long long)summary.sent,
                               (unsigned long long)summary.received)});
    table.addRow({"mean bitrate", util::format("%.1f kbps", summary.meanBitrateKbps)});
    table.addRow({"mean / max jitter", util::format("%.2f / %.2f ms",
                                                    summary.meanJitterSeconds * 1e3,
                                                    summary.maxJitterSeconds * 1e3)});
    table.addRow({"mean / max RTT", util::format("%.1f / %.1f ms",
                                                 summary.meanRttSeconds * 1e3,
                                                 summary.maxRttSeconds * 1e3)});
    table.addRow({"mean OWD", util::format("%.1f ms", summary.meanOwdSeconds * 1e3)});
    std::printf("%s\n", table.render().c_str());

    std::printf("first five 200 ms windows (bitrate / RTT):\n");
    for (std::size_t i = 0; i < 5 && i < series.bitrateKbps.size(); ++i) {
        const double t = series.bitrateKbps[i].timeSeconds;
        double rtt = 0.0;
        for (const auto& point : series.rttSeconds)
            if (point.timeSeconds == t) rtt = point.value;
        std::printf("  t=%.1fs  %.1f kbps  %.1f ms\n", t, series.bitrateKbps[i].value,
                    rtt * 1e3);
    }
    (void)napoli.stopUmts();
    return summary.received > 0 ? 0 : 1;
}
