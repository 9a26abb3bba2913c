#include "tcp_cc_common.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"
#include "ppp/lcp.hpp"
#include "umts/bearer.hpp"
#include "umts/network.hpp"
#include "util/strings.hpp"

namespace onelab::bench {

const std::vector<net::CcAlgorithm>& ccSweepAlgorithms() {
    static const std::vector<net::CcAlgorithm> kAlgorithms{
        net::CcAlgorithm::reno, net::CcAlgorithm::newreno, net::CcAlgorithm::cubic};
    return kAlgorithms;
}

const std::vector<double>& ccSweepLossRates() {
    static const std::vector<double> kLossRates{0.0, 0.02, 0.05};
    return kLossRates;
}

std::vector<CcSweepPoint> runCcSweep(std::uint64_t seed, double durationSeconds) {
    std::vector<CcSweepPoint> points;
    for (const net::CcAlgorithm congestion : ccSweepAlgorithms()) {
        for (const double lossRate : ccSweepLossRates()) {
            // Fresh fleet per point: the sweep compares algorithms on
            // identical substrates, not on a shared warm cell.
            obs::beginRun();
            ppp::resetMagicEntropy();
            scenario::Fleet fleet{scenario::makeUniformFleet(1, seed)};
            const auto started = fleet.startAll();
            if (!started.ok())
                throw std::runtime_error("fleet start failed: " +
                                         started.error().message);
            const auto routed = fleet.addDestinationAll();
            if (!routed.ok())
                throw std::runtime_error("fleet routing failed: " +
                                         routed.error().message);
            if (lossRate > 0.0) {
                umts::UmtsSession* session = fleet.operatorNetwork().sessionAt(0);
                if (!session) throw std::runtime_error("no session after start");
                // Cover the whole flow (plus drain) so the point sees
                // a steady loss floor, not a burst edge.
                session->bearer().injectLossBurst(
                    lossRate, sim::seconds(durationSeconds + 30.0));
            }
            CcSweepPoint point;
            point.congestion = congestion;
            point.lossRate = lossRate;
            point.run = fleet.runTcp(0, durationSeconds, congestion);
            points.push_back(std::move(point));
        }
    }
    return points;
}

std::string ccSweepCsv(const std::vector<CcSweepPoint>& points) {
    std::string csv =
        "cc,loss_pct,probes_sent,probes_received,goodput_kbps,mean_owd_ms,"
        "retransmissions,timeouts,fast_retransmits,bytes_acked\n";
    for (const CcSweepPoint& point : points) {
        csv += net::ccName(point.congestion);
        csv += ',' + util::format("%.1f", point.lossRate * 100.0);
        csv += ',' + std::to_string(point.run.probesSent);
        csv += ',' + std::to_string(point.run.probesReceived);
        csv += ',' + util::format("%.3f", point.run.summary.meanBitrateKbps);
        csv += ',' + util::format("%.3f", point.run.summary.meanOwdSeconds * 1e3);
        csv += ',' + std::to_string(point.run.tcp.retransmissions);
        csv += ',' + std::to_string(point.run.tcp.timeouts);
        csv += ',' + std::to_string(point.run.tcp.fastRetransmits);
        csv += ',' + std::to_string(point.run.tcp.bytesAcked);
        csv += '\n';
    }
    return csv;
}

}  // namespace onelab::bench
