#include "scenario/experiment.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "ppp/lcp.hpp"

namespace onelab::scenario {

const char* workloadName(Workload workload) noexcept {
    switch (workload) {
        case Workload::voip_g711: return "voip-g711-72kbps";
        case Workload::cbr_1mbps: return "cbr-1mbps";
    }
    return "?";
}

const char* pathName(PathKind path) noexcept {
    switch (path) {
        case PathKind::umts_to_ethernet: return "UMTS-to-Ethernet";
        case PathKind::ethernet_to_ethernet: return "Ethernet-to-Ethernet";
    }
    return "?";
}

ditg::FlowSpec makeWorkload(Workload workload, double durationSeconds) {
    switch (workload) {
        case Workload::voip_g711: return ditg::voipG711Flow(1, durationSeconds);
        case Workload::cbr_1mbps: return ditg::cbr1MbpsFlow(2, durationSeconds);
    }
    throw std::logic_error("unknown workload");
}

PathRun runPath(PathKind path, const ExperimentOptions& options) {
    FleetConfig config = makeUniformFleet(1, options.seed, options.operatorProfile);
    config.umtsSites[0].supervise.enable = options.supervise;
    Fleet fleet{std::move(config)};
    sim::Simulator& sim = fleet.sim();
    UmtsNodeSite& napoli = fleet.umtsSite(0);
    WiredSite& inria = fleet.wiredSite(0);

    PathRun run;

    // Receiver on the INRIA node (root port 9001, inside its slice).
    auto recvSocket = inria.node().openSliceUdp(inria.firstSlice(), 9001);
    if (!recvSocket.ok()) throw std::runtime_error(recvSocket.error().message);
    ditg::ItgRecv receiver{*recvSocket.value()};

    if (path == PathKind::umts_to_ethernet) {
        const auto started = napoli.startUmts();
        if (!started.ok())
            throw std::runtime_error("umts start failed: " + started.error().message);
        const auto added = napoli.addUmtsDestination(inria.address().str() + "/32");
        if (!added.ok())
            throw std::runtime_error("add destination failed: " + added.error().message);
        run.umtsUsed = true;
        run.umtsAddress = started.value().address;
        run.operatorName = started.value().operatorName;

        // Track on-demand bearer upgrades (the Fig. 4 knee).
        if (umts::UmtsSession* session = fleet.operatorNetwork().sessionAt(0)) {
            session->bearer().onUplinkRateChange = [&run, &sim](double oldRate, double newRate) {
                if (newRate > oldRate) {
                    ++run.bearerUpgrades;
                    // Converted to flow-relative time after the run.
                    run.upgradeTimeSeconds = sim::toSeconds(sim.now());
                }
            };
        }
    }

    // Sender in the experiment slice on the Napoli node.
    auto sendSocket = napoli.node().openSliceUdp(napoli.umtsSlice());
    if (!sendSocket.ok()) throw std::runtime_error(sendSocket.error().message);

    ditg::FlowSpec spec = makeWorkload(options.workload, options.durationSeconds);
    const std::uint16_t flowId = spec.flowId;
    util::RandomStream flowRng = util::RandomStream{options.seed}.derive("flow");
    ditg::ItgSend sender{sim, *sendSocket.value(), std::move(spec), inria.address(), 9001,
                         std::move(flowRng)};

    const sim::SimTime flowStart = sim.now();
    sender.start();
    // Run the flow plus a drain tail (RLC buffer + ACK round trips).
    sim.runUntil(flowStart + sim::seconds(options.durationSeconds) + sim::seconds(10.0));

    run.series = ditg::ItgDec::decode(sender.log(), receiver.log(flowId),
                                      options.windowSeconds);
    run.summary = ditg::ItgDec::summarize(sender.log(), receiver.log(flowId));
    run.packetsSent = sender.packetsSent();
    run.packetsReceived = receiver.packetsReceived();
    if (run.upgradeTimeSeconds >= 0.0)
        run.upgradeTimeSeconds -= sim::toSeconds(flowStart);

    if (path == PathKind::umts_to_ethernet) (void)napoli.stopUmts();
    return run;
}

ExperimentResult runExperiment(const ExperimentOptions& options) {
    const bool telemetry = !options.telemetryDir.empty();
    if (telemetry) {
        obs::beginRun();
        // Same-seed runs must reproduce byte-identical telemetry; the
        // LCP magic entropy is the one process-global the link layer
        // folds into its wire bytes (via ACCM byte-stuffing).
        ppp::resetMagicEntropy();
    }

    ExperimentResult result;
    result.workload = options.workload;
    result.durationSeconds = options.durationSeconds;
    result.umts = runPath(PathKind::umts_to_ethernet, options);
    if (telemetry) obs::Tracer::instance().setLane(2);
    result.ethernet = runPath(PathKind::ethernet_to_ethernet, options);

    if (telemetry) {
        obs::Tracer::instance().setEnabled(false);
        const auto written = obs::writeTelemetry(options.telemetryDir);
        if (!written.ok())
            throw std::runtime_error("telemetry export failed: " + written.error().message);
    }
    return result;
}

}  // namespace onelab::scenario
