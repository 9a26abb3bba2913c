#pragma once

#include "ditg/decoder.hpp"
#include "ditg/flow.hpp"
#include "ditg/receiver.hpp"
#include "ditg/sender.hpp"
#include "scenario/fleet.hpp"

namespace onelab::scenario {

/// The two traffic classes of §3.1.
enum class Workload { voip_g711, cbr_1mbps };

/// The two end-to-end paths the paper compares.
enum class PathKind { umts_to_ethernet, ethernet_to_ethernet };

[[nodiscard]] const char* workloadName(Workload workload) noexcept;
[[nodiscard]] const char* pathName(PathKind path) noexcept;

/// Outcome of driving one workload over one path.
struct PathRun {
    ditg::QosSeries series;
    ditg::QosSummary summary;
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsReceived = 0;
    // UMTS-path extras:
    bool umtsUsed = false;
    net::Ipv4Address umtsAddress;
    std::string operatorName;
    int bearerUpgrades = 0;
    double upgradeTimeSeconds = -1.0;  ///< relative to flow start; -1 = none
};

/// A full §3 experiment: one workload over both paths.
struct ExperimentResult {
    Workload workload{};
    double durationSeconds = 0.0;
    PathRun umts;
    PathRun ethernet;
};

/// Options for the proof-of-concept characterization experiment.
struct ExperimentOptions {
    Workload workload = Workload::voip_g711;
    double durationSeconds = 120.0;
    double windowSeconds = 0.2;
    std::uint64_t seed = 42;
    umts::OperatorProfile operatorProfile = umts::commercialItalianOperator();
    /// Link supervision on the UMTS node (the golden figure tests check
    /// that it is a no-op on a fault-free run).
    bool supervise = false;
    /// When non-empty, runExperiment() arms the obs subsystem (fresh
    /// registry + enabled tracer) and dumps metrics.json plus a Chrome
    /// trace.json into this directory at the end of the run. The UMTS
    /// path records on trace lane (tid) 1, the Ethernet path on lane 2.
    std::string telemetryDir;
};

/// Build the FlowSpec for a workload.
[[nodiscard]] ditg::FlowSpec makeWorkload(Workload workload, double durationSeconds);

/// Drive one workload over one path on a fresh paper testbed, the
/// 1-UE fleet `makeUniformFleet(1)`. For the UMTS path this performs
/// the full §2 workflow: vsys `umts start`, `umts add destination
/// <receiver>`, traffic, `umts stop`.
[[nodiscard]] PathRun runPath(PathKind path, const ExperimentOptions& options);

/// Run the workload over both paths (paper §3.2): same seed, two
/// independent testbeds, directly comparable series.
[[nodiscard]] ExperimentResult runExperiment(const ExperimentOptions& options);

}  // namespace onelab::scenario
