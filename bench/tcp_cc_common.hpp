#pragma once

#include <string>
#include <vector>

#include "scenario/fleet.hpp"

namespace onelab::bench {

/// One cell of the CC × loss-rate grid: a single-UE fleet drives the
/// D-ITG TCP probe flow over the 3G bearer while the RLC loses PDUs
/// at `lossRate` for the whole run.
struct CcSweepPoint {
    net::CcAlgorithm congestion = net::CcAlgorithm::newreno;
    double lossRate = 0.0;
    scenario::FleetTcpRun run;
};

/// The grid every consumer sweeps: 3 CCs × {0, 2, 5}% RLC loss.
[[nodiscard]] const std::vector<net::CcAlgorithm>& ccSweepAlgorithms();
[[nodiscard]] const std::vector<double>& ccSweepLossRates();

/// Run the full grid. Deterministic for a given seed.
[[nodiscard]] std::vector<CcSweepPoint> runCcSweep(std::uint64_t seed,
                                                   double durationSeconds);

/// The exact CSV `ext_tcp_cc_compare --csv` writes. The byte format is
/// FROZEN — the golden digest in tests/bench pins it.
[[nodiscard]] std::string ccSweepCsv(const std::vector<CcSweepPoint>& points);

}  // namespace onelab::bench
