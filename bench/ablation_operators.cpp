// Ablation/extension: the two UMTS networks of §2.1 — the commercial
// Italian operator versus the private Alcatel-Lucent micro-cell at the
// 3G Reality Center. The paper used both; this bench quantifies how
// the choice of operator changes the VoIP experiment.
#include <cstdio>

#include "scenario/experiment.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace onelab;
using namespace onelab::scenario;

int main() {
    std::printf("=== Ablation: operator choice (commercial vs ALU micro-cell) ===\n");
    std::printf("workload: 72 kbps VoIP-like flow for 120 s over the UMTS path\n\n");

    util::Table table({"operator", "bitrate [kbps]", "mean RTT [ms]", "max RTT [ms]",
                       "mean jitter [ms]", "loss"});
    for (const auto& [name, profile] :
         {std::pair{"commercial (IT)", umts::commercialItalianOperator()},
          std::pair{"ALU micro-cell", umts::alcatelLucentMicrocell()}}) {
        ExperimentOptions options;
        options.workload = Workload::voip_g711;
        options.durationSeconds = 120.0;
        options.seed = 42;
        options.operatorProfile = profile;
        const PathRun run = runPath(PathKind::umts_to_ethernet, options);
        table.addRow({name,
                      util::format("%.1f", util::meanInWindow(run.series.bitrateKbps, 2, 118)),
                      util::format("%.1f", run.summary.meanRttSeconds * 1e3),
                      util::format("%.1f", run.summary.maxRttSeconds * 1e3),
                      util::format("%.2f", run.summary.meanJitterSeconds * 1e3),
                      util::format("%llu", (unsigned long long)run.summary.lost)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("the private cell's dedicated 384 kbps DCH and clean radio floor\n"
                "yield lower and steadier delay than the shared commercial cell.\n");
    return 0;
}
