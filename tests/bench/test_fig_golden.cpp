// Golden-file regression for the seven paper-figure benches: a
// fixed-seed run must reproduce the committed per-figure CSV digest
// exactly. The CSV bytes are what `figN --csv` writes (see
// bench::figureCsv — a FROZEN format), so any drift in the simulation,
// the workloads, or the export path shows up here as a digest
// mismatch.
//
// To regenerate after an INTENTIONAL behaviour change: run this test,
// copy the "actual" digests it prints into kGoldenFigures below, and
// say why in the commit message.
#include <gtest/gtest.h>

#include <string>

#include "figure_common.hpp"
#include "obs/telemetry.hpp"
#include "ppp/lcp.hpp"
#include "util/md5.hpp"

namespace onelab::bench {
namespace {

struct GoldenFigure {
    const char* id;
    scenario::Workload workload;
    Metric metric;
    const char* md5;
};

// One experiment run per workload covers all its figures: the VoIP run
// yields figures 1-3, the CBR run figures 4-7 (identical series, just
// a different column selected per figure).
constexpr GoldenFigure kGoldenFigures[] = {
    {"fig1_voip_bitrate", scenario::Workload::voip_g711, Metric::bitrate_kbps,
     "e5d7e583fb7eee52b9517eb1f0cdb797"},
    {"fig2_voip_jitter", scenario::Workload::voip_g711, Metric::jitter_seconds,
     "46566da25a8116778a6b7b0cad033e37"},
    {"fig3_voip_rtt", scenario::Workload::voip_g711, Metric::rtt_seconds,
     "134aae9a752eb379f88c83fd803d7aa1"},
    {"fig4_cbr_bitrate", scenario::Workload::cbr_1mbps, Metric::bitrate_kbps,
     "2d3d482a81ec331eb51379f7736a7975"},
    {"fig5_cbr_jitter", scenario::Workload::cbr_1mbps, Metric::jitter_seconds,
     "c1a32c4305a88271ef6981be814fad05"},
    {"fig6_cbr_loss", scenario::Workload::cbr_1mbps, Metric::loss_packets,
     "63fbd39d92f6120020796883aeb5c247"},
    {"fig7_cbr_rtt", scenario::Workload::cbr_1mbps, Metric::rtt_seconds,
     "fc779dd7146934e1167eef844a290639"},
};

std::string md5Hex(const std::string& text) {
    const util::Md5::Digest digest = util::Md5::hash(
        {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()});
    std::string hex;
    hex.reserve(2 * digest.size());
    for (const std::uint8_t byte : digest) {
        static const char* kDigits = "0123456789abcdef";
        hex += kDigits[byte >> 4];
        hex += kDigits[byte & 0xf];
    }
    return hex;
}

/// Run one workload exactly as a fresh `figN` process does (paper
/// seed 42, 120 s, entropy reset) and check every figure it feeds.
/// With `supervised` the link supervisor rides along; on a fault-free
/// run its probes and hooks must be a byte-exact no-op, so the SAME
/// digests apply.
void checkWorkload(scenario::Workload workload, bool supervised = false) {
    obs::beginRun();
    ppp::resetMagicEntropy();
    scenario::ExperimentOptions options;
    options.workload = workload;
    options.supervise = supervised;
    const scenario::ExperimentResult result = scenario::runExperiment(options);
    for (const GoldenFigure& golden : kGoldenFigures) {
        if (golden.workload != workload) continue;
        const std::string csv = figureCsv(result, golden.metric);
        EXPECT_EQ(md5Hex(csv), golden.md5)
            << golden.id << ": CSV drifted (" << csv.size() << " bytes). If the "
            << "change is intentional, update kGoldenFigures with the actual digest.";
    }
}

TEST(FigGolden, VoipFiguresReproduce) {
    checkWorkload(scenario::Workload::voip_g711);
}

TEST(FigGolden, CbrFiguresReproduce) {
    checkWorkload(scenario::Workload::cbr_1mbps);
}

// The supervisor guard: enabling supervision on a fault-free run must
// not move a single byte of any figure CSV. The adaptive LCP echo only
// probes a silent line (the workloads keep it busy), and a supervisor
// that never sees trouble never acts.
TEST(FigGolden, VoipFiguresReproduceSupervised) {
    checkWorkload(scenario::Workload::voip_g711, /*supervised=*/true);
}

TEST(FigGolden, CbrFiguresReproduceSupervised) {
    checkWorkload(scenario::Workload::cbr_1mbps, /*supervised=*/true);
}

}  // namespace
}  // namespace onelab::bench
