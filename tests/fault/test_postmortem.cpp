// Post-mortem acceptance: a supervised link driven to FAILED_OVER by a
// known fault plan must leave a flight.json behind, and that dump must
// parse (util::JsonValue) and reconstruct the fault/ladder sequence in
// order — the first drop, the recovery, the second drop, the park.
// This is the workflow EXPERIMENTS.md documents: soak fails, read the
// black box with tools/obsq, see exactly what the ladder did.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "obs/run_context.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "scenario/fleet.hpp"
#include "supervise/supervisor.hpp"
#include "util/json.hpp"

namespace onelab::fault {
namespace {

template <typename Pred>
bool settle(scenario::Fleet& fleet, sim::SimTime patience, Pred&& pred) {
    const sim::SimTime deadline = fleet.now() + patience;
    while (!pred() && fleet.now() < deadline)
        fleet.runFor(sim::millis(500));
    return pred();
}

FaultPlan dropAt(sim::SimTime at) {
    FaultPlan plan;
    plan.add({at, FaultKind::bearer_drop, 0, 0.0, {}});
    return plan;
}

TEST(PostMortem, ParkedSupervisorDumpsAReconstructibleFlightRecording) {
    // Private observability world: the attached sim clock dies with the
    // context instead of dangling into the next test.
    obs::RunContext context{7};
    obs::beginRun();
    const std::string path = testing::TempDir() + "onelab_postmortem_flight.json";
    std::remove(path.c_str());
    obs::Tracer& recorder = obs::Tracer::instance();
    recorder.setDumpPath(path);

    scenario::FleetConfig config = scenario::makeUniformFleet(1);
    scenario::UmtsNodeSiteConfig::Supervise& supervision = config.umtsSites[0].supervise;
    supervision.enable = true;
    supervision.config.stabilityWindow = sim::seconds(5.0);
    // Two flaps inside the window trip the breaker: the second known
    // drop parks the link, which is the dump trigger under test.
    supervision.config.breaker.flapThreshold = 2;
    supervision.config.breaker.window = sim::seconds(300.0);
    supervision.config.breaker.cooldown = sim::seconds(120.0);
    scenario::Fleet fleet{config};
    scenario::UmtsNodeSite& napoli = fleet.umtsSite(0);
    fleet.sim().attachLogClock();  // flight entries stamped with sim time
    ASSERT_TRUE(napoli.startUmts().ok());
    supervise::LinkSupervisor* supervisor = napoli.supervisor();
    ASSERT_NE(supervisor, nullptr);

    // Known fault plan, first event: drop the bearer 1 s from now.
    FaultInjector firstDrop{fleet, dropAt(fleet.now() + sim::seconds(1.0))};
    firstDrop.arm();
    ASSERT_TRUE(settle(fleet, sim::seconds(120.0), [&] {
        return supervisor->incidents() >= 1 &&
               supervisor->health() == supervise::Health::healthy;
    })) << "first drop did not recover";
    EXPECT_EQ(recorder.dumps(), 0u) << "a recovered incident must not dump";

    // Second known drop inside the breaker window: park + dump.
    FaultInjector secondDrop{fleet, dropAt(fleet.now() + sim::seconds(1.0))};
    secondDrop.arm();
    ASSERT_TRUE(settle(fleet, sim::seconds(30.0), [&] {
        return supervisor->health() == supervise::Health::failed_over;
    })) << "second drop did not trip the breaker";
    EXPECT_EQ(recorder.dumps(), 1u);

    // The black box is on disk, parses, and carries the story.
    const auto doc = util::JsonValue::parseFile(path);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_NE(doc.value().stringOr("reason", "").find("parked (failed_over)"),
              std::string::npos);
    const util::JsonValue* entries = doc.value().find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_TRUE(entries->isArray());

    // Reconstruct the sequence: drop #1, healthy -> recovering,
    // recovery back to healthy, drop #2, then the failed_over edge —
    // strictly in that order.
    std::vector<std::size_t> dropIndexes;
    std::size_t firstRecovering = SIZE_MAX, backHealthy = SIZE_MAX, parked = SIZE_MAX;
    const auto& list = entries->array();
    for (std::size_t i = 0; i < list.size(); ++i) {
        const util::JsonValue& entry = list[i];
        const std::string kind = entry.stringOr("kind", "");
        const std::string cat = entry.stringOr("cat", "");
        const std::string detail = entry.stringOr("detail", "");
        if (kind == "event" && cat == "fault" &&
            entry.stringOr("name", "") == "bearer_drop")
            dropIndexes.push_back(i);
        if (kind == "transition" && cat == "supervise") {
            if (firstRecovering == SIZE_MAX && detail == "healthy -> recovering")
                firstRecovering = i;
            if (firstRecovering != SIZE_MAX && backHealthy == SIZE_MAX &&
                detail.find("-> healthy") != std::string::npos)
                backHealthy = i;
            if (detail.find("-> failed_over") != std::string::npos) parked = i;
        }
    }
    ASSERT_GE(dropIndexes.size(), 2u) << "both plan events must be on record";
    ASSERT_NE(firstRecovering, SIZE_MAX);
    ASSERT_NE(backHealthy, SIZE_MAX);
    ASSERT_NE(parked, SIZE_MAX);
    EXPECT_LT(dropIndexes.front(), firstRecovering);
    EXPECT_LT(firstRecovering, backHealthy);
    EXPECT_LT(backHealthy, dropIndexes[1]);
    EXPECT_LT(dropIndexes[1], parked);

    std::remove(path.c_str());
    recorder.setDumpPath("");
    recorder.clear();
}

}  // namespace
}  // namespace onelab::fault
