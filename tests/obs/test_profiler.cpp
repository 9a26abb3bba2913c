// Profiler: self-time attribution under a deterministic clock, the
// disabled fast path, stack-overflow accounting, and the profile.json
// shape (fixed category order, zeros included) that makes same-seed
// exports byte-comparable.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "ppp/framer.hpp"
#include "util/json.hpp"

namespace onelab::obs {
namespace {

/// A hand-cranked clock: every read returns the value set by the test.
struct FakeClock {
    std::int64_t nowNs = 0;
    std::function<std::int64_t()> fn() {
        return [this] { return nowNs; };
    }
};

TEST(Profiler, SelfTimeSubtractsNestedScopes) {
    Profiler profiler;
    FakeClock clock;
    profiler.setClock(clock.fn());
    profiler.setEnabled(true);  // reads the clock once: window starts at 0

    clock.nowNs = 0;
    profiler.enter(ProfileCategory::sim_run);
    clock.nowNs = 100;
    profiler.enter(ProfileCategory::sim_event);
    clock.nowNs = 350;
    profiler.leave();  // sim_event: 250 ns self
    clock.nowNs = 1000;
    profiler.leave();  // sim_run: 1000 total - 250 child = 750 self

    EXPECT_EQ(profiler.scopeCount(ProfileCategory::sim_event), 1u);
    EXPECT_EQ(profiler.selfNs(ProfileCategory::sim_event), 250);
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::sim_run), 1u);
    EXPECT_EQ(profiler.selfNs(ProfileCategory::sim_run), 750);
    // The whole 1000 ns window is attributed across the two buckets.
    EXPECT_DOUBLE_EQ(profiler.attributedFraction(), 1.0);
}

TEST(Profiler, DisabledProfilerIsInvisibleToScopes) {
    Profiler profiler;
    Profiler* previous = Profiler::setCurrent(&profiler);
    EXPECT_EQ(Profiler::currentIfEnabled(), nullptr);
    {
        ProfileScope scope(ProfileCategory::pipe);  // must be a no-op
    }
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::pipe), 0u);
    profiler.setEnabled(true);
    EXPECT_EQ(Profiler::currentIfEnabled(), &profiler);
    {
        ProfileScope scope(ProfileCategory::pipe);
    }
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::pipe), 1u);
    Profiler::setCurrent(previous);
}

TEST(Profiler, OverflowingTheStackDropsScopesButStaysBalanced) {
    Profiler profiler;
    FakeClock clock;
    profiler.setClock(clock.fn());
    profiler.setEnabled(true);
    for (int i = 0; i < 40; ++i) profiler.enter(ProfileCategory::sim_event);
    for (int i = 0; i < 40; ++i) {
        clock.nowNs += 10;
        profiler.leave();
    }
    EXPECT_EQ(profiler.droppedScopes(), 8u);  // 40 - kMaxDepth(32)
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::sim_event), 32u);
    // An unbalanced extra leave is ignored, not underflowed.
    profiler.leave();
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::sim_event), 32u);
}

TEST(Profiler, ExportJsonIsDeterministicUnderAFakeClock) {
    const auto runOnce = [] {
        Profiler profiler;
        FakeClock clock;
        profiler.setClock(clock.fn());
        profiler.setEnabled(true);
        for (int i = 0; i < 3; ++i) {
            profiler.enter(ProfileCategory::hdlc_encode);
            clock.nowNs += 100;
            profiler.leave();
        }
        clock.nowNs = 1000;
        return profiler.exportJson();
    };
    const std::string first = runOnce();
    EXPECT_EQ(first, runOnce()) << "same scope sequence + same clock must be byte-identical";

    const auto doc = util::JsonValue::parse(first);
    ASSERT_TRUE(doc.ok()) << doc.error().message;
    EXPECT_TRUE(doc.value().find("enabled")->boolean());
    EXPECT_DOUBLE_EQ(doc.value().numberOr("window_ns", 0.0), 1000.0);
    EXPECT_DOUBLE_EQ(doc.value().numberOr("attributed_ns", 0.0), 300.0);
    const util::JsonValue* categories = doc.value().find("categories");
    ASSERT_NE(categories, nullptr);
    // Every category appears, zeros included, in fixed enum order.
    ASSERT_EQ(categories->array().size(), kProfileCategoryCount);
    EXPECT_EQ(categories->array()[0].stringOr("name", ""), "sim.run");
    bool sawEncode = false;
    for (const util::JsonValue& category : categories->array()) {
        if (category.stringOr("name", "") != "ppp.hdlc_encode") continue;
        sawEncode = true;
        EXPECT_DOUBLE_EQ(category.numberOr("count", 0.0), 3.0);
        EXPECT_DOUBLE_EQ(category.numberOr("self_ns", 0.0), 300.0);
        EXPECT_DOUBLE_EQ(category.numberOr("fraction", 0.0), 1.0);
    }
    EXPECT_TRUE(sawEncode);
}

TEST(Profiler, FusedFramerBillsToHdlcNotFcs16) {
    // The FCS is computed inside the framer's escape scan, so a frame
    // round-trip opens hdlc_* scopes only.
    Profiler profiler;
    Profiler* previous = Profiler::setCurrent(&profiler);
    profiler.setEnabled(true);

    const ppp::Frame frame{ppp::Protocol::ip, util::Bytes(256, 0x42)};
    const util::Bytes wire = ppp::encodeFrame(frame, ppp::FramerConfig{});
    ppp::Deframer deframer;
    int decoded = 0;
    deframer.onFrame([&](ppp::Frame) { ++decoded; });
    deframer.feed({wire.data(), wire.size()});
    Profiler::setCurrent(previous);

    ASSERT_EQ(decoded, 1);
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::hdlc_encode), 1u);
    EXPECT_EQ(profiler.scopeCount(ProfileCategory::hdlc_decode), 1u);
    for (std::size_t c = 0; c < kProfileCategoryCount; ++c) {
        const auto category = ProfileCategory(c);
        if (category == ProfileCategory::hdlc_encode ||
            category == ProfileCategory::hdlc_decode)
            continue;
        EXPECT_EQ(profiler.scopeCount(category), 0u) << profileCategoryName(category);
        EXPECT_EQ(profiler.selfNs(category), 0) << profileCategoryName(category);
    }
}

TEST(Profiler, ReenablingRestartsTheWindow) {
    Profiler profiler;
    FakeClock clock;
    profiler.setClock(clock.fn());
    profiler.setEnabled(true);
    profiler.enter(ProfileCategory::pipe);
    clock.nowNs = 500;
    profiler.leave();
    EXPECT_EQ(profiler.selfNs(ProfileCategory::pipe), 500);
    (void)profiler.exportJson();
    profiler.setEnabled(true);  // restart: totals and export count zeroed
    EXPECT_EQ(profiler.selfNs(ProfileCategory::pipe), 0);
    Registry registry;
    registerFlightAndProfileMetricFamilies(registry);
    profiler.syncMetrics(registry);
    EXPECT_EQ(registry.counter("profile.exports").value(), 0u);
    EXPECT_EQ(registry.gauge("profile.enabled").value(), 1);
}

}  // namespace
}  // namespace onelab::obs
