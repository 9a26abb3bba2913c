#include "umts/cell.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/rand.hpp"

namespace onelab::umts {
namespace {

TEST(CellCapacity, ReserveGrowReleaseAccounting) {
    CellCapacity cell{768e3, 7.2e6};
    EXPECT_DOUBLE_EQ(cell.uplinkAvailableBps(), 768e3);
    cell.reserveUplink(144e3);
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 144e3);
    EXPECT_DOUBLE_EQ(cell.uplinkAvailableBps(), 624e3);
    // Grow 144k -> 384k takes another 240k.
    EXPECT_TRUE(cell.tryGrowUplink(240e3));
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 384e3);
    // A second full-rate grant still fits; a third does not.
    EXPECT_TRUE(cell.tryGrowUplink(384e3));
    EXPECT_FALSE(cell.tryGrowUplink(240e3));
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 768e3);
    cell.releaseUplink(384e3);
    EXPECT_DOUBLE_EQ(cell.uplinkAvailableBps(), 384e3);
}

TEST(CellCapacity, OversubscribedPoolReportsZeroHeadroom) {
    CellCapacity cell{100e3, 1e6};
    // Floor-guaranteed admissions may push past the budget; headroom
    // clamps at zero rather than going negative.
    cell.reserveUplink(64e3);
    cell.reserveUplink(64e3);
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 128e3);
    EXPECT_DOUBLE_EQ(cell.uplinkAvailableBps(), 0.0);
    EXPECT_FALSE(cell.tryGrowUplink(1.0));
}

TEST(CellCapacity, DownlinkAdmissionTrimsToHeadroomButNotBelowFloor) {
    CellCapacity cell{768e3, 1000e3};
    EXPECT_DOUBLE_EQ(cell.admitDownlink(700e3, 384e3), 700e3);  // fits untouched
    EXPECT_DOUBLE_EQ(cell.admitDownlink(700e3, 384e3), 384e3);  // 300k left -> floor
    EXPECT_DOUBLE_EQ(cell.downlinkAllocatedBps(), 1084e3);
    cell.releaseDownlink(700e3);
    EXPECT_DOUBLE_EQ(cell.admitDownlink(500e3, 384e3), 500e3);
}

TEST(CellCapacity, SqueezedPoolDrainsToExactlyZeroInAnyOrder) {
    // Commercial-profile rates: 1.8 Mbps grants over a 384 kbps floor.
    CellCapacity cell{768e3, 7.2e6};
    cell.setCapacityScale(0.563);  // ~4.05 Mbps of downlink budget
    std::vector<double> grants;
    for (int i = 0; i < 4; ++i) grants.push_back(cell.admitDownlink(1.8e6, 384e3));
    // Two full grants, one trimmed to the fractional headroom left,
    // then a floor grant that oversubscribes the pool.
    EXPECT_EQ(grants[0], 1.8e6);
    EXPECT_EQ(grants[1], 1.8e6);
    EXPECT_LT(grants[2], 1.8e6);
    EXPECT_EQ(grants[2], std::floor(grants[2]));  // whole bps
    EXPECT_EQ(grants[3], 384e3);
    // Drain newest first, not in grant order: exactly empty, no residue.
    for (auto grant = grants.rbegin(); grant != grants.rend(); ++grant)
        cell.releaseDownlink(*grant);
    EXPECT_EQ(cell.downlinkAllocatedBps(), 0.0);
}

TEST(CellCapacity, ContentionCountersAccumulate) {
    CellCapacity cell{768e3, 7.2e6};
    EXPECT_EQ(cell.deniedUpgrades(), 0u);
    EXPECT_EQ(cell.trimmedAdmissions(), 0u);
    cell.countDeniedUpgrade();
    cell.countDeniedUpgrade();
    cell.countTrimmedAdmission();
    EXPECT_EQ(cell.deniedUpgrades(), 2u);
    EXPECT_EQ(cell.trimmedAdmissions(), 1u);
}

TEST(CellCapacity, ReleaseNotifiesWaitersInRegistrationOrder) {
    CellCapacity cell{768e3, 7.2e6};
    cell.reserveUplink(768e3);
    std::vector<int> order;
    (void)cell.addWaiter([&] { order.push_back(1); });
    (void)cell.addWaiter([&] { order.push_back(2); });
    (void)cell.addWaiter([&] { order.push_back(3); });
    cell.releaseUplink(240e3);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(CellCapacity, RemovedWaiterIsNotNotified) {
    CellCapacity cell{768e3, 7.2e6};
    cell.reserveUplink(768e3);
    std::vector<int> order;
    (void)cell.addWaiter([&] { order.push_back(1); });
    const CellCapacity::WaiterId second = cell.addWaiter([&] { order.push_back(2); });
    cell.removeWaiter(second);
    cell.releaseUplink(100e3);
    EXPECT_EQ(order, (std::vector<int>{1}));
    cell.removeWaiter(second);  // idempotent
}

TEST(CellCapacity, WaiterReleasingDuringNotifyDoesNotRecurse) {
    CellCapacity cell{768e3, 7.2e6};
    cell.reserveUplink(768e3);
    int calls = 0;
    // A waiter that itself releases capacity (a bearer shrinking as it
    // re-grants) must not re-enter the notification loop.
    (void)cell.addWaiter([&] {
        ++calls;
        if (calls == 1) cell.releaseUplink(100e3);
    });
    cell.releaseUplink(100e3);
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(cell.uplinkAllocatedBps(), 568e3);
}

TEST(CellCapacity, WaiterTakingTheFreedCapacityStarvesLaterWaiters) {
    CellCapacity cell{384e3, 7.2e6};
    cell.reserveUplink(384e3);
    std::vector<int> grabbed;
    (void)cell.addWaiter([&] {
        if (cell.tryGrowUplink(240e3)) grabbed.push_back(1);
    });
    (void)cell.addWaiter([&] {
        if (cell.tryGrowUplink(240e3)) grabbed.push_back(2);
    });
    cell.releaseUplink(240e3);
    // First-registered waiter wins the budget; the second re-checks,
    // finds the pool dry again, and stays parked.
    EXPECT_EQ(grabbed, (std::vector<int>{1}));
    EXPECT_DOUBLE_EQ(cell.uplinkAvailableBps(), 0.0);
}

// ------------------------------------------------------------------
// Randomized interleaving invariants: 1000 seeded schedules of
// reserve / tryGrow / release / admit / releaseDownlink / squeeze /
// waiter churn, with a shadow model checked after every step:
//
//   * conservation: allocated == sum of outstanding grants the
//     schedule handed out (both pools, at every step);
//   * no over-commit: tryGrowUplink never pushes allocation past the
//     effective budget, and headroom is exactly
//     max(0, budget*scale - allocated);
//   * waiter order: whenever a release/raise notifies, parked waiters
//     run in registration order.
// ------------------------------------------------------------------

class CellInvariants : public ::testing::TestWithParam<int> {};

TEST_P(CellInvariants, RandomInterleavingsHoldTheLedger) {
    constexpr double kUplinkBudget = 768e3;
    constexpr double kDownlinkBudget = 7.2e6;
    constexpr int kSchedulesPerShard = 125;  // 8 shards x 125 = 1000
    constexpr int kStepsPerSchedule = 60;

    for (int schedule = 0; schedule < kSchedulesPerShard; ++schedule) {
        const std::uint64_t seed =
            std::uint64_t(GetParam()) * kSchedulesPerShard + std::uint64_t(schedule) + 1;
        util::RandomStream rng{seed};
        CellCapacity cell{kUplinkBudget, kDownlinkBudget};

        std::vector<double> uplinkGrants;    // outstanding uplink reservations
        std::vector<double> downlinkGrants;  // outstanding downlink admissions
        double scale = 1.0;
        std::vector<CellCapacity::WaiterId> waiters;
        std::vector<CellCapacity::WaiterId> notified;  // order of callbacks

        const auto sum = [](const std::vector<double>& grants) {
            double total = 0.0;
            for (const double grant : grants) total += grant;
            return total;
        };
        const auto checkLedger = [&](const char* when) {
            const double upAllocated = sum(uplinkGrants);
            const double downAllocated = sum(downlinkGrants);
            ASSERT_NEAR(cell.uplinkAllocatedBps(), upAllocated, 1e-6)
                << "seed " << seed << " after " << when;
            ASSERT_NEAR(cell.downlinkAllocatedBps(), downAllocated, 1e-6)
                << "seed " << seed << " after " << when;
            ASSERT_NEAR(cell.uplinkAvailableBps(),
                        std::max(0.0, kUplinkBudget * scale - upAllocated), 1e-6)
                << "seed " << seed << " after " << when;
            ASSERT_NEAR(cell.downlinkAvailableBps(),
                        std::max(0.0, kDownlinkBudget * scale - downAllocated), 1e-6)
                << "seed " << seed << " after " << when;
        };

        for (int step = 0; step < kStepsPerSchedule; ++step) {
            switch (rng.uniformInt(0, 7)) {
                case 0: {  // floor-guaranteed reservation (may oversubscribe)
                    const double bps = rng.uniform(16e3, 384e3);
                    cell.reserveUplink(bps);
                    uplinkGrants.push_back(bps);
                    checkLedger("reserveUplink");
                    break;
                }
                case 1: {  // conditional growth
                    const double bps = rng.uniform(16e3, 384e3);
                    const double headroom = cell.uplinkAvailableBps();
                    const bool grown = cell.tryGrowUplink(bps);
                    ASSERT_EQ(grown, bps <= headroom) << "seed " << seed;
                    if (grown) uplinkGrants.push_back(bps);
                    ASSERT_LE(cell.uplinkAllocatedBps(),
                              std::max(sum(uplinkGrants), kUplinkBudget * scale) + 1e-6)
                        << "tryGrowUplink over-committed, seed " << seed;
                    checkLedger("tryGrowUplink");
                    break;
                }
                case 2: {  // release an outstanding uplink grant
                    if (uplinkGrants.empty()) break;
                    const auto victim = std::size_t(
                        rng.uniformInt(0, std::int64_t(uplinkGrants.size()) - 1));
                    notified.clear();
                    cell.releaseUplink(uplinkGrants[victim]);
                    uplinkGrants.erase(uplinkGrants.begin() + std::ptrdiff_t(victim));
                    // Re-grant offers must respect registration order.
                    ASSERT_TRUE(std::is_sorted(notified.begin(), notified.end()))
                        << "waiters notified out of registration order, seed " << seed;
                    checkLedger("releaseUplink");
                    break;
                }
                case 3: {  // downlink admission (trims, floors)
                    const double desired = rng.uniform(64e3, 2e6);
                    const double floor = rng.uniform(16e3, 384e3);
                    const double granted = cell.admitDownlink(desired, floor);
                    ASSERT_GE(granted, std::min(desired, floor) - 1e-6) << "seed " << seed;
                    ASSERT_LE(granted, std::max(desired, floor) + 1e-6) << "seed " << seed;
                    downlinkGrants.push_back(granted);
                    checkLedger("admitDownlink");
                    break;
                }
                case 4: {  // release a downlink admission
                    if (downlinkGrants.empty()) break;
                    const auto victim = std::size_t(
                        rng.uniformInt(0, std::int64_t(downlinkGrants.size()) - 1));
                    cell.releaseDownlink(downlinkGrants[victim]);
                    downlinkGrants.erase(downlinkGrants.begin() + std::ptrdiff_t(victim));
                    checkLedger("releaseDownlink");
                    break;
                }
                case 5: {  // capacity squeeze / restore
                    notified.clear();
                    scale = rng.chance(0.5) ? rng.uniform(0.2, 0.9) : 1.0;
                    cell.setCapacityScale(scale);
                    ASSERT_TRUE(std::is_sorted(notified.begin(), notified.end()))
                        << "seed " << seed;
                    checkLedger("setCapacityScale");
                    break;
                }
                case 6: {  // park a waiter
                    if (waiters.size() >= 8) break;
                    // The callback records its own id; ids are handed
                    // out monotonically, so sortedness of the recorded
                    // ids IS registration order.
                    auto self = std::make_shared<CellCapacity::WaiterId>(0);
                    *self = cell.addWaiter(
                        [&notified, self] { notified.push_back(*self); });
                    waiters.push_back(*self);
                    break;
                }
                case 7: {  // unpark a random waiter
                    if (waiters.empty()) break;
                    const auto victim = std::size_t(
                        rng.uniformInt(0, std::int64_t(waiters.size()) - 1));
                    cell.removeWaiter(waiters[victim]);
                    waiters.erase(waiters.begin() + std::ptrdiff_t(victim));
                    break;
                }
            }
        }
        for (const CellCapacity::WaiterId id : waiters) cell.removeWaiter(id);
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, CellInvariants, ::testing::Range(0, 8));

// --- fairness clamp: fair-share check + per-claimant attempt pacing ---

TEST(CellFairness, FairShareDeniesGrowthToOverShareHolderUnderContention) {
    CellCapacity cell{768e3, 7.2e6};
    const auto a = cell.addWaiter([] {});
    (void)cell.addWaiter([] {});
    EXPECT_DOUBLE_EQ(cell.fairShareUplinkBps(), 384e3);
    cell.reserveUplink(384e3);
    // Holding exactly fair share with another claimant present: denied.
    const std::uint64_t before = cell.fairnessDenials();
    EXPECT_FALSE(cell.tryGrowUplink(64e3, 384e3));
    EXPECT_EQ(cell.fairnessDenials(), before + 1);
    // Under fair share the same growth is decided by headroom alone.
    EXPECT_TRUE(cell.tryGrowUplink(64e3, 256e3));
    cell.releaseUplink(448e3);
    cell.removeWaiter(a);
    // Sole claimant: the clamp never applies.
    cell.reserveUplink(384e3);
    EXPECT_TRUE(cell.tryGrowUplink(64e3, 384e3));
}

TEST(CellFairness, ClampDisabledRestoresPureHeadroomDecision) {
    CellCapacity cell{768e3, 7.2e6};
    cell.setFairnessClamp(false);
    (void)cell.addWaiter([] {});
    (void)cell.addWaiter([] {});
    cell.reserveUplink(700e3);
    EXPECT_TRUE(cell.tryGrowUplink(64e3, 700e3));
    EXPECT_EQ(cell.fairnessDenials(), 0u);
}

TEST(CellFairness, AttemptPacingDeniesASpammerEvenWithHeadroom) {
    CellCapacity cell{768e3, 7.2e6};
    const auto spammer = cell.addWaiter([] {});
    (void)cell.addWaiter([] {});
    const sim::SimTime t0 = sim::seconds(100.0);
    // Burst budget (3 attempts) passes; the 4th is paced out even
    // though the pool has plenty of headroom and the holding is under
    // fair share — rate, not need, is what the bucket discriminates.
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(cell.tryGrowUplink(10e3, 0.0, spammer, t0)) << "attempt " << i;
    const std::uint64_t before = cell.fairnessDenials();
    EXPECT_FALSE(cell.tryGrowUplink(10e3, 0.0, spammer, t0));
    EXPECT_EQ(cell.fairnessDenials(), before + 1);
    // 2 s at 0.5 tokens/s refills one attempt... but the denied
    // attempt above cost a token too (debt), so it takes 4 s.
    EXPECT_FALSE(cell.tryGrowUplink(10e3, 0.0, spammer, t0 + sim::seconds(2.0)));
    EXPECT_TRUE(cell.tryGrowUplink(10e3, 0.0, spammer, t0 + sim::seconds(6.1)));
}

TEST(CellFairness, DebtIsBoundedAndQuietTimeRecovers) {
    CellCapacity cell{768e3, 7.2e6};
    const auto spammer = cell.addWaiter([] {});
    (void)cell.addWaiter([] {});
    const sim::SimTime t0 = sim::seconds(100.0);
    // A hammering claimant pins its bucket at the debt floor; the
    // floor bounds how long quiet time takes to recover.
    for (int i = 0; i < 100; ++i) (void)cell.tryGrowUplink(10e3, 0.0, spammer, t0);
    // Just under the full recovery window: still denied (the recovery
    // attempt itself costs a token from barely-at-1.0).
    EXPECT_FALSE(cell.tryGrowUplink(10e3, 0.0, spammer, t0 + sim::seconds(20.0)));
    // From the floor (-10): (10 + 1) / 0.5 = 22 s of silence buys one
    // admitted attempt.
    EXPECT_TRUE(cell.tryGrowUplink(10e3, 0.0, spammer,
                                   t0 + sim::seconds(20.0) + sim::seconds(23.0)));
}

TEST(CellFairness, AnonymousAndHonestClaimantsAreUnaffectedByPacing) {
    CellCapacity cell{768e3, 7.2e6};
    const auto honest = cell.addWaiter([] {});
    (void)cell.addWaiter([] {});
    // Claimant 0 (anonymous) is never paced, however fast it retries.
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(cell.tryGrowUplink(1e3, 0.0, 0, sim::seconds(100.0)));
    // An honest claimant attempting once a minute stays in burst
    // territory forever (refill outpaces its attempt rate).
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(cell.tryGrowUplink(1e3, 0.0, honest,
                                       sim::seconds(100.0 + 60.0 * i)));
    EXPECT_EQ(cell.fairnessDenials(), 0u);
}

TEST(CellFairness, RemoveWaiterDropsPacingState) {
    CellCapacity cell{768e3, 7.2e6};
    const auto spammer = cell.addWaiter([] {});
    (void)cell.addWaiter([] {});
    const sim::SimTime t0 = sim::seconds(100.0);
    for (int i = 0; i < 10; ++i) (void)cell.tryGrowUplink(10e3, 0.0, spammer, t0);
    cell.removeWaiter(spammer);
    // A fresh registration (same numeric id will not be reused, but
    // the erase must not leak state either way) starts at full burst.
    const auto fresh = cell.addWaiter([] {});
    EXPECT_TRUE(cell.tryGrowUplink(10e3, 0.0, fresh, t0));
}

}  // namespace
}  // namespace onelab::umts
