#include "net/routing.hpp"

#include <gtest/gtest.h>

namespace onelab::net {
namespace {

Packet packetTo(Ipv4Address dst, std::uint32_t fwmark = 0, Ipv4Address src = {}) {
    Packet pkt = makeUdpPacket(src, 1, dst, 2, {});
    pkt.fwmark = fwmark;
    return pkt;
}

/// `from all lookup <tableId>` at `priority`: matches every packet.
PolicyRule ruleForAll(int priority, int tableId) {
    PolicyRule rule;
    rule.priority = priority;
    rule.tableId = tableId;
    return rule;
}

TEST(RoutingTable, LongestPrefixWins) {
    RoutingTable table;
    table.addRoute({Prefix::any(), "eth0", std::nullopt, 0});
    table.addRoute({Prefix{Ipv4Address{10, 0, 0, 0}, 8}, "tun0", std::nullopt, 0});
    table.addRoute({Prefix::host(Ipv4Address{10, 1, 2, 3}), "ppp0", std::nullopt, 0});

    EXPECT_EQ(table.lookup(Ipv4Address{8, 8, 8, 8})->oifName, "eth0");
    EXPECT_EQ(table.lookup(Ipv4Address{10, 9, 9, 9})->oifName, "tun0");
    EXPECT_EQ(table.lookup(Ipv4Address{10, 1, 2, 3})->oifName, "ppp0");
}

TEST(RoutingTable, MetricBreaksTies) {
    RoutingTable table;
    table.addRoute({Prefix::any(), "backup", std::nullopt, 10});
    table.addRoute({Prefix::any(), "primary", std::nullopt, 1});
    EXPECT_EQ(table.lookup(Ipv4Address{1, 1, 1, 1})->oifName, "primary");
}

TEST(RoutingTable, ReplaceIdenticalRoute) {
    RoutingTable table;
    table.addRoute({Prefix::any(), "eth0", std::nullopt, 5});
    table.addRoute({Prefix::any(), "eth0", std::nullopt, 1});  // same key, new metric
    ASSERT_EQ(table.routes().size(), 1u);
    EXPECT_EQ(table.routes()[0].metric, 1);
}

TEST(RoutingTable, DeleteByPrefixAndDevice) {
    RoutingTable table;
    table.addRoute({Prefix::any(), "eth0", std::nullopt, 0});
    table.addRoute({Prefix::any(), "ppp0", std::nullopt, 0});
    EXPECT_EQ(table.delRoute(Prefix::any(), "ppp0"), 1u);
    EXPECT_EQ(table.routes().size(), 1u);
    EXPECT_EQ(table.delRoute(Prefix::any()), 1u);  // no oif = any device
    EXPECT_TRUE(table.empty());
}

TEST(RoutingTable, NoRouteReturnsNullopt) {
    RoutingTable table;
    table.addRoute({Prefix{Ipv4Address{10, 0, 0, 0}, 8}, "eth0", std::nullopt, 0});
    EXPECT_FALSE(table.lookup(Ipv4Address{192, 168, 1, 1}).has_value());
}

TEST(PolicyRouter, DefaultRuleUsesMainTable) {
    PolicyRouter router;
    router.table(PolicyRouter::kMainTable)
        .addRoute({Prefix::any(), "eth0", std::nullopt, 0});
    const auto route = router.resolve(packetTo(Ipv4Address{8, 8, 8, 8}));
    ASSERT_TRUE(route.ok());
    EXPECT_EQ(route.value().oifName, "eth0");
}

TEST(PolicyRouter, FwmarkRuleSelectsAlternateTable) {
    // The paper's setup: marked packets to a registered destination use
    // table 100 whose only entry is a default via ppp0.
    PolicyRouter router;
    router.table(PolicyRouter::kMainTable)
        .addRoute({Prefix::any(), "eth0", std::nullopt, 0});
    router.table(100).addRoute({Prefix::any(), "ppp0", std::nullopt, 0});
    PolicyRule rule;
    rule.priority = 1000;
    rule.fwmark = 0x64;
    rule.dstSelector = Prefix::host(Ipv4Address{138, 96, 250, 20});
    rule.tableId = 100;
    router.addRule(rule);

    // Marked + matching destination -> ppp0.
    const auto viaPpp = router.resolve(packetTo(Ipv4Address{138, 96, 250, 20}, 0x64));
    ASSERT_TRUE(viaPpp.ok());
    EXPECT_EQ(viaPpp.value().oifName, "ppp0");
    // Marked but other destination -> falls through to main.
    EXPECT_EQ(router.resolve(packetTo(Ipv4Address{8, 8, 8, 8}, 0x64)).value().oifName, "eth0");
    // Unmarked to the registered destination -> main as well.
    EXPECT_EQ(router.resolve(packetTo(Ipv4Address{138, 96, 250, 20})).value().oifName, "eth0");
}

TEST(PolicyRouter, SourceSelectorRule) {
    // Rule (ii) of §2.3: marked packets with source = the UMTS address
    // use the UMTS table regardless of destination.
    PolicyRouter router;
    router.table(PolicyRouter::kMainTable)
        .addRoute({Prefix::any(), "eth0", std::nullopt, 0});
    router.table(100).addRoute({Prefix::any(), "ppp0", std::nullopt, 0});
    PolicyRule rule;
    rule.priority = 1000;
    rule.fwmark = 0x64;
    rule.srcSelector = Prefix::host(Ipv4Address{93, 57, 0, 16});
    rule.tableId = 100;
    router.addRule(rule);

    EXPECT_EQ(router
                  .resolve(packetTo(Ipv4Address{8, 8, 8, 8}, 0x64,
                                    Ipv4Address{93, 57, 0, 16}))
                  .value()
                  .oifName,
              "ppp0");
    EXPECT_EQ(router
                  .resolve(packetTo(Ipv4Address{8, 8, 8, 8}, 0x64,
                                    Ipv4Address{143, 225, 229, 10}))
                  .value()
                  .oifName,
              "eth0");
}

TEST(PolicyRouter, RulePriorityOrder) {
    PolicyRouter router;
    router.table(10).addRoute({Prefix::any(), "low", std::nullopt, 0});
    router.table(20).addRoute({Prefix::any(), "high", std::nullopt, 0});
    router.addRule(ruleForAll(200, 10));
    router.addRule(ruleForAll(100, 20));
    EXPECT_EQ(router.resolve(packetTo(Ipv4Address{1, 1, 1, 1})).value().oifName, "high");
}

TEST(PolicyRouter, ContinuesPastEmptyTable) {
    // Linux semantics: a matching rule whose table has no route for
    // the destination does not terminate the walk.
    PolicyRouter router;
    router.table(PolicyRouter::kMainTable)
        .addRoute({Prefix::any(), "eth0", std::nullopt, 0});
    router.addRule(ruleForAll(1, 100));  // table 100 is empty
    EXPECT_EQ(router.resolve(packetTo(Ipv4Address{1, 1, 1, 1})).value().oifName, "eth0");
}

TEST(PolicyRouter, NoRouteAnywhereFails) {
    PolicyRouter router;
    const auto result = router.resolve(packetTo(Ipv4Address{1, 2, 3, 4}));
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, util::Error::Code::not_found);
}

TEST(PolicyRouter, DelRuleMatchesAllFields) {
    PolicyRouter router;
    PolicyRule rule;
    rule.priority = 1000;
    rule.fwmark = 0x64;
    rule.tableId = 100;
    router.addRule(rule);
    PolicyRule differentMark = rule;
    differentMark.fwmark = 0x65;
    EXPECT_EQ(router.delRule(differentMark), 0u);
    EXPECT_EQ(router.delRule(rule), 1u);
    // Only the default rule remains.
    EXPECT_EQ(router.rules().size(), 1u);
}

TEST(PolicyRouter, DropTableForgetsRoutes) {
    PolicyRouter router;
    router.table(100).addRoute({Prefix::any(), "ppp0", std::nullopt, 0});
    router.dropTable(100);
    EXPECT_EQ(router.findTable(100), nullptr);
    // Main table cannot be dropped.
    router.dropTable(PolicyRouter::kMainTable);
    EXPECT_NE(router.findTable(PolicyRouter::kMainTable), nullptr);
}

TEST(PolicyRouter, DescribeFormats) {
    PolicyRule rule;
    rule.priority = 1000;
    rule.fwmark = 0x64;
    rule.dstSelector = Prefix{Ipv4Address{10, 0, 0, 0}, 8};
    rule.tableId = 100;
    const std::string text = rule.describe();
    EXPECT_NE(text.find("1000"), std::string::npos);
    EXPECT_NE(text.find("fwmark"), std::string::npos);
    EXPECT_NE(text.find("lookup 100"), std::string::npos);

    const Route route{Prefix::any(), "ppp0", std::nullopt, 0};
    EXPECT_NE(route.describe().find("default"), std::string::npos);
}

}  // namespace
}  // namespace onelab::net
