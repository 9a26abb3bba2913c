#include "util/rand.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>

namespace onelab::util {
namespace {

TEST(RandomStream, Deterministic) {
    RandomStream a{123};
    RandomStream b{123};
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RandomStream, DifferentSeedsDiffer) {
    RandomStream a{1};
    RandomStream b{2};
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform01() == b.uniform01()) ++equal;
    EXPECT_LT(equal, 5);
}

TEST(RandomStream, DeriveIsIndependentOfDrawOrder) {
    RandomStream parent1{99};
    RandomStream parent2{99};
    (void)parent2.uniform01();  // perturb one parent's engine
    RandomStream childA = parent1.derive("tag");
    RandomStream childB = parent2.derive("tag");
    // Children derive from the seed, not engine state: identical.
    for (int i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(childA.uniform01(), childB.uniform01());
}

TEST(RandomStream, DeriveDifferentTagsDecorrelated) {
    RandomStream parent{7};
    RandomStream a = parent.derive("lcp");
    RandomStream b = parent.derive("ipcp");
    EXPECT_NE(a.seed(), b.seed());
    EXPECT_NE(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30));
}

TEST(RandomStream, DeriveStoresMixedSeed) {
    // Regression: derive() must mix the parent's stored seed — two
    // parents with different seeds must produce different children
    // (this broke PPP magic-number negotiation once).
    RandomStream a = RandomStream{1}.derive("x");
    RandomStream b = RandomStream{2}.derive("x");
    EXPECT_NE(a.seed(), b.seed());
}

TEST(RandomStream, UniformIntBounds) {
    RandomStream rng{5};
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
    }
}

TEST(RandomStream, ChanceEdgeCases) {
    RandomStream rng{5};
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
}

TEST(RandomStream, NormalScalesAStandardDraw) {
    // stddev == 0 is a legal request (a jitter-free link) and must not
    // reach std::normal_distribution, whose precondition is stddev > 0.
    RandomStream degenerate{11};
    for (int i = 0; i < 10; ++i) EXPECT_EQ(degenerate.normal(2.5, 0.0), 2.5);
    // For stddev > 0 the draws are bit-identical to the library's own
    // distribution on an identically seeded engine.
    for (const std::uint64_t seed : {1ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
        RandomStream rng{seed};
        std::mt19937_64 engine{seed};
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(rng.normal(100.0, 7.5),
                      (std::normal_distribution<double>{100.0, 7.5}(engine)));
    }
}

// The spec is a std::string, not a const char*, so that gtest prints the
// parameter (and CTest names the test) by value instead of by address.
using DistributionCase = std::pair<std::string, double>;

class DistributionMean : public ::testing::TestWithParam<DistributionCase> {};

TEST_P(DistributionMean, SampleMeanConvergesToSpecMean) {
    const auto [spec, expectedMean] = GetParam();
    auto variable = parseRandomVariable(spec);
    ASSERT_TRUE(variable.ok()) << spec;
    RandomStream rng{2024};
    double sum = 0.0;
    constexpr int kSamples = 200000;
    for (int i = 0; i < kSamples; ++i) sum += variable.value()->sample(rng);
    const double mean = sum / kSamples;
    EXPECT_NEAR(mean, expectedMean, std::abs(expectedMean) * 0.05 + 0.01) << spec;
    if (!std::isnan(variable.value()->mean())) {
        EXPECT_NEAR(variable.value()->mean(), expectedMean, std::abs(expectedMean) * 1e-4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, DistributionMean,
    ::testing::Values(DistributionCase{"constant:42", 42.0},
                      DistributionCase{"uniform:10:20", 15.0}, DistributionCase{"exp:0.5", 0.5},
                      DistributionCase{"pareto:3:100", 150.0},
                      DistributionCase{"normal:50:5", 50.0},
                      DistributionCase{"weibull:2:10", 8.8623},
                      DistributionCase{"gamma:2:3", 6.0}));

TEST(RandomVariable, ParetoSamplesAboveScale) {
    RandomStream rng{1};
    auto pareto = paretoVariable(1.5, 10.0);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(pareto->sample(rng), 10.0);
}

TEST(RandomVariable, CauchyMeanUndefined) {
    auto cauchy = cauchyVariable(100.0, 5.0);
    EXPECT_TRUE(std::isnan(cauchy->mean()));
}

TEST(RandomVariable, NormalFloorClamps) {
    RandomStream rng{1};
    auto variable = normalVariable(1.0, 100.0, 0.5);
    for (int i = 0; i < 1000; ++i) EXPECT_GE(variable->sample(rng), 0.5);
}

TEST(RandomVariable, ParseRejectsBadSpecs) {
    EXPECT_FALSE(parseRandomVariable("").ok());
    EXPECT_FALSE(parseRandomVariable("nosuch:1").ok());
    EXPECT_FALSE(parseRandomVariable("uniform:1").ok());
    EXPECT_FALSE(parseRandomVariable("exp:abc").ok());
}

TEST(RandomVariable, DescribeIsInformative) {
    EXPECT_NE(constantVariable(5)->describe().find("constant"), std::string::npos);
    EXPECT_NE(exponentialVariable(2)->describe().find("exp"), std::string::npos);
}

}  // namespace
}  // namespace onelab::util
