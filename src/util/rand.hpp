#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace onelab::util {

/// Deterministic random stream. Each simulation component derives its
/// own stream from a master seed plus a component tag so that adding a
/// component does not perturb the draws seen by unrelated components.
class RandomStream {
  public:
    explicit RandomStream(std::uint64_t seed) : seed_(seed), engine_(seed) {}

    /// Derive a child stream whose sequence is independent of draws
    /// taken from this stream (seeded by hash of tag, not by state).
    [[nodiscard]] RandomStream derive(const std::string& tag) const;

    /// Uniform in [0, 1).
    double uniform01();
    /// Uniform in [lo, hi).
    double uniform(double lo, double hi);
    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);
    /// Bernoulli trial.
    bool chance(double probability);
    /// Exponential with given mean (mean > 0).
    double exponential(double mean);
    /// Normal (Gaussian); stddev == 0 returns mean.
    double normal(double mean, double stddev);
    /// Lognormal parameterised by the underlying normal's mu/sigma.
    double lognormal(double mu, double sigma);
    /// Pareto with shape alpha and scale (minimum) xm.
    double pareto(double shape, double scale);
    /// Cauchy with location x0 and scale gamma.
    double cauchy(double location, double scale);
    /// Weibull with shape k and scale lambda.
    double weibull(double shape, double scale);
    /// Gamma with shape k and scale theta.
    double gamma(double shape, double scale);
    /// Poisson with given mean.
    std::int64_t poisson(double mean);

    std::uint64_t seed() const noexcept { return seed_; }

  private:
    std::uint64_t seed_ = 0;
    std::mt19937_64 engine_;
};

/// A named stochastic process producing positive samples; this is the
/// abstraction D-ITG exposes for both inter-departure times and packet
/// sizes. Samples below `floor` are clamped (D-ITG clamps packet sizes
/// to valid ranges the same way).
class RandomVariable {
  public:
    virtual ~RandomVariable() = default;
    /// Draw the next sample.
    virtual double sample(RandomStream& rng) = 0;
    /// Analytical mean where defined, used for sanity checks; NaN if
    /// undefined (e.g. Cauchy).
    [[nodiscard]] virtual double mean() const = 0;
    [[nodiscard]] virtual std::string describe() const = 0;
};

using RandomVariablePtr = std::unique_ptr<RandomVariable>;

/// Factory helpers mirroring the D-ITG command-line options
/// (-C constant, -U uniform, -E exponential, -V pareto, -N normal,
///  -c cauchy, -W weibull, -G gamma).
RandomVariablePtr constantVariable(double value);
RandomVariablePtr uniformVariable(double lo, double hi);
RandomVariablePtr exponentialVariable(double mean);
RandomVariablePtr paretoVariable(double shape, double scale);
RandomVariablePtr normalVariable(double mean, double stddev, double floor = 0.0);
RandomVariablePtr cauchyVariable(double location, double scale, double floor = 0.0);
RandomVariablePtr weibullVariable(double shape, double scale);
RandomVariablePtr gammaVariable(double shape, double scale);

/// Parse a spec string such as "constant:100", "exp:0.01",
/// "uniform:10:20", "pareto:1.5:100", "normal:100:10",
/// "cauchy:100:5", "weibull:2:80", "gamma:2:50".
Result<RandomVariablePtr> parseRandomVariable(const std::string& spec);

}  // namespace onelab::util
