#include "util/rand.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace onelab::util {

RandomStream RandomStream::derive(const std::string& tag) const {
    // Mix the master seed with the tag hash through splitmix64 so the
    // child stream is decorrelated from both parent state and sibling
    // streams with similar tags.
    std::uint64_t x = seed_ ^ (std::hash<std::string>{}(tag) + 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return RandomStream{x};
}

double RandomStream::uniform01() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(engine_);
}

double RandomStream::uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
}

std::int64_t RandomStream::uniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
}

bool RandomStream::chance(double probability) {
    if (probability <= 0.0) return false;
    if (probability >= 1.0) return true;
    return uniform01() < probability;
}

double RandomStream::exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
}

double RandomStream::normal(double mean, double stddev) {
    // Scale a standard draw instead of handing stddev to the
    // distribution: std::normal_distribution requires stddev > 0, and
    // jitter draws legitimately ask for 0. libstdc++ computes
    // z * stddev + mean itself, so results for stddev > 0 are
    // bit-identical and the engine advances the same way.
    return mean + stddev * std::normal_distribution<double>{}(engine_);
}

double RandomStream::lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
}

double RandomStream::pareto(double shape, double scale) {
    // Inverse-CDF sampling: X = xm / U^{1/alpha}.
    const double u = 1.0 - uniform01();  // in (0, 1]
    return scale / std::pow(u, 1.0 / shape);
}

double RandomStream::cauchy(double location, double scale) {
    return std::cauchy_distribution<double>{location, scale}(engine_);
}

double RandomStream::weibull(double shape, double scale) {
    return std::weibull_distribution<double>{shape, scale}(engine_);
}

double RandomStream::gamma(double shape, double scale) {
    return std::gamma_distribution<double>{shape, scale}(engine_);
}

std::int64_t RandomStream::poisson(double mean) {
    return std::poisson_distribution<std::int64_t>{mean}(engine_);
}

namespace {

class ConstantVariable final : public RandomVariable {
  public:
    explicit ConstantVariable(double value) : value_(value) {}
    double sample(RandomStream&) override { return value_; }
    double mean() const override { return value_; }
    std::string describe() const override { return "constant(" + std::to_string(value_) + ")"; }

  private:
    double value_;
};

class UniformVariable final : public RandomVariable {
  public:
    UniformVariable(double lo, double hi) : lo_(lo), hi_(hi) {}
    double sample(RandomStream& rng) override { return rng.uniform(lo_, hi_); }
    double mean() const override { return (lo_ + hi_) / 2.0; }
    std::string describe() const override {
        return "uniform(" + std::to_string(lo_) + "," + std::to_string(hi_) + ")";
    }

  private:
    double lo_, hi_;
};

class ExponentialVariable final : public RandomVariable {
  public:
    explicit ExponentialVariable(double mean) : mean_(mean) {}
    double sample(RandomStream& rng) override { return rng.exponential(mean_); }
    double mean() const override { return mean_; }
    std::string describe() const override { return "exp(" + std::to_string(mean_) + ")"; }

  private:
    double mean_;
};

class ParetoVariable final : public RandomVariable {
  public:
    ParetoVariable(double shape, double scale) : shape_(shape), scale_(scale) {}
    double sample(RandomStream& rng) override { return rng.pareto(shape_, scale_); }
    double mean() const override {
        if (shape_ <= 1.0) return std::numeric_limits<double>::quiet_NaN();
        return shape_ * scale_ / (shape_ - 1.0);
    }
    std::string describe() const override {
        return "pareto(" + std::to_string(shape_) + "," + std::to_string(scale_) + ")";
    }

  private:
    double shape_, scale_;
};

class NormalVariable final : public RandomVariable {
  public:
    NormalVariable(double mean, double stddev, double floor)
        : mean_(mean), stddev_(stddev), floor_(floor) {}
    double sample(RandomStream& rng) override {
        return std::max(floor_, rng.normal(mean_, stddev_));
    }
    double mean() const override { return mean_; }
    std::string describe() const override {
        return "normal(" + std::to_string(mean_) + "," + std::to_string(stddev_) + ")";
    }

  private:
    double mean_, stddev_, floor_;
};

class CauchyVariable final : public RandomVariable {
  public:
    CauchyVariable(double location, double scale, double floor)
        : location_(location), scale_(scale), floor_(floor) {}
    double sample(RandomStream& rng) override {
        return std::max(floor_, rng.cauchy(location_, scale_));
    }
    double mean() const override { return std::numeric_limits<double>::quiet_NaN(); }
    std::string describe() const override {
        return "cauchy(" + std::to_string(location_) + "," + std::to_string(scale_) + ")";
    }

  private:
    double location_, scale_, floor_;
};

class WeibullVariable final : public RandomVariable {
  public:
    WeibullVariable(double shape, double scale) : shape_(shape), scale_(scale) {}
    double sample(RandomStream& rng) override { return rng.weibull(shape_, scale_); }
    double mean() const override { return scale_ * std::tgamma(1.0 + 1.0 / shape_); }
    std::string describe() const override {
        return "weibull(" + std::to_string(shape_) + "," + std::to_string(scale_) + ")";
    }

  private:
    double shape_, scale_;
};

class GammaVariable final : public RandomVariable {
  public:
    GammaVariable(double shape, double scale) : shape_(shape), scale_(scale) {}
    double sample(RandomStream& rng) override { return rng.gamma(shape_, scale_); }
    double mean() const override { return shape_ * scale_; }
    std::string describe() const override {
        return "gamma(" + std::to_string(shape_) + "," + std::to_string(scale_) + ")";
    }

  private:
    double shape_, scale_;
};

}  // namespace

RandomVariablePtr constantVariable(double value) {
    return std::make_unique<ConstantVariable>(value);
}
RandomVariablePtr uniformVariable(double lo, double hi) {
    return std::make_unique<UniformVariable>(lo, hi);
}
RandomVariablePtr exponentialVariable(double mean) {
    return std::make_unique<ExponentialVariable>(mean);
}
RandomVariablePtr paretoVariable(double shape, double scale) {
    return std::make_unique<ParetoVariable>(shape, scale);
}
RandomVariablePtr normalVariable(double mean, double stddev, double floor) {
    return std::make_unique<NormalVariable>(mean, stddev, floor);
}
RandomVariablePtr cauchyVariable(double location, double scale, double floor) {
    return std::make_unique<CauchyVariable>(location, scale, floor);
}
RandomVariablePtr weibullVariable(double shape, double scale) {
    return std::make_unique<WeibullVariable>(shape, scale);
}
RandomVariablePtr gammaVariable(double shape, double scale) {
    return std::make_unique<GammaVariable>(shape, scale);
}

Result<RandomVariablePtr> parseRandomVariable(const std::string& spec) {
    const std::vector<std::string> parts = split(spec, ':');
    if (parts.empty()) return err(Error::Code::invalid_argument, "empty random-variable spec");
    const std::string& kind = parts[0];
    auto arg = [&](std::size_t i) -> double { return std::stod(parts.at(i)); };
    try {
        if (kind == "constant" && parts.size() == 2) return constantVariable(arg(1));
        if (kind == "uniform" && parts.size() == 3) return uniformVariable(arg(1), arg(2));
        if (kind == "exp" && parts.size() == 2) return exponentialVariable(arg(1));
        if (kind == "pareto" && parts.size() == 3) return paretoVariable(arg(1), arg(2));
        if (kind == "normal" && parts.size() == 3) return normalVariable(arg(1), arg(2));
        if (kind == "cauchy" && parts.size() == 3) return cauchyVariable(arg(1), arg(2));
        if (kind == "weibull" && parts.size() == 3) return weibullVariable(arg(1), arg(2));
        if (kind == "gamma" && parts.size() == 3) return gammaVariable(arg(1), arg(2));
    } catch (const std::exception& e) {
        return err(Error::Code::invalid_argument, "bad random-variable spec '" + spec + "': " + e.what());
    }
    return err(Error::Code::invalid_argument, "unknown random-variable spec '" + spec + "'");
}

}  // namespace onelab::util
