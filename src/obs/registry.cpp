#include "obs/registry.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace onelab::obs {

const char* metricKindName(MetricKind kind) noexcept {
    switch (kind) {
        case MetricKind::counter: return "counter";
        case MetricKind::gauge: return "gauge";
        case MetricKind::histogram: return "histogram";
    }
    return "?";
}

Histogram::Histogram(HistogramSpec spec)
    : spec_(spec), counts_(spec.buckets + 1) {
    bounds_.reserve(spec_.buckets);
    double bound = spec_.firstBound;
    for (std::size_t i = 0; i < spec_.buckets; ++i) {
        bounds_.push_back(bound);
        bound *= spec_.growth;
    }
}

void Histogram::observe(double value) noexcept {
    // Buckets are few (log-scale); a linear scan beats binary search
    // on the short arrays in practice and stays branch-predictable.
    std::size_t index = bounds_.size();
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            index = i;
            break;
        }
    }
    counts_[index].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sumScaled_.fetch_add(std::llround(value * kSumScale), std::memory_order_relaxed);
}

double Histogram::bucketBound(std::size_t index) const noexcept {
    if (index >= bounds_.size()) return std::numeric_limits<double>::infinity();
    return bounds_[index];
}

void Histogram::reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumScaled_.store(0, std::memory_order_relaxed);
}

NameLease::NameLease(Registry& registry, std::string prefix)
    : registry_(&registry), prefix_(std::move(prefix)) {
    registry_->claimName(prefix_);
}

NameLease::~NameLease() { release(); }

NameLease::NameLease(NameLease&& other) noexcept
    : registry_(other.registry_), prefix_(std::move(other.prefix_)) {
    other.registry_ = nullptr;
}

NameLease& NameLease::operator=(NameLease&& other) noexcept {
    if (this != &other) {
        release();
        registry_ = other.registry_;
        prefix_ = std::move(other.prefix_);
        other.registry_ = nullptr;
    }
    return *this;
}

void NameLease::release() noexcept {
    if (registry_) registry_->releaseName(prefix_);
    registry_ = nullptr;
}

void Registry::claimName(const std::string& prefix) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!leasedPrefixes_.insert(prefix).second)
        throw std::logic_error("metric name prefix '" + prefix +
                               "' already claimed by a live instance");
}

void Registry::releaseName(const std::string& prefix) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    leasedPrefixes_.erase(prefix);
}

namespace {
/// Thread-local instance() override (see Registry::setCurrent).
thread_local Registry* currentRegistry = nullptr;
}  // namespace

Registry& Registry::instance() {
    if (currentRegistry) return *currentRegistry;
    static Registry registry;
    return registry;
}

Registry* Registry::setCurrent(Registry* registry) noexcept {
    Registry* previous = currentRegistry;
    currentRegistry = registry;
    return previous;
}

Registry::Entry& Registry::lookup(const std::string& name, MetricKind kind) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
        Entry entry;
        entry.kind = kind;
        return metrics_.emplace(name, std::move(entry)).first->second;
    }
    if (it->second.kind != kind)
        throw std::logic_error("metric '" + name + "' already registered as " +
                               metricKindName(it->second.kind) + ", requested as " +
                               metricKindName(kind));
    return it->second;
}

Counter& Registry::counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = lookup(name, MetricKind::counter);
    if (!entry.counter) entry.counter.reset(new Counter());
    return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = lookup(name, MetricKind::gauge);
    if (!entry.gauge) entry.gauge.reset(new Gauge());
    return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name, HistogramSpec spec) {
    std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = lookup(name, MetricKind::histogram);
    if (!entry.histogram) entry.histogram.reset(new Histogram(spec));
    return *entry.histogram;
}

void Registry::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, entry] : metrics_) {
        if (entry.counter) entry.counter->reset();
        if (entry.gauge) entry.gauge->reset();
        if (entry.histogram) entry.histogram->reset();
    }
}

std::size_t Registry::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
}

std::vector<MetricSample> Registry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSample> samples;
    samples.reserve(metrics_.size());
    // std::map iteration is name-sorted, so snapshots are deterministic.
    for (const auto& [name, entry] : metrics_) {
        MetricSample sample;
        sample.name = name;
        sample.kind = entry.kind;
        switch (entry.kind) {
            case MetricKind::counter:
                sample.counterValue = entry.counter->value();
                break;
            case MetricKind::gauge:
                sample.gaugeValue = entry.gauge->value();
                break;
            case MetricKind::histogram: {
                const Histogram& h = *entry.histogram;
                sample.count = h.count();
                sample.sum = h.sum();
                for (std::size_t i = 0; i < h.bucketCount(); ++i) {
                    sample.bucketBounds.push_back(h.bucketBound(i));
                    sample.bucketCounts.push_back(h.bucketValue(i));
                }
                break;
            }
        }
        samples.push_back(std::move(sample));
    }
    return samples;
}

std::string Registry::snapshotJson() const {
    const std::vector<MetricSample> samples = snapshot();
    std::ostringstream out;
    out << "{\"metrics\":[";
    bool firstMetric = true;
    for (const MetricSample& sample : samples) {
        if (!firstMetric) out << ',';
        firstMetric = false;
        out << "{\"name\":\"" << sample.name << "\",\"type\":\""
            << metricKindName(sample.kind) << "\"";
        switch (sample.kind) {
            case MetricKind::counter:
                out << ",\"value\":" << sample.counterValue;
                break;
            case MetricKind::gauge:
                out << ",\"value\":" << sample.gaugeValue;
                break;
            case MetricKind::histogram: {
                out << ",\"count\":" << sample.count << ",\"sum\":"
                    << util::format("%.6f", sample.sum) << ",\"buckets\":[";
                for (std::size_t i = 0; i < sample.bucketBounds.size(); ++i) {
                    if (i) out << ',';
                    const double bound = sample.bucketBounds[i];
                    out << "{\"le\":";
                    if (i + 1 == sample.bucketBounds.size())
                        out << "\"inf\"";
                    else
                        out << util::format("%.6f", bound);
                    out << ",\"count\":" << sample.bucketCounts[i] << '}';
                }
                out << ']';
                break;
            }
        }
        out << '}';
    }
    out << "]}\n";
    return out.str();
}

}  // namespace onelab::obs
