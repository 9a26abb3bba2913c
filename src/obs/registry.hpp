#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace onelab::obs {

/// What kind of metric a registry entry is.
enum class MetricKind : std::uint8_t { counter, gauge, histogram };

[[nodiscard]] const char* metricKindName(MetricKind kind) noexcept;

/// Monotonic event count. Registration happens once, at construction.
/// inc() is a relaxed atomic add: increments from several threads are
/// never lost, and readers see a consistent (possibly slightly stale)
/// value.
class Counter {
  public:
    void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    Counter() = default;
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous signed level (queue depth, backlog bytes). add() is
/// a relaxed atomic add, like Counter::inc().
class Gauge {
  public:
    void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t delta) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    Gauge() = default;
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
    std::atomic<std::int64_t> value_{0};
};

/// Bucket layout for a Histogram: geometric (log-scale) upper bounds
/// firstBound * growth^i, plus an implicit +inf overflow bucket.
/// The default spans 1 ms .. ~32 s when observations are microseconds.
struct HistogramSpec {
    double firstBound = 1000.0;
    double growth = 2.0;
    std::size_t buckets = 16;
};

/// Fixed-bucket histogram with lock-free observation. Bucket `i`
/// counts observations <= bucketBound(i); the last bucket is +inf.
class Histogram {
  public:
    void observe(double value) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double sum() const noexcept {
        return double(sumScaled_.load(std::memory_order_relaxed)) / kSumScale;
    }
    /// Number of buckets including the +inf overflow bucket.
    [[nodiscard]] std::size_t bucketCount() const noexcept { return counts_.size(); }
    /// Upper bound of bucket `index`; +inf for the last bucket.
    [[nodiscard]] double bucketBound(std::size_t index) const noexcept;
    [[nodiscard]] std::uint64_t bucketValue(std::size_t index) const noexcept {
        return counts_[index].load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    explicit Histogram(HistogramSpec spec);
    void reset() noexcept;
    HistogramSpec spec_;
    std::vector<double> bounds_;                     ///< finite upper bounds
    std::vector<std::atomic<std::uint64_t>> counts_; ///< bounds_.size() + 1 (overflow)
    std::atomic<std::uint64_t> count_{0};
    /// The sum accumulates in 2^16 fixed point, not double: an integer
    /// fetch_add is lock-free, and integer addition is associative, so
    /// the exported sum does not depend on the order observations land
    /// in. Quantization is 1/65536 of the observed unit; headroom is
    /// ~1.4e14 units before int64 overflow.
    static constexpr double kSumScale = 65536.0;
    std::atomic<std::int64_t> sumScaled_{0};
};

/// One metric's state at snapshot time.
struct MetricSample {
    std::string name;
    MetricKind kind{};
    std::uint64_t counterValue = 0;  ///< counter
    std::int64_t gaugeValue = 0;     ///< gauge
    std::uint64_t count = 0;         ///< histogram
    double sum = 0.0;                ///< histogram
    std::vector<double> bucketBounds;          ///< histogram (finite bounds then +inf)
    std::vector<std::uint64_t> bucketCounts;   ///< histogram
};

class Registry;

/// RAII exclusive claim on a metric name prefix. A component that
/// registers a per-instance metric family (one RadioBearer's
/// "umts.bearer.<imsi>.*", say) holds a lease on the family prefix:
/// a second live claim of the same prefix throws std::logic_error
/// instead of silently aliasing the first instance's counters. The
/// claim is released on destruction, so a stop/restart cycle may
/// re-register the same prefix (and keep accumulating into the same
/// registry entries, which is the intended aggregate-across-restarts
/// behavior).
class NameLease {
  public:
    NameLease() = default;
    /// Claims `prefix` in `registry`; throws std::logic_error when the
    /// prefix is already held by another live lease.
    NameLease(Registry& registry, std::string prefix);
    ~NameLease();

    NameLease(const NameLease&) = delete;
    NameLease& operator=(const NameLease&) = delete;
    NameLease(NameLease&& other) noexcept;
    NameLease& operator=(NameLease&& other) noexcept;

    /// Drop the claim early (idempotent).
    void release() noexcept;
    [[nodiscard]] bool held() const noexcept { return registry_ != nullptr; }
    [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }

  private:
    Registry* registry_ = nullptr;
    std::string prefix_;
};

/// Registry of hierarchically named metrics
/// ("umts.bearer.<imsi>.ul.dropped_overflow"). Registration takes a mutex and
/// is meant for construction time only; the returned references stay
/// valid for the registry's lifetime and their updates are lock-free.
/// Registering an existing name with the same kind returns the shared
/// instance; a kind mismatch throws std::logic_error.
///
/// `instance()` resolves to the calling thread's current registry: the
/// process-wide singleton by default, or a thread-local override
/// installed by RunContext so parallel sweep workers each collect into
/// a private registry without touching any call site.
class Registry {
  public:
    static Registry& instance();

    /// Install `registry` as the calling thread's instance() (nullptr
    /// restores the process singleton). Returns the previous override.
    /// Prefer obs::RunContext over calling this directly.
    static Registry* setCurrent(Registry* registry) noexcept;

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    [[nodiscard]] Counter& counter(const std::string& name);
    [[nodiscard]] Gauge& gauge(const std::string& name);
    /// The spec is fixed by the first registration of `name`.
    [[nodiscard]] Histogram& histogram(const std::string& name, HistogramSpec spec = {});

    /// Zero every metric's value. Registrations (and handed-out
    /// references) survive; used between experiment runs.
    void reset();

    /// Deterministic (name-sorted) snapshot of every metric.
    [[nodiscard]] std::vector<MetricSample> snapshot() const;

    /// Snapshot as a JSON document: {"metrics": [...]}.
    [[nodiscard]] std::string snapshotJson() const;

    [[nodiscard]] std::size_t size() const;

  private:
    friend class NameLease;

    struct Entry {
        MetricKind kind{};
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry& lookup(const std::string& name, MetricKind kind);
    void claimName(const std::string& prefix);
    void releaseName(const std::string& prefix) noexcept;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> metrics_;
    std::set<std::string> leasedPrefixes_;
};

}  // namespace onelab::obs
