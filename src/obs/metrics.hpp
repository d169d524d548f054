// Unified metrics registry — the process-wide home for every named counter,
// gauge and histogram the engine exports (read-path stats, commit-pipeline
// stage timings, scheduler steal/park counts, contention-manager totals,
// abort-cause taxonomy).
//
// Design:
//  * Metric types are owned by the component that updates them (StmEnv,
//    CommitQueue, ThreadPool, Runtime, ...), exactly where the old bespoke
//    atomics lived — hot paths never touch a lock or a map.
//  * Components register their instances under stable names via a RAII
//    `Registration` and deregister on destruction. Two live instances with
//    the same name (e.g. two StmEnvs in one test binary) are summed at
//    snapshot time; component-local reads (tests, per-run bench deltas)
//    keep their per-instance isolation.
//  * `txf::metrics::snapshot_json()` walks everything currently registered
//    and emits one JSON object — the single exporter every bench and test
//    can share instead of bespoke --json plumbing.
//
// Hot-path updates stay the pattern ReadPathStats established: per-owner
// plain accumulators flushed into these shared metrics at cold points
// (park, commit cascade, teardown); the shared Counter is additionally
// sharded across cache lines for writers that update it directly.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/percentile.hpp"
#include "util/cache_line.hpp"

namespace txf::obs {

/// Monotone counter, sharded across cache lines so unrelated writers do not
/// bounce one line. `load()` mirrors std::atomic so call sites that held a
/// plain atomic before the registry existed compile unchanged.
class Counter {
 public:
  static constexpr std::size_t kShards = 4;

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t load(std::memory_order = std::memory_order_relaxed)
      const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_)
      total += s.value.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t value() const noexcept { return load(); }

  /// Zero every shard (not atomic with concurrent add(); quiescent use).
  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  static std::size_t shard_index() noexcept {
    static std::atomic<std::uint32_t> next{0};
    static thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id & (kShards - 1);
  }

  std::array<util::CacheAligned<std::atomic<std::uint64_t>>, kShards> shards_{};
};

/// Last-writer-wins instantaneous value (pool sizes, knob settings).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two bucketed histogram: bucket 0 covers {0, 1}, bucket i
/// covers (2^(i-1), 2^i], the last bucket saturates. 32 buckets span the
/// full range benches care about (batch sizes, walk lengths, nanosecond
/// stage durations up to ~2s).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    if (v <= 1) return 0;
    const auto b = static_cast<std::size_t>(std::bit_width(v - 1));
    return b < kBuckets ? b : kBuckets - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bulk add into an explicit bucket — the flush path for per-owner
  /// accumulators that bucket with their own mapping (read-path walk hist).
  void add_to_bucket(std::size_t i, std::uint64_t n,
                     std::uint64_t value_sum = 0) noexcept {
    buckets_[i < kBuckets ? i : kBuckets - 1].fetch_add(
        n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    if (value_sum != 0) sum_.fetch_add(value_sum, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket `i` under the power-of-two scheme.
  static std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
    if (i == 0) return 1;
    if (i >= kBuckets - 1) return ~std::uint64_t{0};
    return std::uint64_t{1} << i;
  }
  /// Value at quantile q (bucket upper bound; shared scan in percentile.hpp
  /// — the same walk util::LatencyHistogram::quantile uses).
  std::uint64_t quantile(double q) const noexcept {
    return quantile_from_buckets(
        kBuckets, count(), q, [this](std::size_t i) { return bucket_count(i); },
        [](std::size_t i) { return bucket_upper_bound(i); });
  }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i < kBuckets ? i : kBuckets - 1].load(
        std::memory_order_relaxed);
  }
  /// atomic-array view kept for call sites that indexed the old bespoke
  /// `std::array<std::atomic, N>` histograms directly.
  const std::atomic<std::uint64_t>& operator[](std::size_t i) const noexcept {
    return buckets_[i < kBuckets ? i : kBuckets - 1];
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// One metric's value at a sampling instant (MetricsRegistry
/// ::snapshot_values — the structured sibling of snapshot_json, consumed by
/// the metrics timeline). Counters and gauges fill `value`; histograms fill
/// `value` with the sample count and carry sum + percentile cuts.
struct SampledMetric {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::int64_t value = 0;    // counter/gauge value; histogram count
  std::uint64_t sum = 0;     // histograms only
  std::uint64_t p50 = 0;     // histograms only (bucket upper bounds)
  std::uint64_t p99 = 0;
};

/// Process-wide name -> metric registry. Registration/deregistration take a
/// mutex (cold: component construction); updates never touch the registry.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  void add_counter(const std::string& name, const Counter* c);
  void add_atomic(const std::string& name,
                  const std::atomic<std::uint64_t>* a);
  void add_gauge(const std::string& name, const Gauge* g);
  void add_histogram(const std::string& name, const Histogram* h);
  void remove(const std::string& name, const void* metric);

  /// Summed value of every live counter/atomic registered under `name`
  /// (0 when none is). Gauges sum too (they are per-instance values).
  std::uint64_t counter_value(const std::string& name) const;

  /// One JSON object: counters/gauges as integers, histograms as
  /// {"count", "sum", "buckets": [...]}. Names sorted; instances with the
  /// same name summed.
  std::string snapshot_json() const;

  /// Structured point-in-time cut of every registered metric, sorted by
  /// name, same-name instances summed (histogram percentiles computed over
  /// the merged buckets). One lock, one walk — the bounded per-sample cost
  /// the metrics timeline (obs/timeline.hpp) relies on.
  std::vector<SampledMetric> snapshot_values() const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

/// RAII bundle of registrations; components hold one and chain add_* calls
/// in their constructor. Destruction deregisters everything.
class Registration {
 public:
  Registration() = default;
  ~Registration() { clear(); }
  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  Registration& counter(const std::string& name, const Counter& c) {
    MetricsRegistry::instance().add_counter(name, &c);
    entries_.push_back({name, &c});
    return *this;
  }
  Registration& atomic(const std::string& name,
                       const std::atomic<std::uint64_t>& a) {
    MetricsRegistry::instance().add_atomic(name, &a);
    entries_.push_back({name, &a});
    return *this;
  }
  Registration& gauge(const std::string& name, const Gauge& g) {
    MetricsRegistry::instance().add_gauge(name, &g);
    entries_.push_back({name, &g});
    return *this;
  }
  Registration& histogram(const std::string& name, const Histogram& h) {
    MetricsRegistry::instance().add_histogram(name, &h);
    entries_.push_back({name, &h});
    return *this;
  }

  void clear() {
    for (const auto& e : entries_)
      MetricsRegistry::instance().remove(e.name, e.metric);
    entries_.clear();
  }

 private:
  struct Entry {
    std::string name;
    const void* metric;
  };
  std::vector<Entry> entries_;
};

}  // namespace txf::obs

namespace txf::metrics {
/// The single exporter (see MetricsRegistry::snapshot_json).
inline std::string snapshot_json() {
  return obs::MetricsRegistry::instance().snapshot_json();
}
}  // namespace txf::metrics
