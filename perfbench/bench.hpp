// Shared pieces of the benchmark program: options, the latency histogram,
// metrics-registry deltas and the result every workload fills in.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // empty = do not write the span sample
};

/// Log-linear latency histogram (64 sub-buckets per power of two, so a
/// bucket is at most 1.6% wide; values up to 2^40 ns). Quantiles
/// interpolate linearly inside the bucket by rank. util::LatencyHistogram
/// reports a bucket's upper bound instead, so on a steady run its p50 reads
/// the same 3%-wide step run after run and hides changes smaller than that.
class LatHist {
 public:
  void record(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const LatHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const { return count_; }

  /// Value at quantile q in microseconds (0 when empty).
  double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const double c = static_cast<double>(buckets_[i]);
      if (c == 0.0) continue;
      if (cum + c >= target) {
        const double frac = (target - cum) / c;
        return (static_cast<double>(lower(i)) +
                frac * static_cast<double>(width(i))) /
               1e3;
      }
      cum += c;
    }
    return static_cast<double>(lower(kBuckets - 1)) / 1e3;
  }

 private:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = 2 * kSub + 32 * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const unsigned e = static_cast<unsigned>(std::bit_width(v)) - (kSubBits + 1);
    const std::size_t i = 2 * kSub + (e - 1) * kSub +
                          static_cast<std::size_t>((v >> e) - kSub);
    return i < kBuckets ? i : kBuckets - 1;
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::size_t e = (i - 2 * kSub) / kSub + 1;
    const std::size_t m = (i - 2 * kSub) % kSub + kSub;
    return static_cast<std::uint64_t>(m) << e;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < 2 * kSub) return 1;
    return std::uint64_t{1} << ((i - 2 * kSub) / kSub + 1);
  }

  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Summed changes of the metrics registry between snapshots. Counters and
/// gauges contribute their value; histograms their count (`value`) and sum.
class RegistryDelta {
 public:
  void begin() { before_ = snap(); }
  void end() {
    for (const auto& [name, m] : snap()) {
      auto it = before_.find(name);
      const double v0 = it != before_.end() ? static_cast<double>(it->second.value) : 0.0;
      const double s0 = it != before_.end() ? static_cast<double>(it->second.sum) : 0.0;
      value_[name] += static_cast<double>(m.value) - v0;
      sum_[name] += static_cast<double>(m.sum) - s0;
    }
  }
  double value(const std::string& name) const {
    auto it = value_.find(name);
    return it != value_.end() ? it->second : 0.0;
  }
  double sum(const std::string& name) const {
    auto it = sum_.find(name);
    return it != sum_.end() ? it->second : 0.0;
  }

 private:
  static std::map<std::string, txf::obs::SampledMetric> snap() {
    std::map<std::string, txf::obs::SampledMetric> out;
    for (auto& m : txf::obs::MetricsRegistry::instance().snapshot_values())
      out[m.name] = m;
    return out;
  }
  std::map<std::string, txf::obs::SampledMetric> before_;
  std::map<std::string, double> value_;
  std::map<std::string, double> sum_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // sample count or ratio base, printed beside the value
};

/// One run's outcome. `e2e` metrics are the JSON metrics of an untraced
/// run, `layer` those of a traced run; `info` lines are printed either way.
struct Result {
  std::string threads;  // thread split, for the provenance record
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> info;
  std::vector<std::string> check_failures;

  void fail_check(const std::string& what) {
    correct = false;
    if (check_failures.size() < 16) check_failures.push_back(what);
  }
};

/// Runs the workload named in `opt` (throws std::invalid_argument for an
/// unknown name).
Result run_workload(const Options& opt);

}  // namespace pb
