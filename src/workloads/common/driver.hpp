// Shared benchmark driver: worker orchestration, metric aggregation, flag
// parsing, and table printing for the paper-figure benchmarks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/tx_tree.hpp"
#include "util/histogram.hpp"
#include "util/stats.hpp"

namespace txf::workloads {

/// Per-worker metrics; merged by the driver after the run.
struct WorkerMetrics {
  std::uint64_t transactions = 0;   // committed top-level transactions
  util::LatencyHistogram latency;   // ns per committed transaction,
                                    // including retries (paper Figs. 5c/6b)
  void merge(const WorkerMetrics& other) {
    transactions += other.transactions;
    latency.merge(other.latency);
  }
};

/// Plain-value snapshot of the engine counters over a window.
struct StatsDelta {
  std::uint64_t top_commits = 0;
  std::uint64_t top_aborts = 0;
  std::uint64_t tree_restarts = 0;
  std::uint64_t fallback_restarts = 0;
  std::uint64_t future_reexecutions = 0;
  std::uint64_t futures_submitted = 0;
  std::uint64_t ro_validation_skips = 0;
  std::uint64_t serial_fallbacks = 0;
};

/// Aggregated outcome of one measured configuration.
struct RunResult {
  double seconds = 0;
  WorkerMetrics metrics;
  StatsDelta stats_delta;  // engine counters over the window

  double throughput() const {
    return seconds > 0 ? static_cast<double>(metrics.transactions) / seconds
                       : 0;
  }
  /// Abort rate as aborted / started (paper Fig. 6c/6f).
  double abort_rate() const {
    const auto aborts = stats_delta.top_aborts + stats_delta.tree_restarts +
                        stats_delta.fallback_restarts;
    const auto started = stats_delta.top_commits + aborts;
    return started ? static_cast<double>(aborts) /
                         static_cast<double>(started)
                   : 0;
  }
  double mean_latency_us() const { return metrics.latency.mean() / 1000.0; }
  double p99_latency_us() const {
    return static_cast<double>(metrics.latency.p99()) / 1000.0;
  }
};

/// Run `body(worker_id, metrics)` on `threads` OS threads for
/// `duration_ms` (workers poll the stop flag via the returned lambda).
/// `body` receives a `keep_running` callable it must consult between
/// transactions. Captures the engine stats delta around the window.
RunResult run_for(core::Runtime& rt, std::size_t threads, int duration_ms,
                  const std::function<void(std::size_t worker,
                                           const std::function<bool()>& keep,
                                           WorkerMetrics& m)>& body);

/// Tiny command-line flag parser: --name=value / --name value / --flag.
class Args {
 public:
  Args(int argc, char** argv);
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  std::string get_str(const std::string& name, const std::string& def) const;
  bool has(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Fixed-width table printing.
void print_header(const std::vector<std::string>& cols);
void print_row(const std::vector<std::string>& cells);
std::string fmt(double v, int precision = 2);

/// Parse a comma-separated list of non-negative integers ("1,2,4").
/// Malformed input prints a clear message naming the offending token and
/// exits with status 2 (benchmarks are CLIs; don't terminate() on typos).
std::vector<std::uint64_t> parse_u64_list(const std::string& flag_name,
                                          const std::string& value);
std::vector<std::size_t> parse_size_list(const std::string& flag_name,
                                         const std::string& value);

}  // namespace txf::workloads
