#include "workloads/common/driver.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/runtime.hpp"
#include "util/timing.hpp"

namespace txf::workloads {

namespace {

void snapshot_stats(const core::TxStats& s, std::uint64_t out[8]) {
  out[0] = s.top_commits.load();
  out[1] = s.top_aborts.load();
  out[2] = s.tree_restarts.load();
  out[3] = s.fallback_restarts.load();
  out[4] = s.future_reexecutions.load();
  out[5] = s.futures_submitted.load();
  out[6] = s.ro_validation_skips.load();
  out[7] = s.serial_fallbacks.load();
}

}  // namespace

RunResult run_for(core::Runtime& rt, std::size_t threads, int duration_ms,
                  const std::function<void(std::size_t,
                                           const std::function<bool()>&,
                                           WorkerMetrics&)>& body) {
  std::atomic<bool> stop{false};
  std::vector<WorkerMetrics> metrics(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  std::uint64_t before[8];
  snapshot_stats(rt.stats(), before);
  const std::uint64_t t0 = util::now_ns();

  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      const std::function<bool()> keep = [&stop] {
        return !stop.load(std::memory_order_acquire);
      };
      body(w, keep, metrics[w]);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  RunResult result;
  result.seconds = static_cast<double>(util::now_ns() - t0) * 1e-9;
  for (auto& m : metrics) result.metrics.merge(m);
  std::uint64_t after[8];
  snapshot_stats(rt.stats(), after);
  result.stats_delta.top_commits = after[0] - before[0];
  result.stats_delta.top_aborts = after[1] - before[1];
  result.stats_delta.tree_restarts = after[2] - before[2];
  result.stats_delta.fallback_restarts = after[3] - before[3];
  result.stats_delta.future_reexecutions = after[4] - before[4];
  result.stats_delta.futures_submitted = after[5] - before[5];
  result.stats_delta.ro_validation_skips = after[6] - before[6];
  result.stats_delta.serial_fallbacks = after[7] - before[7];
  return result;
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      kv_.emplace_back(arg, argv[++i]);
    } else {
      kv_.emplace_back(arg, "");
    }
  }
}

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  for (const auto& [k, v] : kv_)
    if (k == name && !v.empty()) return std::stoll(v);
  return def;
}

double Args::get_double(const std::string& name, double def) const {
  for (const auto& [k, v] : kv_)
    if (k == name && !v.empty()) return std::stod(v);
  return def;
}

std::string Args::get_str(const std::string& name,
                          const std::string& def) const {
  for (const auto& [k, v] : kv_)
    if (k == name) return v;
  return def;
}

bool Args::has(const std::string& name) const {
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (k == name) return true;
  }
  return false;
}

void print_header(const std::vector<std::string>& cols) {
  for (const auto& c : cols) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%16s", "----");
  std::printf("\n");
}

void print_row(const std::vector<std::string>& cells) {
  for (const auto& c : cells) std::printf("%16s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::vector<std::uint64_t> parse_u64_list(const std::string& flag_name,
                                          const std::string& value) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      std::size_t used = 0;
      const auto v = std::stoull(item, &used);
      if (used != item.size()) throw std::invalid_argument(item);
      out.push_back(v);
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "error: --%s expects a comma-separated list of "
                   "non-negative integers; got \"%s\"\n",
                   flag_name.c_str(), item.c_str());
      std::exit(2);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "error: --%s is empty\n", flag_name.c_str());
    std::exit(2);
  }
  return out;
}

std::vector<std::size_t> parse_size_list(const std::string& flag_name,
                                         const std::string& value) {
  std::vector<std::size_t> out;
  for (const auto v : parse_u64_list(flag_name, value))
    out.push_back(static_cast<std::size_t>(v));
  return out;
}

}  // namespace txf::workloads
