// Runtime: the engine object binding the STM environment, the future
// execution pool, configuration, and statistics. One per process is
// typical; tests create private instances.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/adaptive.hpp"
#include "core/config.hpp"
#include "core/serial_gate.hpp"
#include "core/tx_tree.hpp"
#include "sched/thread_pool.hpp"
#include "stm/transaction.hpp"
#include "util/failpoint.hpp"
#include "util/stats.hpp"

namespace txf::core {

class Runtime {
 public:
  explicit Runtime(Config config = {})
      : config_(std::move(config)),
        env_(validated_stripes(config_)),
        pool_(config_.pool_threads),
        adaptive_(config_, pool_) {
    // Arm the chaos plan (if any) for the lifetime of this runtime.
    if (!config_.chaos.rules.empty()) {
      util::fp::Controller::instance().arm(config_.chaos);
      armed_chaos_ = true;
    }
    maybe_start_timeline();
  }

  ~Runtime() {
    if (armed_chaos_) util::fp::Controller::instance().disarm();
  }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Config& config() const noexcept { return config_; }
  stm::StmEnv& env() noexcept { return env_; }
  sched::ThreadPool& pool() noexcept { return pool_; }
  /// Per-submit-site inline-vs-parallel controller (core/adaptive.hpp).
  adaptive::AdaptiveScheduler& adaptive() noexcept { return adaptive_; }
  TxStats& stats() noexcept { return stats_; }
  util::RobustnessCounters& robustness() noexcept { return robustness_; }

  /// The periodic metrics timeline, or null when not enabled
  /// (Config::timeline.enabled, or TXF_TIMELINE=1 in the environment).
  obs::MetricsTimeline* timeline() noexcept { return timeline_.get(); }

  /// Serial-irrevocable token. Every top-level attempt holds it shared; an
  /// escalated attempt takes it exclusive, so while the escalated transaction
  /// runs no other top-level transaction can start or commit — the escalated
  /// tree executes its futures inline and cannot lose a conflict, which
  /// bounds every atomically() call (see api.hpp contention manager).
  /// Shared entries defer to pending escalations, so an escalation cannot
  /// starve under a stream of parallel attempts (core/serial_gate.hpp).
  SerialGate& serial_gate() noexcept { return serial_gate_; }

  /// Dump the engine counters (for debugging and example epilogues).
  void print_stats(std::FILE* out = stderr) const {
    std::fprintf(
        out,
        "txfutures stats: commits=%llu top_aborts=%llu tree_restarts=%llu "
        "fallback_restarts=%llu future_reexecs=%llu futures=%llu "
        "ro_skips=%llu serial_fallbacks=%llu join_helped=%llu "
        "join_blocked=%llu\n",
        static_cast<unsigned long long>(stats_.top_commits.load()),
        static_cast<unsigned long long>(stats_.top_aborts.load()),
        static_cast<unsigned long long>(stats_.tree_restarts.load()),
        static_cast<unsigned long long>(stats_.fallback_restarts.load()),
        static_cast<unsigned long long>(stats_.future_reexecutions.load()),
        static_cast<unsigned long long>(stats_.futures_submitted.load()),
        static_cast<unsigned long long>(stats_.ro_validation_skips.load()),
        static_cast<unsigned long long>(stats_.serial_fallbacks.load()),
        static_cast<unsigned long long>(stats_.join_helped.load()),
        static_cast<unsigned long long>(stats_.join_blocked.load()));
    robustness_.print(out);
    print_commit_pipeline(out);
  }

  /// Commit-pipeline breakdown (sharded spine; see stm/commit_spine.hpp):
  /// stage-1 sheds, batch count and mean size, mean queue dwell time, and —
  /// when sharded — the per-stripe committed-writer split.
  void print_commit_pipeline(std::FILE* out = stderr) const {
    const stm::CommitSpine& q = env_.queue();
    const unsigned long long batches = q.batch_count();
    const unsigned long long batched = q.batched_requests();
    const unsigned long long samples = q.queue_dwell_samples();
    std::fprintf(
        out,
        "commit pipeline: committed=%llu aborted=%llu prevalidation_sheds=%llu "
        "batches=%llu avg_batch=%.2f avg_dwell_ns=%llu\n",
        static_cast<unsigned long long>(q.committed_count()),
        static_cast<unsigned long long>(q.aborted_count()),
        static_cast<unsigned long long>(q.prevalidation_sheds()), batches,
        batches != 0 ? static_cast<double>(batched) / static_cast<double>(batches)
                     : 0.0,
        samples != 0 ? static_cast<unsigned long long>(q.queue_dwell_ns() /
                                                       samples)
                     : 0ULL);
    std::fprintf(out, "batch size histogram (1,2,<=4,<=8,...,65+):");
    for (std::size_t i = 0; i < stm::CommitQueue::kBatchSizeBuckets; ++i) {
      std::fprintf(out, " %llu",
                   static_cast<unsigned long long>(q.batch_size_bucket(i)));
    }
    std::fprintf(out, "\n");
    if (q.stripes() > 1) {
      std::fprintf(out, "commit stripes (committed per stripe, %u stripes):",
                   q.stripes());
      for (unsigned s = 0; s < q.stripes(); ++s) {
        std::fprintf(out, " %llu",
                     static_cast<unsigned long long>(q.stripe_committed(s)));
      }
      std::fprintf(
          out, "  multi_commits=%llu multi_aborts=%llu\n",
          static_cast<unsigned long long>(q.multi_commits()),
          static_cast<unsigned long long>(q.multi_aborts()));
    }
  }

 private:
  /// Reject a malformed stripe count before the StmEnv is built: the stripe
  /// router masks with (stripes - 1), so anything that is not a power of
  /// two would silently alias stripes rather than misbehave loudly.
  static unsigned validated_stripes(const Config& config) {
    const unsigned n = config.commit_stripes;
    if (n == 0 || (n & (n - 1)) != 0 || n > stm::kMaxStripes) {
      throw std::invalid_argument(
          "Config::commit_stripes must be a power of two in [1, " +
          std::to_string(stm::kMaxStripes) +
          "], got " + std::to_string(n));
    }
    return n;
  }

  /// Start the timeline sampler when asked for by the config or the
  /// TXF_TIMELINE=1 / TXF_TIMELINE_MS environment overrides. Providers
  /// cover the drift signals that are deliberately not registry metrics:
  /// the EBR pending count (an accessor, sampled as a level) and the
  /// per-stripe committed splits (the registry sums the per-stripe
  /// `stm.commit.*` instances by design; skew needs them apart).
  void maybe_start_timeline() {
    obs::TimelineConfig tl = config_.timeline;
    if (const char* env = std::getenv("TXF_TIMELINE")) {
      tl.enabled = !(env[0] == '0' || env[0] == '\0');
    }
    if (const char* ms = std::getenv("TXF_TIMELINE_MS")) {
      const long v = std::strtol(ms, nullptr, 10);
      if (v > 0) tl.interval_ms = static_cast<std::uint32_t>(v);
    }
    if (!tl.enabled) return;
    timeline_ = std::make_unique<obs::MetricsTimeline>(tl);
    timeline_->add_provider("ebr.pending", obs::SeriesKind::kLevel, [this] {
      return static_cast<double>(env_.epochs().pending_count());
    });
    const stm::CommitSpine& q = env_.queue();
    if (q.stripes() > 1) {
      for (unsigned s = 0; s < q.stripes(); ++s) {
        timeline_->add_provider(
            "stm.commit.stripe." + std::to_string(s) + ".committed",
            obs::SeriesKind::kDelta,
            [&q, s] { return static_cast<double>(q.stripe_committed(s)); });
      }
    }
    timeline_->start();
  }

  Config config_;
  stm::StmEnv env_;
  sched::ThreadPool pool_;
  adaptive::AdaptiveScheduler adaptive_;  // must follow config_ and pool_
  TxStats stats_;
  util::RobustnessCounters robustness_;
  SerialGate serial_gate_;
  bool armed_chaos_ = false;
  /// Declared last: destroyed first, so the sampler thread (which reads
  /// env_ through the providers above) is joined before env_ goes away.
  std::unique_ptr<obs::MetricsTimeline> timeline_;
};

}  // namespace txf::core
