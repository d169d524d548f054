// Runtime configuration knobs for the transactional-futures engine.
//
// The defaults follow the paper's JTF design; the alternatives exist for the
// ablation benchmarks (DESIGN.md experiments Abl. A/B/C).
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/drift.hpp"
#include "obs/timeline.hpp"
#include "util/failpoint.hpp"

namespace txf::core {

/// Where sub-transaction writes live.
enum class WriteMode {
  /// Paper default: tentative versions are linked into the VBox itself; the
  /// head of the tentative list acts as a tree-wide lock, so write-write
  /// conflicts between trees are detected eagerly (§IV-A).
  kEager,
  /// Ablation: writes always go to the tree-private store (the
  /// rootWriteSet generalized with per-owner tags). Inter-tree conflicts
  /// surface only at top-level validation.
  kLazy,
};

/// What happens when a sub-transaction hits a VBox whose tentative list is
/// locked by another transaction tree (Alg. 1, ownedbyAnotherTree).
enum class InterTreePolicy {
  /// Paper behaviour: abort up to the root and re-execute the tree in
  /// fallback mode, where writes go through the tree-private store.
  kAbortToRoot,
  /// Ablation: switch the running tree to the private store on the fly and
  /// continue without aborting.
  kSwitchToPrivate,
};

/// How TxCtx::submit runs a transactional future. Strong ordering makes
/// inline elision (running the body synchronously at the submit point)
/// always semantically correct — the choice is pure scheduling, and every
/// mode passes the same ordering-semantics tests (core_adaptive_test).
enum class SchedulingMode {
  /// Every future spawns a parallel sibling sub-transaction (the
  /// pre-adaptive behaviour; kept for the ablation benches).
  kAlwaysParallel,
  /// Every future is elided inline at the submit point — the sequential
  /// execution the paper defines equivalence against.
  kAlwaysInline,
  /// Every future takes the ordered-execution lane: a real sibling
  /// sub-transaction (split structure, per-node validation, strong-order
  /// commit cascade all preserved) whose body runs synchronously on the
  /// submitting thread, in submission (pre-order) order — "Processing
  /// Transactions in a Predefined Order" applied to sibling subtrees.
  /// Siblings never race, so intra-tree conflict abort-retry vanishes.
  kAlwaysOrdered,
  /// Default: a per-submit-site profitability controller
  /// (core/adaptive.hpp) demotes sites whose bodies are too small — or
  /// too abort-prone — to pay for parallel activation, and periodically
  /// re-probes so sites can earn parallelism back. Fresh sites start
  /// parallel, so first executions behave exactly like kAlwaysParallel.
  kAdaptive,
};

/// Engine configuration, fixed for the lifetime of the Runtime constructed
/// from it. Plain aggregate: set fields, then pass to Runtime's
/// constructor; a copy is taken, later mutation of the original has no
/// effect. Every knob is safe to combine with every other unless noted.
struct Config {
  std::size_t pool_threads = 0;  // 0 = hardware concurrency
  /// Commit-spine stripes (stm/commit_spine.hpp): each VBox hashes to one
  /// of `commit_stripes` independent commit pipelines with its own clock
  /// component. Must be a power of two in [1, stm::kMaxStripes] — Runtime's
  /// constructor throws std::invalid_argument otherwise. 1 reproduces the
  /// unsharded single-pipeline engine exactly.
  unsigned commit_stripes = 8;
  WriteMode write_mode = WriteMode::kEager;
  InterTreePolicy inter_tree = InterTreePolicy::kAbortToRoot;
  /// §IV-E: skip validation of read-only futures when no read-write
  /// sub-transaction committed before them. Off switch is ablation Abl. C.
  bool read_only_future_opt = true;
  // --- future scheduling (core/adaptive.hpp) ---

  /// Inline-vs-parallel elision policy for TxCtx::submit (see
  /// SchedulingMode). Default adaptive.
  SchedulingMode scheduling = SchedulingMode::kAdaptive;
  /// Profitability bar: a site whose EWMA body runtime stays below this is
  /// too small to pay for parallel activation (node + pool hop + per-node
  /// validation) and demotes toward inline. Scaled up automatically under
  /// pool backlog (see AdaptiveScheduler::effective_threshold).
  std::uint64_t adaptive_inline_threshold_ns = 4000;
  /// Timed body samples a site must accumulate before its first demotion
  /// (guards one-shot call sites from ever leaving kParallel).
  std::uint32_t adaptive_min_samples = 8;
  /// Unprofitability score at which a parallel site enters probation.
  std::uint32_t adaptive_demote_after = 8;
  /// Score at which a probation site hardens to fully inline.
  std::uint32_t adaptive_harden_after = 12;
  /// Profitable-sample score that promotes a probation site back to
  /// parallel.
  std::uint32_t adaptive_promote_after = 4;
  /// Elided decisions between parallel re-probes of an inline site
  /// (0 = never re-probe; phase changes then cannot earn parallelism back).
  /// Kept sparse by default: for sub-threshold bodies one probe costs many
  /// elided runs, so the probe tax is what bounds how closely kAdaptive can
  /// track kAlwaysInline on unprofitable sites.
  std::uint32_t adaptive_reprobe_period = 256;
  /// Conflict-rate bar (permille of parallel runs ending in a chargeable
  /// conflict abort) at which a parallel site demotes to the ordered lane
  /// (SiteState::kOrdered) even when its body looks profitable — the
  /// conflict-aware half of the decision function (DESIGN.md §5e).
  std::uint32_t adaptive_conflict_demote_permille = 150;
  /// Conflict-rate floor below which an ordered site's parallel probes have
  /// proved the contention burst over and the site promotes back to
  /// kParallel. Must be below the demote bar (hysteresis).
  std::uint32_t adaptive_conflict_promote_permille = 60;
  /// Decision period between parallel re-probes for conflict-demoted sites
  /// (kOrdered, and kInline reached through the conflict path). Denser than
  /// adaptive_reprobe_period so a bursty-contention demotion is not a
  /// permanent blacklist: each clean probe decays the conflict EWMA.
  std::uint32_t adaptive_ordered_reprobe_period = 64;
  /// Chargeable conflict aborts observed while a site is kOrdered before it
  /// hardens to kInline — conflicts that survive sibling serialization are
  /// inter-tree, so ordering buys nothing and full co-location is cheaper.
  std::uint32_t adaptive_ordered_harden_after = 8;

  // --- contention manager (bounded retry + graceful degradation) ---

  /// Parallel attempts per atomically() before escalating to the
  /// serial-irrevocable fallback. The budget counts *failed* attempts of any
  /// kind (conflicts, stalls, chaos-induced aborts). 0 disables escalation
  /// (retry forever, the pre-robustness behaviour).
  std::uint32_t max_attempts = 16;
  /// Capped exponential backoff between attempts: attempt k waits a uniform
  /// random slice of [0, min(backoff_base_us << k, backoff_cap_us)] (full
  /// jitter, so colliding trees decorrelate).
  std::uint32_t backoff_base_us = 4;
  std::uint32_t backoff_cap_us = 1000;
  /// Optional wall-clock deadline for one atomically() call, in
  /// microseconds; when it expires the current attempt is abandoned and the
  /// call escalates straight to the serial-irrevocable fallback
  /// (0 = no deadline).
  std::uint64_t tx_deadline_us = 0;
  /// Stall detector: a thread waiting inside a transaction (future
  /// evaluation, top-commit wait) that observes no tree progress for this
  /// long declares the attempt wedged and fails it — the retry budget and
  /// serial fallback then guarantee termination. 0 disables detection.
  std::uint64_t stall_timeout_us = 250000;

  /// Chaos schedule armed for the lifetime of the Runtime (failpoint
  /// framework; see util/failpoint.hpp). Empty = disarmed. Failure
  /// injection goes through chaos rules only — e.g. the old validation
  /// knob is spelled
  ///   cfg.chaos.add("core.subtxn.validate", util::fp::Action::kFail, N);
  util::fp::ChaosPlan chaos{};

  // --- drift observability (obs/timeline.hpp, obs/drift.hpp) ---

  /// Periodic metrics-timeline sampler owned by the Runtime. Disabled by
  /// default; txf_server enables it, and TXF_TIMELINE=1 in the environment
  /// (with optional TXF_TIMELINE_MS) overrides for any Runtime — that is
  /// how the trace-overhead bench turns it on without a code path.
  obs::TimelineConfig timeline{};
  /// Thresholds for the drift detectors evaluated over the timeline.
  /// Consumed by whoever owns a DriftMonitor (txf_server's controller);
  /// carried here so one Config describes the whole soak.
  obs::DriftConfig drift{};
};

}  // namespace txf::core
