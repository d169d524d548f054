// Group-commit pipeline — the ordered commit path of the JVSTM-style
// substrate (paper §III-A), refactored from "every helper processes every
// request end-to-end in order" into three stages:
//
//   1. PRE-VALIDATION (parallel, queue-free). A committer checks its read
//      set against the permanent lists at the current clock *before*
//      enqueueing. A box whose committed head already exceeds the snapshot
//      dooms the request no matter where it would land in the queue
//      (versions only grow), so it is shed without ever touching the queue
//      or allocating write-back nodes. See prevalidate().
//
//   2. BATCHED VERSION ASSIGNMENT (combiner + helpers). A combiner claims
//      the whole current queue segment as an immutable Batch
//      (flat-combining style), then every thread waiting on the queue
//      replays one deterministic pass over it: final-validate each request
//      against the frozen permanent state AND against the write sets of
//      earlier valid requests of the same batch, merge verdicts through
//      first-wins CASes, and assign *consecutive* versions base+1..base+k
//      to the valid requests — aborted requests consume no version, so the
//      clock stays gap-free and equal to the committed-writer count.
//
//   3. PARALLEL WRITE-BACK (fan-out). The deterministic pass also yields a
//      per-box partition plan (boxes are disjoint across partitions, nodes
//      within a partition ascend in version). Helpers claim partitions via
//      fetch_add and link them; every helper then runs a cheap idempotent
//      sweep over all partitions, so a stalled helper can never strand a
//      box. The global clock is published ONCE per batch, only after the
//      sweep proves every box linked — snapshots observe a batch atomically.
//
// Idempotence / helping argument (the part that must survive review):
//  * The Batch is fully formed (request array, base version) before it is
//    published by a single CAS; helpers only ever see complete batches.
//  * The deterministic pass is a pure function of (batch contents, stored
//    verdicts, permanent state frozen at batch start). Verdict CASes are
//    first-wins; write-back cannot start until every verdict is decided, so
//    any verdict computed from mutating state necessarily loses its CAS and
//    the stored (pre-write-back) value is used instead. Version stamps and
//    commit_version_ stores are therefore always the same value from every
//    helper, which is why those fields are atomics written with plain
//    stores.
//  * Per-box linking reuses the PR-0 idempotent CAS: helpers share the one
//    pre-allocated node per (request, box); `head->version >= node->version`
//    means someone else already linked it. Nodes of one box are attempted
//    in ascending version order by every helper, so the permanent list
//    stays strictly version-descending.
//  * Completion (clock advance, done flags, head swing, slot clear) is a
//    sequence of idempotent or CAS-once steps any helper can execute; a
//    combiner that stalls at any point — including immediately after
//    publishing its batch — is simply overtaken.
//
// A batch is stale when its boundary no longer equals head_ (its requests
// were already retired by a completed batch) or, while incomplete, when a
// multi-stripe commit froze and released the stripe after the batch read
// its generation (its base version may already be taken). Both are stable:
// head_ is monotone, and no freeze can start while a batch holds the slot.
// Every helper checks before acting.
//
// Requests and version nodes are pooled: EBR retirement funnels them into
// thread-local free lists (vector capacity preserved) instead of the
// allocator. See commit_queue.cpp.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "stm/global_clock.hpp"
#include "stm/versions.hpp"
#include "util/epoch.hpp"

namespace txf::stm {

class VBoxImpl;

/// Commit-pipeline stages timed into "stm.commit.stage.<stage>_ns".
enum class CommitStage : unsigned { kPrevalidate, kAssign, kWriteback };

/// Sampled stage timer (RAII): one in 16 executions of a stage on a thread
/// pays two steady_clock reads and records its duration into `h`; the
/// histogram reports the sampled distribution. Every stage counts on its
/// own thread-local tick: one commit runs several stages, and a shared tick
/// phase-locks a stage onto ticks that never sample. The txtrace span is
/// independent (TSC, own gate).
class StageTimer {
 public:
  StageTimer(CommitStage stage, obs::Histogram& h) noexcept {
    thread_local std::array<std::uint32_t, 3> ticks{};
    if ((++ticks[static_cast<unsigned>(stage)] & 15u) == 0) {
      h_ = &h;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~StageTimer() {
    if (h_ == nullptr) return;
    h_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count()));
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  obs::Histogram* h_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

/// One pre-allocated permanent node per written box; helpers link exactly
/// this node, which is what makes concurrent write-back idempotent.
struct WriteBackEntry {
  VBoxImpl* box;
  PermanentVersion* node;
};

class CommitRequest {
 public:
  enum class Verdict : std::uint8_t { kUnknown, kValid, kAborted };

  std::vector<WriteBackEntry> writes;
  std::vector<VBoxImpl*> reads;
  Version snapshot = 0;

  Version commit_version() const noexcept {
    return commit_version_.load(std::memory_order_acquire);
  }
  Verdict verdict() const noexcept {
    return verdict_.load(std::memory_order_acquire);
  }
  bool done() const noexcept { return done_.load(std::memory_order_acquire); }

 private:
  friend class CommitQueue;
  friend class CommitSpine;  // multi-stripe path stores the verdict itself
  std::atomic<Version> commit_version_{0};
  std::atomic<Verdict> verdict_{Verdict::kUnknown};
  std::atomic<bool> done_{false};
  std::atomic<CommitRequest*> next_{nullptr};
};

class CommitQueue {
 public:
  /// Upper bound on requests claimed into one batch (also the clock's
  /// maximum jump); tests can lower it to force specific schedules.
  static constexpr std::uint32_t kDefaultBatchLimit = 128;
  /// Power-of-two batch-size histogram buckets: 1, 2, 3-4, 5-8, ..., 65+.
  static constexpr std::size_t kBatchSizeBuckets = 8;

  /// `stripe` is this pipeline's index in the commit spine (0 for the
  /// single-stripe configuration): it selects the registry component the
  /// version GC consults and tags this queue's trace spans.
  CommitQueue(GlobalClock& clock, ActiveTxnRegistry& registry,
              util::EpochDomain& epochs, unsigned stripe = 0);
  ~CommitQueue();

  CommitQueue(const CommitQueue&) = delete;
  CommitQueue& operator=(const CommitQueue&) = delete;

  /// Stage 1: shed a doomed read set without touching the queue. Returns
  /// false (and counts the shed as an abort) iff some read box already has a
  /// committed version newer than `snapshot`. Callers use this *before*
  /// allocating a CommitRequest; passing it does not guarantee the final
  /// (stage 2) validation will pass.
  bool prevalidate(const std::vector<VBoxImpl*>& reads, Version snapshot);

  /// Stages 2+3: enqueue `req`, help batches until it is done, and return
  /// whether it committed. On success the write-back has been applied and
  /// the global clock covers the batch; on failure the caller owns retry.
  /// The queue takes ownership of `req` and of the nodes of an aborted
  /// request's write set. Caller must hold an EBR guard on the domain passed
  /// at construction.
  bool commit(CommitRequest* req);

  /// Acquire a request from the thread-local pool (fields reset, vector
  /// capacity preserved). Ownership passes back to the queue via commit().
  static CommitRequest* acquire_request();

  /// Acquire a write-back node from the thread-local pool.
  static PermanentVersion* acquire_node(Word value);

  /// Retire a request back into the pools through EBR (the multi-stripe
  /// commit path owns its request end-to-end instead of handing it to a
  /// queue, so it needs the recycler the head-swing winner normally runs).
  static void retire_request(CommitRequest* req, util::EpochDomain& epochs);

  /// Account a stage-1 shed decided outside this queue (the commit spine
  /// prevalidates sharded read sets box-by-box and attributes the shed to
  /// the failing box's stripe).
  void note_shed() noexcept {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    aborted_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- stripe freeze (multi-stripe commit protocol; see commit_spine.hpp) --

  /// Block batch formation on this stripe and drain the in-flight batch.
  /// On return the caller exclusively owns this stripe's clock component and
  /// permanent-list heads: no batch is active, none can form, and any other
  /// multi-stripe committer is excluded until unfreeze(). The freezer helps
  /// the current batch to completion rather than waiting on it (liveness on
  /// oversubscribed hosts). Committers meanwhile keep enqueueing; their
  /// requests wait for unfreeze().
  void freeze();
  void unfreeze();

  std::uint64_t committed_count() const noexcept {
    return committed_.load(std::memory_order_relaxed);
  }
  std::uint64_t aborted_count() const noexcept {
    return aborted_.load(std::memory_order_relaxed);
  }

  // --- pipeline observability (bench/CI attribution) ---

  /// Requests shed by stage-1 pre-validation (included in aborted_count).
  std::uint64_t prevalidation_sheds() const noexcept {
    return sheds_.load(std::memory_order_relaxed);
  }
  /// Batches processed (stage 2 combiner claims).
  std::uint64_t batch_count() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Requests that went through a batch (committed + queue-aborted).
  std::uint64_t batched_requests() const noexcept {
    return batched_requests_.load(std::memory_order_relaxed);
  }
  /// Batch-size histogram bucket `i` covers sizes (2^(i-1), 2^i].
  std::uint64_t batch_size_bucket(std::size_t i) const noexcept {
    return batch_size_hist_[i < kBatchSizeBuckets ? i : kBatchSizeBuckets - 1]
        .load(std::memory_order_relaxed);
  }
  /// Requests currently between enqueue and completion (instantaneous,
  /// relaxed — a load-shedding signal, not an exact census). Also the
  /// "stm.commit.queue_depth" gauge.
  std::int64_t queue_depth() const noexcept {
    const std::int64_t d = queue_depth_.load();
    return d < 0 ? 0 : d;
  }
  /// Total nanoseconds requests spent between enqueue and done, and the
  /// number of requests measured (dwell = queue latency of stage 2+3).
  std::uint64_t queue_dwell_ns() const noexcept {
    return dwell_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t queue_dwell_samples() const noexcept {
    return dwell_samples_.load(std::memory_order_relaxed);
  }
  /// Per-stage duration histograms (sampled, nanoseconds): stage 1
  /// pre-validation, stage 2 deterministic pass, stage 3 write-back fan-out.
  /// Registered as "stm.commit.stage.{prevalidate,assign,writeback}_ns".
  const obs::Histogram& stage_prevalidate_ns() const noexcept {
    return prevalidate_ns_;
  }
  const obs::Histogram& stage_assign_ns() const noexcept { return assign_ns_; }
  const obs::Histogram& stage_writeback_ns() const noexcept {
    return writeback_ns_;
  }
  /// Registry-backed batch-size distribution ("stm.commit.batch_size",
  /// full 32-bucket resolution; batch_size_bucket() keeps the coarse view).
  const obs::Histogram& batch_size_hist() const noexcept {
    return batch_size_h_;
  }

  /// Cap on requests per batch (tests force 1 to serialize, or small values
  /// to exercise segment boundaries).
  void set_batch_limit(std::uint32_t limit) noexcept {
    batch_limit_.store(limit == 0 ? 1 : limit, std::memory_order_relaxed);
  }

 private:
  friend class VBoxImpl;  // retire_node feeds the node pool's recycler

  /// An immutable segment claim plus the batch's shared merge state. The
  /// request array and base version are frozen before publication; only the
  /// claim/stat atomics mutate afterwards.
  struct Batch {
    CommitRequest* boundary = nullptr;       // head_ value the batch extends
    std::vector<CommitRequest*> reqs;        // segment, in queue order
    Version base = 0;                        // clock before this batch
    std::uint64_t freeze_gen = 0;            // freeze_gen_ read before base
    std::atomic<std::uint32_t> next_partition{0};
    // Set once the clock and all done flags are published: late helpers skip
    // the deterministic pass and write-back and jump to the cleanup steps.
    std::atomic<bool> completed{false};
    std::atomic<bool> stats_done{false};
  };

  /// Thread-local scratch for the deterministic pass (see commit_queue.cpp);
  /// all helpers independently compute identical plans from it.
  struct Plan;

  static Plan& local_plan();
  /// Sentinel stored in batch_ while the stripe is frozen: batch formation
  /// already refuses when the slot is occupied, so freezing is just keeping
  /// it occupied by a batch nobody can help.
  static Batch* frozen_sentinel();
  /// Trace span argument: stripe id in the high byte, size capped below it.
  std::uint32_t span_arg(std::size_t n) const noexcept {
    const auto capped =
        n > 0xffffffu ? 0xffffffu : static_cast<std::uint32_t>(n);
    return (static_cast<std::uint32_t>(stripe_) << 24) | capped;
  }
  /// EBR deleters that recycle into the thread-local pools backing
  /// acquire_request()/acquire_node() (overflow falls back to delete).
  static void recycle_request(void* p);
  static void recycle_node(void* p);
  static Batch* acquire_batch();
  static void recycle_batch(void* p);

  void enqueue(CommitRequest* req);
  void help_until_done(CommitRequest* target);
  /// Form a batch from the current head_ segment and publish it; no-op if a
  /// batch is already active or the segment is empty.
  void try_form_batch();
  /// Drive `b` to completion (or bail if it is stale). Safe for any helper.
  void help_batch(Batch* b);
  /// The deterministic verdict/version/partition pass (stage 2).
  void build_plan(Batch& b, Plan& plan);
  /// Link one partition's nodes in ascending version order (idempotent).
  void link_partition(const Plan& plan, std::size_t part);
  void record_batch_stats(Batch& b);
  /// Trim every box `req` wrote behind this stripe's snapshot floor.
  void trim_writes(CommitRequest& req);

  GlobalClock& clock_;
  ActiveTxnRegistry& registry_;
  util::EpochDomain& epochs_;
  unsigned stripe_;

  // head_ = boundary: the last retired-or-sentinel request; its successors
  // are the unclaimed segment. tail_ = last enqueued (MS-queue style).
  util::CacheAligned<std::atomic<CommitRequest*>> head_;
  util::CacheAligned<std::atomic<CommitRequest*>> tail_;
  // The single active batch (nullptr between batches). Serializes stage 2/3
  // at batch granularity; within a batch all threads cooperate.
  util::CacheAligned<std::atomic<Batch*>> batch_{nullptr};

  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::array<std::atomic<std::uint64_t>, kBatchSizeBuckets> batch_size_hist_{};
  std::atomic<std::uint64_t> dwell_ns_{0};
  std::atomic<std::uint64_t> dwell_samples_{0};
  obs::Gauge queue_depth_;  // enqueued minus completed (see queue_depth())
  // Bumped by unfreeze() before it releases the batch slot: a batch whose
  // recorded generation differs was formed around a multi-stripe commit and
  // its base version is stale (see try_form_batch).
  util::CacheAligned<std::atomic<std::uint64_t>> freeze_gen_{0};
  // Write-back found a box head carrying this batch's version that is not
  // the batch's node: two commits were assigned one version.
  obs::Counter link_invariant_failures_;
  std::atomic<std::uint32_t> batch_limit_{kDefaultBatchLimit};

  obs::Histogram prevalidate_ns_;
  obs::Histogram assign_ns_;
  obs::Histogram writeback_ns_;
  obs::Histogram batch_size_h_;
  obs::Registration reg_;  // "stm.commit.*" (see constructor)
};

}  // namespace txf::stm
