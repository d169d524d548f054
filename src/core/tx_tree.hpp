// TxTree: one top-level transaction together with its tree of
// sub-transactions (futures and continuations). Implements the paper's
// concurrency control (§III-IV):
//
//  * reads per Alg. 2 — own/ancestor tentative versions (ancVer/nClock
//    visibility), then the root write set, then the committed snapshot;
//  * writes per Alg. 1 — tentative versions linked into the VBox whose head
//    doubles as a tree-wide lock (eager mode), with the tree-private store
//    as the fallback (rootWriteSet generalization) on inter-tree conflicts;
//  * commit ordering per Alg. 3/4 — nodes commit strictly in the pre-order
//    dictated by strong ordering semantics; commits cascade bottom-up,
//    re-owning orecs to the parent and bumping its nClock;
//  * top-level commit — merged read-set validation and write-back through
//    the STM's helped commit queue.
//
// Threading model: user code runs on the submitting thread (root +
// continuations) and on pool threads (futures). All tree-structure
// mutations and the commit cascade run under `mutex_`; the data fast paths
// (read/write on VBoxes) touch only atomics, the tree-private store's spin
// lock, and immutable node metadata.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hpp"
#include "core/future_state.hpp"
#include "core/subtxn.hpp"
#include "obs/abort_cause.hpp"
#include "obs/metrics.hpp"
#include "stm/transaction.hpp"
#include "util/spin_lock.hpp"

namespace txf::core {

class Runtime;

/// Thrown (internally) to unwind user code when the whole tree must
/// restart; caught by the atomically() driver.
struct TreeFailed {
  enum class Reason : std::uint8_t {
    kContinuationConflict,  // intra-tree validation failure (TreeRestart)
    kInterTreeConflict,     // Alg. 1 ownedbyAnotherTree -> restart in fallback
    kTopLevelConflict,      // commit-queue validation failed
    kUserException,         // user code threw inside a future body
    kStalled,               // stall detector: no tree progress for too long
    kStaleSnapshot,         // snapshot lost a race with version trimming
  };
  Reason reason;
};

/// Thrown inside a future task whose sub-transaction was cancelled (its
/// subtree is being re-executed or the tree failed). Swallowed by the task
/// wrapper.
struct NodeCancelled {};

/// Per-runtime counters (shared by all trees; relaxed atomics). The one
/// bumped by every call is sharded across cache lines.
struct TxStats {
  obs::Counter top_commits;
  std::atomic<std::uint64_t> top_aborts{0};          // commit-queue conflicts
  std::atomic<std::uint64_t> tree_restarts{0};       // continuation conflicts
  std::atomic<std::uint64_t> fallback_restarts{0};   // inter-tree conflicts
  std::atomic<std::uint64_t> future_reexecutions{0}; // future validation fail
  std::atomic<std::uint64_t> futures_submitted{0};
  std::atomic<std::uint64_t> ro_validation_skips{0}; // §IV-E fast path taken
  std::atomic<std::uint64_t> serial_fallbacks{0};    // convergence fallback
  // How joins (TxFuture::get in a transaction, the top-commit wait) end
  // when the awaited work was not done yet: every body this thread was
  // waiting for ran here, or the wait had to sleep.
  obs::Counter join_helped;
  obs::Counter join_blocked;

  TxStats() {
    reg_.counter("core.top_commits", top_commits)
        .atomic("core.top_aborts", top_aborts)
        .atomic("core.tree_restarts", tree_restarts)
        .atomic("core.fallback_restarts", fallback_restarts)
        .atomic("core.future_reexecutions", future_reexecutions)
        .atomic("core.futures_submitted", futures_submitted)
        .atomic("core.ro_validation_skips", ro_validation_skips)
        .atomic("core.serial_fallbacks", serial_fallbacks)
        .counter("core.join.helped", join_helped)
        .counter("core.join.blocked", join_blocked);
  }

  void reset() {
    top_commits.reset();
    top_aborts = 0;
    tree_restarts = 0;
    fallback_restarts = 0;
    future_reexecutions = 0;
    futures_submitted = 0;
    ro_validation_skips = 0;
    serial_fallbacks = 0;
    join_helped.reset();
    join_blocked.reset();
  }

 private:
  obs::Registration reg_;  // "core.*" in the MetricsRegistry
};

/// Life cycle: one tree per attempt, recycled per thread. acquire() takes a
/// scrubbed tree from the calling thread's pool (or builds one), binds it to
/// the runtime and opens its snapshot; retire() hands it to EBR, whose
/// deleter scrubs it and returns it to the pool of whichever thread frees
/// it. A pooled tree keeps its containers' capacity (bounded, see
/// kKeepCapacity) but nothing a Runtime owns, so runtimes may come and go
/// while trees wait in pools.
class TxTree {
 public:
  enum class TreeStatus : std::uint8_t { kActive, kCommitted, kAborted };

  /// Entries a pooled tree's containers may keep capacity for; a larger
  /// attempt (one read of every box of a big array, say) gives its memory
  /// back when it is scrubbed.
  static constexpr std::size_t kKeepCapacity = 1024;

  /// A tree armed for one attempt on `runtime`. `fallback` starts the tree
  /// with all sub-transaction writes going to the tree-private store (set
  /// when restarting after an inter-tree conflict, per Alg. 1).
  static TxTree* acquire(Runtime& runtime, bool fallback);

  /// End of the attempt: flush residual stats into the runtime, then retire
  /// through EBR into a thread-local pool. Call after the attempt committed
  /// or abort_tree() ran; the tree must not be touched afterwards.
  void retire();

  TxTree(const TxTree&) = delete;
  TxTree& operator=(const TxTree&) = delete;
  ~TxTree() = default;

  Runtime& runtime() noexcept { return *runtime_; }
  /// The per-stripe snapshot vector this tree reads at.
  const stm::SnapshotVec& snapshot_vec() const noexcept { return snapshot_; }
  /// Sum of the snapshot components: a monotonic progress stamp used by
  /// retry_now() to park until any later commit (api.hpp).
  stm::Version snapshot_total() const noexcept {
    return snapshot_.total(nstripes_);
  }
  SubTxn* root() noexcept { return &node(root_); }
  TreeStatus status() const noexcept {
    return status_.load(std::memory_order_acquire);
  }
  bool in_fallback() const noexcept {
    return fallback_.load(std::memory_order_acquire);
  }

  /// Process-unique, never-reused attempt id (handed out from per-thread
  /// blocks of a global counter; 0 is reserved as "no owner"). Containers
  /// use (tree id, node idx) as an ownership token for attempt-private
  /// structures — pointer identity alone is unsafe because trees are
  /// recycled, so the next attempt may well be this very object.
  std::uint64_t id() const noexcept { return id_; }

  // --- per-attempt container state (containers/tx_btree.hpp) ---
  //
  // A container may park one opaque object per (tree, container) pair and
  // have it finalized exactly once when the attempt's fate is known. The
  // finalizer runs with `committed` telling it whether the tree's final
  // write set was published; it runs after drain_tasks() (no task of this
  // tree can still touch attempt-private memory) and — on the commit path —
  // before release_registry(), so the tree's own snapshot still pins its
  // freshly committed versions against concurrent trims while the finalizer
  // walks version lists.

  /// Deleter/finalizer for a parked attempt state.
  using AttemptFinalizer = void (*)(void* state, bool committed);

  /// The state parked under `key`, or nullptr.
  void* attempt_state(const void* key) noexcept;

  /// Get-or-create: returns the state parked under `key` (a container
  /// instance address), calling `create(create_arg)` to build it on first
  /// use. Atomic against concurrent futures of this tree racing the first
  /// touch; `fin` is remembered from the creating call.
  void* ensure_attempt_state(const void* key, void* (*create)(void* arg),
                             void* create_arg, AttemptFinalizer fin);

  // --- data path (called via TxCtx) ---

  stm::Word read(SubTxn& t, stm::VBoxImpl& box);
  void write(SubTxn& t, stm::VBoxImpl& box, stm::Word value);

  /// Throws TreeFailed/NodeCancelled if this node must unwind, and lazily
  /// refreshes the node's ancVer while it has touched no data. Called at
  /// every transactional operation.
  void check_alive(SubTxn& t);

  /// Serial execution mode: futures run inline at the submit point —
  /// literally the sequential execution that strong ordering semantics is
  /// defined against. Used as the convergence fallback after repeated
  /// continuation conflicts (DESIGN.md substitution 2).
  bool serial() const noexcept { return serial_; }
  void set_serial() noexcept { serial_ = true; }

  // --- structure / lifecycle ---

  /// Split `parent` at a submit point: creates the future (returned) and
  /// continuation children. `state` and `runner` belong to the future.
  /// `site`, when non-null, is the adaptive scheduler's stats slot for the
  /// submit site; the commit cascade charges aborts against it.
  /// `schedule` = false skips the pool hand-off (the ordered-execution
  /// lane runs the body itself via run_future_now).
  /// Returns {future*, continuation*}.
  std::pair<SubTxn*, SubTxn*> submit_split(
      SubTxn& parent, std::shared_ptr<TxFutureStateBase> state,
      std::shared_ptr<NodeRunner> runner,
      adaptive::SiteStats* site = nullptr, bool schedule = true);

  /// Ordered-execution lane: run `f`'s body synchronously on the calling
  /// thread instead of handing it to the pool. The split structure —
  /// per-node validation, reincarnation, strong-order commit cascade — is
  /// identical to the scheduled path; only the racing is gone, so siblings
  /// execute in submission (pre-order) order. Pair with
  /// submit_split(..., /*schedule=*/false).
  void run_future_now(SubTxn& f);

  /// Charge a whole-tree conflict failure (`cause` kWriteWrite or
  /// kReadValidation) to the submit sites of every claimed parallel future
  /// in this tree, so the adaptive controller's conflict EWMA sees
  /// inter-tree conflicts that never surface as per-node aborts. Other
  /// causes (incl. kTreeOrder, already charged per-sibling at the
  /// fail-continuation site) are ignored.
  void charge_conflict_aborts(obs::AbortCause cause);

  /// Run one future body invocation on the calling thread, which holds the
  /// incarnation's claim (TxFutureStateBase::claim). `body`
  /// executes the user code starting at the given node and returns the node
  /// that was current when the code finished (the innermost continuation if
  /// the body submitted nested futures); that node is then finished.
  void run_future_body(std::uint32_t node_idx,
                       const std::function<SubTxn*(SubTxn&)>& body);

  /// Mark `t`'s code complete and run the commit cascade.
  void node_finished(SubTxn& t);

  /// Body-thread epilogue: wait for the whole tree to commit, then perform
  /// the top-level commit. Throws TreeFailed when the tree must restart.
  void wait_and_commit_top();

  /// Abort the whole tree (driver saw the body throw, or restart path).
  /// Safe to call multiple times; drains outstanding future tasks.
  void abort_tree(TreeFailed::Reason reason);

  /// A future body threw a user exception: the transaction aborts and the
  /// exception resurfaces from atomically() — exactly what the equivalent
  /// sequential execution (future called at the submit point) would do.
  void fail_with_user_exception(std::exception_ptr e);
  std::exception_ptr user_exception();

  // --- joins: help-first waits + stall detection ---

  /// Sleep bound of every wait on tree progress. Waiters are woken by the
  /// events they wait for; the backstop bounds a missed wakeup, and a sleep
  /// that runs it out picks up one arbitrary pool task (never inside a
  /// future body).
  static constexpr std::chrono::microseconds kWaitBackstop{100};

  /// TxFuture::get from `waiter`: wait until `awaited` has committed (true)
  /// or failed for good (false), helping first. Throws TreeFailed /
  /// NodeCancelled when the waiter itself must unwind.
  bool join(TxFutureStateBase& awaited, SubTxn& waiter);

  /// Monotone counter bumped on every tree state change (node created /
  /// finished / committed / rescheduled / failed). Stall detection watches
  /// it (the join watchdog in tx_tree.cpp).
  std::uint64_t progress_epoch() const noexcept {
    return progress_epoch_.load(std::memory_order_acquire);
  }

  /// Stall detector verdict: fail the whole tree with Reason::kStalled so
  /// every blocked frame unwinds and atomically() retries (and eventually
  /// escalates to the serial-irrevocable fallback). Idempotent.
  void fail_stalled();

  /// A chaos failpoint's failure action fired during this attempt (one tree
  /// = one attempt). The abort-cause taxonomy reports such an attempt as
  /// kFailpointInjected regardless of which conflict shape the injection
  /// took, so chaos aborts never pollute the organic cause counters.
  void note_chaos_induced() noexcept {
    chaos_induced_.store(true, std::memory_order_relaxed);
  }
  bool chaos_induced() const noexcept {
    return chaos_induced_.load(std::memory_order_relaxed);
  }

  /// Debug: print the node table to stderr (diagnosing stuck cascades).
  void debug_dump();

  // --- helpers for tests ---
  std::uint32_t committed_rw_subtxns() const noexcept {
    return committed_rw_count_.load(std::memory_order_acquire);
  }
  std::size_t node_count() const;

 private:
  friend class TxCtx;

  struct Resolved {
    stm::Word value;
    const void* provenance;      // kTentative only; null for home-slot reads
    ReadProvenance kind;
    // kPermanent only: the committed version served (what validation
    // compares), how many list hops it cost (0 for the home slot), and
    // whether the home slot served it. perm_version == stm::kNoVersion
    // marks a read whose snapshot lost a race with trimming.
    stm::Version perm_version = 0;
    std::size_t walk_steps = 0;
    bool home_hit = false;
  };

  SubTxn& node(std::uint32_t idx) { return subs_[idx]; }
  const SubTxn& node(std::uint32_t idx) const { return subs_[idx]; }

  TxTree() = default;
  /// Bind a scrubbed tree to `runtime` and open its snapshot and root node.
  void arm(Runtime& runtime, bool fallback);
  /// Drop everything the attempt left behind (EBR deleter; touches no
  /// Runtime). Keeps container capacity up to kKeepCapacity.
  void scrub();
  /// EBR deleter: scrub into the calling thread's pool, or delete.
  static void recycle(void* tree);

  SubTxn& new_node_locked(std::uint32_t parent, SubTxnKind kind);

  /// Resolve a read for `t`. `now` = validation mode: every version owned
  /// by an ancestor (any txTreeVer) is visible — the "serialize as of now"
  /// view used by Alg. 4's validate(). `exclude_self` hides t's own writes,
  /// so validation can recompute what a read that *preceded* those writes
  /// would return.
  Resolved resolve(const SubTxn& t, stm::VBoxImpl& box, bool now,
                   bool exclude_self = false) const;

  bool tentative_visible(const SubTxn& t, const TentativeVersion& v,
                         bool now, bool exclude_self) const;

  void write_eager(SubTxn& t, stm::VBoxImpl& box, stm::Word value);
  void write_private(SubTxn& t, stm::VBoxImpl& box, stm::Word value);
  TentativeVersion* private_head(stm::VBoxImpl& box) const;
  /// Insert `v` (owned by t) into the list starting at `*head_slot`
  /// keeping descending strong order. Tree write lock must be held.
  void insert_sorted(SubTxn& t, std::atomic<TentativeVersion*>& head_slot,
                     TentativeVersion* v);
  TentativeVersion* alloc_tentative(SubTxn& t, stm::Word value);

  // Commit machinery (mutex_ held unless noted).
  bool eligible_locked(const SubTxn& t) const;
  void cascade_locked(std::vector<SubTxn*>& to_resubmit);
  bool validate_locked(SubTxn& t);
  void commit_node_locked(SubTxn& t);
  void fail_continuation_locked(SubTxn& t);
  SubTxn* reincarnate_future_locked(SubTxn& old_future);
  void abort_subtree_locked(SubTxn& t);
  void mark_tree_failed_locked(TreeFailed::Reason reason);
  void splice_node_writes(SubTxn& t);

  // Help-first waiting (tx_tree.cpp). How one wait ended: the work was
  // already done, this thread ran every body it still needed, or it slept.
  enum class WaitEnd : std::uint8_t { kReady, kHelped, kBlocked };
  template <typename Done>
  WaitEnd wait_helping(TxFutureStateBase* awaited, SubTxn* waiter,
                       bool join, Done&& done);
  bool help_one(TxFutureStateBase* awaited, const SubTxn* waiter,
                std::uint64_t& seen);
  void wake_locked() {  // mutex_ held: something a waiter may need changed
    ++wakeups_;
    cv_.notify_all();
  }
  void note_join(WaitEnd end);
  void mark_pooled_locked(SubTxn& f);
  void schedule_future(SubTxn& f);  // after mark_pooled_locked(f)

  void do_top_commit();  // body thread, mutex NOT held
  void release_boxes();  // clear tentative heads owned by this tree
  void drain_tasks();    // wait until no future task references the tree
  void release_registry();  // idempotent snapshot-slot release
  void run_attempt_finalizers(bool committed);  // idempotent, post-drain

  Runtime* runtime_ = nullptr;
  stm::StmEnv* env_ = nullptr;
  std::uint64_t id_ = 0;

  // Transaction-wide snapshot state (same role as a flat Transaction's).
  std::size_t registry_slot_ = stm::ActiveTxnRegistry::kNoSlot;
  std::atomic<bool> registry_released_{false};
  stm::SnapshotVec snapshot_{};
  unsigned nstripes_ = 1;
  unsigned stripe_mask_ = 0;

  std::atomic<TreeStatus> status_{TreeStatus::kActive};
  bool serial_ = false;
  std::atomic<bool> failed_{false};
  std::atomic<bool> chaos_induced_{false};
  TreeFailed::Reason fail_reason_ = TreeFailed::Reason::kTopLevelConflict;
  std::exception_ptr user_exception_;  // guarded by mutex_
  std::atomic<bool> fallback_{false};

  mutable std::mutex mutex_;
  std::condition_variable cv_;  // every wait on tree progress sleeps here
  std::uint64_t wakeups_ = 0;   // wake_locked() calls; guarded by mutex_
  std::deque<SubTxn> subs_;
  std::uint32_t root_ = kNoNode;
  std::vector<std::uint32_t> finished_pending_;
  std::atomic<bool> top_ready_{false};

  // Root (top-level) private write set — the paper's traditional write-set
  // for top-level transactions; frozen once the first future is submitted.
  stm::WriteSetMap root_write_set_;
  // The write set handed to the commit spine (do_top_commit scratch).
  stm::WriteSetMap final_writes_;

  // Tree-private tentative store (fallback / lazy mode).
  mutable util::SpinLock private_lock_;
  stm::WriteSetMap private_store_;  // box -> head TentativeVersion* (as Word)
  std::atomic<bool> uses_private_{false};

  // Tentative node arena (nodes must outlive splices for lock-free readers).
  std::mutex arena_mutex_;
  std::deque<TentativeVersion> tentative_arena_;

  // Parked per-attempt container states (attempt_state / set_attempt_state).
  struct AttemptState {
    const void* key;
    void* state;
    AttemptFinalizer fin;
  };
  mutable util::SpinLock attempt_states_lock_;
  std::vector<AttemptState> attempt_states_;
  std::atomic<bool> finalized_{false};

  // Aggregated at node commits (under mutex_).
  std::vector<stm::VBoxImpl*> merged_permanent_reads_;
  std::vector<stm::VBoxImpl*> tree_written_boxes_;
  std::atomic<std::uint32_t> committed_rw_count_{0};

  // Future-task accounting for safe teardown: pool tasks whose claim is
  // unsettled or whose body still runs (see mark_pooled_locked).
  std::atomic<std::uint32_t> outstanding_tasks_{0};

  void bump_progress() noexcept {
    progress_epoch_.fetch_add(1, std::memory_order_release);
  }
  void task_done(std::uint32_t n = 1);  // outstanding_tasks_ -= n + notify
  std::atomic<std::uint64_t> progress_epoch_{0};
};

}  // namespace txf::core
