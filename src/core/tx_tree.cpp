#include "core/tx_tree.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "core/runtime.hpp"
#include "obs/trace.hpp"
#include "stm/vbox.hpp"
#include "util/backoff.hpp"
#include "util/failpoint.hpp"

namespace txf::core {

namespace {

/// Is the tree owning this orec done (committed or aborted at top level)?
/// A tentative head owned by such a tree is a stale lock and may be stolen
/// (Alg. 1 line 10: status != RUNNING).
bool tree_inactive(const Orec& orec) noexcept {
  return orec.tree->status() != TxTree::TreeStatus::kActive;
}

/// Attempt ids handed to TxTree::id(); 0 is reserved as "no owner". Each
/// thread takes a block at a time, so the global counter is touched once
/// per kIdBlock attempts.
std::atomic<std::uint64_t> g_next_tree_id{1};
constexpr std::uint64_t kIdBlock = 1024;

std::uint64_t next_tree_id() noexcept {
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = g_next_tree_id.fetch_add(kIdBlock, std::memory_order_relaxed);
    end = next + kIdBlock;
  }
  return next++;
}

// Thread-local tree pool, reached through a trivially-destructible pointer
// the owner nulls at thread exit (the CommitQueue pool pattern): a deleter
// running during another thread's EBR collection, or during teardown,
// falls back to delete.
constexpr std::size_t kTreePoolCap = 64;

struct TreePool {
  std::vector<TxTree*> trees;
  ~TreePool() {
    for (TxTree* t : trees) delete t;
  }
};

thread_local TreePool* tl_tree_pool = nullptr;

thread_local struct TreePoolOwner {
  TreePool pool;
  TreePoolOwner() { tl_tree_pool = &pool; }
  ~TreePoolOwner() { tl_tree_pool = nullptr; }
} tl_tree_pool_owner;

/// Drop a vector's storage once it outgrew what a pooled tree may keep.
template <typename T>
void clear_capped(std::vector<T>& v) {
  if (v.capacity() > TxTree::kKeepCapacity) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

}  // namespace

TxTree* TxTree::acquire(Runtime& runtime, bool fallback) {
  TxTree* tree = nullptr;
  // Odr-use the owner so first use on this thread constructs the pool.
  TreePool& pool = tl_tree_pool_owner.pool;
  if (!pool.trees.empty()) {
    tree = pool.trees.back();
    pool.trees.pop_back();
  } else {
    tree = new TxTree();
  }
  tree->arm(runtime, fallback);
  return tree;
}

void TxTree::arm(Runtime& runtime, bool fallback) {
  runtime_ = &runtime;
  env_ = &runtime.env();
  id_ = next_tree_id();
  nstripes_ = env_->stripes();
  stripe_mask_ = nstripes_ - 1;
  fallback_.store(fallback || runtime.config().write_mode == WriteMode::kLazy,
                  std::memory_order_relaxed);
  registry_slot_ = env_->registry().claim();
  // Publish-then-verify snapshot acquisition, per clock component (same
  // rationale as flat transactions: the GC must never trim a version we can
  // still read; see Transaction::begin_snapshot).
  if (registry_slot_ == stm::ActiveTxnRegistry::kNoSlot) {
    env_->clock().snapshot(snapshot_);
  } else {
    stm::ActiveTxnRegistry::Slot& sl = env_->registry().slot(registry_slot_);
    for (;;) {
      env_->clock().snapshot(snapshot_);
      for (unsigned s = 0; s < nstripes_; ++s) sl.publish(s, snapshot_.seq[s]);
      bool stable = true;
      for (unsigned s = 0; s < nstripes_; ++s) {
        if (env_->clock().current(s) != snapshot_.seq[s]) {
          stable = false;
          break;
        }
      }
      if (stable) break;
    }
  }
  // The root is the one node a recycled tree keeps (scrub() pops the rest),
  // so its path/read/write vectors come back with their capacity.
  std::lock_guard<std::mutex> lock(mutex_);
  if (subs_.empty()) subs_.emplace_back();
  SubTxn& root = subs_.front();
  root.idx = 0;
  root.parent = kNoNode;
  root.kind = SubTxnKind::kRoot;
  root.depth = 0;
  root.path.assign(1, 0);
  root.path_nodes.assign(1, &root);
  root.path_kinds.assign(1, SubTxnKind::kRoot);
  root.anc_clocks.assign(1, 0);
  root.orec.tree = this;
  root.orec.set_ownership(0, 0, 0);
  root.orec.status.store(SubTxnStatus::kRunning, std::memory_order_release);
  root_ = 0;
  bump_progress();
}

void TxTree::retire() {
  // Normally no-ops: commit and abort_tree both finalize and release first.
  run_attempt_finalizers(false);
  release_registry();
  // Residual read-path tallies from nodes that never reached a commit or
  // abort flush (e.g. a whole-tree failure skips per-node aborts). Every
  // task of the tree has drained by now (commit and abort_tree both drain).
  for (SubTxn& s : subs_) s.read_path.flush_into(env_->read_stats());
  env_->epochs().retire(static_cast<void*>(this), &TxTree::recycle);
}

void TxTree::recycle(void* p) {
  auto* tree = static_cast<TxTree*>(p);
  TreePool* pool = tl_tree_pool;
  if (pool == nullptr || pool->trees.size() >= kTreePoolCap) {
    delete tree;
    return;
  }
  tree->scrub();
  pool->trees.push_back(tree);
}

void TxTree::scrub() {
  // Single-threaded: EBR proved no reader can still reach this tree.
  // The root keeps its slot; arm() rewrites its path (always one entry).
  // Future-only fields (state, runner, site) are never set on a root, and
  // retire() already flushed its read-path tallies.
  while (subs_.size() > 1) subs_.pop_back();
  if (!subs_.empty()) {
    SubTxn& root = subs_.front();
    root.child_future = kNoNode;
    root.child_continuation = kNoNode;
    root.nclock.store(0, std::memory_order_relaxed);
    clear_capped(root.reads);
    clear_capped(root.written_boxes);
    clear_capped(root.owned_orecs);
  }
  runtime_ = nullptr;
  env_ = nullptr;
  id_ = 0;
  registry_slot_ = stm::ActiveTxnRegistry::kNoSlot;
  registry_released_.store(false, std::memory_order_relaxed);
  status_.store(TreeStatus::kActive, std::memory_order_relaxed);
  serial_ = false;
  failed_.store(false, std::memory_order_relaxed);
  chaos_induced_.store(false, std::memory_order_relaxed);
  fail_reason_ = TreeFailed::Reason::kTopLevelConflict;
  user_exception_ = nullptr;
  fallback_.store(false, std::memory_order_relaxed);
  root_ = kNoNode;
  clear_capped(finished_pending_);
  top_ready_.store(false, std::memory_order_relaxed);
  root_write_set_.clear_capped(kKeepCapacity);
  final_writes_.clear_capped(kKeepCapacity);
  private_store_.clear_capped(kKeepCapacity);
  uses_private_.store(false, std::memory_order_relaxed);
  tentative_arena_.clear();
  attempt_states_.clear();
  finalized_.store(false, std::memory_order_relaxed);
  clear_capped(merged_permanent_reads_);
  clear_capped(tree_written_boxes_);
  committed_rw_count_.store(0, std::memory_order_relaxed);
}

void* TxTree::attempt_state(const void* key) noexcept {
  std::scoped_lock lock(attempt_states_lock_);
  for (const AttemptState& a : attempt_states_)
    if (a.key == key) return a.state;
  return nullptr;
}

void* TxTree::ensure_attempt_state(const void* key, void* (*create)(void*),
                                   void* create_arg, AttemptFinalizer fin) {
  std::scoped_lock lock(attempt_states_lock_);
  for (const AttemptState& a : attempt_states_)
    if (a.key == key) return a.state;
  void* state = create(create_arg);
  attempt_states_.push_back(AttemptState{key, state, fin});
  return state;
}

void TxTree::run_attempt_finalizers(bool committed) {
  if (finalized_.exchange(true, std::memory_order_acq_rel)) return;
  // No lock needed for the iteration itself: parking happens only from the
  // attempt's own (now drained) transactional code, and the finalized_ flag
  // makes this body run once. The lock guards against a stale reader racing
  // the vector growth, which cannot happen past drain_tasks().
  std::vector<AttemptState> states;
  {
    std::scoped_lock lock(attempt_states_lock_);
    states.swap(attempt_states_);
  }
  for (const AttemptState& a : states) a.fin(a.state, committed);
}

void TxTree::release_registry() {
  if (registry_released_.exchange(true, std::memory_order_acq_rel)) return;
  if (registry_slot_ != stm::ActiveTxnRegistry::kNoSlot) {
    env_->registry().release(registry_slot_);
  } else {
    env_->registry().release_unregistered();
  }
}

std::size_t TxTree::node_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subs_.size();
}

SubTxn& TxTree::new_node_locked(std::uint32_t parent, SubTxnKind kind) {
  // Children only: the root is set up by arm().
  SubTxn& p = node(parent);
  subs_.emplace_back();
  SubTxn& n = subs_.back();
  n.idx = static_cast<std::uint32_t>(subs_.size() - 1);
  n.parent = parent;
  n.kind = kind;
  n.orec.tree = this;
  n.depth = p.depth + 1;
  n.path = p.path;
  n.path.push_back(n.idx);
  n.path_nodes = p.path_nodes;
  n.path_nodes.push_back(&n);
  n.path_kinds = p.path_kinds;
  n.path_kinds.push_back(kind);
  // ancVer: the parent's map extended with the parent's current nClock
  // (paper §III-A). The parent's own placeholder is replaced.
  n.anc_clocks = p.anc_clocks;
  n.anc_clocks[p.depth] = p.nclock.load(std::memory_order_acquire);
  n.anc_clocks.push_back(0);
  n.orec.set_ownership(n.idx, n.depth, 0);
  n.orec.status.store(SubTxnStatus::kRunning, std::memory_order_release);
  bump_progress();
  return n;
}

// --------------------------------------------------------------------------
// Data path
// --------------------------------------------------------------------------

void TxTree::check_alive(SubTxn& t) {
  if (failed_.load(std::memory_order_acquire)) throw TreeFailed{fail_reason_};
  if (t.orec.status.load(std::memory_order_acquire) == SubTxnStatus::kAborted)
    throw NodeCancelled{};
  // Lazy ancVer refresh: until this sub-transaction touches any data, its
  // visibility snapshot can be safely widened to the ancestors' current
  // nClocks. This lets the very common submit → get → read pattern observe
  // the evaluated future's writes directly instead of aborting the
  // continuation (which would restart the whole tree).
  if (t.kind != SubTxnKind::kRoot && t.reads.empty() &&
      t.written_boxes.empty()) {
    // Double-scan for a consistent cut of the ancestors' clocks (tree
    // commits are serialized, so this stabilizes immediately).
    for (;;) {
      bool stable = true;
      for (std::uint32_t j = 0; j < t.depth; ++j) {
        const std::uint32_t c =
            t.path_nodes[j]->nclock.load(std::memory_order_acquire);
        if (t.anc_clocks[j] != c) {
          t.anc_clocks[j] = c;
          stable = false;
        }
      }
      if (stable) break;
    }
  }
}

bool TxTree::tentative_visible(const SubTxn& t, const TentativeVersion& v,
                               bool now, bool exclude_self) const {
  if (v.orec->status.load(std::memory_order_acquire) ==
      SubTxnStatus::kAborted) {
    return false;
  }
  const std::uint64_t w = v.orec->ownership.load(std::memory_order_acquire);
  const std::uint32_t idx = Ownership::idx(w);
  if (idx == t.idx) return !exclude_self;  // own write (current incarnation
                                           // only: re-executions get a fresh
                                           // node index)
  const std::uint32_t dep = Ownership::depth(w);
  if (dep < t.depth && t.path[dep] == idx) {
    // Owned by an ancestor: visible if the commit that moved it there was
    // already witnessed when t started (ancVer check, Alg. 2 lines 13-19),
    // or unconditionally during validation ("serialize as of now").
    return now || Ownership::ver(w) <= t.anc_clocks[dep];
  }
  return false;
}

TxTree::Resolved TxTree::resolve(const SubTxn& t, stm::VBoxImpl& box,
                                 bool now, bool exclude_self) const {
  // 1. Tree-private tentative chain (fallback / lazy mode).
  if (uses_private_.load(std::memory_order_acquire)) {
    TentativeVersion* v = private_head(box);
    for (; v != nullptr; v = v->next.load(std::memory_order_acquire)) {
      if (tentative_visible(t, *v, now, exclude_self))
        return {v->value.load(std::memory_order_acquire), v,
                ReadProvenance::kTentative};
    }
  }
  // 2. In-box tentative list — only meaningful if our tree holds it.
  TentativeVersion* h = box.tentative_head();
  if (h != nullptr && h->orec->tree == this) {
    for (TentativeVersion* v = h; v != nullptr;
         v = v->next.load(std::memory_order_acquire)) {
      if (v->orec->tree == this && tentative_visible(t, *v, now, exclude_self))
        return {v->value.load(std::memory_order_acquire), v,
                ReadProvenance::kTentative};
    }
  }
  // 3. Top-level transaction's private write set (Alg. 2 lines 21-22).
  if (const stm::Word* w = root_write_set_.find(&box))
    return {*w, nullptr, ReadProvenance::kRootWriteSet};
  // 4. Committed snapshot (Alg. 2 last resort): home slot first — the
  // newest committed version with zero pointer chases — then the list walk.
  // Versions are stripe-local: compare only against the component of this
  // box's stripe (global_clock.hpp).
  const stm::Version snap = snapshot_.seq[stm::stripe_of(&box, stripe_mask_)];
  {
    stm::Word val;
    stm::Version ver;
    if (box.try_read_home(snap, val, ver))
      return {val, nullptr, ReadProvenance::kPermanent, ver, 0, true};
  }
  std::size_t steps = 0;
  const stm::PermanentVersion* p = box.read_permanent(snap, &steps);
  if (p == nullptr) {
    // Snapshot lost a race with trimming (possible only for a slot-less
    // overflow tree the version GC could not see). Surface a distinguished
    // marker: read() fails the tree gracefully, validate_locked() treats it
    // as a mismatch. Never a crash.
    return {0, nullptr, ReadProvenance::kPermanent, stm::kNoVersion, steps,
            false};
  }
  return {p->value, p, ReadProvenance::kPermanent,
          p->version.load(std::memory_order_acquire), steps, false};
}

stm::Word TxTree::read(SubTxn& t, stm::VBoxImpl& box) {
  check_alive(t);
  const Resolved r = resolve(t, box, /*now=*/false);
  if (r.kind == ReadProvenance::kPermanent) {
    if (r.perm_version == stm::kNoVersion) {
      // Trimming outran this tree's snapshot: abort the whole tree and let
      // the atomically() driver retry at a fresh snapshot.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        mark_tree_failed_locked(TreeFailed::Reason::kStaleSnapshot);
      }
      throw TreeFailed{TreeFailed::Reason::kStaleSnapshot};
    }
    if (r.home_hit) {
      t.read_path.note_home();
    } else {
      t.read_path.note_walk(r.walk_steps);
      obs::trace::instant(obs::trace::Ev::kTreeResolve,
                          static_cast<std::uint32_t>(r.walk_steps));
    }
  }
  t.reads.push_back(ReadEntry{&box, r.provenance, r.perm_version, r.kind});
  return r.value;
}

TentativeVersion* TxTree::alloc_tentative(SubTxn& t, stm::Word value) {
  std::lock_guard<std::mutex> lock(arena_mutex_);
  tentative_arena_.emplace_back(value, &t.orec);
  return &tentative_arena_.back();
}

TentativeVersion* TxTree::private_head(stm::VBoxImpl& box) const {
  std::scoped_lock lock(private_lock_);
  const stm::Word* w = private_store_.find(&box);
  return w == nullptr
             ? nullptr
             : reinterpret_cast<TentativeVersion*>(static_cast<uintptr_t>(*w));
}

void TxTree::insert_sorted(SubTxn& t,
                           std::atomic<TentativeVersion*>& head_slot,
                           TentativeVersion* v) {
  // mutex_ held: arena indexing and list mutation are serialized; readers
  // traverse lock-free, so stores publish with release ordering.
  TentativeVersion* prev = nullptr;
  TentativeVersion* cur = head_slot.load(std::memory_order_acquire);
  while (cur != nullptr) {
    const std::uint64_t w = cur->orec->ownership.load(std::memory_order_acquire);
    const SubTxn& owner = node(Ownership::idx(w));
    // Keep descending strong order: insert before the first version whose
    // writer we follow.
    if (follows(t.path, t.path_kinds, owner.path)) break;
    prev = cur;
    cur = cur->next.load(std::memory_order_acquire);
  }
  v->next.store(cur, std::memory_order_release);
  if (prev == nullptr) {
    head_slot.store(v, std::memory_order_release);
  } else {
    prev->next.store(v, std::memory_order_release);
  }
}

void TxTree::write_private(SubTxn& t, stm::VBoxImpl& box, stm::Word value) {
  uses_private_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mutex_);
  // Overwrite an existing version of ours, if any.
  {
    std::scoped_lock plock(private_lock_);
    const stm::Word* w = private_store_.find(&box);
    TentativeVersion* head =
        w ? reinterpret_cast<TentativeVersion*>(static_cast<uintptr_t>(*w))
          : nullptr;
    for (TentativeVersion* v = head; v != nullptr;
         v = v->next.load(std::memory_order_acquire)) {
      const std::uint64_t ow = v->orec->ownership.load(std::memory_order_acquire);
      if (Ownership::idx(ow) == t.idx &&
          v->orec->status.load(std::memory_order_acquire) !=
              SubTxnStatus::kAborted) {
        v->value.store(value, std::memory_order_release);
        return;
      }
    }
    // Insert a fresh version sorted into the chain; rewire the map head.
    TentativeVersion* n = alloc_tentative(t, value);
    std::atomic<TentativeVersion*> slot{head};
    insert_sorted(t, slot, n);
    private_store_.put(&box,
                       static_cast<stm::Word>(reinterpret_cast<uintptr_t>(
                           slot.load(std::memory_order_relaxed))));
  }
  t.written_boxes.push_back(&box);
}

void TxTree::write_eager(SubTxn& t, stm::VBoxImpl& box, stm::Word value) {
  util::Backoff backoff;
  for (;;) {
    TentativeVersion* h = box.tentative_head();
    if (h != nullptr && h->orec->tree == this) {
      // Fast path (Alg. 1 lines 5-8): we already own the head.
      {
        const std::uint64_t w =
            h->orec->ownership.load(std::memory_order_acquire);
        if (Ownership::idx(w) == t.idx &&
            h->orec->status.load(std::memory_order_acquire) !=
                SubTxnStatus::kAborted) {
          h->value.store(value, std::memory_order_release);
          return;
        }
      }
      // Same tree, different owner: overwrite-or-insert under the tree
      // mutex (Alg. 1 lines 24-34; serialized here — DESIGN.md §6).
      std::lock_guard<std::mutex> lock(mutex_);
      TentativeVersion* cur = box.tentative_head();
      if (cur == nullptr || cur->orec->tree != this) continue;  // raced
      for (TentativeVersion* v = cur; v != nullptr;
           v = v->next.load(std::memory_order_acquire)) {
        const std::uint64_t w =
            v->orec->ownership.load(std::memory_order_acquire);
        if (Ownership::idx(w) == t.idx &&
            v->orec->status.load(std::memory_order_acquire) !=
                SubTxnStatus::kAborted) {
          v->value.store(value, std::memory_order_release);
          return;
        }
      }
      TentativeVersion* n = alloc_tentative(t, value);
      std::atomic<TentativeVersion*> slot{cur};
      insert_sorted(t, slot, n);
      TentativeVersion* new_head = slot.load(std::memory_order_relaxed);
      if (new_head != cur) {
        // n became the newest version: it must take the box head. Nothing
        // else can move the head while we are active and hold mutex_; a
        // failed CAS here would mean silent lost writes, so check it even
        // in release builds.
        if (!box.cas_tentative_head(cur, new_head)) {
          std::fprintf(stderr,
                       "txfutures invariant violation: tentative head moved "
                       "under an active tree lock\n");
          std::abort();
        }
      }
      t.written_boxes.push_back(&box);
      return;
    }
    if (h == nullptr || tree_inactive(*h->orec)) {
      // Free (or stale) lock: try to acquire it for our tree with a fresh
      // node (Alg. 1 lines 10-13, with the head-pointer CAS substitution).
      TentativeVersion* n = alloc_tentative(t, value);
      if (box.cas_tentative_head(h, n)) {
        t.written_boxes.push_back(&box);
        return;
      }
      backoff.pause();
      continue;  // somebody else won; re-inspect
    }
    // Head locked by another active tree: inter-tree write-write conflict
    // (Alg. 1 line 19-22).
    if (runtime_->config().inter_tree == InterTreePolicy::kSwitchToPrivate) {
      write_private(t, box, value);
      return;
    }
    runtime_->stats().fallback_restarts.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      mark_tree_failed_locked(TreeFailed::Reason::kInterTreeConflict);
    }
    throw TreeFailed{TreeFailed::Reason::kInterTreeConflict};
  }
}

void TxTree::write(SubTxn& t, stm::VBoxImpl& box, stm::Word value) {
  check_alive(t);
  if (t.kind == SubTxnKind::kRoot) {
    // The paper's top-level transactions keep a traditional private write
    // set (§III-A); it freezes at the first submit, before any child runs.
    root_write_set_.put(&box, value);
    return;
  }
  if (fallback_.load(std::memory_order_acquire)) {
    write_private(t, box, value);
    return;
  }
  if (uses_private_.load(std::memory_order_acquire) &&
      private_head(box) != nullptr) {
    // This box already migrated to the private store for this tree.
    write_private(t, box, value);
    return;
  }
  write_eager(t, box, value);
}

// --------------------------------------------------------------------------
// Structure / submit
// --------------------------------------------------------------------------

std::pair<SubTxn*, SubTxn*> TxTree::submit_split(
    SubTxn& parent, std::shared_ptr<TxFutureStateBase> state,
    std::shared_ptr<NodeRunner> runner, adaptive::SiteStats* site,
    bool schedule) {
  check_alive(parent);
  SubTxn* future;
  SubTxn* cont;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    future = &new_node_locked(parent.idx, SubTxnKind::kFuture);
    future->future_state = std::move(state);
    future->runner = std::move(runner);
    future->site = site;
    cont = &new_node_locked(parent.idx, SubTxnKind::kContinuation);
    parent.child_future = future->idx;
    parent.child_continuation = cont->idx;
    // The parent's own code ends at the submit point; it becomes eligible
    // to commit once both children's subtrees have committed.
    parent.orec.status.store(SubTxnStatus::kFinished,
                             std::memory_order_release);
    finished_pending_.push_back(parent.idx);
    if (schedule) {
      mark_pooled_locked(*future);
      wake_locked();  // a sleeping waiter may run it (help-first)
    }
  }
  // futures_submitted is counted once per submit() call in api.hpp (it also
  // covers elided and serial submits, which never reach this function).
  if (schedule) schedule_future(*future);
  return {future, cont};
}

namespace {
/// Depth of future bodies on the calling thread's stack. Frames inside a
/// body must not run *arbitrary* pool tasks while blocked: a picked-up body
/// can transitively wait on the continuation frame buried beneath it on this
/// very stack (the nested-helping deadlock). Helping this tree's own futures
/// that precede the waiter (help_one) stays safe at any depth.
thread_local int t_future_body_depth = 0;

bool in_future_body() noexcept { return t_future_body_depth > 0; }

/// Watchdog of a join (future evaluation, top-commit wait): tick() on every
/// wait round; when the tree's progress epoch stays unchanged for
/// Config::stall_timeout_us it fails the tree (TreeFailed::Reason::kStalled),
/// turning any residual wait cycle — e.g. user-level cyclic future
/// evaluation — into a clean retry instead of a hang.
class StallMonitor {
 public:
  explicit StallMonitor(TxTree& tree)
      : tree_(tree),
        timeout_us_(tree.runtime().config().stall_timeout_us),
        last_epoch_(tree.progress_epoch()),
        since_(std::chrono::steady_clock::now()) {}

  void tick() {
    if (timeout_us_ == 0) return;
    const std::uint64_t epoch = tree_.progress_epoch();
    if (epoch != last_epoch_) {
      last_epoch_ = epoch;
      since_ = std::chrono::steady_clock::now();
      return;
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - since_);
    if (static_cast<std::uint64_t>(elapsed.count()) >= timeout_us_)
      tree_.fail_stalled();
  }

 private:
  TxTree& tree_;
  std::uint64_t timeout_us_;
  std::uint64_t last_epoch_;
  std::chrono::steady_clock::time_point since_;
};
}  // namespace

void TxTree::task_done(std::uint32_t n) {
  // Notify while holding the mutex. This runs outside run_future_body's
  // epoch guard, so the drain waiter is free to retire-and-free the tree
  // the moment it observes zero — and it cannot re-acquire mutex_ (which
  // drain_tasks takes on its way out) until the broadcast has fully left
  // the condvar.
  std::lock_guard<std::mutex> lock(mutex_);
  outstanding_tasks_.fetch_sub(n, std::memory_order_acq_rel);
  wake_locked();
}

void TxTree::mark_pooled_locked(SubTxn& f) {
  // Counted before any waiter can see the node as helpable: whoever wins
  // the incarnation's claim (the task, or a waiter in help_one) settles the
  // count, so the decrement can never precede the increment.
  f.pooled = true;
  f.future_state->set_node_idx(f.idx);
  outstanding_tasks_.fetch_add(1, std::memory_order_acq_rel);
}

void TxTree::schedule_future(SubTxn& f) {
  bump_progress();
  // A task that loses the claim returns without touching the tree: the
  // waiter that ran the body settled its count, and the tree may be retired
  // by now. `st` stays valid through `runner`, whose closure owns it.
  runtime_->pool().submit([this, runner = f.runner,
                           st = f.future_state.get(), idx = f.idx] {
    if (!st->claim(idx)) return;
    (*runner)(idx);
    task_done();
  });
}

void TxTree::run_future_now(SubTxn& f) {
  // Ordered lane: the submitting thread runs the body itself. The node is
  // not pooled, so no waiter competes for it and there is no task to count;
  // reincarnations go back through the pool (reincarnate_future_locked).
  std::shared_ptr<NodeRunner> runner;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    f.future_state->set_node_idx(f.idx);
    runner = f.runner;
  }
  bump_progress();
  if (runner && f.future_state->claim(f.idx)) (*runner)(f.idx);
}

void TxTree::charge_conflict_aborts(obs::AbortCause cause) {
  // Only whole-tree conflict classes that bypass the per-node charging
  // paths: write-write (eager tentative-lock collisions) and top-level
  // read-validation failures. kTreeOrder is already charged precisely to
  // the offending sibling's site in fail_continuation_locked, and
  // chaos/user-abort causes are not conflicts at all.
  if (cause != obs::AbortCause::kWriteWrite &&
      cause != obs::AbortCause::kReadValidation) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (SubTxn& s : subs_) {
    if (s.kind == SubTxnKind::kFuture && s.site != nullptr &&
        s.future_state->claimed(s.idx)) {
      runtime_->adaptive().note_abort(s.site, cause);
    }
  }
}

bool TxTree::help_one(TxFutureStateBase* awaited, const SubTxn* waiter,
                      std::uint64_t& seen) {
  SubTxn* pick = nullptr;
  std::shared_ptr<NodeRunner> runner;
  std::uint32_t settled = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seen = wakeups_;
    const bool failed = failed_.load(std::memory_order_acquire);
    const auto runnable = [&](const SubTxn& f) {
      return !failed && f.orec.status.load(std::memory_order_acquire) ==
                            SubTxnStatus::kRunning;
    };
    // 1. The awaited body, if it is this tree's and nobody started it.
    if (awaited != nullptr) {
      const std::uint32_t idx = awaited->node_idx();
      if (idx < subs_.size()) {
        SubTxn& f = node(idx);
        if (f.future_state.get() == awaited && f.pooled && runnable(f) &&
            awaited->claim(idx))
          pick = &f;
      }
    }
    // 2. The earliest unclaimed pooled future that precedes the waiter in
    // strong order (any, for the top-commit wait: the root's code is done).
    // Incarnations that can no longer run are claimed on the way and their
    // tasks settled, so a drain need not wait for those tasks to come up.
    while (pick == nullptr) {
      SubTxn* best = nullptr;
      for (SubTxn& s : subs_) {
        if (!s.pooled || s.future_state->claimed(s.idx)) continue;
        if (!runnable(s)) {
          if (s.future_state->claim(s.idx)) ++settled;
          continue;
        }
        if (waiter != nullptr &&
            !follows(waiter->path, waiter->path_kinds, s.path))
          continue;
        if (best == nullptr || follows(best->path, best->path_kinds, s.path))
          best = &s;
      }
      if (best == nullptr) break;
      // Losing the claim means a pool task just started `best`: rescan.
      if (best->future_state->claim(best->idx)) pick = best;
    }
    if (pick != nullptr) runner = pick->runner;
  }
  if (settled != 0) task_done(settled);
  if (pick == nullptr) return false;
  (*runner)(pick->idx);
  task_done();  // on behalf of the pool task that lost the claim
  return true;
}

// The one way a thread waits on its own tree: TxFuture::get (join), the
// top-commit wait and the task drain. Each round ends the wait once
// `done()` holds; otherwise it helps (help_one) and sleeps only when
// nothing of the tree is runnable — until done() or the next wake_locked()
// after help_one's scan: node finishes and publishes, failures, new pooled
// futures, task ends.
// A foreign tree's future (a handle shared across transactions) is slept
// on through its own state instead. A sleep that times out runs one
// arbitrary pool task, except inside a future body (in_future_body).
// Joins are stall-watched; the drain runs once the tree's fate is sealed
// and is not.
template <typename Done>
TxTree::WaitEnd TxTree::wait_helping(TxFutureStateBase* awaited,
                                     SubTxn* waiter, bool join, Done&& done) {
  std::optional<StallMonitor> stall;
  WaitEnd end = WaitEnd::kReady;
  std::uint64_t seen = 0;  // wakeups_ as of help_one's scan
  for (;;) {
    if (done()) return end;
    if (waiter != nullptr) check_alive(*waiter);
    if (join && !stall) stall.emplace(*this);
    if (help_one(awaited, waiter, seen)) {
      if (end == WaitEnd::kReady) end = WaitEnd::kHelped;
    } else {
      end = WaitEnd::kBlocked;
      bool woken;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        const bool foreign =
            awaited != nullptr &&
            (awaited->node_idx() >= subs_.size() ||
             node(awaited->node_idx()).future_state.get() != awaited);
        if (foreign) {
          lock.unlock();
          woken = awaited->sleep_for(kWaitBackstop);
        } else {
          woken = cv_.wait_for(lock, kWaitBackstop,
                               [&] { return wakeups_ != seen || done(); });
        }
      }
      if (!woken && !in_future_body()) runtime_->pool().try_run_one();
    }
    if (stall) stall->tick();
  }
}

void TxTree::note_join(WaitEnd end) {
  if (end == WaitEnd::kHelped) {
    runtime_->stats().join_helped.add();
  } else if (end == WaitEnd::kBlocked) {
    runtime_->stats().join_blocked.add();
  }
}

bool TxTree::join(TxFutureStateBase& awaited, SubTxn& waiter) {
  std::optional<bool> outcome;
  note_join(wait_helping(&awaited, &waiter, /*join=*/true, [&] {
    outcome = awaited.outcome();
    return outcome.has_value();
  }));
  return *outcome;
}

void TxTree::run_future_body(std::uint32_t node_idx,
                             const std::function<SubTxn*(SubTxn&)>& body) {
  util::EpochDomain::Guard guard(env_->epochs());
  SubTxn* start;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    start = &node(node_idx);
  }
  // The caller holds this incarnation's claim (TxFutureStateBase::claim).
  bump_progress();
  const bool runnable =
      !failed_.load(std::memory_order_acquire) &&
      start->orec.status.load(std::memory_order_acquire) ==
          SubTxnStatus::kRunning;
  if (!runnable) return;
  const unsigned mask = TXF_FP_MASK("core.subtxn.start");
  if (mask & (util::fp::kFailBit | util::fp::kAbortTreeBit)) {
    // Chaos: spurious inter-tree conflict right as the body starts — the
    // tree restarts in fallback mode and must converge all the same.
    runtime_->robustness().failpoint_fires.fetch_add(1,
                                                    std::memory_order_relaxed);
    runtime_->stats().fallback_restarts.fetch_add(1, std::memory_order_relaxed);
    note_chaos_induced();
    std::lock_guard<std::mutex> lock(mutex_);
    mark_tree_failed_locked(TreeFailed::Reason::kInterTreeConflict);
    return;
  }
  obs::trace::Span eval_span(obs::trace::Ev::kFutureEval, node_idx);
  SubTxn* final_node = nullptr;
  ++t_future_body_depth;
  try {
    final_node = body(*start);
  } catch (const TreeFailed&) {
    // Tree is restarting; nothing to finish.
  } catch (const NodeCancelled&) {
    // Our subtree is being re-executed; this incarnation just exits.
  }
  --t_future_body_depth;
  if (final_node != nullptr) node_finished(*final_node);
}

// --------------------------------------------------------------------------
// Commit machinery
// --------------------------------------------------------------------------

void TxTree::node_finished(SubTxn& t) {
  std::vector<SubTxn*> resubmit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_.load(std::memory_order_acquire)) return;
    if (t.orec.status.load(std::memory_order_acquire) !=
        SubTxnStatus::kRunning) {
      return;  // aborted/cancelled while running
    }
    t.orec.status.store(SubTxnStatus::kFinished, std::memory_order_release);
    finished_pending_.push_back(t.idx);
    cascade_locked(resubmit);
    bump_progress();
    // Notify under the lock: the owner in wait_and_commit_top may observe
    // top_ready_ and proceed to commit-and-retire the tree; holding mutex_
    // keeps the broadcast ordered before any destruction.
    wake_locked();
  }
  for (SubTxn* f : resubmit) schedule_future(*f);
}

bool TxTree::eligible_locked(const SubTxn& t) const {
  const auto committed = [&](std::uint32_t idx) {
    return idx == kNoNode || node(idx).orec.status.load(
                                 std::memory_order_acquire) ==
                                 SubTxnStatus::kCommitted;
  };
  if (!committed(t.child_future) || !committed(t.child_continuation))
    return false;
  switch (t.kind) {
    case SubTxnKind::kRoot:
      return true;
    case SubTxnKind::kContinuation:
      // waitTurn rule for continuations (Alg. 3): the sibling future's
      // subtree — serialized immediately before us — must have committed.
      return node(t.parent).nclock.load(std::memory_order_acquire) >= 1;
    case SubTxnKind::kFuture:
      // waitTurn rule for futures (Alg. 3): for every continuation on our
      // ancestor path, its sibling future subtree must have committed.
      for (std::uint32_t j = 1; j < t.depth; ++j) {
        if (t.path_kinds[j] == SubTxnKind::kContinuation &&
            node(t.path[j - 1]).nclock.load(std::memory_order_acquire) < 1)
          return false;
      }
      return true;
  }
  return false;
}

bool TxTree::validate_locked(SubTxn& t) {
  if (t.kind == SubTxnKind::kRoot) return true;  // no intra-tree predecessors
  // Chaos (tests): spuriously fail some validations; recovery must still
  // produce the sequential result. Never inject into a node that has already
  // been re-executed, and never into a serial-irrevocable tree, so injection
  // cannot livelock.
  if (!t.reincarnated && !serial()) {
    const unsigned mask = TXF_FP_MASK("core.subtxn.validate");
    if (mask != 0) {
      runtime_->robustness().failpoint_fires.fetch_add(
          1, std::memory_order_relaxed);
      if (mask & util::fp::kAbortTreeBit) {
        note_chaos_induced();
        mark_tree_failed_locked(TreeFailed::Reason::kInterTreeConflict);
        return false;
      }
      if (mask & util::fp::kFailBit) {
        // The injected failure may cascade into a tree restart (continuation
        // validation); classify any such abort of THIS attempt as injected.
        note_chaos_induced();
        return false;
      }
    }
  }
  if (runtime_->config().read_only_future_opt && t.written_boxes.empty() &&
      committed_rw_count_.load(std::memory_order_acquire) == 0) {
    // §IV-E: read-only sub-transaction with no committed read-write
    // predecessor in the tree — its snapshot cannot have been invalidated.
    runtime_->stats().ro_validation_skips.fetch_add(1,
                                                   std::memory_order_relaxed);
    return true;
  }
  for (const ReadEntry& e : t.reads) {
    // Reads that returned one of t's own writes cannot be invalidated.
    if (e.kind == ReadProvenance::kTentative) {
      const auto* v = static_cast<const TentativeVersion*>(e.provenance);
      if (v->orec == &t.orec) continue;
    }
    // Re-resolve excluding t's own writes: a read that preceded them must
    // still find the same predecessor/committed version.
    const Resolved r = resolve(t, *e.box, /*now=*/true, /*exclude_self=*/true);
    if (r.kind != e.kind) return false;
    if (e.kind == ReadProvenance::kPermanent) {
      // Committed reads compare by VERSION, not node pointer: the home slot
      // serves them without materializing a node, and versions are unique
      // per box so equality means "same committed write". A kNoVersion
      // re-resolve (trim raced us) can never equal a recorded version.
      if (r.perm_version != e.perm_version) return false;
    } else if (r.provenance != e.provenance) {
      return false;
    }
  }
  return true;
}

void TxTree::commit_node_locked(SubTxn& t) {
  t.read_path.flush_into(env_->read_stats());
  if (t.idx == root_) {
    t.orec.status.store(SubTxnStatus::kCommitted, std::memory_order_release);
    for (const ReadEntry& e : t.reads)
      if (e.kind == ReadProvenance::kPermanent)
        merged_permanent_reads_.push_back(e.box);
    top_ready_.store(true, std::memory_order_release);
    return;
  }
  SubTxn& p = node(t.parent);
  const std::uint32_t new_ver =
      p.nclock.load(std::memory_order_relaxed) + 1;
  // Re-own this node's orec and everything it absorbed from its subtree
  // (Alg. 4 lines 7-13). Publish ownership before bumping nClock so a child
  // started after the bump always sees the new owners.
  t.orec.set_ownership(p.idx, p.depth, new_ver);
  t.orec.status.store(SubTxnStatus::kCommitted, std::memory_order_release);
  for (Orec* o : t.owned_orecs) o->set_ownership(p.idx, p.depth, new_ver);
  p.owned_orecs.push_back(&t.orec);
  p.owned_orecs.insert(p.owned_orecs.end(), t.owned_orecs.begin(),
                       t.owned_orecs.end());
  t.owned_orecs.clear();
  p.nclock.store(new_ver, std::memory_order_release);

  for (const ReadEntry& e : t.reads)
    if (e.kind == ReadProvenance::kPermanent)
      merged_permanent_reads_.push_back(e.box);
  tree_written_boxes_.insert(tree_written_boxes_.end(),
                             t.written_boxes.begin(), t.written_boxes.end());
  if (t.wrote_anything())
    committed_rw_count_.fetch_add(1, std::memory_order_acq_rel);
  if (t.future_state) t.future_state->publish();
}

SubTxn* TxTree::reincarnate_future_locked(SubTxn& old_future) {
  abort_subtree_locked(old_future);
  SubTxn& p = node(old_future.parent);
  SubTxn& fresh = new_node_locked(p.idx, SubTxnKind::kFuture);
  p.child_future = fresh.idx;
  fresh.future_state = old_future.future_state;
  fresh.runner = old_future.runner;
  fresh.site = old_future.site;
  fresh.reincarnated = true;
  mark_pooled_locked(fresh);  // scheduled by node_finished's caller
  // Charge the submit site: a reincarnation means running this future in
  // parallel lost a read-validation race (O(1) relaxed atomics; safe under
  // mutex_).
  if (old_future.site != nullptr) {
    runtime_->adaptive().note_abort(old_future.site,
                                   obs::AbortCause::kReadValidation);
  }
  return &fresh;
}

void TxTree::abort_subtree_locked(SubTxn& t) {
  if (t.child_future != kNoNode) abort_subtree_locked(node(t.child_future));
  if (t.child_continuation != kNoNode)
    abort_subtree_locked(node(t.child_continuation));
  t.orec.status.store(SubTxnStatus::kAborted, std::memory_order_release);
  t.read_path.flush_into(env_->read_stats());
  splice_node_writes(t);
  if (t.future_state) t.future_state->unpublish();
  finished_pending_.erase(
      std::remove(finished_pending_.begin(), finished_pending_.end(), t.idx),
      finished_pending_.end());
}

void TxTree::splice_node_writes(SubTxn& t) {
  for (stm::VBoxImpl* box : t.written_boxes) {
    // In-box list.
    TentativeVersion* head = box->tentative_head();
    if (head != nullptr && head->orec->tree == this) {
      // Drop aborted-of-t nodes; the head change must go through the box.
      while (head != nullptr && head->orec == &t.orec) {
        TentativeVersion* next = head->next.load(std::memory_order_acquire);
        if (!box->cas_tentative_head(head, next)) break;
        head = box->tentative_head();
        if (head == nullptr || head->orec->tree != this) break;
      }
      for (TentativeVersion* v = head; v != nullptr;) {
        TentativeVersion* next = v->next.load(std::memory_order_acquire);
        if (next != nullptr && next->orec == &t.orec) {
          v->next.store(next->next.load(std::memory_order_acquire),
                        std::memory_order_release);
          continue;  // re-check the same v against the new next
        }
        v = next;
      }
    }
    // Private chain.
    if (uses_private_.load(std::memory_order_acquire)) {
      std::scoped_lock plock(private_lock_);
      const stm::Word* w = private_store_.find(box);
      if (w != nullptr) {
        auto* chain =
            reinterpret_cast<TentativeVersion*>(static_cast<uintptr_t>(*w));
        while (chain != nullptr && chain->orec == &t.orec)
          chain = chain->next.load(std::memory_order_acquire);
        for (TentativeVersion* v = chain; v != nullptr;) {
          TentativeVersion* next = v->next.load(std::memory_order_acquire);
          if (next != nullptr && next->orec == &t.orec) {
            v->next.store(next->next.load(std::memory_order_acquire),
                          std::memory_order_release);
            continue;
          }
          v = next;
        }
        private_store_.put(box, static_cast<stm::Word>(
                                    reinterpret_cast<uintptr_t>(chain)));
      }
    }
  }
  t.written_boxes.clear();
}

void TxTree::mark_tree_failed_locked(TreeFailed::Reason reason) {
  if (failed_.load(std::memory_order_acquire)) return;
  fail_reason_ = reason;
  failed_.store(true, std::memory_order_release);
  bump_progress();
  // Wake external evaluators of futures that will never publish. (Internal
  // waiters unwind through check_alive in their help loops.)
  for (SubTxn& s : subs_) {
    if (s.future_state) s.future_state->mark_failed();
  }
  wake_locked();
}

void TxTree::fail_continuation_locked(SubTxn& t) {
  // The substitute for JTF's first-class continuations (DESIGN.md,
  // substitution 2): restart the whole top-level transaction.
  // Charge the continuation conflict to the submit site whose future raced
  // this continuation (the sibling future of t's parent split): had that
  // submit been elided, the whole-tree restart could not have happened.
  if (t.parent != kNoNode) {
    SubTxn& p = node(t.parent);
    if (p.child_future != kNoNode) {
      if (adaptive::SiteStats* site = node(p.child_future).site) {
        runtime_->adaptive().note_abort(site, obs::AbortCause::kTreeOrder);
      }
    }
  }
  runtime_->stats().tree_restarts.fetch_add(1, std::memory_order_relaxed);
  mark_tree_failed_locked(TreeFailed::Reason::kContinuationConflict);
}

void TxTree::cascade_locked(std::vector<SubTxn*>& to_resubmit) {
  bool progress = true;
  while (progress && !failed_.load(std::memory_order_acquire)) {
    progress = false;
    for (std::size_t i = 0; i < finished_pending_.size(); ++i) {
      SubTxn& t = node(finished_pending_[i]);
      if (t.orec.status.load(std::memory_order_acquire) !=
          SubTxnStatus::kFinished) {
        finished_pending_[i] = finished_pending_.back();
        finished_pending_.pop_back();
        progress = true;
        break;
      }
      if (!eligible_locked(t)) continue;
      if (!validate_locked(t)) {
        if (t.kind == SubTxnKind::kFuture) {
          runtime_->stats().future_reexecutions.fetch_add(
              1, std::memory_order_relaxed);
          SubTxn* fresh = reincarnate_future_locked(t);
          to_resubmit.push_back(fresh);
        } else {
          fail_continuation_locked(t);
          return;
        }
      } else {
        commit_node_locked(t);
        finished_pending_.erase(std::remove(finished_pending_.begin(),
                                            finished_pending_.end(), t.idx),
                                finished_pending_.end());
      }
      progress = true;
      break;  // the pending list changed; rescan from the start
    }
  }
}

// --------------------------------------------------------------------------
// Top-level commit / abort
// --------------------------------------------------------------------------

void TxTree::debug_dump() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(stderr, "=== TxTree stuck: %zu nodes, pending=%zu, "
               "outstanding=%u failed=%d top_ready=%d ===\n", subs_.size(),
               finished_pending_.size(),
               outstanding_tasks_.load(std::memory_order_acquire),
               (int)failed_.load(std::memory_order_acquire),
               (int)top_ready_.load(std::memory_order_acquire));
  for (const SubTxn& s : subs_) {
    std::fprintf(stderr,
                 "  node %u kind=%d parent=%d cf=%d cc=%d status=%d "
                 "nclock=%u reinc=%d reads=%zu writes=%zu eligible=%d "
                 "valid=%d\n",
                 s.idx, (int)s.kind, (int)s.parent, (int)s.child_future,
                 (int)s.child_continuation,
                 (int)s.orec.status.load(std::memory_order_acquire),
                 s.nclock.load(std::memory_order_acquire),
                 (int)s.reincarnated, s.reads.size(), s.written_boxes.size(),
                 (int)eligible_locked(s),
                 s.orec.status.load(std::memory_order_acquire) ==
                         SubTxnStatus::kFinished
                     ? (int)validate_locked(const_cast<SubTxn&>(s))
                     : -1);
  }
}

void TxTree::fail_stalled() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_.load(std::memory_order_acquire)) return;
  runtime_->robustness().stall_aborts.fetch_add(1, std::memory_order_relaxed);
  mark_tree_failed_locked(TreeFailed::Reason::kStalled);
}

void TxTree::wait_and_commit_top() {
  // The root's code is done, so every future of the tree precedes this
  // wait and may be helped (waiter = null).
  note_join(wait_helping(nullptr, nullptr, /*join=*/true, [&] {
    return top_ready_.load(std::memory_order_acquire) ||
           failed_.load(std::memory_order_acquire);
  }));
  if (failed_.load(std::memory_order_acquire)) {
    const TreeFailed::Reason reason = fail_reason_;
    abort_tree(reason);
    throw TreeFailed{reason};
  }
  do_top_commit();
}

void TxTree::do_top_commit() {
  // Assemble the final write set: the root's private writes overlaid with
  // the newest committed tentative version per written box.
  stm::WriteSetMap& final_writes = final_writes_;
  for (stm::VBoxImpl* box : root_write_set_.boxes())
    final_writes.put(box, root_write_set_.value_of(box));
  for (stm::VBoxImpl* box : tree_written_boxes_) {
    TentativeVersion* h = box->tentative_head();
    if (h != nullptr && h->orec->tree == this) {
      final_writes.put(box, h->value.load(std::memory_order_acquire));
      continue;
    }
    if (TentativeVersion* p = private_head(*box))
      final_writes.put(box, p->value.load(std::memory_order_acquire));
  }

  // Top-level tree commits ride the same group-commit pipeline as flat
  // transactions: pre-validate, then enqueue a pooled request into the
  // batched queue. A serial-irrevocable tree (api.hpp fallback) holds the
  // exclusive serial token here, so no other core commit can be advancing
  // the permanent state: its pre-validation passes vacuously and it flows
  // through as a batch of one — no special-casing needed.
  bool ok = true;
  if (!final_writes.empty()) {
    // Footprint attribution: tell every submit site in this tree how many
    // spine stripes the commit touches, so the adaptive controller can bias
    // wide-footprint sites toward co-located (single-stripe) execution.
    // Read-only trees skip this — they never enter the commit pipeline.
    {
      std::vector<adaptive::SiteStats*> sites;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (SubTxn& s : subs_) {
          if (s.kind == SubTxnKind::kFuture && s.site != nullptr &&
              std::find(sites.begin(), sites.end(), s.site) == sites.end()) {
            sites.push_back(s.site);
          }
        }
      }
      if (!sites.empty()) {
        const unsigned width = env_->queue().footprint_width(
            merged_permanent_reads_, final_writes.boxes());
        runtime_->adaptive().note_commit_footprint(sites, width);
      }
    }
    util::EpochDomain::Guard guard(env_->epochs());
    if (!env_->queue().prevalidate(merged_permanent_reads_, snapshot_)) {
      ok = false;
    } else {
      stm::CommitRequest* req = stm::CommitQueue::acquire_request();
      req->reads = merged_permanent_reads_;
      req->writes.reserve(final_writes.size());
      for (stm::VBoxImpl* box : final_writes.boxes()) {
        req->writes.push_back(stm::WriteBackEntry{
            box, stm::CommitQueue::acquire_node(final_writes.value_of(box))});
      }
      // The spine stamps req->snapshot with the footprint stripe's component
      // (or runs the synchronous multi-stripe protocol).
      ok = env_->queue().commit(req, snapshot_);
    }
  }

  status_.store(ok ? TreeStatus::kCommitted : TreeStatus::kAborted,
                std::memory_order_release);
  release_boxes();
  // Attempt finalizers need (a) no task of this tree still running — so
  // after drain_tasks() — and (b) on the commit path, this tree's registry
  // snapshot still published, so the versions it just committed cannot be
  // trimmed out from under the finalizers' version-list walks — so before
  // release_registry().
  drain_tasks();
  run_attempt_finalizers(ok);
  release_registry();
  if (!ok) {
    runtime_->stats().top_aborts.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      mark_tree_failed_locked(TreeFailed::Reason::kTopLevelConflict);
    }
    throw TreeFailed{TreeFailed::Reason::kTopLevelConflict};
  }
  runtime_->stats().top_commits.add();
}

void TxTree::release_boxes() {
  // Clear every tentative head this tree still holds; stale readers are
  // protected by EBR (the tree itself is retired through the domain).
  std::lock_guard<std::mutex> lock(mutex_);
  for (SubTxn& s : subs_) {
    for (stm::VBoxImpl* box : s.written_boxes) {
      TentativeVersion* h = box->tentative_head();
      if (h != nullptr && h->orec->tree == this)
        box->cas_tentative_head(h, nullptr);
    }
  }
  for (stm::VBoxImpl* box : tree_written_boxes_) {
    TentativeVersion* h = box->tentative_head();
    if (h != nullptr && h->orec->tree == this)
      box->cas_tentative_head(h, nullptr);
  }
}

void TxTree::drain_tasks() {
  wait_helping(nullptr, nullptr, /*join=*/false, [&] {
    return outstanding_tasks_.load(std::memory_order_acquire) == 0;
  });
  // The zero may have been observed through the bare atomic above while the
  // final task_done() is still broadcasting under mutex_. Our caller is free
  // to retire-and-free the tree the moment we return, so take the mutex
  // once: task_done() cannot release it mid-broadcast.
  std::lock_guard<std::mutex> lock(mutex_);
}

void TxTree::fail_with_user_exception(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!user_exception_) user_exception_ = std::move(e);
  mark_tree_failed_locked(TreeFailed::Reason::kUserException);
}

std::exception_ptr TxTree::user_exception() {
  std::lock_guard<std::mutex> lock(mutex_);
  return user_exception_;
}

void TxTree::abort_tree(TreeFailed::Reason reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    mark_tree_failed_locked(reason);
  }
  drain_tasks();
  release_boxes();
  run_attempt_finalizers(false);
  status_.store(TreeStatus::kAborted, std::memory_order_release);
  release_registry();
}

}  // namespace txf::core
