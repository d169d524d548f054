#include "stm/commit_queue.hpp"

#include <bit>
#include <cassert>
#include <chrono>
#include <cstddef>

#include "obs/trace.hpp"
#include "stm/vbox.hpp"
#include "stm/write_set.hpp"
#include "util/backoff.hpp"
#include "util/failpoint.hpp"

namespace txf::stm {

// ---------------------------------------------------------------------------
// Thread-local object pools.
//
// The commit fast path used to pay one heap allocation per request plus one
// per written box; in steady state every one of those objects comes back
// through EBR retirement, so the deleters feed thread-local free lists
// instead of the allocator and acquire_* pops from them. Pools are reached
// through a trivially-destructible raw pointer that the owner nulls at
// thread exit, so a deleter running during another thread's EBR collection
// (or during teardown) safely degrades to plain delete.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kPoolCap = 64;

struct LocalPools {
  std::vector<CommitRequest*> requests;
  std::vector<PermanentVersion*> nodes;
  std::vector<void*> batches;  // stored untyped; Batch is private to the queue
  void (*delete_batch)(void*) = nullptr;

  ~LocalPools();
};

thread_local LocalPools* tl_pools = nullptr;

thread_local struct PoolOwner {
  LocalPools pools;
  PoolOwner() { tl_pools = &pools; }
  ~PoolOwner() { tl_pools = nullptr; }
} tl_pool_owner;

LocalPools* pools_for_acquire() {
  // Odr-use the owner so first use on this thread constructs the pool.
  return &tl_pool_owner.pools;
}

}  // namespace

// ---------------------------------------------------------------------------
// CommitQueue: construction / destruction
// ---------------------------------------------------------------------------

CommitQueue::CommitQueue(GlobalClock& clock, ActiveTxnRegistry& registry,
                         util::EpochDomain& epochs, unsigned stripe)
    : clock_(clock), registry_(registry), epochs_(epochs), stripe_(stripe) {
  // Sentinel: a done request at version 0 so the boundary (head_) always
  // points at a processed request and the first batch starts after it.
  auto* sentinel = new CommitRequest();
  sentinel->commit_version_.store(0, std::memory_order_relaxed);
  sentinel->verdict_.store(CommitRequest::Verdict::kValid,
                           std::memory_order_relaxed);
  sentinel->done_.store(true, std::memory_order_relaxed);
  head_->store(sentinel, std::memory_order_relaxed);
  tail_->store(sentinel, std::memory_order_relaxed);
  reg_.atomic("stm.commit.committed", committed_)
      .atomic("stm.commit.aborted", aborted_)
      .atomic("stm.commit.prevalidation_sheds", sheds_)
      .atomic("stm.commit.batches", batches_)
      .atomic("stm.commit.batched_requests", batched_requests_)
      .atomic("stm.commit.dwell_ns", dwell_ns_)
      .atomic("stm.commit.dwell_samples", dwell_samples_)
      .histogram("stm.commit.batch_size", batch_size_h_)
      .histogram("stm.commit.stage.prevalidate_ns", prevalidate_ns_)
      .histogram("stm.commit.stage.assign_ns", assign_ns_)
      .histogram("stm.commit.stage.writeback_ns", writeback_ns_)
      .gauge("stm.commit.queue_depth", queue_depth_)
      .counter("stm.commit.link_invariant_failures", link_invariant_failures_);
}

CommitQueue::~CommitQueue() {
  // Quiescent at destruction: every consumed request except the current
  // boundary has been retired through EBR already, and the batch slot was
  // cleared by whichever helper completed the last batch.
  assert(batch_->load(std::memory_order_relaxed) == nullptr);
  CommitRequest* h = head_->load(std::memory_order_relaxed);
  while (h != nullptr) {
    CommitRequest* next = h->next_.load(std::memory_order_relaxed);
    for (auto& wb : h->writes) {
      // Nodes of valid requests were linked into boxes (owned there);
      // aborted/unprocessed ones are still ours.
      if (h->verdict() != CommitRequest::Verdict::kValid) delete wb.node;
    }
    delete h;
    h = next;
  }
}

// ---------------------------------------------------------------------------
// Pools
// ---------------------------------------------------------------------------

CommitRequest* CommitQueue::acquire_request() {
  if (LocalPools* p = pools_for_acquire(); p != nullptr && !p->requests.empty()) {
    CommitRequest* r = p->requests.back();
    p->requests.pop_back();
    return r;
  }
  return new CommitRequest();
}

PermanentVersion* CommitQueue::acquire_node(Word value) {
  if (LocalPools* p = pools_for_acquire(); p != nullptr && !p->nodes.empty()) {
    PermanentVersion* n = p->nodes.back();
    p->nodes.pop_back();
    n->value = value;
    return n;
  }
  return new PermanentVersion(value, 0, nullptr);
}

void CommitQueue::recycle_request(void* ptr) {
  auto* r = static_cast<CommitRequest*>(ptr);
  LocalPools* p = tl_pools;
  if (p == nullptr || p->requests.size() >= kPoolCap) {
    delete r;
    return;
  }
  // Keep the vectors' capacity — that is the point of the pool.
  r->writes.clear();
  r->reads.clear();
  r->snapshot = 0;
  r->commit_version_.store(0, std::memory_order_relaxed);
  r->verdict_.store(CommitRequest::Verdict::kUnknown, std::memory_order_relaxed);
  r->done_.store(false, std::memory_order_relaxed);
  r->next_.store(nullptr, std::memory_order_relaxed);
  p->requests.push_back(r);
}

void CommitQueue::recycle_node(void* ptr) {
  auto* n = static_cast<PermanentVersion*>(ptr);
  LocalPools* p = tl_pools;
  if (p == nullptr || p->nodes.size() >= kPoolCap) {
    delete n;
    return;
  }
  n->version.store(0, std::memory_order_relaxed);
  n->next.store(nullptr, std::memory_order_relaxed);
  p->nodes.push_back(n);
}

void VBoxImpl::retire_node(PermanentVersion* node, util::EpochDomain& domain) {
  domain.retire(static_cast<void*>(node), &CommitQueue::recycle_node);
}

void CommitQueue::retire_request(CommitRequest* req,
                                 util::EpochDomain& epochs) {
  epochs.retire(static_cast<void*>(req), &CommitQueue::recycle_request);
}

CommitQueue::Batch* CommitQueue::acquire_batch() {
  if (LocalPools* p = pools_for_acquire(); p != nullptr && !p->batches.empty()) {
    auto* b = static_cast<Batch*>(p->batches.back());
    p->batches.pop_back();
    return b;
  }
  return new Batch();
}

void CommitQueue::recycle_batch(void* ptr) {
  auto* b = static_cast<Batch*>(ptr);
  LocalPools* p = tl_pools;
  if (p == nullptr || p->batches.size() >= kPoolCap) {
    delete b;
    return;
  }
  b->boundary = nullptr;
  b->reqs.clear();
  b->base = 0;
  b->next_partition.store(0, std::memory_order_relaxed);
  // A stale completed flag on a reused batch would make every helper skip
  // stage 2/3 (and the done flags) for a brand-new segment — livelock.
  b->completed.store(false, std::memory_order_relaxed);
  b->stats_done.store(false, std::memory_order_relaxed);
  if (p->delete_batch == nullptr) {
    p->delete_batch = [](void* q) { delete static_cast<Batch*>(q); };
  }
  p->batches.push_back(b);
}

LocalPools::~LocalPools() {
  for (CommitRequest* r : requests) delete r;
  for (PermanentVersion* n : nodes) delete n;
  for (void* b : batches) delete_batch(b);
}

// ---------------------------------------------------------------------------
// Stage 1: pre-validation
// ---------------------------------------------------------------------------

bool CommitQueue::prevalidate(const std::vector<VBoxImpl*>& reads,
                              Version snapshot) {
  // Chaos perturbation only (delay/yield): widens the window between the
  // shed decision and enqueue, so a shed raced by a committing writer and a
  // pass raced into a doomed batch slot both get exercised.
  TXF_FP_POINT("stm.commit.prevalidate");
  obs::trace::Span span(obs::trace::Ev::kCommitPrevalidate,
                        span_arg(reads.size()));
  StageTimer timer(CommitStage::kPrevalidate, prevalidate_ns_);
  for (const VBoxImpl* box : reads) {
    // Committed versions only grow, so a head past our snapshot dooms the
    // final validation no matter when this request would reach a batch.
    if (box->permanent_head()->version.load(std::memory_order_acquire) >
        snapshot) {
      sheds_.fetch_add(1, std::memory_order_relaxed);
      aborted_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Queue linkage (MS-queue; versions are no longer assigned here — that
// moved into the batch's deterministic pass)
// ---------------------------------------------------------------------------

void CommitQueue::enqueue(CommitRequest* req) {
  // Chaos perturbation only (delay/yield): stretches the window between
  // linking and batching so combiner/helper interleavings get exercised.
  TXF_FP_POINT("stm.commit.enqueue");
  queue_depth_.add(1);
  util::Backoff backoff;
  for (;;) {
    CommitRequest* t = tail_->load(std::memory_order_acquire);
    CommitRequest* n = t->next_.load(std::memory_order_acquire);
    if (n != nullptr) {
      // Tail is lagging: help swing it.
      tail_->compare_exchange_strong(t, n, std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
      continue;
    }
    if (t->next_.compare_exchange_strong(n, req, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      tail_->compare_exchange_strong(t, req, std::memory_order_acq_rel,
                                     std::memory_order_relaxed);
      return;
    }
    backoff.pause();
  }
}

// ---------------------------------------------------------------------------
// Stage 2: batch formation + the deterministic pass
// ---------------------------------------------------------------------------

struct CommitQueue::Plan {
  struct Partition {
    VBoxImpl* box;
    PermanentVersion* node;  // the batch's newest version of `box`
  };

  std::vector<Partition> partitions;
  // box -> index into `partitions`; doubles as "written by an earlier valid
  // request of this batch" for the in-batch conflict check.
  WriteSetMap written;
  std::size_t valid_count = 0;

  void reset() {
    partitions.clear();
    written.clear();
    valid_count = 0;
  }
};

CommitQueue::Plan& CommitQueue::local_plan() {
  thread_local Plan plan;
  return plan;
}

void CommitQueue::try_form_batch() {
  CommitRequest* boundary = head_->load(std::memory_order_acquire);
  CommitRequest* first = boundary->next_.load(std::memory_order_acquire);
  if (first == nullptr) return;  // nothing pending
  if (batch_->load(std::memory_order_acquire) != nullptr) return;

  Batch* b = acquire_batch();
  b->boundary = boundary;
  const std::uint32_t limit = batch_limit_.load(std::memory_order_relaxed);
  for (CommitRequest* cur = first;
       cur != nullptr && b->reqs.size() < limit;
       cur = cur->next_.load(std::memory_order_acquire)) {
    b->reqs.push_back(cur);
  }
  // base must be read *after* boundary and after the freeze generation. The
  // clock moves under two writers, and each leaves a trace the stale check
  // in help_batch reads:
  //  * a batch advances the clock before it swings head_, so if head_ still
  //    equals `boundary`, no batch completed since `base` was read;
  //  * a multi-stripe commit freezes the slot, advances the clock and bumps
  //    freeze_gen_ before it releases the slot, so if the generation is
  //    unchanged, no multi-stripe commit ran since `base` was read — even
  //    though the slot is empty again and the publication CAS below
  //    succeeds.
  // Either way `base` is the clock at publication and versions
  // base+1..base+k are collision-free.
  b->freeze_gen = freeze_gen_->load(std::memory_order_acquire);
  b->base = clock_.current();
  // Chaos/regression site: a combiner stalled between reading `base` and
  // publishing is exactly the window a multi-stripe commit can slip into.
  TXF_FP_POINT("stm.commit.batch.base");

  Batch* expected = nullptr;
  if (!batch_->compare_exchange_strong(expected, b, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    recycle_batch(b);  // never published; no reader can hold it
    return;
  }
  // Chaos: stall the combiner right after publication — helpers must drive
  // the batch to completion without it.
  TXF_FP_POINT("stm.commit.batch.form");
  help_batch(b);
}

void CommitQueue::build_plan(Batch& b, Plan& plan) {
  plan.reset();
  Version next = b.base;
  for (CommitRequest* req : b.reqs) {
    if (req->verdict_.load(std::memory_order_acquire) ==
        CommitRequest::Verdict::kUnknown) {
      // Validate against (a) the permanent state frozen at batch start and
      // (b) boxes written by earlier *valid* members of this batch (their
      // versions exceed any member's snapshot but are not linked yet).
      // (a) is only deterministic before write-back starts; a helper that
      // reads mutating heads computes a verdict that loses the CAS below,
      // because write-back implies some helper already stored every verdict.
      bool ok = true;
      for (VBoxImpl* box : req->reads) {
        if (box->permanent_head()->version.load(std::memory_order_acquire) >
                req->snapshot ||
            plan.written.find(box) != nullptr) {
          ok = false;
          break;
        }
      }
      auto expected = CommitRequest::Verdict::kUnknown;
      req->verdict_.compare_exchange_strong(
          expected,
          ok ? CommitRequest::Verdict::kValid
             : CommitRequest::Verdict::kAborted,
          std::memory_order_acq_rel, std::memory_order_acquire);
    }
    // Everything below derives from the STORED verdict only, so every
    // helper computes the same versions, partitions, and shadow set.
    if (req->verdict_.load(std::memory_order_acquire) !=
        CommitRequest::Verdict::kValid) {
      continue;
    }
    ++next;  // only valid requests consume a version: the clock is gap-free
    req->commit_version_.store(next, std::memory_order_release);
    ++plan.valid_count;
    for (auto& wb : req->writes) {
      // Racing helpers store the same value (deterministic pass).
      wb.node->version.store(next, std::memory_order_relaxed);
      if (const Word* idx = plan.written.find(wb.box)) {
        auto& part = plan.partitions[static_cast<std::size_t>(*idx)];
        // The older same-batch write is shadowed: it is stamped but never
        // linked — the clock jumps base -> base+k atomically, so no snapshot
        // can fall on an intermediate version (GlobalClock::advance_to).
        // Its owner retires it after commit (it is the node whose `next` was
        // never installed).
        part.node = wb.node;
      } else {
        plan.written.put(wb.box, static_cast<Word>(plan.partitions.size()));
        plan.partitions.push_back(Plan::Partition{wb.box, wb.node});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Stage 3: parallel write-back
// ---------------------------------------------------------------------------

void CommitQueue::link_partition(const Plan& plan, std::size_t part) {
  // Chaos perturbation only: a stalled linker forces the other helpers'
  // idempotent sweep to carry the partition (the helping invariant under
  // test).
  TXF_FP_POINT("stm.commit.writeback");
  const Plan::Partition& p = plan.partitions[part];
  PermanentVersion* node = p.node;
  const Version ver = node->version.load(std::memory_order_relaxed);
  util::Backoff backoff;
  for (;;) {
    auto* head = const_cast<PermanentVersion*>(p.box->permanent_head());
    const Version head_ver = head->version.load(std::memory_order_acquire);
    if (head_ver >= ver) {
      // Another helper already linked it (or a later batch did). A head with
      // this very version that is not our node means another commit was
      // assigned the same version: our write would be lost silently.
      if (head_ver == ver && head != node) {
        link_invariant_failures_.add();
        assert(false && "two commits were assigned one version");
      }
      break;
    }
    // All helpers that get here observe the same pre-batch head (older
    // batches are fully linked, newer ones cannot start), so this CAS either
    // installs that unique predecessor or fails because it is already
    // installed — and once the node has been linked and trimmed behind, the
    // slot holds trimmed_tail(), so a stalled helper cannot resurrect a
    // retired segment.
    PermanentVersion* expected_next = nullptr;
    node->next.compare_exchange_strong(expected_next, head,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
    if (p.box->cas_permanent_head(head, node)) break;
    backoff.pause();
  }
  // Mirror the batch's newest version of this box into its seqlock home
  // slot (the zero-chase read fast path). Runs on every helper's sweep
  // pass, so the helper that later advances the clock has personally
  // ensured the mirror is current — the fast path's safety invariant is
  // "home published before the clock covers the version" (DESIGN.md).
  p.box->publish_home(ver, node->value);
}

void CommitQueue::record_batch_stats(Batch& b) {
  if (b.stats_done.exchange(true, std::memory_order_relaxed)) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = b.reqs.size();
  batched_requests_.fetch_add(n, std::memory_order_relaxed);
  batch_size_h_.record(n);
  // Bucket i covers sizes (2^(i-1), 2^i]: 1, 2, 3-4, 5-8, ..., 65+.
  std::size_t bucket =
      n <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(n - 1));
  if (bucket >= kBatchSizeBuckets) bucket = kBatchSizeBuckets - 1;
  batch_size_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
}

void CommitQueue::help_batch(Batch* b) {
  // Stale check: head_ moves only when a batch completes, so a batch whose
  // boundary is behind head_ was formed from an already-consumed segment.
  // An incomplete batch whose freeze generation is out of date read its base
  // before a multi-stripe commit advanced this stripe's clock. Both verdicts
  // are permanent (head_ is monotone; no freeze can start while the batch
  // holds the slot) and every helper agrees; whoever wins the slot CAS
  // discards the batch before anyone processes it.
  if (head_->load(std::memory_order_acquire) != b->boundary ||
      (!b->completed.load(std::memory_order_acquire) &&
       freeze_gen_->load(std::memory_order_acquire) != b->freeze_gen)) {
    Batch* cur = b;
    if (batch_->compare_exchange_strong(cur, nullptr,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
      epochs_.retire(static_cast<void*>(b), &CommitQueue::recycle_batch);
    }
    return;
  }
  // Chaos: delay a helper right after it committed to working on this batch.
  TXF_FP_POINT("stm.commit.batch.handoff");

  if (!b->completed.load(std::memory_order_acquire)) {
    // Stage 2: every helper replays the same deterministic pass; verdict
    // CASes are first-wins and everything else derives from stored verdicts.
    // After this returns, *all* verdicts of the batch are decided (the
    // write-back gate the validation determinism argument relies on).
    Plan& plan = local_plan();
    {
      obs::trace::Span span(obs::trace::Ev::kCommitAssign,
                            span_arg(b->reqs.size()));
      StageTimer timer(CommitStage::kAssign, assign_ns_);
      build_plan(*b, plan);
    }

    {
      // Stage 3: claim distinct partitions first (parallel fan-out)...
      obs::trace::Span span(obs::trace::Ev::kCommitWriteback,
                            span_arg(plan.partitions.size()));
      StageTimer timer(CommitStage::kWriteback, writeback_ns_);
      const std::size_t nparts = plan.partitions.size();
      for (;;) {
        const std::uint32_t i =
            b->next_partition.fetch_add(1, std::memory_order_relaxed);
        if (i >= nparts) break;
        link_partition(plan, i);
      }
      // ...then sweep them all (idempotent), so this helper has personally
      // verified every box is linked before it publishes the clock. A
      // claimer that stalled cannot strand its partition.
      for (std::size_t i = 0; i < nparts; ++i) link_partition(plan, i);
    }

    // Completion — each step idempotent or CAS-once, any helper can run it:
    // (1) publish the whole batch atomically,
    clock_.advance_to(b->base + plan.valid_count);
    // (2) release the committers,
    for (CommitRequest* r : b->reqs)
      r->done_.store(true, std::memory_order_release);
    // (3) let late helpers skip straight to the cleanup below.
    b->completed.store(true, std::memory_order_release);
  }
  // Cleanup — plan-free, so helpers arriving after completion stay cheap:
  // (4) account the batch exactly once,
  record_batch_stats(*b);
  // (5) swing the boundary past the consumed segment. The winner retires the
  // consumed requests (all but the new boundary) back into the pools; the
  // owners retire their own shadowed write-back nodes (see commit()).
  CommitRequest* expected = b->boundary;
  CommitRequest* last = b->reqs.back();
  if (head_->compare_exchange_strong(expected, last,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
    epochs_.retire(static_cast<void*>(b->boundary),
                   &CommitQueue::recycle_request);
    for (std::size_t i = 0; i + 1 < b->reqs.size(); ++i) {
      epochs_.retire(static_cast<void*>(b->reqs[i]),
                     &CommitQueue::recycle_request);
    }
  }
  // (5) clear the slot so the next batch can form. Exactly one clearer wins
  // and retires the Batch object (a helper stalled before this point finds
  // the batch stale on re-entry and races the same CAS harmlessly).
  Batch* cur = b;
  if (batch_->compare_exchange_strong(cur, nullptr, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
    epochs_.retire(static_cast<void*>(b), &CommitQueue::recycle_batch);
  }
}

void CommitQueue::help_until_done(CommitRequest* target) {
  while (!target->done()) {
    Batch* b = batch_->load(std::memory_order_acquire);
    if (b == frozen_sentinel()) {
      // A multi-stripe committer owns the stripe; nothing to help — its
      // critical section is short, but on an oversubscribed host it may
      // need our core to finish.
      std::this_thread::yield();
    } else if (b != nullptr) {
      help_batch(b);
    } else {
      try_form_batch();
    }
  }
}

// ---------------------------------------------------------------------------
// Stripe freeze (multi-stripe commit protocol; see commit_spine.cpp)
// ---------------------------------------------------------------------------

CommitQueue::Batch* CommitQueue::frozen_sentinel() {
  static Batch sentinel;
  return &sentinel;
}

void CommitQueue::freeze() {
  // Occupying the batch slot with a batch nobody helps IS the freeze:
  // try_form_batch refuses while the slot is non-null, so winning the CAS
  // from nullptr means no batch is in flight and none can form. Competing
  // multi-stripe committers serialize on the same CAS.
  util::Backoff backoff;
  for (;;) {
    Batch* cur = batch_->load(std::memory_order_acquire);
    if (cur == nullptr) {
      if (batch_->compare_exchange_weak(cur, frozen_sentinel(),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        return;
      }
    } else if (cur == frozen_sentinel()) {
      backoff.pause();  // another multi-stripe committer owns the stripe
    } else {
      help_batch(cur);  // drain the in-flight batch instead of waiting on it
    }
  }
}

void CommitQueue::unfreeze() {
  // Bump the generation before the slot becomes free, so a combiner that
  // read `base` before this freeze sees its batch as stale (try_form_batch).
  freeze_gen_->fetch_add(1, std::memory_order_release);
  Batch* cur = frozen_sentinel();
  const bool released = batch_->compare_exchange_strong(
      cur, nullptr, std::memory_order_acq_rel, std::memory_order_relaxed);
  assert(released && "unfreeze without owning the freeze");
  (void)released;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

void CommitQueue::trim_writes(CommitRequest& req) {
  // Every commit trims the boxes it wrote, so a box keeps at most the
  // versions live snapshots can still read plus the newest one (DESIGN.md
  // substitution 1). The floor scan is short: registry slots are sticky per
  // thread and min_active stops at their high-water mark.
  const Version min = registry_.min_active(stripe_, clock_.current());
  for (auto& wb : req.writes) wb.box->trim(min, epochs_);
}

bool CommitQueue::commit(CommitRequest* req) {
  // Dwell is sampled 1-in-64: two clock reads per commit are measurable on
  // the single-thread fast path, and the mean is what the breakdown reports.
  thread_local std::uint32_t dwell_tick = 0;
  const bool timed = (++dwell_tick & 63u) == 0;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  enqueue(req);
  help_until_done(req);
  queue_depth_.add(-1);
  if (timed) {
    dwell_ns_.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    dwell_samples_.fetch_add(1, std::memory_order_relaxed);
  }

  const bool ok = req->verdict() == CommitRequest::Verdict::kValid;
  if (ok) {
    committed_.fetch_add(1, std::memory_order_relaxed);
    // Retire this request's *shadowed* nodes: versions overwritten by a
    // newer same-batch write of the same box. A shadowed node is exactly one
    // whose `next` was never installed (linking CASes it from nullptr before
    // the batch's done flags; trim only ever reaches linked nodes), so the
    // check is race-free here, after done.
    for (auto& wb : req->writes) {
      if (wb.node->next.load(std::memory_order_acquire) == nullptr)
        VBoxImpl::retire_node(wb.node, epochs_);
    }
    trim_writes(*req);
  } else {
    aborted_.fetch_add(1, std::memory_order_relaxed);
    // The write-back nodes were never linked; recycle them. (Through EBR,
    // because a lagging helper's deterministic pass may still read the
    // request; the verdict it sees is kAborted, so it skips these nodes,
    // but the vector itself must stay intact until the grace period — hence
    // clear() only after retiring, and the request itself is EBR-retired by
    // the head-swing winner.)
    for (auto& wb : req->writes) VBoxImpl::retire_node(wb.node, epochs_);
    req->writes.clear();
  }
  return ok;
}

}  // namespace txf::stm
