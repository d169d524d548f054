// The sharded commit spine: N per-stripe commit pipelines behind one
// routing facade.
//
// Every VBox belongs to exactly one stripe (stripe_of() in
// global_clock.hpp); each stripe owns a full CommitQueue pipeline —
// pre-validation, flat-combining version assignment, write-back fan-out —
// and one clock component of the env's StripedClock. The spine routes a
// commit by the stripe footprint of its read ∪ write set:
//
//  * SINGLE-STRIPE footprint (the common case when boxes are spread and
//    transactions are small): the request drops into that stripe's queue
//    with the matching snapshot component, and the whole commit — batching,
//    helping, clock advance — touches no other stripe's state. Zero
//    cross-shard coordination; disjoint-footprint committers on different
//    stripes proceed fully in parallel.
//
//  * MULTI-STRIPE footprint: a synchronous two-phase protocol. Phase one
//    RESERVES: freeze every footprint stripe in canonical (ascending) order
//    — freezing drains the stripe's in-flight batch and blocks formation,
//    giving this committer exclusive ownership of the stripe's heads and
//    clock component — then validate the read set against the frozen heads
//    and reserve sequence number `component+1` per write stripe (a read,
//    not a fetch_add: an aborted commit must consume no sequence number, so
//    per-stripe sequences stay gap-free). Phase two PUBLISHES: link the
//    write-back nodes and home-slot mirrors, then advance all write-stripe
//    components inside one StripedClock::publish_multi epoch section, so
//    snapshot readers observe the whole transaction or none of it; finally
//    unfreeze. The freeze order is total, so overlapping multi-stripe
//    committers cannot deadlock; single-stripe committers never hold one
//    stripe while waiting on another.
//
// NOTE the footprint is reads ∪ writes, not writes alone: freezing only the
// write stripes would let a concurrent commit overtake this transaction's
// *read* stripes between validation and publication — the classic
// write-skew interleaving (t1 reads A writes B, t2 reads B writes A; both
// validate stale reads "concurrently" if A and B live in different stripes).
//
// Why a single stripe reproduces the old pipeline exactly: with N == 1
// every footprint is single-stripe, routing collapses to a direct call into
// queue 0, and SnapshotVec degenerates to the scalar clock — the ±5% parity
// requirement in BENCH_commit_sharding.json is checked against exactly this
// path.
//
// Observability: every stripe's CommitQueue registers the same literal
// "stm.commit.*" metric names — the MetricsRegistry sums same-name
// instances, so the aggregate counters keep their pre-sharding meaning.
// Spine-level "stm.shard.*" metrics cover the multi-stripe path; per-stripe
// resolution is exposed programmatically (stripe_queue(), stripe_committed())
// to the server report and benches rather than through dynamic metric names
// (scripts/check_docs.py audits literal names only).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "stm/commit_queue.hpp"
#include "stm/global_clock.hpp"
#include "util/epoch.hpp"

namespace txf::stm {

class CommitSpine {
 public:
  CommitSpine(StripedClock& clock, ActiveTxnRegistry& registry,
              util::EpochDomain& epochs);

  CommitSpine(const CommitSpine&) = delete;
  CommitSpine& operator=(const CommitSpine&) = delete;

  unsigned stripes() const noexcept { return n_; }
  unsigned stripe_mask() const noexcept { return n_ - 1; }
  CommitQueue& stripe_queue(unsigned s) noexcept { return *queues_[s]; }
  const CommitQueue& stripe_queue(unsigned s) const noexcept {
    return *queues_[s];
  }

  /// Stripe of a box under this spine's configuration.
  unsigned stripe_of_box(const VBoxImpl* box) const noexcept {
    return stripe_of(box, n_ - 1);
  }

  /// Width (stripe count) of the footprint a commit with these reads and
  /// writes would route on — the same reads ∪ writes mask commit() builds.
  /// 1 means the zero-coordination single-stripe path; >1 means the
  /// serializing multi-stripe protocol. Used by the adaptive scheduler's
  /// footprint-narrowing bias (core/adaptive.hpp); pure function of the
  /// box addresses, no stripe state touched.
  unsigned footprint_width(const std::vector<VBoxImpl*>& reads,
                           const std::vector<VBoxImpl*>& writes) const noexcept;

  /// Stage-1 pre-validation against a snapshot vector: each read box is
  /// checked against its own stripe's component. Sheds are attributed to
  /// the failing box's stripe queue; with more than one stripe the spine
  /// times the stage itself (stage_prevalidate_ns()), with one the queue
  /// does.
  bool prevalidate(const std::vector<VBoxImpl*>& reads,
                   const SnapshotVec& snap);

  /// Single-stripe compatibility overload (tests and single-stripe envs).
  bool prevalidate(const std::vector<VBoxImpl*>& reads, Version snapshot) {
    return queues_[0]->prevalidate(reads, snapshot);
  }

  /// Route and execute a commit. Takes ownership of `req` (and of its nodes
  /// on abort) exactly like CommitQueue::commit. Caller must hold an EBR
  /// guard on the domain passed at construction.
  bool commit(CommitRequest* req, const SnapshotVec& snap);

  /// Single-stripe compatibility overload: `req->snapshot` is already the
  /// scalar snapshot. Only valid when stripes() == 1.
  bool commit(CommitRequest* req);

  // --- aggregates (the pre-sharding CommitQueue accessors, summed) ---

  std::uint64_t committed_count() const noexcept {
    std::uint64_t t = multi_commits_.load(std::memory_order_relaxed);
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->committed_count();
    return t;
  }
  std::uint64_t aborted_count() const noexcept {
    std::uint64_t t = multi_aborts_.load(std::memory_order_relaxed);
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->aborted_count();
    return t;
  }
  std::uint64_t prevalidation_sheds() const noexcept {
    std::uint64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->prevalidation_sheds();
    return t;
  }
  std::uint64_t batch_count() const noexcept {
    std::uint64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->batch_count();
    return t;
  }
  std::uint64_t batched_requests() const noexcept {
    std::uint64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->batched_requests();
    return t;
  }
  std::uint64_t batch_size_bucket(std::size_t i) const noexcept {
    std::uint64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->batch_size_bucket(i);
    return t;
  }
  std::uint64_t queue_dwell_ns() const noexcept {
    std::uint64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->queue_dwell_ns();
    return t;
  }
  std::uint64_t queue_dwell_samples() const noexcept {
    std::uint64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->queue_dwell_samples();
    return t;
  }
  /// Sum of per-stripe depths: total requests in flight across the spine.
  std::int64_t queue_depth() const noexcept {
    std::int64_t t = 0;
    for (unsigned s = 0; s < n_; ++s) t += queues_[s]->queue_depth();
    return t;
  }
  /// Hottest single stripe. The admission controller reads BOTH: a hot
  /// stripe at depth 60 is overload even when the other seven are idle and
  /// the sum looks comfortable (src/server/admission.cpp).
  std::int64_t queue_depth_max() const noexcept {
    std::int64_t m = 0;
    for (unsigned s = 0; s < n_; ++s) {
      const std::int64_t d = queues_[s]->queue_depth();
      if (d > m) m = d;
    }
    return m;
  }

  void set_batch_limit(std::uint32_t limit) noexcept {
    for (unsigned s = 0; s < n_; ++s) queues_[s]->set_batch_limit(limit);
  }

  // --- sharded-path accounting ---

  /// Multi-stripe transactions committed / aborted by the synchronous path.
  std::uint64_t multi_commits() const noexcept {
    return multi_commits_.load(std::memory_order_relaxed);
  }
  std::uint64_t multi_aborts() const noexcept {
    return multi_aborts_.load(std::memory_order_relaxed);
  }
  /// Multi-stripe commits that advanced stripe `s` (each counts once per
  /// write stripe it touched).
  std::uint64_t multi_committed(unsigned s) const noexcept {
    return multi_committed_[s].load(std::memory_order_relaxed);
  }
  /// Committed writers whose commit advanced stripe `s`'s clock component:
  /// the end-of-soak invariant is component(s) == stripe_committed(s).
  /// Sampled durations of the multi-stripe stage 1, registered under the
  /// queues' name "stm.commit.stage.prevalidate_ns" (the registry sums).
  const obs::Histogram& stage_prevalidate_ns() const noexcept {
    return prevalidate_ns_;
  }

  std::uint64_t stripe_committed(unsigned s) const noexcept {
    return queues_[s]->committed_count() +
           multi_committed_[s].load(std::memory_order_relaxed);
  }

 private:
  bool multi_commit(CommitRequest* req, const SnapshotVec& snap,
                    std::uint32_t mask);

  StripedClock& clock_;
  ActiveTxnRegistry& registry_;
  util::EpochDomain& epochs_;
  unsigned n_;
  std::vector<std::unique_ptr<CommitQueue>> queues_;

  std::atomic<std::uint64_t> multi_commits_{0};
  std::atomic<std::uint64_t> multi_aborts_{0};
  std::array<std::atomic<std::uint64_t>, kMaxStripes> multi_committed_{};
  obs::Histogram multi_footprint_;  // stripes per multi-stripe commit
  obs::Histogram prevalidate_ns_;   // multi-stripe stage 1 (sampled)
  obs::Registration reg_;           // see constructor
};

}  // namespace txf::stm
