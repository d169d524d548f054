#include "stm/commit_spine.hpp"

#include <bit>
#include <cassert>

#include "obs/trace.hpp"
#include "stm/vbox.hpp"
#include "util/backoff.hpp"
#include "util/failpoint.hpp"

namespace txf::stm {

namespace {

/// Stripe id stamped into trace-span args by the multi-stripe path (real
/// stripes are < kMaxStripes; 0xff marks "spans multiple stripes").
constexpr std::uint32_t kMultiStripeTag = 0xffu;

/// Link one multi-stripe write-back node. Same protocol as the batch
/// pipeline's link_partition: install the unique predecessor via
/// CAS-from-nullptr (trim's trimmed_tail() sentinel keeps a stalled caller
/// from resurrecting a retired segment), then swing the head. The caller
/// owns the stripe frozen, so the loop resolves on the first iteration
/// unless a trim raced just before the freeze.
void link_node(VBoxImpl* box, PermanentVersion* node) {
  const Version ver = node->version.load(std::memory_order_relaxed);
  util::Backoff backoff;
  for (;;) {
    auto* head = const_cast<PermanentVersion*>(box->permanent_head());
    if (head->version.load(std::memory_order_acquire) >= ver) break;
    PermanentVersion* expected_next = nullptr;
    node->next.compare_exchange_strong(expected_next, head,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire);
    if (box->cas_permanent_head(head, node)) break;
    backoff.pause();
  }
}

}  // namespace

CommitSpine::CommitSpine(StripedClock& clock, ActiveTxnRegistry& registry,
                         util::EpochDomain& epochs)
    : clock_(clock),
      registry_(registry),
      epochs_(epochs),
      n_(clock.stripes()) {
  queues_.reserve(n_);
  for (unsigned s = 0; s < n_; ++s) {
    queues_.push_back(std::make_unique<CommitQueue>(clock.component(s),
                                                    registry, epochs, s));
  }
  reg_.atomic("stm.shard.multi_commits", multi_commits_)
      .atomic("stm.shard.multi_aborts", multi_aborts_)
      .histogram("stm.shard.multi_footprint", multi_footprint_)
      .histogram("stm.commit.stage.prevalidate_ns", prevalidate_ns_);
}

bool CommitSpine::prevalidate(const std::vector<VBoxImpl*>& reads,
                              const SnapshotVec& snap) {
  if (n_ == 1) return queues_[0]->prevalidate(reads, snap.seq[0]);
  // Chaos perturbation only, same site as the per-stripe stage 1 (the shed
  // decision window under test is identical).
  TXF_FP_POINT("stm.commit.prevalidate");
  obs::trace::Span span(
      obs::trace::Ev::kCommitPrevalidate,
      (kMultiStripeTag << 24) |
          static_cast<std::uint32_t>(
              reads.size() > 0xffffffu ? 0xffffffu : reads.size()));
  StageTimer timer(CommitStage::kPrevalidate, prevalidate_ns_);
  for (VBoxImpl* box : reads) {
    const unsigned s = stripe_of(box, n_ - 1);
    if (box->permanent_head()->version.load(std::memory_order_acquire) >
        snap.seq[s]) {
      queues_[s]->note_shed();
      return false;
    }
  }
  return true;
}

unsigned CommitSpine::footprint_width(
    const std::vector<VBoxImpl*>& reads,
    const std::vector<VBoxImpl*>& writes) const noexcept {
  if (n_ == 1) return 1;
  std::uint32_t mask = 0;
  for (const VBoxImpl* box : writes) mask |= 1u << stripe_of(box, n_ - 1);
  for (const VBoxImpl* box : reads) mask |= 1u << stripe_of(box, n_ - 1);
  const int w = std::popcount(mask);
  return w > 0 ? static_cast<unsigned>(w) : 1u;
}

bool CommitSpine::commit(CommitRequest* req) {
  assert(n_ == 1 &&
         "scalar commit() is only valid on a single-stripe spine; use "
         "commit(req, SnapshotVec)");
  return queues_[0]->commit(req);
}

bool CommitSpine::commit(CommitRequest* req, const SnapshotVec& snap) {
  if (n_ == 1) {
    req->snapshot = snap.seq[0];
    return queues_[0]->commit(req);
  }
  std::uint32_t mask = 0;
  for (const auto& wb : req->writes) {
    mask |= 1u << stripe_of(wb.box, n_ - 1);
  }
  // Footprint = reads ∪ writes (see file header: write-skew).
  for (const VBoxImpl* box : req->reads) {
    mask |= 1u << stripe_of(box, n_ - 1);
  }
  if (std::popcount(mask) == 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(mask));
    req->snapshot = snap.seq[s];
    return queues_[s]->commit(req);
  }
  return multi_commit(req, snap, mask);
}

bool CommitSpine::multi_commit(CommitRequest* req, const SnapshotVec& snap,
                               std::uint32_t mask) {
  obs::trace::Span span(
      obs::trace::Ev::kCommitAssign,
      (kMultiStripeTag << 24) |
          static_cast<std::uint32_t>(std::popcount(mask)));

  // --- phase one: reserve -------------------------------------------------
  // Freeze the whole footprint in ascending stripe order (total order =>
  // no deadlock between overlapping multi-stripe committers). After the
  // loop this thread exclusively owns every footprint stripe's permanent
  // heads and clock components.
  for (unsigned s = 0; s < n_; ++s) {
    if (mask >> s & 1u) queues_[s]->freeze();
  }

  // Chaos: an injected failure here exercises the abort path while the
  // footprint is frozen but before anything irreversible happened.
  bool ok = !TXF_FP_FIRES("stm.commit.multi.reserve");

  if (ok) {
    // Validate reads against the frozen heads, each box against its own
    // stripe's snapshot component.
    for (const VBoxImpl* box : req->reads) {
      const unsigned s = stripe_of(box, n_ - 1);
      if (box->permanent_head()->version.load(std::memory_order_acquire) >
          snap.seq[s]) {
        ok = false;
        break;
      }
    }
  }

  std::uint32_t wmask = 0;
  if (ok) {
    // Reserve one sequence number per write stripe by READING component+1
    // under the freeze (not fetch_add: an aborted attempt must consume
    // nothing, so each component stays equal to its committed-writer count).
    std::array<Version, kMaxStripes> ver;
    for (const auto& wb : req->writes) {
      const unsigned s = stripe_of(wb.box, n_ - 1);
      if (!(wmask >> s & 1u)) {
        wmask |= 1u << s;
        ver[s] = clock_.current(s) + 1;
      }
    }

    // --- phase two: publish ----------------------------------------------
    // Stamp and link every write, mirroring each into its home slot BEFORE
    // any clock component covers the new version (the home-slot fast-path
    // invariant, vbox.hpp). The write set is duplicate-free (WriteSetMap),
    // so no shadowing pass is needed.
    for (const auto& wb : req->writes) {
      const unsigned s = stripe_of(wb.box, n_ - 1);
      wb.node->version.store(ver[s], std::memory_order_relaxed);
      link_node(wb.box, wb.node);
      wb.box->publish_home(ver[s], wb.node->value);
    }
    // Chaos perturbation only: the transaction is past its point of no
    // return (nodes linked); delay/yield here stretches the window in which
    // readers must NOT yet observe any component advance.
    TXF_FP_POINT("stm.commit.multi.publish");
    // Advance all write-stripe components inside one epoch section:
    // snapshot readers see all of them or none (StripedClock::snapshot).
    clock_.publish_multi([&] {
      for (unsigned s = 0; s < n_; ++s) {
        if (wmask >> s & 1u) clock_.component(s).advance_to(ver[s]);
      }
    });
    for (unsigned s = 0; s < n_; ++s) {
      if (wmask >> s & 1u) {
        multi_committed_[s].fetch_add(1, std::memory_order_relaxed);
      }
    }
    multi_commits_.fetch_add(1, std::memory_order_relaxed);
    multi_footprint_.record(static_cast<std::uint64_t>(std::popcount(mask)));
  }

  for (unsigned s = 0; s < n_; ++s) {
    if (mask >> s & 1u) queues_[s]->unfreeze();
  }

  req->verdict_.store(ok ? CommitRequest::Verdict::kValid
                         : CommitRequest::Verdict::kAborted,
                      std::memory_order_release);
  if (ok) {
    // Trim every written box behind its stripe's snapshot floor, one floor
    // per write stripe, after the freeze is released (the queue path's
    // trimming runs concurrently with batches too; the trimmed_tail()
    // sentinel makes the two safe together).
    for (unsigned s = 0; s < n_; ++s) {
      if (!(wmask >> s & 1u)) continue;
      const Version min = registry_.min_active(s, clock_.current(s));
      for (const auto& wb : req->writes) {
        if (stripe_of(wb.box, n_ - 1) == s) wb.box->trim(min, epochs_);
      }
    }
  } else {
    multi_aborts_.fetch_add(1, std::memory_order_relaxed);
    // Nothing was linked; recycle the nodes, then the request itself.
    for (const auto& wb : req->writes) {
      VBoxImpl::retire_node(wb.node, epochs_);
    }
    req->writes.clear();
  }
  // Unlike the queue path (head-swing winner retires consumed requests),
  // the synchronous path owns its request end-to-end.
  CommitQueue::retire_request(req, epochs_);
  return ok;
}

}  // namespace txf::stm
