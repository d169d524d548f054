// Flat (future-free) top-level transactions and the STM environment.
//
// This is the conventional JVSTM-style MVCC transaction of paper §III-A:
// snapshot reads against the permanent version lists, a private write set,
// and commit through the ordered helping queue. Transaction trees (futures)
// build on top of this in core/.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

#include "obs/abort_cause.hpp"
#include "obs/trace.hpp"
#include "stm/commit_queue.hpp"
#include "stm/commit_spine.hpp"
#include "stm/global_clock.hpp"
#include "stm/read_stats.hpp"
#include "stm/vbox.hpp"
#include "stm/write_set.hpp"
#include "util/backoff.hpp"
#include "util/epoch.hpp"

namespace txf::stm {

/// Shared state of one STM instance: the striped clock, the live-snapshot
/// registry, the sharded commit spine and the reclamation domain. Library
/// users normally hold exactly one (via core::Runtime, which passes
/// Config::commit_stripes); tests create private ones freely — the default
/// single stripe reproduces the pre-sharding pipeline exactly.
class StmEnv {
 public:
  explicit StmEnv(unsigned stripes = 1)
      : clock_(stripes),
        epochs_(&util::global_epoch_domain()),
        queue_(clock_, registry_, *epochs_) {
    registry_.set_stripes(clock_.stripes());
  }
  explicit StmEnv(util::EpochDomain& domain, unsigned stripes = 1)
      : clock_(stripes), epochs_(&domain), queue_(clock_, registry_, domain) {
    registry_.set_stripes(clock_.stripes());
  }

  StmEnv(const StmEnv&) = delete;
  StmEnv& operator=(const StmEnv&) = delete;

  unsigned stripes() const noexcept { return clock_.stripes(); }
  StripedClock& clock() noexcept { return clock_; }
  const StripedClock& clock() const noexcept { return clock_; }
  ActiveTxnRegistry& registry() noexcept { return registry_; }
  CommitSpine& queue() noexcept { return queue_; }
  const CommitSpine& queue() const noexcept { return queue_; }
  util::EpochDomain& epochs() noexcept { return *epochs_; }
  ReadPathStats& read_stats() noexcept { return read_stats_; }
  const ReadPathStats& read_stats() const noexcept { return read_stats_; }
  obs::AbortAccounting& abort_accounting() noexcept { return aborts_; }
  const obs::AbortAccounting& abort_accounting() const noexcept {
    return aborts_;
  }

 private:
  StripedClock clock_;
  ActiveTxnRegistry registry_;
  util::EpochDomain* epochs_;
  CommitSpine queue_;
  ReadPathStats read_stats_;
  obs::AbortAccounting aborts_;
};

/// Thrown by user code to force an abort-and-retry of the current attempt.
struct RetryTransaction {};

class Transaction {
 public:
  enum class Mode { kReadWrite, kReadOnly };

  explicit Transaction(StmEnv& env, Mode mode = Mode::kReadWrite)
      : env_(env),
        nstripes_(env.stripes()),
        stripe_mask_(env.stripes() - 1),
        mode_(mode) {
    guard_.emplace(env.epochs());
    slot_ = env_.registry().claim();
    begin_snapshot();
  }

  ~Transaction() {
    read_path_.flush_into(env_.read_stats());
    if (slot_ != ActiveTxnRegistry::kNoSlot) {
      env_.registry().release(slot_);
    } else {
      env_.registry().release_unregistered();
    }
  }

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Snapshot component for stripe 0 (exact scalar snapshot on
  /// single-stripe envs; tests and diagnostics).
  Version snapshot() const noexcept { return snapshot_.seq[0]; }
  /// The full per-stripe snapshot vector.
  const SnapshotVec& snapshot_vec() const noexcept { return snapshot_; }
  /// Snapshot component governing `box`.
  Version snapshot_of(const VBoxImpl& box) const noexcept {
    return snapshot_.seq[stripe_of(&box, stripe_mask_)];
  }
  Mode mode() const noexcept { return mode_; }
  StmEnv& env() noexcept { return env_; }

  /// Transactional read (paper §III-A: write-set lookup, then the newest
  /// permanent version committed before this transaction began). The home
  /// slot serves the dominant case — newest committed version visible at
  /// this snapshot — with zero pointer chases; only readers overtaken by a
  /// newer commit (or racing a publication) walk the version list.
  Word read(VBoxImpl& box) {
    if (mode_ == Mode::kReadWrite) {
      if (const Word* w = writes_.find(&box)) return *w;
    }
    // Versions are stripe-local: compare only against the component of this
    // box's stripe (global_clock.hpp).
    const Version snap = snapshot_.seq[stripe_of(&box, stripe_mask_)];
    Word value;
    Version version;
    if (box.try_read_home(snap, value, version)) {
      read_path_.note_home();
      if (mode_ == Mode::kReadWrite) reads_.put(&box, 0);
      return value;
    }
    std::size_t steps = 0;
    const PermanentVersion* v = box.read_permanent(snap, &steps);
    if (v == nullptr) {
      // Our snapshot lost a race with trimming (e.g. a slot-less overflow
      // transaction whose snapshot the GC could not see). Not a programming
      // error: abort this attempt and let atomically() retry at a fresh
      // snapshot instead of crashing a release build.
      pending_cause_ = obs::AbortCause::kStaleSnapshot;
      throw RetryTransaction{};
    }
    read_path_.note_walk(steps);
    obs::trace::instant(obs::trace::Ev::kReadWalk,
                        static_cast<std::uint32_t>(steps));
    if (mode_ == Mode::kReadWrite) reads_.put(&box, 0);
    return v->value;
  }

  /// Transactional write: buffered privately until commit.
  void write(VBoxImpl& box, Word value) {
    assert(mode_ == Mode::kReadWrite && "write inside a read-only transaction");
    writes_.put(&box, value);
  }

  bool wrote_anything() const noexcept { return !writes_.empty(); }
  std::size_t read_count() const noexcept { return reads_.size(); }
  std::size_t write_count() const noexcept { return writes_.size(); }

  /// Attempt to commit. Read-only executions commit immediately (their
  /// snapshot is consistent by construction, §IV-E); writers go through the
  /// helped commit queue. Returns false on conflict — caller retries with a
  /// fresh Transaction.
  bool try_commit() {
    if (writes_.empty()) return true;
    // Stage-1 pre-validation (commit_queue.hpp): a doomed read set is shed
    // here, before the queue is touched or any write-back state allocated.
    if (!env_.queue().prevalidate(reads_.boxes(), snapshot_)) return false;
    CommitRequest* req = CommitQueue::acquire_request();
    req->reads = reads_.boxes();
    req->writes.reserve(writes_.size());
    for (VBoxImpl* box : writes_.boxes()) {
      req->writes.push_back(
          WriteBackEntry{box, CommitQueue::acquire_node(writes_.value_of(box))});
    }
    // The spine routes by stripe footprint and fills req->snapshot with the
    // right component on the single-stripe path (commit_spine.hpp).
    return env_.queue().commit(req, snapshot_);
  }

  /// Make this transaction invisible between retry attempts: unpin the EBR
  /// guard (so reclamation keeps flowing while we back off) and clear the
  /// published snapshot (so the version GC is not held back by a doomed
  /// attempt). The transaction must not be used again until reset().
  void park() {
    read_path_.flush_into(env_.read_stats());
    guard_.reset();
    if (slot_ != ActiveTxnRegistry::kNoSlot) {
      env_.registry().slot(slot_).clear(nstripes_);
    }
  }

  /// Re-arm a parked transaction for the next attempt. Keeps the registry
  /// slot and both set maps (their capacity is the point of reusing the
  /// object) but drops their contents and takes a fresh snapshot.
  void reset() {
    guard_.emplace(env_.epochs());
    writes_.clear();
    reads_.clear();
    begin_snapshot();
  }

  /// reset(), switching the execution mode for the next attempt.
  void reset(Mode mode) {
    mode_ = mode;
    reset();
  }

  /// Cause recorded by the engine for the current attempt's failure
  /// (consumed by atomically(); defaults to `fallback` when the attempt
  /// failed for a reason the engine did not classify).
  obs::AbortCause take_abort_cause(obs::AbortCause fallback) noexcept {
    const obs::AbortCause c = pending_cause_;
    pending_cause_ = obs::AbortCause::kCount;
    return c != obs::AbortCause::kCount ? c : fallback;
  }

 private:
  void begin_snapshot() {
    // Publish-then-verify, per component, so the version GC can never trim
    // a version this snapshot still needs (see ActiveTxnRegistry): if a
    // component is unchanged after we published it, any trimmer that missed
    // our slot used an upper bound no newer than our component.
    StripedClock& clock = env_.clock();
    if (slot_ == ActiveTxnRegistry::kNoSlot) {
      clock.snapshot(snapshot_);
      return;
    }
    ActiveTxnRegistry::Slot& sl = env_.registry().slot(slot_);
    for (;;) {
      clock.snapshot(snapshot_);
      for (unsigned s = 0; s < nstripes_; ++s) sl.publish(s, snapshot_.seq[s]);
      bool stable = true;
      for (unsigned s = 0; s < nstripes_; ++s) {
        if (clock.current(s) != snapshot_.seq[s]) {
          stable = false;
          break;
        }
      }
      if (stable) return;
    }
  }

  StmEnv& env_;
  std::optional<util::EpochDomain::Guard> guard_;
  std::size_t slot_ = ActiveTxnRegistry::kNoSlot;
  SnapshotVec snapshot_{};
  unsigned nstripes_;
  unsigned stripe_mask_;
  WriteSetMap writes_;
  WriteSetMap reads_;  // keys only: the read set
  ReadPathCounters read_path_;  // flushed into env on park()/destruction
  obs::AbortCause pending_cause_ = obs::AbortCause::kCount;  // kCount = none
  Mode mode_;
};

/// Run `fn(Transaction&)` atomically, retrying on conflict with bounded
/// exponential backoff. Returns fn's result. One Transaction object is
/// reused across attempts (park()/reset()), so a long retry fight costs no
/// per-attempt allocations and never pins the reclamation epoch through a
/// backoff sleep.
template <typename F>
auto atomically(StmEnv& env, F&& fn,
                Transaction::Mode mode = Transaction::Mode::kReadWrite) {
  using R = std::invoke_result_t<F&, Transaction&>;
  util::Backoff backoff;
  Transaction tx(env, mode);
  obs::AbortAccounting& acc = env.abort_accounting();
  for (;;) {
    // Per-attempt accounting (see obs/abort_cause.hpp): every failed
    // attempt counts its cause once; tx.commits / tx.aborted reflect only
    // the call's final outcome. The trace span covers one attempt and
    // always contains exactly one tx.commit or tx.abort instant.
    obs::AbortCause cause = obs::AbortCause::kReadValidation;
    {
      obs::trace::Span attempt(obs::trace::Ev::kTx);
      try {
        if constexpr (std::is_void_v<R>) {
          fn(tx);
          if (tx.try_commit()) {
            obs::trace::instant(obs::trace::Ev::kTxCommit);
            acc.tx_commits.add();
            return;
          }
        } else {
          R result = fn(tx);
          if (tx.try_commit()) {
            obs::trace::instant(obs::trace::Ev::kTxCommit);
            acc.tx_commits.add();
            return result;
          }
        }
        // try_commit() refused: the read set was overtaken (stage-1 shed or
        // batch validation); `cause` keeps its kReadValidation default.
      } catch (const RetryTransaction&) {
        cause = tx.take_abort_cause(obs::AbortCause::kExplicitRetry);
      } catch (...) {
        // User exception: the call's final outcome is an abort.
        acc.on_attempt_abort(obs::AbortCause::kUserException);
        acc.tx_aborted.add();
        obs::trace::instant(
            obs::trace::Ev::kTxAbort,
            static_cast<std::uint32_t>(obs::AbortCause::kUserException));
        throw;
      }
      acc.on_attempt_abort(cause);
      obs::trace::instant(obs::trace::Ev::kTxAbort,
                          static_cast<std::uint32_t>(cause));
    }
    tx.park();
    backoff.pause();
    tx.reset();
  }
}

}  // namespace txf::stm
