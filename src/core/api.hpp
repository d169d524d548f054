// Public programming interface of txfutures.
//
//   txf::core::Runtime rt;
//   txf::stm::VBox<long> balance(100);
//
//   long seen = txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
//     auto audit = ctx.submit([&](txf::core::TxCtx& inner) {
//       return balance.get(inner);          // runs as a transactional future
//     });
//     balance.put(ctx, balance.get(ctx) - 10);  // continuation, in parallel
//     return audit.get(ctx);                // evaluate: serialized BEFORE
//   });                                     // the withdrawal (strong order)
//
// `atomically` runs the body as a top-level transaction; `TxCtx::submit`
// spawns a transactional future and switches the caller into the
// continuation sub-transaction; `TxFuture<T>::get` blocks until the future
// has committed (strong ordering semantics, paper §II).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/runtime.hpp"
#include "core/tx_tree.hpp"
#include "obs/abort_cause.hpp"
#include "obs/trace.hpp"
#include "stm/vbox.hpp"
#include "util/backoff.hpp"
#include "util/thread_index.hpp"
#include "util/timing.hpp"
#include "util/xoshiro.hpp"

namespace txf::core {

template <typename T>
class TxFuture;

/// Handle to the current sub-transactional context. Passed by reference to
/// transaction bodies; after a submit() the same object denotes the
/// continuation sub-transaction.
class TxCtx {
 public:
  TxCtx(TxTree& tree, SubTxn* node) : tree_(&tree), node_(node) {}

  TxCtx(const TxCtx&) = delete;
  TxCtx& operator=(const TxCtx&) = delete;

  /// Transactional read of a box (use VBox<T>::get for typed access).
  stm::Word read(stm::VBoxImpl& box) { return tree_->read(*node_, box); }

  /// Transactional write (use VBox<T>::put for typed access).
  void write(stm::VBoxImpl& box, stm::Word value) {
    tree_->write(*node_, box, value);
  }

  /// Submit `fn` as a transactional future. The future is serialized at
  /// this point — before everything the continuation does — regardless of
  /// how it is scheduled. Under Config::scheduling == kAdaptive (the
  /// default) the runtime decides per submit site whether `fn` runs as a
  /// parallel child sub-transaction on a pool thread (the calling context
  /// becomes the continuation sibling) or is elided inline right here;
  /// both executions are semantically identical (result, exceptions,
  /// ordering), only the parallelism differs. The site is keyed by this
  /// call's return address; use submit_at with TXF_SUBMIT_SITE for a
  /// stable explicit key.
  template <typename F>
  auto submit(F&& fn) -> TxFuture<std::invoke_result_t<F&, TxCtx&>> {
    return submit_at(__builtin_return_address(0), std::forward<F>(fn));
  }

  /// submit() with an explicit site key for the adaptive scheduler's
  /// per-site statistics (see TXF_SUBMIT_SITE in core/adaptive.hpp).
  /// Distinct keys get independent inline-vs-parallel decisions.
  template <typename F>
  auto submit_at(const void* site_key, F&& fn)
      -> TxFuture<std::invoke_result_t<F&, TxCtx&>>;

  /// Cooperative cancellation / restart check; called implicitly by every
  /// transactional operation, exposed for long CPU-only loops.
  void poll() { tree_->check_alive(*node_); }

  /// Engine escape hatches (stable within one attempt; do not cache across
  /// retries — the tree and node are rebuilt on every restart).
  TxTree& tree() noexcept { return *tree_; }
  SubTxn* node() noexcept { return node_; }
  Runtime& runtime() noexcept { return tree_->runtime(); }

 private:
  template <typename T>
  friend class TxFuture;

  TxTree* tree_;
  SubTxn* node_;
};

/// Error reported when evaluating a future whose owning transaction was
/// torn down before the future ever committed (e.g. the tree restarted and
/// the handle was issued by a discarded execution).
struct StaleFuture : std::exception {
  const char* what() const noexcept override {
    return "transactional future abandoned by an aborted transaction";
  }
};

/// Composable blocking retry (Haskell-STM style): thrown by retry_now();
/// atomically() aborts the attempt, blocks until some transaction commits
/// (the global clock moves past this attempt's snapshot), and re-runs the
/// body. Use when the body discovers a precondition that only another
/// transaction can establish (queue non-empty, balance sufficient, ...).
struct BlockingRetry {};

/// Abort the current attempt and wait for the transactional state to
/// change before re-running. Valid anywhere inside an atomically() body,
/// including future code (the whole transaction waits).
[[noreturn]] inline void retry_now(TxCtx& ctx) {
  (void)ctx;  // requires a transactional context by signature
  throw BlockingRetry{};
}

template <typename T>
class TxFuture {
 public:
  TxFuture() = default;

  /// Evaluate from inside a transactional context. The paper's evaluation
  /// semantics: blocks until the future's sub-transaction has committed,
  /// and unwinds if the caller's own tree fails.
  ///
  /// Helping discipline (TxTree::join): help first, block last. The waiter
  /// runs the awaited body itself if no thread has started it yet, then
  /// any other unstarted future of its tree that precedes it in strong
  /// order, earliest first, and sleeps only when nothing is left to run.
  /// Everything it runs precedes the waiting frame, so the sequential
  /// execution would have finished it first and it cannot wait on that
  /// frame. Arbitrary pool tasks are only picked up after a timed-out
  /// sleep, and never by a frame inside a future body: such a body can
  /// transitively wait on the unrelated continuation frame buried beneath
  /// it, which is how the nested-helping deadlock wedged. A stall monitor
  /// converts any residual wait cycle into a clean kStalled restart.
  T get(TxCtx& ctx) const {
    TxFutureState<T>* st = ptr();
    obs::trace::Span join_span(obs::trace::Ev::kFutureJoin);
    adaptive::SiteStats* site = st->site();
    const std::uint64_t t0 = site != nullptr ? util::now_ns() : 0;
    const bool ok = ctx.tree().join(*st, *ctx.node());
    if (site != nullptr)
      ctx.runtime().adaptive().note_join_ns(site, util::now_ns() - t0);
    if (!ok) {
      // If it is our own tree that failed, unwind with the retry protocol;
      // only a foreign tree's abandonment makes the handle stale.
      ctx.poll();
      throw StaleFuture{};
    }
    return st->value();
  }

  /// Evaluate from outside any transaction (Fig. 2 usage: the handle can be
  /// shipped to other threads). Purely blocking.
  T get() const {
    if (!ptr()->wait()) throw StaleFuture{};
    return ptr()->value();
  }

  /// Non-blocking: has the future committed?
  bool ready() const { return ptr()->ready(); }

  /// True while the handle refers to a future (default-constructed and
  /// moved-from handles are invalid; calling get()/ready() on them is UB).
  bool valid() const noexcept { return state_ != nullptr; }

 private:
  friend class TxCtx;
  explicit TxFuture(std::shared_ptr<TxFutureState<T>> state)
      : state_(std::move(state)) {}

  TxFutureState<T>* ptr() const {
    TxFutureState<T>* p = state_.get();
    if (p == nullptr)
      throw std::logic_error("TxFuture: no associated state (default-"
                             "constructed or moved-from handle)");
    return p;
  }

  std::shared_ptr<TxFutureState<T>> state_;
};

template <typename F>
auto TxCtx::submit_at(const void* site_key, F&& fn)
    -> TxFuture<std::invoke_result_t<F&, TxCtx&>> {
  using R = std::invoke_result_t<F&, TxCtx&>;
  obs::trace::instant(obs::trace::Ev::kFutureSubmit);
  Runtime& rt = tree_->runtime();
  // Counted here, once per submit, so serial/elided/parallel runs all show
  // up identically in core.futures_submitted.
  rt.stats().futures_submitted.fetch_add(1, std::memory_order_relaxed);
  bool elide = tree_->serial();
  bool ordered = false;
  bool sample = false;
  adaptive::SiteStats* site = nullptr;
  if (!elide) {
    const adaptive::AdaptiveScheduler::Decision d =
        rt.adaptive().decide(site_key);
    elide = d.run_inline;
    ordered = d.ordered;
    sample = d.sample;
    site = d.site;  // null in the fixed modes -> zero feedback overhead
  }
  auto state = std::make_shared<TxFutureState<R>>();
  state->set_site(site);
  if (elide) {
    // Inline elision (and the serial fallback): run the future
    // synchronously at the submit point in the current context — by
    // definition the sequential execution that strong ordering makes
    // parallel runs equivalent to. An exception from `fn` propagates from
    // right here, exactly as it would resurface from atomically() had the
    // body run on a pool thread.
    // Timing is sampled (Decision::sample): clocking every elided run would
    // tax exactly the tiny bodies elision exists to rescue.
    const bool timed = site != nullptr && sample;
    const std::uint64_t t0 = timed ? util::now_ns() : 0;
    if constexpr (std::is_void_v<R>) {
      fn(*this);
      state->stage();
    } else {
      state->stage(fn(*this));
    }
    state->publish();
    if (timed) {
      rt.adaptive().note_body_ns(site, util::now_ns() - t0,
                                 adaptive::RunKind::kInline);
    }
    return TxFuture<R>(std::move(state));
  }
  auto body = std::make_shared<std::decay_t<F>>(std::forward<F>(fn));
  TxTree* tree = tree_;
  // kOrdered keeps the full split (per-node validation, reincarnation,
  // strong-order commit cascade) but runs the body synchronously on this
  // thread right after the split, so siblings execute in submission order.
  const adaptive::RunKind kind =
      ordered ? adaptive::RunKind::kOrdered : adaptive::RunKind::kParallel;
  auto runner = std::make_shared<NodeRunner>(
      [tree, state, body, site, kind](std::uint32_t node_idx) {
        // `site` points into Runtime-owned storage and outlives every tree.
        tree->run_future_body(node_idx, [tree, &state, &body, site,
                                         kind](SubTxn& start) -> SubTxn* {
          TxCtx inner(*tree, &start);
          const std::uint64_t t0 = site != nullptr ? util::now_ns() : 0;
          try {
            if constexpr (std::is_void_v<R>) {
              (*body)(inner);
              state->stage();
            } else {
              state->stage((*body)(inner));
            }
          } catch (const TreeFailed&) {
            throw;
          } catch (const NodeCancelled&) {
            throw;
          } catch (...) {
            // User exception in a future: abort the transaction and let it
            // resurface from atomically() — the sequential equivalent.
            tree->fail_with_user_exception(std::current_exception());
            throw TreeFailed{TreeFailed::Reason::kUserException};
          }
          if (site != nullptr) {
            tree->runtime().adaptive().note_body_ns(site, util::now_ns() - t0,
                                                    kind);
          }
          return inner.node();  // innermost continuation if `fn` submitted
        });
      });
  auto [future_node, cont_node] =
      tree_->submit_split(*node_, state, std::move(runner), site, !ordered);
  if (ordered) tree_->run_future_now(*future_node);
  node_ = cont_node;  // the caller continues as the continuation
  return TxFuture<R>(std::move(state));
}

/// Run `fn(TxCtx&)` as a top-level transaction with transactional-future
/// support, retrying on conflicts. Restarts triggered by inter-tree
/// conflicts re-run in fallback mode (Alg. 1's ownedbyAnotherTree).
namespace detail {
/// Park until some read-write transaction commits after `snapshot` (the
/// parked tree's snapshot_total(): the striped clock's component sum is
/// monotonic and advances on every committed writer, whichever stripe).
/// Polling (escalating to 2 ms) rather than a condition variable keeps the
/// commit hot path free of wakeup bookkeeping; a parked retry wakes at
/// most ~500 times/s once the wait is long.
inline void wait_for_clock_change(Runtime& rt, stm::Version snapshot) {
  util::Backoff backoff;
  std::chrono::microseconds nap(50);
  int step = 0;
  while (rt.env().clock().total() == snapshot) {
    if (step < 16) {
      backoff.pause();
      ++step;
      continue;
    }
    std::this_thread::sleep_for(nap);
    if (nap < std::chrono::microseconds(2000)) nap *= 2;
  }
}

/// Capped exponential backoff with full jitter between failed attempts
/// (attempt k sleeps uniform [0, min(base << k, cap)] µs). Returns the time
/// actually slept, in nanoseconds.
inline std::uint64_t backoff_sleep(const Config& cfg, std::uint32_t attempt,
                                   util::Xoshiro256& jitter) {
  const std::uint32_t shift = attempt < 20 ? attempt : 20;
  std::uint64_t cap = static_cast<std::uint64_t>(cfg.backoff_base_us) << shift;
  if (cap > cfg.backoff_cap_us) cap = cfg.backoff_cap_us;
  if (cap == 0) return 0;
  const std::uint64_t us = jitter.next_bounded(cap + 1);
  if (us == 0) return 0;
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::microseconds(us));
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Map a tree failure onto the abort-cause taxonomy (obs/abort_cause.hpp).
/// A chaos-induced failure wins over its conflict shape so injected aborts
/// never pollute the organic cause counters; a stall observed while an
/// escalation was pending is attributed to the serial preemption that
/// starved it rather than to the stall detector.
inline obs::AbortCause classify_tree_failure(const TxTree& tree,
                                             TreeFailed::Reason reason,
                                             Runtime& rt) {
  if (tree.chaos_induced()) return obs::AbortCause::kFailpointInjected;
  switch (reason) {
    case TreeFailed::Reason::kContinuationConflict:
      return obs::AbortCause::kTreeOrder;
    case TreeFailed::Reason::kInterTreeConflict:
      return obs::AbortCause::kWriteWrite;
    case TreeFailed::Reason::kTopLevelConflict:
      return obs::AbortCause::kReadValidation;
    case TreeFailed::Reason::kStaleSnapshot:
      return obs::AbortCause::kStaleSnapshot;
    case TreeFailed::Reason::kStalled:
      return rt.serial_gate().pending() != 0
                 ? obs::AbortCause::kSerialPreempt
                 : obs::AbortCause::kStalled;
    case TreeFailed::Reason::kUserException:
      return obs::AbortCause::kUserException;
  }
  return obs::AbortCause::kReadValidation;
}

/// Seed of one call's backoff-jitter stream: the thread's dense index and a
/// per-thread call count keep calls decorrelated across and within threads
/// without a process-wide counter.
inline std::uint64_t next_jitter_seed() noexcept {
  thread_local std::uint64_t calls = 0;
  return 0x6a09e667f3bcc909ULL ^
         (static_cast<std::uint64_t>(util::thread_index()) << 40) ^ ++calls;
}
}  // namespace detail

/// Contention-managed top-level transaction driver.
///
/// Every parallel attempt holds the runtime's serial token *shared*; after
/// Config::max_attempts failed attempts — or once Config::tx_deadline_us
/// expires — the call escalates: it takes the token *exclusively*, runs the
/// tree in serial mode (futures inline at the submit point), and therefore
/// cannot conflict with anything. Together with the stall detector (which
/// turns wedged waits into kStalled restarts) this bounds every
/// atomically() call: eventual termination is guaranteed, not just likely.
template <typename F>
auto atomically(Runtime& rt, F&& fn) {
  using R = std::invoke_result_t<F&, TxCtx&>;
  using Clock = std::chrono::steady_clock;
  const Config& cfg = rt.config();
  auto& rob = rt.robustness();
  // Abort taxonomy (obs/abort_cause.hpp): causes count once per failed
  // attempt, tx.commits / tx.aborted once per final outcome of this call.
  obs::AbortAccounting& acc = rt.env().abort_accounting();

  // Per-call jitter stream, seeded from thread-local state.
  util::Xoshiro256 jitter(detail::next_jitter_seed());

  const bool has_deadline = cfg.tx_deadline_us != 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(cfg.tx_deadline_us);

  std::uint32_t failed_attempts = 0;
  bool fallback = false;
  int continuation_conflicts = 0;
  bool serial_mode = false;
  bool deadline_counted = false;

  for (;;) {
    // Decide escalation *before* taking the token: the escalated attempt
    // needs it exclusive.
    bool escalate = serial_mode || continuation_conflicts >= 2;
    if (!escalate && cfg.max_attempts != 0 &&
        failed_attempts >= cfg.max_attempts) {
      escalate = true;
    }
    if (!escalate && has_deadline && failed_attempts > 0 &&
        Clock::now() >= deadline) {
      if (!deadline_counted) {
        rob.deadline_aborts.fetch_add(1, std::memory_order_relaxed);
        // Marks the escalation event, not a failed attempt — deliberately
        // not part of tx.attempt_aborts (see the accounting contract).
        acc.of(obs::AbortCause::kDeadlineExceeded).add();
        deadline_counted = true;
      }
      escalate = true;
    }

    stm::Version retry_snapshot = 0;
    bool wait_clock_change = false;
    bool do_backoff = false;
    {
      if (escalate) serial_mode = true;  // sticky: once degraded, stay serial
      // Shared entry defers to pending escalations (writer-starvation
      // guard); exclusive entry waits out every parallel attempt.
      SerialGate::Hold token(rt.serial_gate(), escalate);
      if (escalate) {
        rob.serial_irrevocable.fetch_add(1, std::memory_order_relaxed);
        rt.stats().serial_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }

      util::EpochDomain::Guard guard(rt.env().epochs());
      // One attempt = one tree = one trace span (closed on any exit,
      // including unwinds; it always contains one tx.commit or tx.abort).
      obs::trace::Span attempt_span(obs::trace::Ev::kTx);
      TxTree* tree = TxTree::acquire(rt, fallback);
      if (escalate) tree->set_serial();
      TxCtx ctx(*tree, tree->root());
      try {
        if constexpr (std::is_void_v<R>) {
          fn(ctx);
          tree->node_finished(*ctx.node());
          tree->wait_and_commit_top();
          tree->retire();
          acc.tx_commits.add();
          obs::trace::instant(obs::trace::Ev::kTxCommit);
          return;
        } else {
          R result = fn(ctx);
          tree->node_finished(*ctx.node());
          tree->wait_and_commit_top();
          tree->retire();
          acc.tx_commits.add();
          obs::trace::instant(obs::trace::Ev::kTxCommit);
          return result;
        }
      } catch (const BlockingRetry&) {
        // retry_now() from the body thread: wait for the world to change —
        // after releasing the token, or nothing could ever commit.
        retry_snapshot = tree->snapshot_total();
        tree->abort_tree(TreeFailed::Reason::kTopLevelConflict);
        tree->retire();
        wait_clock_change = true;
        acc.on_attempt_abort(obs::AbortCause::kExplicitRetry);
        obs::trace::instant(
            obs::trace::Ev::kTxAbort,
            static_cast<std::uint32_t>(obs::AbortCause::kExplicitRetry));
      } catch (const TreeFailed& tf) {
        tree->abort_tree(tf.reason);
        if (tf.reason == TreeFailed::Reason::kUserException) {
          retry_snapshot = tree->snapshot_total();
          std::exception_ptr e = tree->user_exception();
          tree->retire();
          try {
            std::rethrow_exception(e);
          } catch (const BlockingRetry&) {
            // retry_now() inside a future body: same wait-and-rerun.
            wait_clock_change = true;
            acc.on_attempt_abort(obs::AbortCause::kExplicitRetry);
            obs::trace::instant(
                obs::trace::Ev::kTxAbort,
                static_cast<std::uint32_t>(obs::AbortCause::kExplicitRetry));
          } catch (...) {
            // Any other user exception propagates: final outcome = aborted.
            acc.on_attempt_abort(obs::AbortCause::kUserException);
            acc.tx_aborted.add();
            obs::trace::instant(
                obs::trace::Ev::kTxAbort,
                static_cast<std::uint32_t>(obs::AbortCause::kUserException));
            throw;
          }
        } else {
          const obs::AbortCause cause =
              detail::classify_tree_failure(*tree, tf.reason, rt);
          // Whole-tree conflict failures never reach the per-node abort
          // charging, yet they ARE the price of speculative parallel
          // execution (fig5b: mostly inter-tree / top-level restarts) —
          // charge them to the tree's submit sites so the controller's
          // conflict EWMA sees them. Chaos-induced failures classify as
          // kFailpointInjected and are filtered inside.
          tree->charge_conflict_aborts(cause);
          fallback = tf.reason == TreeFailed::Reason::kInterTreeConflict;
          if (tf.reason == TreeFailed::Reason::kContinuationConflict)
            ++continuation_conflicts;
          tree->retire();
          ++failed_attempts;
          rob.retries.fetch_add(1, std::memory_order_relaxed);
          do_backoff = !serial_mode;
          acc.on_attempt_abort(cause);
          obs::trace::instant(obs::trace::Ev::kTxAbort,
                              static_cast<std::uint32_t>(cause));
        }
      } catch (...) {
        // User exception: abort the transaction and propagate.
        tree->abort_tree(TreeFailed::Reason::kTopLevelConflict);
        tree->retire();
        acc.on_attempt_abort(obs::AbortCause::kUserException);
        acc.tx_aborted.add();
        obs::trace::instant(
            obs::trace::Ev::kTxAbort,
            static_cast<std::uint32_t>(obs::AbortCause::kUserException));
        throw;
      }
    }  // token released here
    if (wait_clock_change) detail::wait_for_clock_change(rt, retry_snapshot);
    if (do_backoff) {
      const std::uint64_t ns =
          detail::backoff_sleep(cfg, failed_attempts, jitter);
      if (ns != 0) rob.backoff_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }
}

}  // namespace txf::core
