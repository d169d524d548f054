// Result plumbing between a transactional future's sub-transaction and the
// TxFuture<T> handles that evaluate it.
//
// Evaluation semantics (paper §III): get() blocks until the future's
// sub-transaction *commits* (its whole subtree, under strong ordering), not
// merely until the code ran. The handle is shareable across threads and
// even across top-level transactions (Fig. 2); it outlives the tree, so the
// committed value is copied out at publish time.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace txf::core {

namespace adaptive {
struct SiteStats;  // defined in core/adaptive.hpp
}

class TxFutureStateBase {
 public:
  virtual ~TxFutureStateBase() = default;

  /// Current node incarnation evaluating this future (kNoNode-equivalent
  /// ~0u until first scheduled). Lets a waiter find exactly the body it
  /// waits on and run it itself (TxTree's help-first join).
  void set_node_idx(std::uint32_t idx) noexcept {
    node_idx_.store(idx, std::memory_order_release);
  }
  std::uint32_t node_idx() const noexcept {
    return node_idx_.load(std::memory_order_acquire);
  }

  /// One execution per incarnation: the first starter of incarnation `idx`
  /// (its pool task, a helping waiter, or the ordered lane) wins; every
  /// other starter backs off. The claim lives here rather than in the tree
  /// so that a pool task that lost it can return without touching the tree,
  /// which may already be retired. Incarnation indices only grow, so one
  /// high-water mark serves them all.
  bool claim(std::uint32_t idx) noexcept {
    std::uint32_t cur = claimed_below_.load(std::memory_order_acquire);
    while (cur <= idx) {
      if (claimed_below_.compare_exchange_weak(cur, idx + 1,
                                               std::memory_order_acq_rel))
        return true;
    }
    return false;
  }
  bool claimed(std::uint32_t idx) const noexcept {
    return claimed_below_.load(std::memory_order_acquire) > idx;
  }

  /// Adaptive-scheduler stats slot of the submit site that created this
  /// future (null in fixed modes). Written once, by the submitting thread,
  /// before the handle or any node can reference this state; read by
  /// evaluators to record their join-wait time. Slot storage is owned by
  /// the Runtime's AdaptiveScheduler and outlives every handle that could
  /// legally be evaluated.
  void set_site(adaptive::SiteStats* s) noexcept { site_ = s; }
  adaptive::SiteStats* site() const noexcept { return site_; }

  /// Called at subtree commit (under the tree's commit machinery): move the
  /// staged result of the current execution into the visible slot.
  void publish() {
    std::lock_guard<std::mutex> lock(mutex_);
    move_staged_to_value();
    ready_ = true;
    cv_.notify_all();
  }

  /// Called when the execution that staged a value is rolled back. Wakes
  /// evaluators, which may now help run the replacement incarnation.
  void unpublish() {
    std::lock_guard<std::mutex> lock(mutex_);
    ready_ = false;
    cv_.notify_all();
  }

  /// Called when the owning tree aborts for good without this future
  /// committing: wakes evaluators, which observe a stale handle.
  void mark_failed() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ready_) failed_ = true;
    cv_.notify_all();
  }

  bool ready() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ready_;
  }

  /// Published (true) or failed (false); nullopt while still pending.
  std::optional<bool> outcome() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ready_) return true;
    if (failed_) return false;
    return std::nullopt;
  }

  /// Sleep until this future settles or is rolled back, or `timeout`
  /// passes (false). Spurious wakeups return true; callers re-check.
  bool sleep_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (ready_ || failed_) return true;
    return cv_.wait_for(lock, timeout) == std::cv_status::no_timeout;
  }

  /// Block until published (true) or failed (false), without helping.
  bool wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return ready_ || failed_; });
    return ready_;
  }

 protected:
  virtual void move_staged_to_value() = 0;

  std::atomic<std::uint32_t> node_idx_{~std::uint32_t{0}};
  std::atomic<std::uint32_t> claimed_below_{0};  // see claim()
  adaptive::SiteStats* site_ = nullptr;  // see set_site()
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool ready_ = false;
  bool failed_ = false;
};

template <typename T>
class TxFutureState final : public TxFutureStateBase {
 public:
  /// Called by the future's body wrapper on the executing thread, before
  /// the sub-transaction commits. Not yet visible to evaluators.
  void stage(T value) {
    std::lock_guard<std::mutex> lock(mutex_);
    staged_ = std::move(value);
  }

  T value() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return value_;
  }

 private:
  void move_staged_to_value() override { value_ = std::move(staged_); }

  T staged_{};
  T value_{};
};

template <>
class TxFutureState<void> final : public TxFutureStateBase {
 public:
  void stage() {}
  void value() const {}

 private:
  void move_staged_to_value() override {}
};

}  // namespace txf::core
