// Fixed-size work-stealing thread pool.
//
// Each worker owns a Chase-Lev deque; external submissions go through a
// shared injection queue. Threads blocked inside the TM runtime (e.g. a
// continuation waiting on a future's result) can call `try_run_one()` to
// help drain pending work — on machines with few cores a naive blocking
// wait can starve the future it is waiting for. The transaction engine
// calls it only after a timed-out wait (DESIGN.md §6, help-first waits).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/task.hpp"
#include "sched/ws_deque.hpp"
#include "util/cache_line.hpp"
#include "util/xoshiro.hpp"

namespace txf::sched {

class ThreadPool {
 public:
  /// Spawns `worker_count` threads (defaults to hardware concurrency).
  explicit ThreadPool(std::size_t worker_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedule a task. Safe from any thread, including workers (a worker
  /// pushes to its own deque, giving LIFO locality for nested futures).
  void submit(Task task);

  /// Execute one pending task on the calling thread if any is available.
  /// Returns false when nothing was runnable right now.
  bool try_run_one();

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// True if called from one of this pool's worker threads.
  bool on_worker_thread() const noexcept { return current_worker_ != nullptr; }

  /// Tasks executed so far (for tests / metrics).
  std::uint64_t executed_count() const noexcept {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Successful steals / park episodes (also "sched.steals"/"sched.parks"
  /// in the MetricsRegistry).
  std::uint64_t steal_count() const noexcept { return steals_.load(); }
  std::uint64_t park_count() const noexcept { return parks_.load(); }

  /// Load signals consumed by the adaptive future scheduler
  /// (core/adaptive.hpp). Both are instantaneous relaxed reads — racy by
  /// nature, which is fine for a scheduling heuristic.
  ///
  /// Tasks submitted but not yet picked up by any thread (also the
  /// "sched.queue_depth" gauge). May transiently read negative during a
  /// submit/execute race; clamped to 0.
  std::int64_t queue_depth() const noexcept {
    const std::int64_t d = queue_depth_.load();
    return d < 0 ? 0 : d;
  }
  /// Workers currently parked waiting for work.
  std::size_t parked_workers() const noexcept {
    return sleepers_.load(std::memory_order_relaxed);
  }

  /// Consolidated load signal for scheduling heuristics: whole
  /// worker-multiples of backlog, capped at `cap`. 0 means the pool keeps
  /// up (spawning is cheap); k means every worker already has ~k queued
  /// tasks ahead of any new submission. Same racy-relaxed contract as
  /// queue_depth().
  std::uint64_t backlog_factor(std::uint64_t cap = 4) const noexcept {
    const std::int64_t d = queue_depth();
    const std::size_t w = worker_count();
    if (d <= 0 || w == 0) return 0;
    std::uint64_t f =
        static_cast<std::uint64_t>(d) / static_cast<std::uint64_t>(w);
    if (f > cap) f = cap;
    return f;
  }

 private:
  struct Worker {
    WsDeque<Task*> deque;
    util::Xoshiro256 rng;
    std::size_t index = 0;
  };

  void worker_loop(Worker& self);
  Task* find_task(Worker* self);
  Task* steal_from_others(Worker* self);
  Task* pop_injected();
  void notify_one();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mutex_;
  std::deque<Task*> injected_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> executed_{0};
  obs::Counter steals_;
  obs::Counter parks_;
  obs::Gauge workers_gauge_;
  obs::Gauge queue_depth_;  // submitted minus picked-up (see queue_depth())
  obs::Registration reg_;  // "sched.*" (see constructor)

  static thread_local Worker* current_worker_;
  static thread_local ThreadPool* current_pool_;
};

}  // namespace txf::sched
