// SerialGate: the serial-irrevocable token of the contention manager
// (core/api.hpp), as a per-thread flag array instead of a shared mutex.
//
// Every parallel top-level attempt enters the gate *shared*; an escalated
// attempt enters it *exclusive* and then runs alone, so it cannot lose a
// conflict. The shared side is on every atomically() call, so it must not
// write a cache line other threads write: a shared entry raises only the
// caller's own flag (indexed by util::thread_index()) and reads the
// `pending_` word, which changes only when an escalation starts or ends.
//
// Protocol (Dekker-style; every access below is seq_cst):
//  * shared entry: raise own flag, then read pending_. Zero: entered.
//    Non-zero: lower the flag, wait for pending_ to drop, retry. Deferring
//    to a pending escalation keeps a stream of parallel attempts from
//    starving it.
//  * exclusive entry: increment pending_, take the writer mutex (one
//    escalation at a time), then wait until every flag is down.
// In the seq_cst total order either the shared entrant's read of pending_
// follows the writer's increment (it backs off), or the writer's scan
// follows the entrant's flag (the writer waits for it to leave).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/cache_line.hpp"
#include "util/thread_index.hpp"

namespace txf::core {

class SerialGate {
 public:
  /// Threads with a dense index below this get a private flag; the rest
  /// share one overflow counter (correct, merely contended).
  static constexpr std::size_t kFlags = 256;

  SerialGate() = default;
  SerialGate(const SerialGate&) = delete;
  SerialGate& operator=(const SerialGate&) = delete;

  /// Escalations waiting for or holding the gate. Non-zero while a stall
  /// may be the serial preemption's doing (abort-cause classification).
  std::uint32_t pending() const noexcept {
    return pending_->load(std::memory_order_acquire);
  }

  /// RAII hold of one side of the gate for one attempt.
  class Hold {
   public:
    Hold(SerialGate& gate, bool exclusive) : gate_(gate), excl_(exclusive) {
      if (excl_) {
        gate_.enter_exclusive();
      } else {
        gate_.enter_shared();
      }
    }
    ~Hold() {
      if (excl_) {
        gate_.exit_exclusive();
      } else {
        gate_.exit_shared();
      }
    }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    SerialGate& gate_;
    bool excl_;
  };

 private:
  /// Enter as one of many parallel attempts. Re-entrant: a thread already
  /// inside (a nested atomically() on the same runtime) enters at once.
  void enter_shared() noexcept {
    std::atomic<std::uint32_t>& f = flag();
    if (&f != &*overflow_ && f.load(std::memory_order_relaxed) != 0) {
      f.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (;;) {
      f.fetch_add(1, std::memory_order_seq_cst);
      if (pending_->load(std::memory_order_seq_cst) == 0) return;
      f.fetch_sub(1, std::memory_order_release);
      while (pending_->load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
    }
  }

  void exit_shared() noexcept {
    flag().fetch_sub(1, std::memory_order_release);
  }

  /// Escalate: announce, exclude other escalations, then wait until no
  /// parallel attempt is inside.
  void enter_exclusive() {
    pending_->fetch_add(1, std::memory_order_seq_cst);
    writer_.lock();
    for (std::size_t i = 0; i < kFlags; ++i) {
      while (flags_[i]->load(std::memory_order_seq_cst) != 0)
        std::this_thread::yield();
    }
    while (overflow_->load(std::memory_order_seq_cst) != 0)
      std::this_thread::yield();
  }

  void exit_exclusive() noexcept {
    writer_.unlock();
    pending_->fetch_sub(1, std::memory_order_release);
  }

  std::atomic<std::uint32_t>& flag() noexcept {
    const std::size_t i = util::thread_index();
    return i < kFlags ? *flags_[i] : *overflow_;
  }

  util::CacheAligned<std::atomic<std::uint32_t>> flags_[kFlags]{};
  util::CacheAligned<std::atomic<std::uint32_t>> overflow_{0};
  util::CacheAligned<std::atomic<std::uint32_t>> pending_{0};
  std::mutex writer_;
};

}  // namespace txf::core
