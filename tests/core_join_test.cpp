// Help-first joins (TxTree::join, the top-commit wait): a thread that waits
// on its own tree runs the unstarted bodies it needs itself instead of
// sleeping until a pool thread gets to them.
//
// Each test holds the runtime's only pool worker inside an unrelated task on
// a latch, so no pool thread can start a future body. Every body must then
// run on the waiting thread, and no wait may ever block
// (core.join.blocked stays put). Nothing here depends on timing. The last
// test joins another transaction's future, which no waiter may run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>

#include "core/api.hpp"

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::SchedulingMode;
using txf::core::TxCtx;
using txf::core::TxFuture;
using txf::stm::VBox;

Config one_worker_parallel() {
  return Config{.pool_threads = 1,
                .scheduling = SchedulingMode::kAlwaysParallel};
}

/// Keeps the pool's single worker busy until destroyed. The task shares
/// ownership of the latches: it may still be returning from wait() after
/// this object is gone.
class HeldWorker {
 public:
  explicit HeldWorker(Runtime& rt) {
    rt.pool().submit([gate = gate_] {
      gate->holding.count_down();
      gate->release.wait();
    });
    gate_->holding.wait();
  }
  ~HeldWorker() { gate_->release.count_down(); }
  HeldWorker(const HeldWorker&) = delete;
  HeldWorker& operator=(const HeldWorker&) = delete;

 private:
  struct Gate {
    std::latch holding{1};
    std::latch release{1};
  };
  std::shared_ptr<Gate> gate_ = std::make_shared<Gate>();
};

TEST(Join, GetRunsTheUnstartedBodyOnTheJoiner) {
  Runtime rt(one_worker_parallel());
  HeldWorker held(rt);
  const std::uint64_t blocked = rt.stats().join_blocked.load();
  const std::uint64_t helped = rt.stats().join_helped.load();
  std::atomic<std::thread::id> body_thread{};
  const int v = atomically(rt, [&](TxCtx& ctx) {
    auto f = ctx.submit([&](TxCtx&) {
      body_thread.store(std::this_thread::get_id());
      return 42;
    });
    return f.get(ctx);
  });
  EXPECT_EQ(v, 42);
  EXPECT_EQ(body_thread.load(), std::this_thread::get_id());
  EXPECT_EQ(rt.stats().join_blocked.load(), blocked);
  EXPECT_EQ(rt.stats().join_helped.load(), helped + 1);
}

TEST(Join, TopCommitRunsAnUnjoinedBodyOnTheRootThread) {
  Runtime rt(one_worker_parallel());
  HeldWorker held(rt);
  VBox<int> x(0);
  const std::uint64_t blocked = rt.stats().join_blocked.load();
  const std::uint64_t helped = rt.stats().join_helped.load();
  std::atomic<std::thread::id> body_thread{};
  atomically(rt, [&](TxCtx& ctx) {
    (void)ctx.submit([&](TxCtx& c) {
      body_thread.store(std::this_thread::get_id());
      x.put(c, 7);
      return 0;
    });
  });
  EXPECT_EQ(x.peek_committed(), 7);
  EXPECT_EQ(body_thread.load(), std::this_thread::get_id());
  EXPECT_EQ(rt.stats().join_blocked.load(), blocked);
  EXPECT_EQ(rt.stats().join_helped.load(), helped + 1);
}

TEST(Join, GetAlsoRunsTheEarlierSiblingItsFutureWaitsFor) {
  // f2 reads what f1 writes. Joining f2 runs f2 first (the awaited body),
  // then f1, which f2 must commit after; f2's stale read makes it re-run,
  // and the joiner runs the new incarnation too. The result is the
  // sequential one.
  Runtime rt(one_worker_parallel());
  HeldWorker held(rt);
  VBox<int> x(1);
  const std::uint64_t blocked = rt.stats().join_blocked.load();
  std::atomic<int> f1_elsewhere{0};
  std::atomic<int> f2_elsewhere{0};
  const std::thread::id me = std::this_thread::get_id();
  const int v = atomically(rt, [&](TxCtx& ctx) {
    auto f1 = ctx.submit([&](TxCtx& c) {
      if (std::this_thread::get_id() != me) f1_elsewhere.fetch_add(1);
      x.put(c, 10);
      return 0;
    });
    auto f2 = ctx.submit([&](TxCtx& c) {
      if (std::this_thread::get_id() != me) f2_elsewhere.fetch_add(1);
      return x.get(c) * 2;
    });
    (void)f1;
    return f2.get(ctx);
  });
  EXPECT_EQ(v, 20);
  EXPECT_EQ(x.peek_committed(), 10);
  EXPECT_EQ(f1_elsewhere.load(), 0);
  EXPECT_EQ(f2_elsewhere.load(), 0);
  EXPECT_EQ(rt.stats().join_blocked.load(), blocked);
}

TEST(Join, GetOfAnotherTransactionsFutureWaitsForItsCommit) {
  // Fig. 2: a handle shared across top-level transactions. The joiner's
  // tree cannot run a foreign body, so it sleeps on the future's own state
  // until the owner commits it. The owner's body holds until the joiner is
  // inside its transaction; the stall detector is off so a slow start
  // cannot restart the owner and leave the handle stale.
  Runtime rt(Config{.pool_threads = 1,
                    .scheduling = SchedulingMode::kAlwaysParallel,
                    .stall_timeout_us = 0});
  VBox<int> data(11);
  std::atomic<bool> joining{false};
  std::atomic<TxFuture<int>*> channel{nullptr};
  TxFuture<int> slot;
  std::thread joiner([&] {
    while (channel.load() == nullptr) std::this_thread::yield();
    const int got = atomically(rt, [&](TxCtx& ctx) {
      joining.store(true);
      return channel.load()->get(ctx);
    });
    EXPECT_EQ(got, 11);
  });
  atomically(rt, [&](TxCtx& ctx) {
    slot = ctx.submit([&](TxCtx& inner) {
      while (!joining.load()) std::this_thread::yield();
      return data.get(inner);
    });
    channel.store(&slot);
    slot.get(ctx);
  });
  joiner.join();
}

}  // namespace
