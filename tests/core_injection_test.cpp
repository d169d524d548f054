// Failure injection: spurious sub-transaction validation failures must be
// absorbed by the recovery machinery (future re-execution, tree restart,
// serial fallback) without ever changing results.
#include <gtest/gtest.h>

#include <deque>
#include <thread>

#include "core/api.hpp"
#include "util/failpoint.hpp"
#include "util/xoshiro.hpp"

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::TxCtx;
using txf::stm::VBox;

Config inject_config(std::uint32_t every) {
  Config cfg;
  cfg.pool_threads = 2;
  if (every != 0) {
    cfg.chaos.add("core.subtxn.validate", txf::util::fp::Action::kFail, every);
  }
  return cfg;
}

class InjectionSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(InjectionSweep, FutureChainStillSequential) {
  Runtime rt(inject_config(GetParam()));
  rt.stats().reset();
  VBox<long> acc(1);
  atomically(rt, [&](TxCtx& ctx) {
    auto f1 = ctx.submit([&](TxCtx& c) {
      acc.put(c, acc.get(c) * 10 + 2);
      return 0;
    });
    auto f2 = ctx.submit([&](TxCtx& c) {
      acc.put(c, acc.get(c) * 10 + 3);
      return 0;
    });
    f1.get(ctx);
    f2.get(ctx);
    acc.put(ctx, acc.get(ctx) * 10 + 4);
  });
  EXPECT_EQ(acc.peek_committed(), 1234L);
}

TEST_P(InjectionSweep, CountersExactUnderInjection) {
  Runtime rt(inject_config(GetParam()));
  VBox<long> counter(0);
  constexpr int kIter = 60;
  for (int i = 0; i < kIter; ++i) {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit([&](TxCtx& c) { return counter.get(c) + 1; });
      counter.put(ctx, f.get(ctx));
    });
  }
  EXPECT_EQ(counter.peek_committed(), kIter);
}

TEST_P(InjectionSweep, RecoveryPathsActuallyFired) {
  Runtime rt(inject_config(GetParam()));
  rt.stats().reset();
  VBox<long> x(0);
  for (int i = 0; i < 40; ++i) {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit([&](TxCtx& c) {
        x.put(c, x.get(c) + 1);
        return 0;
      });
      f.get(ctx);
      x.put(ctx, x.get(ctx) + 1);
    });
  }
  EXPECT_EQ(x.peek_committed(), 80);
  // With injection on, at least one recovery mechanism must have fired.
  const auto recoveries = rt.stats().future_reexecutions.load() +
                          rt.stats().tree_restarts.load() +
                          rt.stats().serial_fallbacks.load();
  EXPECT_GT(recoveries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Rates, InjectionSweep,
    ::testing::Values(3u, 7u, 13u));

TEST(Injection, ConcurrentTreesSurviveInjection) {
  Runtime rt(inject_config(5));
  VBox<long> counter(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 30; ++i) {
        atomically(rt, [&](TxCtx& ctx) {
          auto f = ctx.submit([&](TxCtx& c) {
            counter.put(c, counter.get(c) + 1);
            return 0;
          });
          f.get(ctx);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.peek_committed(), 60);
}

TEST(Injection, OffByDefault) {
  Runtime rt(Config{.pool_threads = 2});
  rt.stats().reset();
  VBox<long> x(0);
  for (int i = 0; i < 20; ++i) {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit([&](TxCtx& c) { return x.get(c); });
      x.put(ctx, f.get(ctx) + 1);
    });
  }
  EXPECT_EQ(x.peek_committed(), 20);
  // Uncontended single-threaded run: nothing should have failed.
  EXPECT_EQ(rt.stats().tree_restarts.load(), 0u);
}

}  // namespace
