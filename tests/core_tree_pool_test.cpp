// Per-thread recycling of transaction trees (core/tx_tree.hpp):
//  * steady-state core::atomically calls that submit no futures make no
//    heap allocation at all, whatever their read/write shape, at one and
//    at eight commit stripes — counted by replacing the global operator
//    new with a per-thread counter;
//  * a recycled tree comes back with a fresh attempt id and none of its
//    previous attempt's state (fallback, serial mode, failure, user
//    exception, parked container states, extra nodes);
//  * a tree gives its snapshot slot back when its attempt ends, not when
//    EBR finally recycles it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/runtime.hpp"
#include "stm/vbox.hpp"
#include "util/failpoint.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++t_allocs;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::TxCtx;
using txf::core::TxTree;
using txf::stm::VBox;

constexpr std::size_t kBoxes = 64;

Config config_with(unsigned stripes) {
  Config cfg;
  cfg.pool_threads = 1;
  cfg.commit_stripes = stripes;
  return cfg;
}

/// Heap allocations the calling thread makes per call of `call(i)`,
/// measured over `measured` calls after `warmup` calls.
template <typename Fn>
double allocs_per_call(Fn&& call, int warmup, int measured) {
  for (int i = 0; i < warmup; ++i) call(i);
  const std::uint64_t before = t_allocs;
  for (int i = 0; i < measured; ++i) call(warmup + i);
  return static_cast<double>(t_allocs - before) / measured;
}

class SteadyStateAllocations : public ::testing::TestWithParam<unsigned> {};

TEST_P(SteadyStateAllocations, FutureFreeCallsAllocateNothing) {
  Runtime rt(config_with(GetParam()));
  std::unique_ptr<VBox<long>[]> box(new VBox<long>[kBoxes]);
  auto key = [](int i, int k) {
    return static_cast<std::size_t>(i * 7 + k * 13) % kBoxes;
  };

  const auto empty = [&](int) { atomically(rt, [](TxCtx&) {}); };
  const auto read4 = [&](int i) {
    const long s = atomically(rt, [&](TxCtx& ctx) {
      long sum = 0;
      for (int k = 0; k < 4; ++k) sum += box[key(i, k)].get(ctx);
      return sum;
    });
    (void)s;
  };
  const auto deposit = [&](int i) {
    atomically(rt, [&](TxCtx& ctx) {
      VBox<long>& b = box[key(i, 0)];
      b.put(ctx, b.get(ctx) + 1);
    });
  };
  const auto transfer = [&](int i) {
    atomically(rt, [&](TxCtx& ctx) {
      VBox<long>& a = box[key(i, 0)];
      VBox<long>& b = box[key(i, 1)];
      a.put(ctx, a.get(ctx) - 1);
      b.put(ctx, b.get(ctx) + 1);
    });
  };

  constexpr int kWarmup = 5000;
  constexpr int kMeasured = 2000;
  const double a_empty = allocs_per_call(empty, kWarmup, kMeasured);
  const double a_read4 = allocs_per_call(read4, kWarmup, kMeasured);
  const double a_deposit = allocs_per_call(deposit, kWarmup, kMeasured);
  const double a_transfer = allocs_per_call(transfer, kWarmup, kMeasured);
  std::printf("allocations per call at %u stripe(s): empty %.3f, 4-key "
              "read-only %.3f, 1-key deposit %.3f, 2-key transfer %.3f\n",
              GetParam(), a_empty, a_read4, a_deposit, a_transfer);
  EXPECT_EQ(a_empty, 0.0);
  EXPECT_EQ(a_read4, 0.0);
  EXPECT_EQ(a_deposit, 0.0);
  EXPECT_EQ(a_transfer, 0.0);

  long total = 0;
  for (std::size_t i = 0; i < kBoxes; ++i) total += box[i].peek_committed();
  EXPECT_EQ(total, kWarmup + kMeasured);  // transfers conserve, deposits add
}

INSTANTIATE_TEST_SUITE_P(Stripes, SteadyStateAllocations,
                         ::testing::Values(1u, 8u));

/// Let EBR recycle everything this (single client) thread retired, so the
/// next acquire() pops the most recently retired tree.
void recycle_retired(Runtime& rt) {
  for (int i = 0; i < 4; ++i) rt.env().epochs().try_advance_and_collect();
}

/// What an attempt's tree looked like when its body started.
struct Seen {
  const TxTree* tree = nullptr;
  std::uint64_t id = 0;
  bool fallback = false;
  bool serial = false;
  bool has_user_exception = false;
  bool has_attempt_state = false;
  std::size_t nodes = 0;
  TxTree::TreeStatus status = TxTree::TreeStatus::kAborted;
};

int g_state_key = 0;

Seen observe(TxCtx& ctx) {
  TxTree& t = ctx.tree();
  Seen s;
  s.tree = &t;
  s.id = t.id();
  s.fallback = t.in_fallback();
  s.serial = t.serial();
  s.has_user_exception = t.user_exception() != nullptr;
  s.has_attempt_state = t.attempt_state(&g_state_key) != nullptr;
  s.nodes = t.node_count();
  s.status = t.status();
  return s;
}

Seen next_attempt(Runtime& rt) {
  Seen s;
  atomically(rt, [&](TxCtx& ctx) { s = observe(ctx); });
  return s;
}

void expect_fresh(const Seen& s) {
  EXPECT_NE(s.id, 0u);
  EXPECT_FALSE(s.fallback);
  EXPECT_FALSE(s.serial);
  EXPECT_FALSE(s.has_user_exception);
  EXPECT_FALSE(s.has_attempt_state);
  EXPECT_EQ(s.nodes, 1u);
  EXPECT_EQ(s.status, TxTree::TreeStatus::kActive);
}

/// Park an attempt state under g_state_key (its finalizer frees it).
void park_state(TxCtx& ctx) {
  ctx.tree().ensure_attempt_state(
      &g_state_key, [](void*) -> void* { return new int(1); }, nullptr,
      [](void* st, bool) { delete static_cast<int*>(st); });
}

TEST(TreeReuse, IdsStayUniqueWhileAddressesRepeat) {
  Runtime rt(config_with(8));
  VBox<long> box(0);
  std::set<std::uint64_t> ids;
  std::set<const TxTree*> trees;
  constexpr int kCalls = 5000;
  for (int i = 0; i < kCalls; ++i) {
    atomically(rt, [&](TxCtx& ctx) {
      ids.insert(ctx.tree().id());
      trees.insert(&ctx.tree());
      box.put(ctx, box.get(ctx) + 1);
    });
  }
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kCalls));
  EXPECT_EQ(ids.count(0), 0u);
  // Trees were recycled: far fewer objects than attempts.
  EXPECT_LT(trees.size(), static_cast<std::size_t>(kCalls) / 10);
  EXPECT_EQ(box.peek_committed(), kCalls);
}

TEST(TreeReuse, StateResetAfterUserExceptionInFuture) {
  Config cfg = config_with(8);
  cfg.scheduling = txf::core::SchedulingMode::kAlwaysParallel;
  Runtime rt(cfg);
  VBox<long> box(5);
  Seen failed;
  EXPECT_THROW(atomically(rt,
                          [&](TxCtx& ctx) {
                            failed = observe(ctx);
                            park_state(ctx);
                            auto f = ctx.submit([&](TxCtx& inner) -> long {
                              if (box.get(inner) == 5)
                                throw std::runtime_error("future body threw");
                              return 0;
                            });
                            box.put(ctx, f.get(ctx));
                          }),
               std::runtime_error);
  recycle_retired(rt);
  const Seen next = next_attempt(rt);
  EXPECT_EQ(next.tree, failed.tree) << "the failed attempt's tree was not "
                                       "the one reused";
  EXPECT_NE(next.id, failed.id);
  expect_fresh(next);
  EXPECT_EQ(box.peek_committed(), 5);
}

TEST(TreeReuse, StateResetAfterInterTreeFallbackAndSerialEscalation) {
  Config cfg = config_with(8);
  cfg.scheduling = txf::core::SchedulingMode::kAlwaysParallel;
  cfg.max_attempts = 3;
  Runtime rt(cfg);
  VBox<long> box(0);
  // Every sub-transaction validation fails the whole tree as an inter-tree
  // conflict: the call restarts in fallback mode, then escalates to serial.
  txf::util::fp::ChaosPlan plan;
  plan.seed = 1;
  plan.add("core.subtxn.validate", txf::util::fp::Action::kAbortTree, 1);
  txf::util::fp::Controller::instance().arm(plan);
  bool saw_fallback = false;
  bool saw_serial = false;
  Seen last;
  atomically(rt, [&](TxCtx& ctx) {
    last = observe(ctx);
    saw_fallback |= last.fallback;
    saw_serial |= last.serial;
    park_state(ctx);
    auto f = ctx.submit([&](TxCtx& inner) { return box.get(inner); });
    box.put(ctx, f.get(ctx) + 1);
  });
  txf::util::fp::Controller::instance().disarm();
  ASSERT_TRUE(saw_fallback);
  ASSERT_TRUE(saw_serial);
  ASSERT_TRUE(last.fallback && last.serial);

  recycle_retired(rt);
  const Seen next = next_attempt(rt);
  EXPECT_EQ(next.tree, last.tree);
  EXPECT_NE(next.id, last.id);
  expect_fresh(next);
  EXPECT_EQ(box.peek_committed(), 1);
}

TEST(TreeReuse, SnapshotSlotReleasedAtCommitNotAtReclamation) {
  Runtime rt(config_with(8));
  VBox<long> box(0);
  atomically(rt, [&](TxCtx& ctx) { box.put(ctx, box.get(ctx) + 1); });
  // The tree is still waiting in EBR, yet holds no snapshot: trimming
  // proceeds to the current clock on every stripe.
  ASSERT_GT(rt.env().epochs().pending_count(), 0u);
  for (unsigned s = 0; s < rt.env().stripes(); ++s) {
    const auto upper = rt.env().clock().current(s);
    EXPECT_EQ(rt.env().registry().min_active(s, upper), upper) << s;
  }
}

}  // namespace
