// Tests for old-version garbage collection: the registry's min-active
// tracking plus trim-on-commit keeps permanent lists short without ever
// cutting a version a live snapshot still needs.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "stm/transaction.hpp"

namespace {

using txf::stm::ActiveTxnRegistry;
using txf::stm::StmEnv;
using txf::stm::Transaction;
using txf::stm::VBox;
using txf::stm::VBoxImpl;

std::size_t permanent_list_length(const VBoxImpl& box) {
  std::size_t n = 0;
  for (const auto* v = box.permanent_head(); v != nullptr;
       v = v->next.load(std::memory_order_acquire))
    ++n;
  return n;
}

TEST(Registry, MinActiveWithNoTxnsIsUpper) {
  ActiveTxnRegistry reg;
  EXPECT_EQ(reg.min_active(42), 42u);
}

TEST(Registry, MinActiveTracksOldestSnapshot) {
  ActiveTxnRegistry reg;
  const auto s1 = reg.claim(0);
  const auto s2 = reg.claim(7);
  ASSERT_NE(s1, ActiveTxnRegistry::kNoSlot);
  ASSERT_NE(s2, ActiveTxnRegistry::kNoSlot);
  reg.slot(s1).publish(5);
  reg.slot(s2).publish(9);
  EXPECT_EQ(reg.min_active(100), 5u);
  reg.release(s1);
  EXPECT_EQ(reg.min_active(100), 9u);
  reg.release(s2);
  EXPECT_EQ(reg.min_active(100), 100u);
}

TEST(Registry, ClaimHintAvoidsCollision) {
  ActiveTxnRegistry reg;
  const auto a = reg.claim(3);
  const auto b = reg.claim(3);
  EXPECT_NE(a, b);
  reg.release(a);
  reg.release(b);
}

TEST(Gc, VersionListStaysBoundedUnderChurn) {
  StmEnv env;
  VBox<long> box(0);
  for (int i = 0; i < 500; ++i) {
    txf::stm::atomically(env, [&](Transaction& t) {
      box.put(t, box.get(t) + 1);
    });
  }
  // With no live snapshots, everything but the newest version (and at most
  // a straggler kept by the conservative min) is trimmable.
  EXPECT_LE(permanent_list_length(box.impl()), 3u);
  EXPECT_EQ(box.peek_committed(), 500);
}

TEST(Gc, LiveSnapshotPinsItsVersion) {
  StmEnv env;
  VBox<long> box(100);

  Transaction old_reader(env);  // snapshot 0 stays live
  for (int i = 0; i < 200; ++i) {
    txf::stm::atomically(env, [&](Transaction& t) {
      box.put(t, box.get(t) + 1);
    });
  }
  // The old reader must still see the initial value: its version cannot
  // have been trimmed while its snapshot is registered.
  EXPECT_EQ(box.get(old_reader), 100);
  EXPECT_TRUE(old_reader.try_commit());
}

TEST(Gc, TrimResumesAfterReaderFinishes) {
  StmEnv env;
  VBox<long> box(0);
  {
    Transaction old_reader(env);
    for (int i = 0; i < 100; ++i) {
      txf::stm::atomically(env, [&](Transaction& t) {
        box.put(t, box.get(t) + 1);
      });
    }
    EXPECT_GE(permanent_list_length(box.impl()), 2u);
    EXPECT_EQ(box.get(old_reader), 0);
    EXPECT_TRUE(old_reader.try_commit());
  }
  // After the reader is gone, further commits trim the backlog.
  for (int i = 0; i < 10; ++i) {
    txf::stm::atomically(env, [&](Transaction& t) {
      box.put(t, box.get(t) + 1);
    });
  }
  EXPECT_LE(permanent_list_length(box.impl()), 3u);
}

TEST(Gc, ConcurrentReadersNeverSeeFreedVersions) {
  StmEnv env;
  VBox<long> box(0);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};

  std::thread reader([&] {
    while (!stop.load()) {
      const long v = txf::stm::atomically(
          env, [&](Transaction& t) { return box.get(t); },
          Transaction::Mode::kReadOnly);
      if (v < 0) bad.fetch_add(1);
    }
  });

  for (int i = 0; i < 5000; ++i) {
    txf::stm::atomically(env, [&](Transaction& t) {
      box.put(t, box.get(t) + 1);
    });
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(box.peek_committed(), 5000);
}

TEST(Registry, OverflowIsCountedAndTrimmingResumesAfterRelease) {
  StmEnv env;
  VBox<long> box(0);
  ActiveTxnRegistry& reg = env.registry();
  const std::uint64_t overflows0 = reg.overflows();

  // Take every slot, so the next claimer overflows.
  std::vector<std::size_t> held;
  for (std::size_t i = 0; i < ActiveTxnRegistry::kMaxSlots; ++i) {
    held.push_back(reg.claim(i));
    ASSERT_NE(held.back(), ActiveTxnRegistry::kNoSlot);
  }
  {
    Transaction stuck(env);  // slotless: its snapshot is invisible to the GC
    EXPECT_EQ(reg.overflows(), overflows0 + 1);
    EXPECT_EQ(reg.min_active(100), 0u);
    for (std::size_t i : held) reg.release(i);

    // While the overflowing claimer lives, no commit may trim.
    for (int i = 0; i < 50; ++i) {
      txf::stm::atomically(env, [&](Transaction& t) {
        box.put(t, box.get(t) + 1);
      });
    }
    EXPECT_GE(permanent_list_length(box.impl()), 50u);
    EXPECT_EQ(box.get(stuck), 0);
    EXPECT_TRUE(stuck.try_commit());
  }
  // It released: the next commit trims the backlog.
  txf::stm::atomically(env, [&](Transaction& t) {
    box.put(t, box.get(t) + 1);
  });
  EXPECT_LE(permanent_list_length(box.impl()), 3u);
  EXPECT_EQ(box.peek_committed(), 51);
  EXPECT_EQ(reg.overflows(), overflows0 + 1);
}

}  // namespace
