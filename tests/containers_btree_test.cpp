// TxBTree tests: ordered iteration and range boundaries, leaf-centric write
// buffering (spill across leaves, flush-size accounting), splits and merges
// under concurrent writers, scan-vs-put serializability, abort reclamation,
// and a chaos schedule arming the core.btree.* failpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <thread>
#include <vector>

#include "containers/tx_btree.hpp"
#include "core/api.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"

namespace {

using txf::containers::TxBTree;
using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::SchedulingMode;
using txf::core::TxCtx;
namespace fp = txf::util::fp;

std::uint64_t metric(const char* name) {
  return txf::obs::MetricsRegistry::instance().counter_value(name);
}

// Histogram (count, sum) by registry name; (0, 0) when absent.
std::pair<std::uint64_t, std::uint64_t> histogram(const std::string& name) {
  for (const txf::obs::SampledMetric& m :
       txf::obs::MetricsRegistry::instance().snapshot_values()) {
    if (m.name == name)
      return {static_cast<std::uint64_t>(m.value), m.sum};
  }
  return {0, 0};
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> scan_all(
    Runtime& rt, const TxBTree& tree) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  atomically(rt, [&](TxCtx& ctx) {
    out.clear();
    tree.scan(ctx, 0, ~0ULL,
              [&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); });
  });
  return out;
}

TEST(TxBTreeTest, PutGetErase) {
  Runtime rt;
  TxBTree tree;
  atomically(rt, [&](TxCtx& ctx) {
    std::uint64_t v = 0;
    EXPECT_FALSE(tree.get(ctx, 7, v));
    tree.put(ctx, 7, 70);
    tree.put(ctx, 3, 30);
    tree.put(ctx, 7, 71);  // overwrite
    EXPECT_TRUE(tree.get(ctx, 7, v));
    EXPECT_EQ(v, 71u);
    EXPECT_TRUE(tree.get(ctx, 3, v));
    EXPECT_EQ(v, 30u);
    EXPECT_TRUE(tree.erase(ctx, 3));
    EXPECT_FALSE(tree.erase(ctx, 3));
    EXPECT_FALSE(tree.get(ctx, 3, v));
  });
  // Committed state visible to a fresh transaction.
  atomically(rt, [&](TxCtx& ctx) {
    std::uint64_t v = 0;
    EXPECT_TRUE(tree.get(ctx, 7, v));
    EXPECT_EQ(v, 71u);
  });
}

TEST(TxBTreeTest, OrderedScanWithExactBoundaries) {
  Runtime rt;
  TxBTree tree;
  constexpr std::uint64_t kN = 400;
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < kN; ++i) keys.push_back(i * 3 + 1);
  std::mt19937_64 rng(42);
  std::shuffle(keys.begin(), keys.end(), rng);
  for (std::uint64_t k : keys) {
    atomically(rt, [&](TxCtx& ctx) { tree.put(ctx, k, k * 10); });
  }
  atomically(rt, [&](TxCtx& ctx) {
    // [lo, hi): lo inclusive, hi exclusive, ascending order.
    std::vector<std::uint64_t> seen;
    const std::size_t n = tree.scan(ctx, 4, 3 * 10 + 1,
                                    [&](std::uint64_t k, std::uint64_t v) {
                                      EXPECT_EQ(v, k * 10);
                                      seen.push_back(k);
                                    });
    EXPECT_EQ(n, seen.size());
    std::vector<std::uint64_t> expect;
    for (std::uint64_t k = 4; k < 31; ++k)
      if ((k - 1) % 3 == 0) expect.push_back(k);
    EXPECT_EQ(seen, expect);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
    // Empty and inverted ranges.
    EXPECT_EQ(tree.scan(ctx, 5, 5, [](std::uint64_t, std::uint64_t) {}), 0u);
    EXPECT_EQ(tree.scan(ctx, 9, 5, [](std::uint64_t, std::uint64_t) {}), 0u);
  });
  // Full scan sees every key once, in order.
  const auto all = scan_all(rt, tree);
  EXPECT_EQ(all.size(), kN);
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(all[i].first, keys[i]);
}

TEST(TxBTreeTest, LeafBufferCoalescesAndSpillsAcrossSplits) {
  Runtime rt;
  TxBTree tree;
  const std::uint64_t splits0 = metric("core.btree.splits");
  const auto flush0 = histogram("core.btree.leaf_flush.size");
  // One transaction inserts far more than a leaf holds: the buffer must
  // spill across split leaves and every key must still be visible inside
  // the same transaction and after commit.
  constexpr std::uint64_t kN = 5 * TxBTree::kLeafCap;
  atomically(rt, [&](TxCtx& ctx) {
    for (std::uint64_t k = 0; k < kN; ++k) tree.put(ctx, k, k + 1);
    std::uint64_t v = 0;
    for (std::uint64_t k = 0; k < kN; ++k) {
      ASSERT_TRUE(tree.get(ctx, k, v)) << k;
      EXPECT_EQ(v, k + 1);
    }
  });
  EXPECT_GT(metric("core.btree.splits"), splits0);
  // The committed leaves carried coalesced buffers: flush sizes were
  // recorded, and they sum to >= kN buffered operations (each put bumps
  // exactly one leaf buffer).
  const auto flush1 = histogram("core.btree.leaf_flush.size");
  EXPECT_GT(flush1.first, flush0.first);
  EXPECT_GE(flush1.second - flush0.second, kN);
  const auto all = scan_all(rt, tree);
  ASSERT_EQ(all.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) EXPECT_EQ(all[k].second, k + 1);
}

TEST(TxBTreeTest, SplitAndMergeUnderConcurrentWriters) {
  Runtime rt;
  TxBTree tree;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) << 32;
      for (std::uint64_t i = 0; i < kPer; ++i) {
        atomically(rt, [&](TxCtx& ctx) { tree.put(ctx, base + i, i); });
      }
      // Erase every other key again, concurrently with other writers.
      for (std::uint64_t i = 0; i < kPer; i += 2) {
        atomically(rt, [&](TxCtx& ctx) { tree.erase(ctx, base + i); });
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto all = scan_all(rt, tree);
  EXPECT_EQ(all.size(), kThreads * (kPer / 2));
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_LT(all[i - 1].first, all[i].first);
  for (const auto& [k, v] : all) EXPECT_EQ(k & 1, 1u);
}

TEST(TxBTreeTest, ScanVersusPutKeepsSumInvariant) {
  // Writers move value between key pairs (sum-preserving); scanners must
  // never observe a partially applied transfer, sequential or parallel.
  Runtime rt;
  TxBTree tree;
  constexpr std::uint64_t kKeys = 256;
  constexpr std::uint64_t kUnit = 1000;
  atomically(rt, [&](TxCtx& ctx) {
    for (std::uint64_t k = 0; k < kKeys; ++k) tree.put(ctx, k, kUnit);
  });
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::thread writer([&] {
    std::mt19937_64 rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t a = rng() % kKeys;
      const std::uint64_t b = rng() % kKeys;
      if (a == b) continue;
      atomically(rt, [&](TxCtx& ctx) {
        std::uint64_t va = 0, vb = 0;
        ASSERT_TRUE(tree.get(ctx, a, va));
        ASSERT_TRUE(tree.get(ctx, b, vb));
        if (va == 0) return;
        tree.put(ctx, a, va - 1);
        tree.put(ctx, b, vb + 1);
      });
    }
  });
  std::thread scanner([&] {
    for (int i = 0; i < 200; ++i) {
      std::uint64_t sum = 0;
      atomically(rt, [&](TxCtx& ctx) {
        sum = 0;
        tree.scan(ctx, 0, kKeys,
                  [&](std::uint64_t, std::uint64_t v) { sum += v; });
      });
      if (sum != kKeys * kUnit) bad.fetch_add(1);
    }
    stop.store(true);
  });
  scanner.join();
  writer.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(TxBTreeTest, ParallelScanModesAgree) {
  // The same populated tree scanned under every scheduling mode must
  // produce the identical ordered result (scan fans out one future per
  // root subtree; the mode only changes where those futures run).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reference;
  for (SchedulingMode mode :
       {SchedulingMode::kAlwaysInline, SchedulingMode::kAlwaysParallel,
        SchedulingMode::kAdaptive}) {
    Config cfg;
    cfg.scheduling = mode;
    cfg.pool_threads = 2;
    Runtime rt(cfg);
    TxBTree tree;
    constexpr std::uint64_t kN = 2000;
    for (std::uint64_t k = 0; k < kN; k += 100) {
      atomically(rt, [&](TxCtx& ctx) {
        for (std::uint64_t i = k; i < k + 100; ++i)
          tree.put(ctx, i * 2, i);
      });
    }
    const std::uint64_t scans0 = metric("core.btree.scans");
    const auto all = scan_all(rt, tree);
    EXPECT_GT(metric("core.btree.scans"), scans0);
    ASSERT_EQ(all.size(), kN);
    if (reference.empty()) {
      reference = all;
    } else {
      EXPECT_EQ(all, reference);
    }
  }
  // A multi-subtree scan recorded its fanout.
  const auto fan = histogram("core.btree.scan.fanout");
  EXPECT_GT(fan.first, 0u);
  EXPECT_GT(fan.second, fan.first);  // mean fanout > 1 somewhere
}

TEST(TxBTreeTest, AbortReclaimsAttemptAllocations) {
  Runtime rt;
  TxBTree tree;
  atomically(rt, [&](TxCtx& ctx) {
    for (std::uint64_t k = 0; k < 100; ++k) tree.put(ctx, k, k);
  });
  // Node payloads the commit trimmed wait in this thread's EBR bag until an
  // epoch advance frees them, which may fall before or after either sample
  // below. Free them at both samples (no thread is pinned here), so the
  // counts compare only what the aborted attempts allocated.
  auto& epochs = rt.env().epochs();
  epochs.drain_for_shutdown();
  const std::uint64_t nodes0 = metric("core.btree.nodes_live");
  const std::uint64_t boxes0 = metric("core.btree.boxes_live");
  struct Cancel {};
  for (int round = 0; round < 5; ++round) {
    try {
      atomically(rt, [&](TxCtx& ctx) {
        // Buffers, splits, and new boxes — all attempt-private, all thrown
        // away by the user abort below.
        for (std::uint64_t k = 1000; k < 1000 + 3 * TxBTree::kLeafCap; ++k)
          tree.put(ctx, k, k);
        tree.erase(ctx, 5);
        throw Cancel{};
      });
      FAIL() << "expected Cancel to propagate";
    } catch (const Cancel&) {
    }
  }
  epochs.drain_for_shutdown();
  EXPECT_EQ(metric("core.btree.nodes_live"), nodes0);
  EXPECT_EQ(metric("core.btree.boxes_live"), boxes0);
  // And the aborted writes are invisible.
  atomically(rt, [&](TxCtx& ctx) {
    std::uint64_t v = 0;
    EXPECT_TRUE(tree.get(ctx, 5, v));
    EXPECT_FALSE(tree.get(ctx, 1000, v));
  });
}

TEST(TxBTreeTest, EraseMergesEmptyLeavesAndGcReclaimsBoxes) {
  Runtime rt;
  TxBTree tree;
  constexpr std::uint64_t kN = 10 * TxBTree::kLeafCap;
  atomically(rt, [&](TxCtx& ctx) {
    for (std::uint64_t k = 0; k < kN; ++k) tree.put(ctx, k, k);
  });
  const std::size_t boxes_full = tree.box_count();
  const std::uint64_t merges0 = metric("core.btree.merges");
  // Erase everything; leaves empty out and unlink from their parents.
  for (std::uint64_t k = 0; k < kN; ++k) {
    atomically(rt, [&](TxCtx& ctx) { tree.erase(ctx, k); });
  }
  EXPECT_GT(metric("core.btree.merges"), merges0);
  EXPECT_EQ(scan_all(rt, tree).size(), 0u);
  // Quiescent GC: no active snapshots, so every retired box's fence has
  // passed and its memory is reclaimable.
  const std::uint64_t gc0 = metric("core.btree.box_gc");
  tree.gc_retired_boxes(rt.env());
  EXPECT_GT(metric("core.btree.box_gc"), gc0);
  EXPECT_LT(tree.box_count(), boxes_full);
  // The tree still works after heavy structural churn.
  atomically(rt, [&](TxCtx& ctx) {
    for (std::uint64_t k = 0; k < 50; ++k) tree.put(ctx, k * 7, k);
  });
  EXPECT_EQ(scan_all(rt, tree).size(), 50u);
}

TEST(TxBTreeTest, ChaosScheduleOnBtreeFailpoints) {
  // Perturb the btree structural sites (plus the engine's validation and
  // commit sites) and hammer the tree from writers + scanners: every
  // invariant must hold and every atomically() call must terminate.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.chaos.seed = 0xb7ee5ULL;
  cfg.chaos.add_prob("core.btree.split", fp::Action::kDelayUs, 0.5, 40);
  cfg.chaos.add_prob("core.btree.merge", fp::Action::kYield, 0.5);
  cfg.chaos.add_prob("core.btree.leaf.publish", fp::Action::kDelayUs, 0.4, 30);
  cfg.chaos.add_prob("core.btree.scan.subtree", fp::Action::kDelayUs, 0.4, 30);
  cfg.chaos.add("core.subtxn.validate", fp::Action::kFail, 9);
  cfg.chaos.add_prob("stm.commit.writeback", fp::Action::kDelayUs, 0.3, 30);
  Runtime rt(cfg);
  TxBTree tree;
  constexpr int kThreads = 3;
  constexpr std::uint64_t kPer = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t base = static_cast<std::uint64_t>(t) * 100000;
      for (std::uint64_t i = 0; i < kPer; ++i) {
        atomically(rt, [&](TxCtx& ctx) { tree.put(ctx, base + i, i); });
        if (i % 3 == 0) {
          atomically(rt, [&](TxCtx& ctx) { tree.erase(ctx, base + i); });
        }
      }
    });
  }
  std::thread scanner([&] {
    for (int i = 0; i < 60; ++i) {
      atomically(rt, [&](TxCtx& ctx) {
        std::uint64_t last = 0;
        bool first = true;
        tree.scan(ctx, 0, ~0ULL, [&](std::uint64_t k, std::uint64_t) {
          if (!first) {
            EXPECT_LT(last, k);
          }
          first = false;
          last = k;
        });
      });
    }
  });
  for (auto& th : threads) th.join();
  scanner.join();
  const auto all = scan_all(rt, tree);
  std::size_t expect = 0;
  for (std::uint64_t i = 0; i < kPer; ++i) expect += (i % 3 == 0) ? 0 : 1;
  EXPECT_EQ(all.size(), kThreads * expect);
}

}  // namespace
