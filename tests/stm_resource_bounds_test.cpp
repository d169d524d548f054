// Soak-style resource-bound tests: over many trim cycles, version-list
// lengths and the EBR retire backlog must stay bounded — growing with the
// live-snapshot window, never with the total number of commits. This is
// the unit-level half of the service harness's end-of-soak leak
// invariants (server.cpp).
//
// The tight bounds are asserted in a deterministic phase with explicit
// snapshot pins (on a loaded 1-CPU host, a *descheduled* reader can
// legitimately pin thousands of retirements for a scheduling quantum, so
// free-running concurrent bounds would flake); the concurrent phase then
// checks what is scheduling-independent: snapshot stability, exact
// committed values, and full reclamation at quiescence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "stm/transaction.hpp"
#include "util/epoch.hpp"

namespace {

using txf::stm::StmEnv;
using txf::stm::Transaction;
using txf::stm::VBox;

TEST(ResourceBounds, PinnedWindowReclaimedEveryTrimCycle) {
  StmEnv env;
  constexpr std::size_t kBoxes = 8;
  constexpr int kRounds = 50;
  constexpr int kCommitsPerRound = 20;  // per box, under a live pin
  std::vector<std::unique_ptr<VBox<long>>> boxes;
  for (std::size_t i = 0; i < kBoxes; ++i)
    boxes.push_back(std::make_unique<VBox<long>>(0));

  std::size_t max_len_pinned = 0;
  std::size_t max_len_released = 0;
  std::size_t max_pending = 0;
  for (int round = 0; round < kRounds; ++round) {
    {
      // A live snapshot pins its window: lists may grow while it is open,
      // but only by the commits inside the window.
      Transaction pin(env);
      const long before = boxes[0]->get(pin);
      for (int j = 0; j < kCommitsPerRound; ++j) {
        for (auto& b : boxes) {
          txf::stm::atomically(env, [&](Transaction& t) {
            b->put(t, b->get(t) + 1);
          });
        }
      }
      EXPECT_EQ(boxes[0]->get(pin), before);  // snapshot unmoved
      for (auto& b : boxes)
        max_len_pinned =
            std::max(max_len_pinned, b->impl().permanent_length());
      EXPECT_TRUE(pin.try_commit());
    }
    // Pin released: the next trim cycle must reclaim the whole window.
    for (auto& b : boxes) {
      txf::stm::atomically(env, [&](Transaction& t) {
        b->put(t, b->get(t) + 1);
      });
      max_len_released =
          std::max(max_len_released, b->impl().permanent_length());
    }
    // Give the (single-threaded, unpinned) epoch domain two advances so
    // everything retired by the trims above becomes freeable.
    env.epochs().try_advance_and_collect();
    env.epochs().try_advance_and_collect();
    env.epochs().try_advance_and_collect();
    max_pending = std::max(max_pending, env.epochs().pending_count());
  }

  for (std::size_t i = 0; i < kBoxes; ++i) {
    EXPECT_EQ(boxes[i]->peek_committed(),
              static_cast<long>(kRounds * (kCommitsPerRound + 1)))
        << "box " << i;
  }
  // While pinned, growth is capped by the window (+ head + pinned tail +
  // trim slack), never by the 8400-commit total.
  EXPECT_LE(max_len_pinned, static_cast<std::size_t>(kCommitsPerRound) + 4);
  // After release, every round collapses back to a constant.
  EXPECT_LE(max_len_released, 4u);
  // ~170 retirements per round, 50 rounds: a backlog that outlives its
  // round would accumulate thousands. A small multiple of one round's
  // volume (collection runs a batch behind) is the steady state.
  EXPECT_LE(max_pending, 1024u);
}

TEST(ResourceBounds, ConcurrentReadersKeepSnapshotsAndQuiescentTrim) {
  StmEnv env;
  constexpr std::size_t kBoxes = 8;
  constexpr int kCycles = 400;
  std::vector<std::unique_ptr<VBox<long>>> boxes;
  for (std::size_t i = 0; i < kBoxes; ++i)
    boxes.push_back(std::make_unique<VBox<long>>(0));

  std::atomic<bool> stop{false};
  std::atomic<int> snapshot_violations{0};
  auto reader_fn = [&] {
    std::uint64_t iter = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (++iter % 16 == 0) {
        // Hold an explicit snapshot across writer commits: whatever version
        // it pinned must stay readable and stable until it finishes.
        Transaction pin(env);
        const long first = boxes[0]->get(pin);
        std::this_thread::yield();
        const long again = boxes[0]->get(pin);
        if (first != again) snapshot_violations.fetch_add(1);
        (void)pin.try_commit();
      } else {
        long sum = 0;
        txf::stm::atomically(
            env,
            [&](Transaction& t) {
              for (auto& b : boxes) sum += b->get(t);
              return 0L;
            },
            Transaction::Mode::kReadOnly);
        if (sum < 0) snapshot_violations.fetch_add(1);
      }
    }
  };
  std::thread r1(reader_fn), r2(reader_fn);

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (auto& b : boxes) {
      txf::stm::atomically(env, [&](Transaction& t) {
        b->put(t, b->get(t) + 1);
      });
    }
  }
  stop.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(snapshot_violations.load(), 0);
  for (std::size_t i = 0; i < kBoxes; ++i)
    EXPECT_EQ(boxes[i]->peek_committed(), kCycles) << "box " << i;

  // Quiescent now: a final write per box runs a trim cycle with no live
  // snapshots, after which every chain is minimal and the whole EBR
  // backlog from 3200 churn commits is reclaimable.
  for (auto& b : boxes) {
    txf::stm::atomically(env, [&](Transaction& t) {
      b->put(t, b->get(t) + 1);
    });
  }
  std::size_t final_len = 0;
  for (auto& b : boxes)
    final_len = std::max(final_len, b->impl().permanent_length());
  EXPECT_LE(final_len, 3u);
  env.epochs().drain_for_shutdown();
  EXPECT_EQ(env.epochs().pending_count(), 0u);
}

TEST(ResourceBounds, MultiStripeCommitsKeepChainsShort) {
  // Every commit trims, on the multi-stripe path too: a box written over
  // and over by transactions that span two stripes keeps the newest version
  // plus what live snapshots can still read — never one node per commit.
  StmEnv env(8);
  std::vector<std::unique_ptr<VBox<long>>> pool;
  VBox<long>* a = nullptr;
  VBox<long>* b = nullptr;
  while (b == nullptr) {
    pool.push_back(std::make_unique<VBox<long>>(0));
    VBox<long>* cand = pool.back().get();
    if (a == nullptr) {
      a = cand;
    } else if (env.queue().stripe_of_box(&cand->impl()) !=
               env.queue().stripe_of_box(&a->impl())) {
      b = cand;
    }
  }
  auto transfer = [&] {
    txf::stm::atomically(env, [&](Transaction& t) {
      a->put(t, a->get(t) + 1);
      b->put(t, b->get(t) - 1);
    });
  };
  auto longest = [&] {
    return std::max(a->impl().permanent_length(),
                    b->impl().permanent_length());
  };

  std::size_t max_free = 0;
  for (int i = 0; i < 300; ++i) {
    transfer();
    max_free = std::max(max_free, longest());
  }
  EXPECT_LE(max_free, 2u);

  // A rolling window of kLive open snapshots, each at most kLive commits
  // old.
  constexpr std::size_t kLive = 3;
  std::deque<std::unique_ptr<Transaction>> live;
  std::size_t max_pinned = 0;
  for (int i = 0; i < 300; ++i) {
    live.push_back(std::make_unique<Transaction>(env));
    (void)live.back()->read(a->impl());
    if (live.size() > kLive) live.pop_front();
    transfer();
    max_pinned = std::max(max_pinned, longest());
  }
  EXPECT_LE(max_pinned, 2 + kLive);
  live.clear();

  EXPECT_EQ(env.queue().multi_commits(), 600u);
  EXPECT_EQ(a->peek_committed(), 600);
  EXPECT_EQ(b->peek_committed(), -600);
}

TEST(ResourceBounds, EbrDrainsToZeroAtShutdown) {
  StmEnv env;
  VBox<long> box(0);
  for (int i = 0; i < 2000; ++i) {
    txf::stm::atomically(env, [&](Transaction& t) {
      box.put(t, box.get(t) + 1);
    });
  }
  EXPECT_EQ(box.peek_committed(), 2000);
  // Trims retired ~2000 versions; whatever is still deferred must be fully
  // reclaimable once no thread is pinned.
  env.epochs().drain_for_shutdown();
  EXPECT_EQ(env.epochs().pending_count(), 0u);
}

}  // namespace
