// Unit and stress tests for epoch-based reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/epoch.hpp"

namespace {

using txf::util::EpochDomain;

std::atomic<int> g_freed{0};

struct Tracked {
  ~Tracked() { g_freed.fetch_add(1, std::memory_order_relaxed); }
};

TEST(Epoch, RetireEventuallyFrees) {
  EpochDomain domain;
  g_freed = 0;
  domain.retire(new Tracked());
  // No guards pinned: advances should free it within a few rounds.
  for (int i = 0; i < 5; ++i) domain.try_advance_and_collect();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Epoch, PinnedGuardBlocksAdvance) {
  EpochDomain domain;
  g_freed = 0;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EpochDomain::Guard guard(domain);
    pinned = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();

  const auto epoch_before = domain.global_epoch();
  domain.retire(new Tracked());
  // A pinned straggler prevents the epoch from advancing by 2, so the node
  // must not be freed yet.
  for (int i = 0; i < 5; ++i) domain.try_advance_and_collect();
  EXPECT_LE(domain.global_epoch(), epoch_before + 1);
  EXPECT_EQ(g_freed.load(), 0);

  release = true;
  reader.join();
  for (int i = 0; i < 5; ++i) domain.try_advance_and_collect();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Epoch, NestedGuardsCount) {
  EpochDomain domain;
  g_freed = 0;
  {
    EpochDomain::Guard outer(domain);
    {
      EpochDomain::Guard inner(domain);
    }
    // Still pinned by `outer`: retire + advance must not free.
    domain.retire(new Tracked());
    for (int i = 0; i < 5; ++i) domain.try_advance_and_collect();
    EXPECT_EQ(g_freed.load(), 0);
  }
  for (int i = 0; i < 5; ++i) domain.try_advance_and_collect();
  EXPECT_EQ(g_freed.load(), 1);
}

TEST(Epoch, DrainForShutdownFreesEverything) {
  g_freed = 0;
  {
    EpochDomain domain;
    for (int i = 0; i < 100; ++i) domain.retire(new Tracked());
    // Destructor drains.
  }
  EXPECT_EQ(g_freed.load(), 100);
}

TEST(Epoch, ThreadExitMigratesOrphans) {
  EpochDomain domain;
  g_freed = 0;
  std::thread t([&] { domain.retire(new Tracked()); });
  t.join();
  for (int i = 0; i < 5; ++i) domain.try_advance_and_collect();
  EXPECT_EQ(g_freed.load(), 1);
}

// Stress: concurrent readers traverse a lock-free stack while writers pop
// and retire nodes; ASAN/valgrind-style failures would show as crashes.
TEST(EpochStress, ConcurrentRetireAndRead) {
  struct Node {
    int value;
    std::atomic<Node*> next{nullptr};
  };
  EpochDomain domain;
  std::atomic<Node*> head{nullptr};

  // Pre-fill.
  for (int i = 0; i < 1000; ++i) {
    auto* n = new Node{i, {}};
    n->next.store(head.load());
    head.store(n);
  }

  // The run is counted in reader passes, not writer rounds: the writer
  // starts only after the reader's first completed pass and stops after a
  // fixed number of them, however the host schedules the two threads.
  constexpr long kReaderPasses = 200;
  std::atomic<bool> stop{false};
  std::atomic<long> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      EpochDomain::Guard guard(domain);
      long sum = 0;
      for (Node* n = head.load(std::memory_order_acquire); n != nullptr;
           n = n->next.load(std::memory_order_acquire)) {
        sum += n->value;
      }
      reads.fetch_add(1, std::memory_order_relaxed);
      (void)sum;
    }
  });

  std::thread writer([&] {
    while (reads.load(std::memory_order_relaxed) == 0)
      std::this_thread::yield();
    for (int round = 0; reads.load(std::memory_order_relaxed) < kReaderPasses;
         ++round) {
      // Pop up to 5 nodes, retire them, push 5 new ones.
      for (int i = 0; i < 5; ++i) {
        Node* n = head.load(std::memory_order_acquire);
        if (n == nullptr) break;
        Node* next = n->next.load(std::memory_order_acquire);
        if (head.compare_exchange_strong(n, next)) {
          domain.retire(n);
        }
      }
      for (int i = 0; i < 5; ++i) {
        auto* n = new Node{round * 10 + i, {}};
        Node* h = head.load(std::memory_order_acquire);
        do {
          n->next.store(h, std::memory_order_relaxed);
        } while (!head.compare_exchange_weak(h, n));
      }
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  reader.join();
  EXPECT_GT(reads.load(), 0);

  // Cleanup remaining nodes.
  Node* n = head.load();
  while (n != nullptr) {
    Node* next = n->next.load();
    delete n;
    n = next;
  }
}

}  // namespace
