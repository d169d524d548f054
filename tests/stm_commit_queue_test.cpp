// Tests for the ordered helping commit queue: version assignment,
// validation, idempotent write-back, concurrent commit storms.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "stm/transaction.hpp"

namespace {

using txf::stm::CommitRequest;
using txf::stm::PermanentVersion;
using txf::stm::StmEnv;
using txf::stm::VBoxImpl;
using txf::stm::WriteBackEntry;

CommitRequest* make_request(VBoxImpl* box, txf::stm::Word value,
                            txf::stm::Version snapshot,
                            std::vector<VBoxImpl*> reads = {}) {
  auto* req = new CommitRequest();
  req->snapshot = snapshot;
  req->reads = std::move(reads);
  if (box != nullptr) {
    req->writes.push_back(
        WriteBackEntry{box, new PermanentVersion(value, 0, nullptr)});
  }
  return req;
}

TEST(CommitQueue, FirstCommitGetsVersionOne) {
  StmEnv env;
  txf::util::EpochDomain::Guard guard(env.epochs());
  VBoxImpl box(0);
  auto* req = make_request(&box, 7, env.clock().current());
  EXPECT_TRUE(env.queue().commit(req));
  EXPECT_EQ(env.clock().current(), 1u);
  EXPECT_EQ(box.permanent_head()->value, 7u);
  EXPECT_EQ(box.permanent_head()->version, 1u);
}

TEST(CommitQueue, VersionsAreSequential) {
  StmEnv env;
  txf::util::EpochDomain::Guard guard(env.epochs());
  VBoxImpl box(0);
  for (int i = 1; i <= 10; ++i) {
    auto* req = make_request(&box, static_cast<txf::stm::Word>(i),
                             env.clock().current());
    ASSERT_TRUE(env.queue().commit(req));
    EXPECT_EQ(env.clock().current(), static_cast<txf::stm::Version>(i));
  }
  EXPECT_EQ(box.permanent_head()->value, 10u);
}

TEST(CommitQueue, StaleReaderAborts) {
  StmEnv env;
  txf::util::EpochDomain::Guard guard(env.epochs());
  VBoxImpl box(0);
  const auto old_snapshot = env.clock().current();
  // Another commit bumps box past the snapshot.
  ASSERT_TRUE(env.queue().commit(make_request(&box, 1, old_snapshot)));
  // A request that *read* box at the old snapshot must abort.
  auto* req = make_request(&box, 2, old_snapshot, {&box});
  EXPECT_FALSE(env.queue().commit(req));
  EXPECT_EQ(box.permanent_head()->value, 1u);
  EXPECT_EQ(env.queue().aborted_count(), 1u);
}

TEST(CommitQueue, AbortedRequestConsumesNoVersion) {
  // Group-commit pipeline: only valid requests are assigned versions, so an
  // abort leaves no gap — the clock always equals the number of committed
  // writers (the invariant the batch's deterministic pass maintains).
  StmEnv env;
  txf::util::EpochDomain::Guard guard(env.epochs());
  VBoxImpl box(0);
  const auto s0 = env.clock().current();
  ASSERT_TRUE(env.queue().commit(make_request(&box, 1, s0)));           // ver 1
  // Register snapshot 1, read below: every commit trims the boxes it wrote
  // behind the oldest registered snapshot.
  const auto pin = env.registry().claim();
  env.registry().slot(pin).publish(1);
  ASSERT_FALSE(env.queue().commit(make_request(&box, 2, s0, {&box})));  // abort
  ASSERT_TRUE(env.queue().commit(make_request(&box, 3, env.clock().current())));
  EXPECT_EQ(env.clock().current(), 2u);
  EXPECT_EQ(env.clock().current(), env.queue().committed_count());
  EXPECT_EQ(box.permanent_head()->version, 2u);
  EXPECT_EQ(box.permanent_head()->value, 3u);
  // Snapshot 1 sees the first commit; the abort left no trace.
  EXPECT_EQ(box.read_permanent(1)->value, 1u);
  EXPECT_EQ(env.queue().prevalidation_sheds(), 0u);  // abort came from stage 2
  env.registry().release(pin);
}

TEST(CommitQueue, ReadOfUnrelatedBoxDoesNotAbort) {
  StmEnv env;
  txf::util::EpochDomain::Guard guard(env.epochs());
  VBoxImpl x(0), y(0);
  const auto s0 = env.clock().current();
  ASSERT_TRUE(env.queue().commit(make_request(&x, 1, s0)));
  // Read-set contains only y, unchanged since s0.
  EXPECT_TRUE(env.queue().commit(make_request(&y, 2, s0, {&y})));
}

TEST(CommitQueue, MultiBoxWriteBackIsAtomic) {
  StmEnv env;
  VBoxImpl x(0), y(0);
  std::atomic<bool> stop{false};
  std::atomic<int> tearing{0};

  std::thread observer([&] {
    txf::util::EpochDomain::Guard guard(env.epochs());
    const auto slot = env.registry().claim(1);
    while (!stop.load()) {
      txf::stm::Version snap;
      for (;;) {  // publish-verify so the GC can't trim under us
        snap = env.clock().current();
        env.registry().slot(slot).publish(snap);
        if (env.clock().current() == snap) break;
      }
      const auto vx = x.read_permanent(snap)->value;
      const auto vy = y.read_permanent(snap)->value;
      if (vx != vy) tearing.fetch_add(1);
      env.registry().slot(slot).clear();
    }
    env.registry().release(slot);
  });

  {
    txf::util::EpochDomain::Guard guard(env.epochs());
    for (int i = 1; i <= 2000; ++i) {
      auto* req = new CommitRequest();
      req->snapshot = env.clock().current();
      req->writes.push_back(WriteBackEntry{
          &x, new PermanentVersion(static_cast<txf::stm::Word>(i), 0, nullptr)});
      req->writes.push_back(WriteBackEntry{
          &y, new PermanentVersion(static_cast<txf::stm::Word>(i), 0, nullptr)});
      ASSERT_TRUE(env.queue().commit(req));
    }
  }
  stop.store(true);
  observer.join();
  // Snapshot reads must never see x and y out of sync: the clock only
  // advances after both boxes carry the new version.
  EXPECT_EQ(tearing.load(), 0);
}

TEST(CommitQueueStress, ConcurrentCommittersAllAccountedFor) {
  StmEnv env;
  VBoxImpl box(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      txf::util::EpochDomain::Guard guard(env.epochs());
      for (int i = 0; i < kPerThread; ++i) {
        // Blind writes: never abort.
        auto* req = make_request(&box, 1, env.clock().current());
        if (env.queue().commit(req)) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * kPerThread);
  EXPECT_EQ(env.clock().current(),
            static_cast<txf::stm::Version>(kThreads * kPerThread));
  EXPECT_EQ(box.permanent_head()->version,
            static_cast<txf::stm::Version>(kThreads * kPerThread));
}

TEST(CommitQueueStress, MixedConflictingCommits) {
  StmEnv env;
  VBoxImpl box(0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  std::vector<std::thread> threads;
  std::atomic<long> success{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      txf::util::EpochDomain::Guard guard(env.epochs());
      // Follow the snapshot protocol: publish before reading so the GC
      // never trims a version this thread still needs.
      const auto slot = env.registry().claim(static_cast<std::size_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        txf::stm::Version snap;
        for (;;) {
          snap = env.clock().current();
          env.registry().slot(slot).publish(snap);
          if (env.clock().current() == snap) break;
        }
        const auto before = box.read_permanent(snap)->value;
        auto* req = make_request(&box, before + 1, snap, {&box});
        if (env.queue().commit(req)) success.fetch_add(1);
        env.registry().slot(slot).clear();
      }
      env.registry().release(slot);
    });
  }
  for (auto& t : threads) t.join();
  // The final value equals the number of successful increments: aborted
  // read-modify-writes must have had no effect.
  EXPECT_EQ(box.permanent_head()->value,
            static_cast<txf::stm::Word>(success.load()));
  EXPECT_GT(success.load(), 0);
}

}  // namespace
