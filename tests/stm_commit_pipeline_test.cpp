// Group-commit pipeline tests (stm/commit_queue.hpp): per-box permanent
// lists must stay strictly version-descending under concurrent batched
// write-back, version assignment must be consecutive and gap-free (clock ==
// committed writers), and the invariants must survive seeded chaos schedules
// that stall the combiner, the helper handoff, and the write-back fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "stm/transaction.hpp"
#include "util/failpoint.hpp"

namespace {

using txf::stm::CommitQueue;
using txf::stm::CommitRequest;
using txf::stm::PermanentVersion;
using txf::stm::StmEnv;
using txf::stm::Transaction;
using txf::stm::VBox;
using txf::stm::VBoxImpl;
using txf::stm::Version;
using txf::stm::WriteBackEntry;
namespace fp = txf::util::fp;

/// Snapshot a box's permanent version chain (newest first). Quiescent use
/// only. Stops at the end marker trim leaves behind.
std::vector<Version> version_chain(const VBoxImpl& box) {
  std::vector<Version> out;
  const PermanentVersion* p = box.permanent_head();
  while (p != nullptr && p != txf::stm::trimmed_tail()) {
    out.push_back(p->version);
    p = p->next.load(std::memory_order_acquire);
  }
  return out;
}

void expect_strictly_descending(const std::vector<Version>& chain) {
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LT(chain[i], chain[i - 1])
        << "permanent list not strictly descending at index " << i;
  }
}

/// Shared workload: `threads` workers hammer `boxes` with read-modify-write
/// transactions (multi-box writes, overlapping read sets); every commit
/// trims the boxes it wrote, racing the other workers' batches.
void run_pipeline_storm(StmEnv& env, std::deque<VBox<long>>& boxes,
                        int threads, int txns_per_thread) {
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < txns_per_thread; ++i) {
        txf::stm::atomically(env, [&](Transaction& tx) {
          // Overlapping multi-box writes: same-batch conflicts and
          // same-batch same-box writes (shadowing) both get exercised.
          const std::size_t a = static_cast<std::size_t>(i) % boxes.size();
          const std::size_t b =
              static_cast<std::size_t>(i + w + 1) % boxes.size();
          const long va = boxes[a].get(tx);
          const long vb = boxes[b].get(tx);
          boxes[a].put(tx, va + 1);
          boxes[b].put(tx, vb + 1);
        });
      }
    });
  }
  for (auto& t : workers) t.join();
}

void expect_pipeline_invariants(StmEnv& env, std::deque<VBox<long>>& boxes) {
  // Gap-free version assignment: every committed writer consumed exactly one
  // version and aborted requests consumed none.
  EXPECT_EQ(env.clock().current(), env.queue().committed_count());
  // Per-box permanent lists strictly descending, bounded by the clock.
  for (auto& b : boxes) {
    const auto chain = version_chain(b.impl());
    ASSERT_FALSE(chain.empty());
    expect_strictly_descending(chain);
    EXPECT_LE(chain.front(), env.clock().current());
  }
  // Batch accounting: histogram buckets sum to the batch count, and batches
  // carried every request that went through the queue.
  std::uint64_t hist_sum = 0;
  for (std::size_t i = 0; i < CommitQueue::kBatchSizeBuckets; ++i)
    hist_sum += env.queue().batch_size_bucket(i);
  EXPECT_EQ(hist_sum, env.queue().batch_count());
  EXPECT_EQ(env.queue().batched_requests() + env.queue().prevalidation_sheds(),
            env.queue().committed_count() + env.queue().aborted_count());
}

TEST(CommitPipeline, PerBoxListsStrictlyDescendingUnderConcurrency) {
  StmEnv env;
  std::deque<VBox<long>> boxes;
  for (int i = 0; i < 8; ++i) boxes.emplace_back(0L);
  run_pipeline_storm(env, boxes, 4, 300);
  expect_pipeline_invariants(env, boxes);
  // The workload is all read-modify-write, so the sum of the boxes equals
  // two increments per committed transaction.
  long total = 0;
  for (auto& b : boxes) total += b.peek_committed();
  EXPECT_EQ(static_cast<std::uint64_t>(total),
            2 * env.queue().committed_count());
}

TEST(CommitPipeline, BatchVersionsConsecutiveAndGapFree) {
  StmEnv env;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::deque<VBoxImpl> boxes;
  for (int i = 0; i < kThreads; ++i) boxes.emplace_back(0);

  std::vector<std::vector<Version>> seen(kThreads);
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      txf::util::EpochDomain::Guard guard(env.epochs());
      for (int i = 0; i < kPerThread; ++i) {
        // Disjoint per-thread boxes and empty read sets: nothing conflicts,
        // so every request must commit and consume exactly one version.
        CommitRequest* req = CommitQueue::acquire_request();
        req->snapshot = env.clock().current();
        req->writes.push_back(WriteBackEntry{
            &boxes[static_cast<std::size_t>(w)],
            CommitQueue::acquire_node(static_cast<txf::stm::Word>(i))});
        ASSERT_TRUE(env.queue().commit(req));
        // Still inside the EBR guard: the request cannot be recycled under
        // us even though the queue has already consumed it.
        seen[static_cast<std::size_t>(w)].push_back(req->commit_version());
      }
    });
  }
  for (auto& t : workers) t.join();

  // All versions across all threads form exactly 1..N: consecutive batch
  // assignment with a single clock jump per batch and no gaps.
  std::vector<Version> all;
  for (auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i + 1);
  EXPECT_EQ(env.clock().current(), all.size());
  EXPECT_EQ(env.queue().committed_count(), all.size());
  EXPECT_EQ(env.queue().aborted_count(), 0u);
  // Per-thread commit order is monotone (queue order respects enqueue order
  // for a single thread).
  for (auto& v : seen) EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(CommitPipeline, SmallBatchLimitStillGapFree) {
  StmEnv env;
  env.queue().set_batch_limit(1);  // degenerate pipeline: batches of one
  std::deque<VBox<long>> boxes;
  for (int i = 0; i < 4; ++i) boxes.emplace_back(0L);
  run_pipeline_storm(env, boxes, 3, 150);
  expect_pipeline_invariants(env, boxes);
}

TEST(CommitPipeline, StageTimersSampleAtEightStripes) {
  // One commit runs several stages; each stage samples on its own
  // thread-local tick, and with more than one stripe the spine times stage 1
  // itself. Single-box read-modify-writes keep every commit on one stripe's
  // queue, so each of the 1000 commits runs stage 1 and stage 2.
  StmEnv env(8);
  std::deque<VBox<long>> boxes;
  for (int i = 0; i < 16; ++i) boxes.emplace_back(0L);
  for (int i = 0; i < 1000; ++i) {
    VBox<long>& box = boxes[static_cast<std::size_t>(i) % boxes.size()];
    txf::stm::atomically(env, [&](Transaction& tx) {
      box.put(tx, box.get(tx) + 1);
    });
  }
  std::uint64_t prevalidate = env.queue().stage_prevalidate_ns().count();
  std::uint64_t assign = 0;
  for (unsigned s = 0; s < env.stripes(); ++s) {
    prevalidate += env.queue().stripe_queue(s).stage_prevalidate_ns().count();
    assign += env.queue().stripe_queue(s).stage_assign_ns().count();
  }
  EXPECT_GT(prevalidate, 0u);
  EXPECT_GT(assign, 0u);
}

TEST(CommitPipelineChaos, SeededCombinerStallsKeepInvariants) {
  // Stall the combiner after batch publication, the helper handoff, the
  // write-back fan-out, and pre-validation: helpers must drive every batch
  // to completion regardless, with the same invariants as the clean run.
  fp::ChaosPlan plan;
  plan.seed = 0xba7c4ULL;
  plan.add_prob("stm.commit.batch.form", fp::Action::kDelayUs, 0.3, 50);
  plan.add_prob("stm.commit.batch.handoff", fp::Action::kYield, 0.3, 0);
  plan.add_prob("stm.commit.writeback", fp::Action::kDelayUs, 0.3, 50);
  plan.add_prob("stm.commit.prevalidate", fp::Action::kDelayUs, 0.2, 20);
  plan.add_prob("stm.commit.enqueue", fp::Action::kDelayUs, 0.2, 20);
  fp::Controller::instance().arm(plan);

  {
    StmEnv env;
    env.queue().set_batch_limit(3);  // force frequent segment boundaries
    std::deque<VBox<long>> boxes;
    for (int i = 0; i < 6; ++i) boxes.emplace_back(0L);
    run_pipeline_storm(env, boxes, 4, 120);
    expect_pipeline_invariants(env, boxes);
    long total = 0;
    for (auto& b : boxes) total += b.peek_committed();
    EXPECT_EQ(static_cast<std::uint64_t>(total),
              2 * env.queue().committed_count());
  }

  EXPECT_GT(fp::Controller::instance().total_fires(), 0u);
  fp::Controller::instance().disarm();
}

TEST(CommitPipelineRegression, CombinerStalledAcrossMultiStripeCommit) {
  // A combiner reads its batch's base version, then stalls before it
  // publishes the batch. Meanwhile a multi-stripe commit freezes the same
  // stripe, commits base+1 and releases the slot. The combiner's publication
  // still succeeds (the slot is empty again), so unless the batch is
  // recognized as stale it assigns base+1 a second time, write-back reads
  // "head already has my version" as "already linked", and the blind write
  // is lost while its committer is told it committed.
  StmEnv env(8);
  std::deque<VBox<long>> pool;
  VBox<long>* x = nullptr;
  VBox<long>* y = nullptr;
  while (y == nullptr) {
    VBox<long>& cand = pool.emplace_back(0L);
    if (x == nullptr) {
      x = &cand;
    } else if (env.queue().stripe_of_box(&cand.impl()) !=
               env.queue().stripe_of_box(&x->impl())) {
      y = &cand;
    }
  }

  fp::ChaosPlan plan;
  plan.seed = 7;  // the site's first delay draw is well above a millisecond
  plan.add("stm.commit.batch.base", fp::Action::kDelayUs, 1, 200000);
  fp::Controller::instance().arm(plan);

  std::atomic<bool> a_returned{false};
  std::thread a([&] {
    txf::stm::atomically(env, [&](Transaction& t) { x->put(t, 1); });
    a_returned.store(true, std::memory_order_release);
  });
  // Wait until the combiner sits in the stall, then commit across stripes.
  fp::FailPoint* site = nullptr;
  while (site == nullptr || site->passes() == 0) {
    site = fp::Controller::instance().find("stm.commit.batch.base");
    std::this_thread::yield();
  }
  txf::stm::atomically(env, [&](Transaction& t) {
    x->put(t, 2);
    y->put(t, 2);
  });
  const bool stalled_across = !a_returned.load(std::memory_order_acquire);
  fp::Controller::instance().disarm();
  a.join();

  ASSERT_TRUE(stalled_across) << "the stall ended before the multi-stripe "
                                 "commit ran; the schedule was not reproduced";
  ASSERT_EQ(env.queue().multi_commits(), 1u);
  // The stalled writer serializes after the multi-stripe commit.
  EXPECT_EQ(x->peek_committed(), 1);
  EXPECT_EQ(y->peek_committed(), 2);
  for (unsigned s = 0; s < env.stripes(); ++s) {
    EXPECT_EQ(env.clock().current(s), env.queue().stripe_committed(s))
        << "stripe " << s;
  }
  for (auto& b : pool) expect_strictly_descending(version_chain(b.impl()));
}

}  // namespace
