// Chaos suite: the engine must keep its invariants under seeded failpoint
// schedules — spurious validation failures, injected commit/steal delays,
// forced tree aborts — and every atomically() call must terminate, by
// escalating to the serial-irrevocable fallback when the retry budget or the
// deadline runs out. Same seed => same per-site fire sequence => identical
// committed results.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/api.hpp"
#include "util/failpoint.hpp"

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::SchedulingMode;
using txf::core::TxCtx;
using txf::stm::VBox;
namespace fp = txf::util::fp;

// Deterministic future-chain workload (oracle 1234: strong ordering is the
// pre-order future1, future2, continuation).
long chain_result(Runtime& rt) {
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
  return acc.peek_committed();
}

// Counter workload: `iters` sequential future-carried increments.
long counter_result(Runtime& rt, int iters) {
  VBox<long> counter(0);
  for (int i = 0; i < iters; ++i) {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit([&](TxCtx& c) { return counter.get(c) + 1; });
      counter.put(ctx, f.get(ctx));
    });
  }
  return counter.peek_committed();
}

// The acceptance schedule: a validation failure roughly every 7th
// validation plus random 0-50us delays on the commit-pipeline stages
// (pre-validation, enqueue, combiner publication, helper handoff,
// write-back) and the steal path.
Config acceptance_schedule(std::uint64_t seed) {
  Config cfg;
  cfg.pool_threads = 2;
  cfg.chaos.seed = seed;
  cfg.chaos.add("core.subtxn.validate", fp::Action::kFail, 7);
  cfg.chaos.add_prob("stm.commit.prevalidate", fp::Action::kDelayUs, 0.3, 30);
  cfg.chaos.add_prob("stm.commit.enqueue", fp::Action::kDelayUs, 0.5, 50);
  cfg.chaos.add_prob("stm.commit.batch.form", fp::Action::kDelayUs, 0.3, 50);
  cfg.chaos.add_prob("stm.commit.batch.handoff", fp::Action::kYield, 0.3);
  cfg.chaos.add_prob("stm.commit.writeback", fp::Action::kDelayUs, 0.5, 50);
  cfg.chaos.add_prob("stm.read.home", fp::Action::kDelayUs, 0.3, 30);
  cfg.chaos.add_prob("sched.steal", fp::Action::kDelayUs, 0.5, 50);
  return cfg;
}

TEST(Chaos, AcceptanceScheduleKeepsInvariants) {
  Runtime rt(acceptance_schedule(0xc4a05ULL));
  EXPECT_EQ(chain_result(rt), 1234L);
  EXPECT_EQ(counter_result(rt, 40), 40L);
  // The schedule must have actually perturbed the run.
  EXPECT_GT(rt.robustness().failpoint_fires.load() +
                fp::Controller::instance().total_fires(),
            0u);
}

TEST(Chaos, SameSeedThreeRunsIdenticalCommittedResults) {
  std::vector<long> chains, counters;
  for (int run = 0; run < 3; ++run) {
    Runtime rt(acceptance_schedule(0xdecafULL));
    chains.push_back(chain_result(rt));
    counters.push_back(counter_result(rt, 25));
  }
  EXPECT_EQ(chains, (std::vector<long>{1234, 1234, 1234}));
  EXPECT_EQ(counters, (std::vector<long>{25, 25, 25}));
}

TEST(Chaos, EverySchedulingModeSurvivesTheSchedule) {
  for (const auto mode :
       {SchedulingMode::kAlwaysParallel, SchedulingMode::kAlwaysOrdered,
        SchedulingMode::kAdaptive}) {
    Config cfg = acceptance_schedule(0x5eedULL);
    cfg.scheduling = mode;
    Runtime rt(cfg);
    EXPECT_EQ(chain_result(rt), 1234L);
    EXPECT_EQ(counter_result(rt, 20), 20L);
  }
}

TEST(Chaos, SerialFallbackGuaranteesTermination) {
  // Every non-serial attempt is killed outright (abort-tree on every
  // validation), so only the serial-irrevocable fallback — which runs with
  // chaos suppressed and cannot lose a conflict — can make progress. Each
  // call must still terminate with the exact result.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.max_attempts = 3;
  cfg.backoff_base_us = 1;
  cfg.backoff_cap_us = 50;
  cfg.chaos.seed = 7;
  cfg.chaos.add("core.subtxn.validate", fp::Action::kAbortTree, 1);
  Runtime rt(cfg);
  rt.stats().reset();
  EXPECT_EQ(counter_result(rt, 20), 20L);
  EXPECT_GT(rt.stats().serial_fallbacks.load(), 0u);
  EXPECT_GT(rt.robustness().serial_irrevocable.load(), 0u);
  EXPECT_GT(rt.robustness().retries.load(), 0u);
  EXPECT_GT(rt.robustness().backoff_ns.load(), 0u);
}

TEST(Chaos, DeadlineEscalatesToSerial) {
  // A 1us deadline expires during the first (chaos-doomed) attempt; the
  // contention manager must charge a deadline abort and go serial instead
  // of burning the remaining retry budget.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.max_attempts = 64;
  cfg.backoff_base_us = 1;
  cfg.backoff_cap_us = 50;
  cfg.tx_deadline_us = 1;
  cfg.chaos.seed = 11;
  cfg.chaos.add("core.subtxn.validate", fp::Action::kAbortTree, 1);
  Runtime rt(cfg);
  EXPECT_EQ(chain_result(rt), 1234L);
  EXPECT_GT(rt.robustness().deadline_aborts.load(), 0u);
  EXPECT_GT(rt.robustness().serial_irrevocable.load(), 0u);
}

TEST(Chaos, ValidationFailureRuleDrivesTheFailpointSite) {
  // The chaos-rule spelling of the removed
  // Config::inject_validation_failure_every knob: every 5th validation
  // fails through the core.subtxn.validate site, and the engine still
  // converges to the exact result.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.chaos.seed = 5;
  cfg.chaos.add("core.subtxn.validate", fp::Action::kFail, 5);
  Runtime rt(cfg);
  EXPECT_EQ(counter_result(rt, 30), 30L);
  fp::FailPoint* site =
      fp::Controller::instance().find("core.subtxn.validate");
  ASSERT_NE(site, nullptr);
  EXPECT_GT(site->fires(), 0u);
  EXPECT_GT(rt.robustness().failpoint_fires.load(), 0u);
}

TEST(Chaos, PerturbationOnlyScheduleStaysExactUnderConcurrency) {
  // Delay/yield-only chaos on the scheduler and commit-queue hot paths must
  // never change results, only interleavings.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.chaos.seed = 99;
  cfg.chaos.add_prob("sched.deque.steal", fp::Action::kDelayUs, 0.3, 20);
  cfg.chaos.add_prob("sched.submit", fp::Action::kYield, 0.3);
  cfg.chaos.add_prob("stm.read.version", fp::Action::kDelayUs, 0.2, 10);
  cfg.chaos.add_prob("stm.read.home", fp::Action::kDelayUs, 0.2, 10);
  cfg.chaos.add_prob("stm.commit.writeback", fp::Action::kDelayUs, 0.3, 20);
  Runtime rt(cfg);
  VBox<long> counter(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
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
  EXPECT_EQ(counter.peek_committed(), 50L);
}

}  // namespace
