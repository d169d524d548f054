// Adaptive future scheduling (core/adaptive.hpp): hysteresis transitions
// driven through synthetic SiteStats, inline-elision correctness (results,
// strong ordering and exception propagation identical across every
// SchedulingMode), end-to-end demotion of
// unprofitable sites, and chaos runs with the core.adaptive.decide
// failpoint flipping decisions.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.hpp"
#include "core/api.hpp"
#include "util/failpoint.hpp"

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::SchedulingMode;
using txf::core::TxCtx;
using txf::core::adaptive::AdaptiveScheduler;
using txf::core::adaptive::DecideResult;
using txf::core::adaptive::Outcome;
using txf::core::adaptive::Params;
using txf::core::adaptive::RunKind;
using txf::core::adaptive::SiteState;
using txf::core::adaptive::SiteStats;
using txf::obs::AbortCause;
using txf::stm::VBox;
namespace fp = txf::util::fp;

// Small synthetic parameters: transitions happen within a handful of
// samples so the state machine can be walked exhaustively.
Params test_params() {
  Params p;
  p.inline_threshold_ns = 1000;
  p.min_samples = 4;
  p.demote_after = 3;
  p.harden_after = 4;
  p.promote_after = 2;
  p.reprobe_period = 8;
  p.conflict_demote_x1024 = 154;  // ~15% conflict rate
  p.conflict_promote_x1024 = 61;  // ~6%
  p.ordered_reprobe_period = 4;
  p.ordered_harden_after = 3;
  return p;
}

// ---------------------------------------------------------------------------
// Hysteresis state machine (synthetic SiteStats, no Runtime)
// ---------------------------------------------------------------------------

TEST(AdaptiveHysteresis, FreshSiteRunsParallel) {
  SiteStats s;
  const Params p = test_params();
  EXPECT_EQ(s.site_state(), SiteState::kParallel);
  const DecideResult d = s.decide(p);
  EXPECT_FALSE(d.run_inline);
  EXPECT_FALSE(d.probe);
}

TEST(AdaptiveHysteresis, MinSamplesGateBlocksEarlyDemotion) {
  SiteStats s;
  const Params p = test_params();
  // Unprofitable (below-threshold) samples, but fewer than min_samples:
  // the site must stay parallel even though the score is already past the
  // demotion bar — one-shot sites may *need* real concurrency.
  for (std::uint32_t i = 0; i < p.min_samples - 1; ++i) {
    s.note_body_sample(p, 10, RunKind::kParallel, p.inline_threshold_ns);
    EXPECT_EQ(s.site_state(), SiteState::kParallel);
  }
  // The gate lifts with the min_samples-th sample.
  const Outcome out =
      s.note_body_sample(p, 10, RunKind::kParallel, p.inline_threshold_ns);
  EXPECT_TRUE(out.demoted);
  EXPECT_EQ(s.site_state(), SiteState::kProbation);
}

void drive_to_probation(SiteStats& s, const Params& p) {
  for (std::uint32_t i = 0; i < p.min_samples + p.demote_after; ++i) {
    s.note_body_sample(p, 10, RunKind::kParallel, p.inline_threshold_ns);
    if (s.site_state() == SiteState::kProbation) return;
  }
  FAIL() << "site never demoted to probation";
}

TEST(AdaptiveHysteresis, ProbationHardensToInline) {
  SiteStats s;
  const Params p = test_params();
  drive_to_probation(s, p);
  for (std::uint32_t i = 0; i < p.harden_after; ++i) {
    EXPECT_EQ(s.site_state(), SiteState::kProbation);
    s.note_body_sample(p, 10, RunKind::kInline, p.inline_threshold_ns);
  }
  EXPECT_EQ(s.site_state(), SiteState::kInline);
}

TEST(AdaptiveHysteresis, ProbationPromotesOnProfitableSamples) {
  SiteStats s;
  const Params p = test_params();
  drive_to_probation(s, p);
  for (std::uint32_t i = 0; i < p.promote_after; ++i) {
    s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kInline,
                       p.inline_threshold_ns);
  }
  EXPECT_EQ(s.site_state(), SiteState::kParallel);
}

TEST(AdaptiveHysteresis, InlineSiteReprobesPeriodically) {
  SiteStats s;
  const Params p = test_params();
  s.state.store(static_cast<std::uint8_t>(SiteState::kInline));
  for (std::uint32_t i = 1; i < p.reprobe_period; ++i) {
    const DecideResult d = s.decide(p);
    EXPECT_TRUE(d.run_inline) << "decision " << i;
    EXPECT_FALSE(d.probe);
  }
  const DecideResult probe = s.decide(p);
  EXPECT_FALSE(probe.run_inline);
  EXPECT_TRUE(probe.probe);
  // A probe that proves itself profitable promotes the site to probation.
  const Outcome out = s.note_body_sample(p, 10 * p.inline_threshold_ns,
                                         RunKind::kParallel,
                                         p.inline_threshold_ns);
  EXPECT_TRUE(out.promoted);
  EXPECT_EQ(s.site_state(), SiteState::kProbation);
}

// The fig5b regression (ISSUE 8 satellite 1): a site whose bodies look
// thoroughly profitable — every sample lands a +1, keeping the score
// pinned at its ceiling where conflict "-2"s can never drag it to the
// demotion bar — must STILL demote when its parallel runs keep dying to
// conflicts. The conflict EWMA is an independent input: chargeable aborts
// pump it past the demote bar within a handful of windows, and the site
// moves to the ordered lane regardless of the score.
TEST(AdaptiveHysteresis, ConflictChargesDemoteProfitableSiteToOrdered) {
  SiteStats s;
  const Params p = test_params();
  // Profitable parallel samples: score saturates at +promote_after and
  // conflict_obs clears the min_samples gate (each clean run is an
  // observation of "parallel did NOT conflict").
  for (std::uint32_t i = 0; i < p.min_samples; ++i)
    s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kParallel,
                       p.inline_threshold_ns);
  EXPECT_EQ(s.site_state(), SiteState::kParallel);
  // Non-conflict aborts are recorded but carry no scheduling signal.
  s.note_abort(p, AbortCause::kStalled);
  EXPECT_EQ(s.site_state(), SiteState::kParallel);
  EXPECT_EQ(s.conflict_rate_x1024(), 0u);
  // Chargeable conflicts pump the EWMA ~alpha=1/8 toward 1024: from zero,
  // the second charge (e = 240) crosses the ~15% demote bar. N = 2 windows,
  // far inside the "within N windows" regression bound.
  Outcome out = s.note_abort(p, AbortCause::kTreeOrder);
  EXPECT_FALSE(out.demoted);
  EXPECT_EQ(s.site_state(), SiteState::kParallel);
  out = s.note_abort(p, AbortCause::kWriteWrite);
  EXPECT_TRUE(out.demoted);
  EXPECT_TRUE(out.conflict);
  EXPECT_EQ(s.site_state(), SiteState::kOrdered);
  EXPECT_TRUE(s.conflict_demoted.load());
  EXPECT_GE(s.conflict_rate_x1024(), p.conflict_demote_x1024);
  EXPECT_EQ(s.aborts[static_cast<std::size_t>(AbortCause::kTreeOrder)].load(),
            1u);
  EXPECT_EQ(s.abort_total.load(), 3u);
}

void drive_to_ordered(SiteStats& s, const Params& p) {
  for (std::uint32_t i = 0; i < p.min_samples; ++i)
    s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kParallel,
                       p.inline_threshold_ns);
  for (std::uint32_t i = 0; i < p.min_samples; ++i) {
    s.note_abort(p, AbortCause::kTreeOrder);
    if (s.site_state() == SiteState::kOrdered) return;
  }
  FAIL() << "site never demoted to ordered";
}

TEST(AdaptiveHysteresis, OrderedLaneDecidesOrderedWithSparseProbes) {
  SiteStats s;
  const Params p = test_params();
  drive_to_ordered(s, p);
  // Ordered decisions until the (denser) re-probe cadence fires a real
  // parallel probe to re-measure the conflict rate.
  for (std::uint32_t i = 1; i < p.ordered_reprobe_period; ++i) {
    const DecideResult d = s.decide(p);
    EXPECT_FALSE(d.run_inline);
    EXPECT_TRUE(d.ordered) << "decision " << i;
    EXPECT_FALSE(d.probe);
  }
  const DecideResult probe = s.decide(p);
  EXPECT_FALSE(probe.run_inline);
  EXPECT_FALSE(probe.ordered);
  EXPECT_TRUE(probe.probe);
}

TEST(AdaptiveHysteresis, OrderedHardensToInlineOnPersistentConflicts) {
  SiteStats s;
  const Params p = test_params();
  drive_to_ordered(s, p);
  // Conflicts that survive sibling serialization are inter-tree; after
  // ordered_harden_after of them the ordered lane buys nothing and the
  // site hardens to fully-inline co-location.
  Outcome out;
  for (std::uint32_t i = 0; i < p.ordered_harden_after; ++i) {
    EXPECT_EQ(s.site_state(), SiteState::kOrdered);
    out = s.note_abort(p, AbortCause::kReadValidation);
  }
  EXPECT_TRUE(out.demoted);
  EXPECT_TRUE(out.conflict);
  EXPECT_EQ(s.site_state(), SiteState::kInline);
  // Still conflict-demoted: the denser re-probe cadence applies.
  EXPECT_TRUE(s.conflict_demoted.load());
}

TEST(AdaptiveHysteresis, OrderedRecoversToParallelAfterCleanProbes) {
  SiteStats s;
  const Params p = test_params();
  drive_to_ordered(s, p);
  // Clean parallel probes decay the conflict EWMA ~12% per probe; once it
  // falls to the promote bar the burst is declared over and the site gets
  // its parallelism back. Bursty contention is not a permanent blacklist.
  Outcome out;
  for (int i = 0; i < 64 && s.site_state() == SiteState::kOrdered; ++i) {
    out = s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kParallel,
                             p.inline_threshold_ns);
  }
  EXPECT_TRUE(out.promoted);
  EXPECT_TRUE(out.conflict);
  EXPECT_EQ(s.site_state(), SiteState::kParallel);
  EXPECT_FALSE(s.conflict_demoted.load());
  EXPECT_LE(s.conflict_rate_x1024(), p.conflict_promote_x1024);
}

TEST(AdaptiveHysteresis, OrderedRunsNeverMoveTheConflictEwma) {
  SiteStats s;
  const Params p = test_params();
  drive_to_ordered(s, p);
  const std::uint32_t e = s.conflict_rate_x1024();
  // Ordered (and inline) completions are sibling-conflict-free by
  // construction; only parallel-lane evidence may decay the estimate,
  // else the ordered lane would insta-promote itself.
  for (int i = 0; i < 32; ++i)
    s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kOrdered,
                       p.inline_threshold_ns);
  EXPECT_EQ(s.conflict_rate_x1024(), e);
  EXPECT_EQ(s.site_state(), SiteState::kOrdered);
  EXPECT_EQ(s.ordered_runs.load(), 32u);
}

TEST(AdaptiveHysteresis, InlinePromotionGatedOnConflictDecay) {
  SiteStats s;
  const Params p = test_params();
  drive_to_ordered(s, p);
  while (s.site_state() == SiteState::kOrdered)
    s.note_abort(p, AbortCause::kTreeOrder);
  EXPECT_EQ(s.site_state(), SiteState::kInline);
  // A profitable probe alone must NOT promote while the conflict estimate
  // still sits above the demote bar — re-promoting would just re-enter the
  // demote-on-first-charge cycle.
  s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kParallel,
                     p.inline_threshold_ns);
  if (s.conflict_rate_x1024() >= p.conflict_demote_x1024) {
    EXPECT_EQ(s.site_state(), SiteState::kInline);
  }
  // Once enough clean probes decay the estimate under the bar, the next
  // profitable probe promotes.
  for (int i = 0; i < 64 && s.site_state() == SiteState::kInline; ++i)
    s.note_body_sample(p, 10 * p.inline_threshold_ns, RunKind::kParallel,
                       p.inline_threshold_ns);
  EXPECT_EQ(s.site_state(), SiteState::kProbation);
}

// ---------------------------------------------------------------------------
// AdaptiveScheduler (site table, fixed modes)
// ---------------------------------------------------------------------------

TEST(AdaptiveScheduler_, SiteTableSeparatesKeys) {
  txf::sched::ThreadPool pool(1);
  Config cfg;
  cfg.scheduling = SchedulingMode::kAdaptive;
  AdaptiveScheduler sched(cfg, pool);
  static const char a = 0, b = 0;
  SiteStats* sa = sched.site_for(&a);
  SiteStats* sb = sched.site_for(&b);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_NE(sa, sb);
  EXPECT_EQ(sched.site_for(&a), sa);  // stable on re-lookup
  EXPECT_EQ(sched.site_count(), 2u);
}

TEST(AdaptiveScheduler_, FixedModesShortCircuit) {
  txf::sched::ThreadPool pool(1);
  static const char key = 0;
  {
    Config cfg;
    cfg.scheduling = SchedulingMode::kAlwaysParallel;
    AdaptiveScheduler sched(cfg, pool);
    const AdaptiveScheduler::Decision d = sched.decide(&key);
    EXPECT_FALSE(d.run_inline);
    EXPECT_EQ(d.site, nullptr);
    EXPECT_EQ(sched.site_count(), 0u);
  }
  {
    Config cfg;
    cfg.scheduling = SchedulingMode::kAlwaysInline;
    AdaptiveScheduler sched(cfg, pool);
    const AdaptiveScheduler::Decision d = sched.decide(&key);
    EXPECT_TRUE(d.run_inline);
    EXPECT_EQ(d.site, nullptr);
  }
  {
    Config cfg;
    cfg.scheduling = SchedulingMode::kAlwaysOrdered;
    AdaptiveScheduler sched(cfg, pool);
    const AdaptiveScheduler::Decision d = sched.decide(&key);
    EXPECT_FALSE(d.run_inline);
    EXPECT_TRUE(d.ordered);
    EXPECT_EQ(d.site, nullptr);
  }
}

TEST(AdaptiveScheduler_, FootprintBiasScalesThreshold) {
  txf::sched::ThreadPool pool(1);
  Config cfg;
  cfg.scheduling = SchedulingMode::kAdaptive;
  AdaptiveScheduler sched(cfg, pool);
  static const char key = 0;
  SiteStats* site = sched.site_for(&key);
  const std::uint64_t base = sched.effective_threshold_for(site);
  EXPECT_EQ(base, sched.effective_threshold());  // no footprint yet
  // Steady 4-stripe commits converge the width EWMA to 4 and scale the
  // profitability bar 4x (the cap): wide-footprint sites must prove much
  // bigger bodies before parallel speculation pays.
  for (int i = 0; i < 64; ++i) sched.note_commit_footprint({site}, 4);
  EXPECT_EQ(sched.effective_threshold_for(site), 4 * base);
  EXPECT_EQ(sched.footprint_commits(), 64u);
  EXPECT_EQ(sched.footprint_multi(), 64u);
  EXPECT_EQ(sched.footprint_single(), 0u);
  // A single-stripe site keeps the unscaled bar.
  static const char key2 = 0;
  SiteStats* narrow = sched.site_for(&key2);
  sched.note_commit_footprint({narrow}, 1);
  EXPECT_EQ(sched.effective_threshold_for(narrow), base);
  EXPECT_EQ(sched.footprint_single(), 1u);
}

// ---------------------------------------------------------------------------
// Elision correctness: all modes produce the sequential execution
// ---------------------------------------------------------------------------

// Strong-ordering oracle (pre-order future1, future2, continuation = 1234),
// with a nested submit inside the first future (oracle digit order 1-2-5-3-4:
// f1 runs, its nested future runs before f1's continuation tail).
long chain_result(Runtime& rt) {
  VBox<long> acc(1);
  return atomically(rt, [&](TxCtx& ctx) {
    auto f1 = ctx.submit([&](TxCtx& c) {
      acc.put(c, acc.get(c) * 10 + 2);
      auto nested = c.submit([&](TxCtx& cc) {
        acc.put(cc, acc.get(cc) * 10 + 5);
        return 0;
      });
      nested.get(c);
      return 0;
    });
    auto f2 = ctx.submit([&](TxCtx& c) {
      acc.put(c, acc.get(c) * 10 + 3);
      return 0;
    });
    f1.get(ctx);
    f2.get(ctx);
    acc.put(ctx, acc.get(ctx) * 10 + 4);
    return acc.get(ctx);
  });
}

constexpr long kChainOracle = 12534;

class SchedulingMatrix : public ::testing::TestWithParam<SchedulingMode> {};

TEST_P(SchedulingMatrix, OrderingSemanticsHold) {
  Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = GetParam();
  Runtime rt(cfg);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(chain_result(rt), kChainOracle);
  // Every submit counts, however it was scheduled: 3 per transaction.
  EXPECT_EQ(rt.stats().futures_submitted.load(), 30u);
}

TEST_P(SchedulingMatrix, ExceptionPropagationIdentical) {
  Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = GetParam();
  Runtime rt(cfg);
  VBox<long> x(0);
  try {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit([&](TxCtx& c) {
        x.put(c, 99);
        throw std::runtime_error("future body failed");
        return 0;  // unreachable
      });
      return f.get(ctx);
    });
    FAIL() << "exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "future body failed");
  }
  // The aborted transaction left no trace.
  EXPECT_EQ(x.peek_committed(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SchedulingMatrix,
    ::testing::Values(SchedulingMode::kAlwaysParallel,
                      SchedulingMode::kAlwaysInline,
                      SchedulingMode::kAlwaysOrdered,
                      SchedulingMode::kAdaptive));

TEST(AdaptiveElision, InlineModeStillSerializesCrossTreeConflicts) {
  // Elision changes scheduling, not isolation: concurrent top-level
  // transactions with all-inline futures still serialize their increments.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = SchedulingMode::kAlwaysInline;
  Runtime rt(cfg);
  VBox<long> counter(0);
  constexpr int kPerThread = 100;
  auto worker = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      atomically(rt, [&](TxCtx& ctx) {
        auto f = ctx.submit([&](TxCtx& c) { return counter.get(c) + 1; });
        counter.put(ctx, f.get(ctx));
      });
    }
  };
  std::thread t1(worker), t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(counter.peek_committed(), 2L * kPerThread);
}

TEST(AdaptiveElision, OrderedModeStillSerializesCrossTreeConflicts) {
  // The ordered lane changes scheduling, not isolation: a real split whose
  // body runs synchronously still conflicts (and serializes) against
  // concurrent top-level trees exactly like the parallel lane.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = SchedulingMode::kAlwaysOrdered;
  Runtime rt(cfg);
  VBox<long> counter(0);
  constexpr int kPerThread = 100;
  auto worker = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      atomically(rt, [&](TxCtx& ctx) {
        auto f = ctx.submit([&](TxCtx& c) { return counter.get(c) + 1; });
        counter.put(ctx, f.get(ctx));
      });
    }
  };
  std::thread t1(worker), t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(counter.peek_committed(), 2L * kPerThread);
}

// ---------------------------------------------------------------------------
// End-to-end adaptation
// ---------------------------------------------------------------------------

TEST(AdaptiveElision, UnprofitableSiteDemotesAndStaysCorrect) {
  Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = SchedulingMode::kAdaptive;
  // Profitability bar far above anything a trivial body can reach, so
  // demotion is deterministic regardless of machine speed.
  cfg.adaptive_inline_threshold_ns = 100'000'000;
  Runtime rt(cfg);
  VBox<long> sum(0);
  static const char site_tag = 0;
  constexpr int kIter = 100;
  for (int i = 0; i < kIter; ++i) {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit_at(&site_tag,
                             [&](TxCtx& c) { return sum.get(c) + 1; });
      sum.put(ctx, f.get(ctx));
    });
  }
  EXPECT_EQ(sum.peek_committed(), kIter);
  SiteStats* site = rt.adaptive().site_for(&site_tag);
  ASSERT_NE(site, nullptr);
  EXPECT_NE(site->site_state(), SiteState::kParallel);
  EXPECT_GT(site->inline_runs.load(), 0u);
  EXPECT_GT(site->parallel_runs.load(), 0u);  // the pre-demotion samples
  EXPECT_EQ(site->submits.load(), static_cast<std::uint64_t>(kIter));
}

TEST(AdaptiveElision, ChaosDecisionFlipsAreHarmless) {
  // Strong ordering makes every decision sequence semantically valid; a
  // chaos schedule that flips every other verdict (parallel and ordered ->
  // inline, inline -> parallel) must be undetectable in results —
  // whichever mode the flip perturbs.
  for (const SchedulingMode mode :
       {SchedulingMode::kAdaptive, SchedulingMode::kAlwaysOrdered}) {
    Config cfg;
    cfg.pool_threads = 2;
    cfg.scheduling = mode;
    cfg.chaos.add("core.adaptive.decide", fp::Action::kFail, 2);
    Runtime rt(cfg);
    for (int i = 0; i < 25; ++i) EXPECT_EQ(chain_result(rt), kChainOracle);
    fp::FailPoint* site =
        fp::Controller::instance().find("core.adaptive.decide");
    ASSERT_NE(site, nullptr);
    EXPECT_GT(site->fires(), 0u);
  }
}

TEST(AdaptiveElision, ContendedSiteDemotesEndToEnd) {
  // End-to-end version of the fig5b regression: two threads hammer
  // transactions whose sibling futures read-modify-write the same boxes
  // through one submit site. The site's parallel runs keep dying to
  // conflicts, so the conflict EWMA must demote it (kOrdered or beyond)
  // even though the controller's profitability bar is set to zero — i.e.
  // every body "looks profitable" and the score alone would never demote.
  Config cfg;
  cfg.pool_threads = 4;
  cfg.scheduling = SchedulingMode::kAdaptive;
  cfg.adaptive_inline_threshold_ns = 0;  // profitability signal: all +1
  cfg.adaptive_min_samples = 4;
  Runtime rt(cfg);
  VBox<long> hot_a(0);
  VBox<long> hot_b(0);
  static const char site_tag = 0;
  constexpr int kPerThread = 150;
  auto worker = [&] {
    for (int i = 0; i < kPerThread; ++i) {
      atomically(rt, [&](TxCtx& ctx) {
        auto f = ctx.submit_at(&site_tag, [&](TxCtx& c) {
          hot_a.put(c, hot_a.get(c) + 1);
          return 0;
        });
        // The continuation races the sibling on the same hot boxes.
        hot_b.put(ctx, hot_a.get(ctx) + hot_b.get(ctx));
        f.get(ctx);
      });
    }
  };
  std::thread t1(worker), t2(worker);
  t1.join();
  t2.join();
  EXPECT_EQ(hot_a.peek_committed(), 2L * kPerThread);
  SiteStats* site = rt.adaptive().site_for(&site_tag);
  ASSERT_NE(site, nullptr);
  // The site must have left pure-parallel on the conflict signal. (It may
  // sit in kOrdered, or have hardened further, or be mid-recovery in
  // kProbation — what it must NOT be is "still kParallel with a pinned
  // profitable score", the fig5b failure mode.)
  EXPECT_GT(site->conflict_rate_x1024(), 0u);
  EXPECT_GT(site->abort_total.load(), 0u);
}

}  // namespace
