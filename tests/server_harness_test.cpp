// Integration tests for the long-lived service harness (Server::run):
// steady load, chaos soak, overload shedding, the no-shed ablation, and
// the watchdog. Runs are kept to a couple of seconds each; the minutes-
// long soak lives in CI's soak-smoke job and scripts/bench_server.sh.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "server/server.hpp"

namespace {

namespace fs = std::filesystem;

using txf::server::Report;
using txf::server::RequestClass;
using txf::server::Server;
using txf::server::ServerConfig;

ServerConfig base_config() {
  ServerConfig cfg;
  cfg.load.keyspace = 4096;
  cfg.load.seed = 1234;
  cfg.status_interval_s = 0.0;  // keep test logs quiet
  cfg.tx_deadline_us = 100'000;
  return cfg;
}

std::uint64_t completed_sum(const Report& rep) {
  std::uint64_t sum = 0;
  for (const auto& c : rep.per_class) sum += c.completed;
  return sum;
}

/// The sharded gap-free identity: every stripe's clock component equals its
/// committed writers, and the component sum matches. (A multi-stripe commit
/// counts once per write stripe on both sides, so the flat
/// clock == committed_count identity holds only at stripes == 1.)
void expect_gap_free_stripes(const Report& rep) {
  ASSERT_EQ(rep.stripe_clock.size(), rep.stripe_committed.size());
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < rep.stripe_clock.size(); ++s) {
    EXPECT_EQ(rep.stripe_clock[s], rep.stripe_committed[s])
        << "stripe " << s << " out of step\n" << rep.to_json();
    sum += rep.stripe_committed[s];
  }
  EXPECT_EQ(rep.clock, sum);
  EXPECT_GE(rep.clock, rep.committed_count);
}

TEST(ServerHarness, SteadyLoadRunsCleanAndDrainsEverything) {
  ServerConfig cfg = base_config();
  cfg.duration_s = 1.5;
  cfg.load.rate_hz = 400.0;
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_TRUE(rep.ok) << rep.failure << "\n" << rep.to_json();
  EXPECT_GT(rep.completed, 100u);
  // Nothing shed at this trivial load, and the drain completed every
  // admitted request.
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.admitted, rep.completed);
  EXPECT_EQ(completed_sum(rep), rep.completed);
  EXPECT_EQ(rep.watchdog_stalls, 0u);
  EXPECT_EQ(rep.max_shed_level, 0u);
  // End-of-soak evidence is reported even on clean runs.
  expect_gap_free_stripes(rep);
  EXPECT_EQ(rep.cause_sum_minus_deadline, rep.attempt_aborts);
  EXPECT_LE(rep.max_version_list_trimmed, 2u);
}

/// Requests per second the service completes with `cfg`'s per-request work
/// when it never idles. A short run is offered far more than it can take,
/// with the admission gate off and the door cap at a handful of requests:
/// each completion lets the next arrival in, so the service runs a closed
/// loop and its completion rate is its capacity on this host, now.
double measured_capacity(ServerConfig cfg) {
  cfg.duration_s = 0.5;
  cfg.load.rate_hz = 200000.0;
  cfg.admission.enabled = false;
  cfg.max_backlog = 4;
  Server server(cfg);
  const Report rep = server.run();
  EXPECT_TRUE(rep.ok) << rep.failure;
  return static_cast<double>(rep.completed) / rep.duration_s;
}

TEST(ServerHarness, OverloadShedsAndStaysUp) {
  ServerConfig cfg = base_config();
  // Offer several times the capacity measured just before, so the rate is
  // past what this machine can serve however fast it is: the gate must
  // clamp + shed rather than let the backlog and p99 run away. On a slow
  // build (sanitizers) that can sit under the controller's rate floor, which
  // the clamp never goes below, so offer at least twice the floor.
  // backlog_high is lowered so the controller sees the overload within a
  // couple of ticks regardless of machine speed.
  cfg.op_span = 8192;
  cfg.admission.backlog_high = 64;
  const double capacity = measured_capacity(cfg);
  ASSERT_GT(capacity, 0.0);
  cfg.duration_s = 4.0;
  cfg.load.rate_hz = std::max(4.0 * capacity, 2.0 * cfg.admission.min_rate);
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_TRUE(rep.ok) << rep.failure << "\n" << rep.to_json();
  EXPECT_GT(rep.overload_ticks, 0u);
  EXPECT_GT(rep.shed, 0u);
  EXPECT_GE(rep.max_shed_level, 1u);
  EXPECT_GT(rep.completed, 0u);
  // The clamp converged on something below the offered rate.
  EXPECT_LT(rep.final_rate_limit, cfg.load.rate_hz)
      << "measured capacity " << capacity << " req/s";
  // Shedding is by priority: reads are the last class to go, so they must
  // never shed more aggressively than multi-key requests (rates are per
  // class share of the mix — compare against admitted+shed totals).
  const auto& read =
      rep.per_class[static_cast<std::size_t>(RequestClass::kRead)];
  const auto& multi =
      rep.per_class[static_cast<std::size_t>(RequestClass::kMulti)];
  const double read_shed_share =
      static_cast<double>(read.shed) /
      static_cast<double>(read.admitted + read.shed + 1);
  const double multi_shed_share =
      static_cast<double>(multi.shed) /
      static_cast<double>(multi.admitted + multi.shed + 1);
  EXPECT_LE(read_shed_share, multi_shed_share + 0.05);
}

TEST(ServerHarness, NoShedAblationNeverDropsAdmittedWork) {
  ServerConfig cfg = base_config();
  cfg.op_span = 4096;
  cfg.admission.enabled = false;
  // Twice the capacity measured just before: overloaded on any host, and
  // the backlog left at the end drains in about the run's own duration
  // however fast or slow the build is.
  const double capacity = measured_capacity(cfg);
  ASSERT_GT(capacity, 0.0);
  cfg.duration_s = 2.0;
  cfg.load.rate_hz = 2.0 * capacity;
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_TRUE(rep.ok) << rep.failure << "\n" << rep.to_json();
  // With the gate disabled the controller must stay silent: no token
  // shedding, no escalation, no backlog revocation — every admitted
  // request is eventually completed even though the SLO is toast.
  EXPECT_EQ(rep.max_shed_level, 0u);
  EXPECT_EQ(rep.overload_ticks, 0u);
  EXPECT_EQ(rep.admitted, rep.completed);
  // The only permissible shedding is the hard max_backlog door cap.
  EXPECT_EQ(rep.shed + rep.admitted, rep.offered);
}

TEST(ServerHarness, ChaosSoakFiresInjectionsAndKeepsInvariants) {
  ServerConfig cfg = base_config();
  cfg.duration_s = 2.5;
  cfg.load.rate_hz = 250.0;
  // Weight the mix toward multi-key future transactions so the subtxn
  // chaos sites (validate failures, tree aborts) actually run.
  cfg.load.mix_read = 35;
  cfg.load.mix_write = 20;
  cfg.load.mix_rmw = 15;
  cfg.load.mix_multi = 30;
  cfg.chaos = true;
  cfg.chaos_seed = 7;
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_TRUE(rep.ok) << rep.failure << "\n" << rep.to_json();
  EXPECT_GT(rep.chaos_fires, 0u);
  EXPECT_GT(rep.completed, 0u);
  // The taxonomy identity and the gap-free per-stripe clocks survived the
  // injections (run() fails the report otherwise; assert the evidence
  // anyway).
  expect_gap_free_stripes(rep);
  EXPECT_EQ(rep.cause_sum_minus_deadline, rep.attempt_aborts);
  EXPECT_LE(rep.max_version_list_trimmed, 2u);
  EXPECT_EQ(rep.watchdog_stalls, 0u);
}

TEST(ServerHarness, InjectedInvariantFailureTriggersFlightBundle) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("txf_harness_flight_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  ServerConfig cfg = base_config();
  cfg.duration_s = 1.5;
  cfg.load.rate_hz = 400.0;
  // The armed failpoint fails the end-of-soak invariant block exactly once,
  // exercising the failure -> flight-bundle path without corrupting any
  // real engine state.
  cfg.inject_invariant_failure = true;
  cfg.flight_dir = dir.string();
  cfg.timeline.enabled = true;
  cfg.timeline.interval_ms = 100;
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.failure, "injected invariant violation (failpoint)");
  // The timeline ran and the detectors evaluated (a healthy short run must
  // not fire any of them — the injected failure is not drift).
  EXPECT_GT(rep.drift_evaluations, 0u);
  EXPECT_EQ(rep.drift_triggers, 0u) << rep.to_json();
  // The bundle exists and is self-contained.
  ASSERT_EQ(rep.flight_bundles.size(), 1u);
  const fs::path bundle(rep.flight_bundles.front());
  for (const char* name :
       {"manifest.json", "metrics.json", "trace.json", "timeline.json",
        "verdicts.json", "config.json", "status_tail.txt"}) {
    EXPECT_TRUE(fs::is_regular_file(bundle / name)) << name;
  }
  fs::remove_all(dir);
}

TEST(ServerHarness, PassingRunWithDumpAtEndLeavesBaselineBundle) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("txf_harness_flight_ok_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  ServerConfig cfg = base_config();
  cfg.duration_s = 1.0;
  cfg.load.rate_hz = 300.0;
  cfg.flight_dir = dir.string();
  cfg.flight_dump_at_end = true;
  cfg.timeline.enabled = true;
  cfg.timeline.interval_ms = 100;
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_TRUE(rep.ok) << rep.failure << "\n" << rep.to_json();
  ASSERT_EQ(rep.flight_bundles.size(), 1u);
  EXPECT_NE(rep.flight_bundles.front().find("end-of-soak"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(ServerHarness, WatchdogDeclaresStallWhenNothingCompletes) {
  ServerConfig cfg = base_config();
  // No workers: admitted requests sit in the backlog forever. The watchdog
  // must notice within ~watchdog_stall_ms and fail the run rather than
  // letting the drain loop hang.
  cfg.workers = 0;
  cfg.duration_s = 30.0;  // would hang far past the test budget if missed
  cfg.load.rate_hz = 100.0;
  cfg.watchdog_stall_ms = 300;
  Server server(cfg);
  const Report rep = server.run();

  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.failure, "watchdog stall");
  EXPECT_EQ(rep.watchdog_stalls, 1u);
  EXPECT_EQ(rep.completed, 0u);
  // The stall cut the run far short of the configured duration.
  EXPECT_LT(rep.duration_s, 10.0);
}

}  // namespace
