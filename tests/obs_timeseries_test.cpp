// MetricsTimeline ring + delta math, the drift detectors under injected
// drift (and their silence on steady workloads), and the flight recorder's
// bundle layout. Everything here drives sample_now() by hand — the sampler
// thread is covered by the server harness test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/drift.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace obs = txf::obs;
namespace fs = std::filesystem;

namespace {

obs::TimelineConfig tl_config(std::uint32_t capacity) {
  obs::TimelineConfig cfg;
  cfg.enabled = true;
  cfg.interval_ms = 1000;  // irrelevant: tests call sample_now() directly
  cfg.capacity = capacity;
  return cfg;
}

}  // namespace

TEST(Timeline, RingWrapKeepsNewestAndSeqStaysGapFree) {
  obs::MetricsTimeline tl(tl_config(4));
  for (int i = 0; i < 10; ++i) tl.sample_now();

  EXPECT_EQ(tl.frame_count(), 4u);
  EXPECT_EQ(tl.total_frames(), 10u);
  EXPECT_EQ(tl.dropped(), 6u);

  const std::vector<obs::TimelineFrame> w = tl.last(4);
  ASSERT_EQ(w.size(), 4u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(w[i].seq, 6u + i);  // newest 4 of seqs 0..9, oldest first
    if (i != 0) {
      EXPECT_GT(w[i].t_ns, 0u);
    }
  }
  const std::vector<obs::TimelineFrame> w2 = tl.last(2);
  ASSERT_EQ(w2.size(), 2u);
  EXPECT_EQ(w2[0].seq, 8u);
  EXPECT_EQ(w2[1].seq, 9u);
}

TEST(Timeline, CounterDeltasMatchHandComputedIncrements) {
  obs::Counter c;
  obs::Registration reg;
  reg.counter("test.timeline.counter", c);

  obs::MetricsTimeline tl(tl_config(16));
  c.add(5);
  tl.sample_now();  // first observation: baseline, delta must read 0
  c.add(7);
  tl.sample_now();
  tl.sample_now();  // no increments: delta 0
  c.add(2);
  tl.sample_now();

  const int idx = tl.series_index("test.timeline.counter");
  ASSERT_GE(idx, 0);
  const std::vector<obs::TimelineFrame> w = tl.last(4);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[0], idx), 0.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], idx), 7.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[2], idx), 0.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[3], idx), 2.0);
}

TEST(Timeline, GaugeLevelsAndHistogramCuts) {
  obs::Gauge g;
  obs::Histogram h;
  obs::Registration reg;
  reg.gauge("test.timeline.gauge", g).histogram("test.timeline.hist", h);

  obs::MetricsTimeline tl(tl_config(16));
  g.add(3);
  for (int i = 0; i < 100; ++i) h.record(8);
  tl.sample_now();
  g.add(-5);
  // 3 outliers in 103 samples: past the 1% tail, so the p99 cut must leave
  // the 8-bucket and land on the outlier bucket's upper bound.
  for (int i = 0; i < 3; ++i) h.record(1u << 20);
  tl.sample_now();

  const std::vector<obs::TimelineFrame> w = tl.last(2);
  ASSERT_EQ(w.size(), 2u);
  const int gi = tl.series_index("test.timeline.gauge");
  const int ci = tl.series_index("test.timeline.hist.count");
  const int p50i = tl.series_index("test.timeline.hist.p50");
  const int p99i = tl.series_index("test.timeline.hist.p99");
  ASSERT_GE(gi, 0);
  ASSERT_GE(ci, 0);
  // Gauges are levels (the value itself), histograms expand to a count
  // delta plus cumulative percentile cuts.
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[0], gi), 3.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], gi), -2.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[0], ci), 0.0);  // baseline
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], ci), 3.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], p50i), 8.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], p99i),
                   static_cast<double>(1u << 20));
}

TEST(Timeline, ProvidersSampleAsDeltaOrLevel) {
  obs::MetricsTimeline tl(tl_config(16));
  double cumulative = 100.0, level = 7.0;
  tl.add_provider("test.provider.delta", obs::SeriesKind::kDelta,
                  [&] { return cumulative; });
  tl.add_provider("test.provider.level", obs::SeriesKind::kLevel,
                  [&] { return level; });
  tl.sample_now();
  cumulative += 25.0;
  level = 9.0;
  tl.sample_now();

  const std::vector<obs::TimelineFrame> w = tl.last(2);
  const int di = tl.series_index("test.provider.delta");
  const int li = tl.series_index("test.provider.level");
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[0], di), 0.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], di), 25.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[0], li), 7.0);
  EXPECT_DOUBLE_EQ(obs::MetricsTimeline::value(w[1], li), 9.0);
}

TEST(Timeline, JsonShapeIsCoherent) {
  obs::Counter c;
  obs::Registration reg;
  reg.counter("test.timeline.json", c);
  obs::MetricsTimeline tl(tl_config(8));
  for (int i = 0; i < 3; ++i) {
    c.add(static_cast<std::uint64_t>(i));
    tl.sample_now();
  }
  const std::string json = tl.timeline_json();
  EXPECT_NE(json.find("\"interval_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"frames\""), std::string::npos);
  EXPECT_NE(json.find("test.timeline.json"), std::string::npos);
  // One kind tag per series, one seq per frame.
  EXPECT_EQ(tl.series_names().size(),
            static_cast<std::size_t>(tl.series_index(
                tl.series_names().back())) + 1);
}

// ---- drift detectors --------------------------------------------------

namespace {

/// A synthetic engine: test-owned counters registered under the real series
/// names the detectors read (this file is not scanned by check_docs.py, and
/// no real engine runs in this binary, so the names are exclusively ours).
struct SyntheticEngine {
  obs::Counter promotions, demotions;
  obs::Counter rv_aborts, ww_aborts, order_aborts, commits;
  obs::Counter home_hits, list_walks;
  obs::Registration reg;
  double ebr_pending = 0.0;
  double stripe0 = 0.0, stripe1 = 0.0;

  SyntheticEngine() {
    reg.counter("core.adaptive.promotions", promotions)
        .counter("core.adaptive.demotions", demotions)
        .counter("tx.abort.cause.read_validation", rv_aborts)
        .counter("tx.abort.cause.write_write", ww_aborts)
        .counter("tx.abort.cause.tree_order", order_aborts)
        .counter("tx.commits", commits)
        .counter("stm.read.home_hits", home_hits)
        .counter("stm.read.list_walks", list_walks);
  }

  void attach(obs::MetricsTimeline& tl) {
    tl.add_provider("ebr.pending", obs::SeriesKind::kLevel,
                    [this] { return ebr_pending; });
    tl.add_provider("stm.commit.stripe.0.committed", obs::SeriesKind::kDelta,
                    [this] { return stripe0; });
    tl.add_provider("stm.commit.stripe.1.committed", obs::SeriesKind::kDelta,
                    [this] { return stripe1; });
  }
};

obs::DriftConfig drift_config() {
  obs::DriftConfig cfg;
  cfg.window_frames = 4;
  return cfg;
}

const obs::DriftVerdict& verdict_of(const std::vector<obs::DriftVerdict>& vs,
                                    obs::DriftKind kind) {
  return vs[static_cast<std::size_t>(kind)];
}

}  // namespace

TEST(Drift, SilentOnSteadyWorkload) {
  SyntheticEngine eng;
  obs::MetricsTimeline tl(tl_config(16));
  eng.attach(tl);
  obs::DriftMonitor mon(drift_config(), tl);

  // Healthy steady state: plenty of commits, few conflicts, stable EBR,
  // balanced stripes, high home-hit rate — every tick, for many windows.
  for (int i = 0; i < 12; ++i) {
    eng.commits.add(500);
    eng.rv_aborts.add(3);
    eng.home_hits.add(900);
    eng.list_walks.add(40);
    eng.ebr_pending = 128.0;
    eng.stripe0 += 240.0;
    eng.stripe1 += 260.0;
    tl.sample_now();
    const std::vector<obs::DriftVerdict> vs = mon.evaluate();
    for (const obs::DriftVerdict& v : vs)
      EXPECT_FALSE(v.fired) << obs::drift_kind_name(v.kind) << ": "
                            << v.detail;
  }
  EXPECT_EQ(mon.triggers(), 0u);
  EXPECT_EQ(mon.evaluations(), 12u);
  EXPECT_TRUE(mon.fired_names().empty());
  // Volume was high enough that silence means "measured healthy", not
  // "not enough data".
  const std::vector<obs::DriftVerdict> last = mon.evaluate();
  EXPECT_TRUE(
      verdict_of(last, obs::DriftKind::kConflictTrend).enough_data);
  EXPECT_TRUE(verdict_of(last, obs::DriftKind::kHomeHitRate).enough_data);
  EXPECT_TRUE(verdict_of(last, obs::DriftKind::kStripeSkew).enough_data);
}

TEST(Drift, ConflictShareTriggersOnceAndRearmsAfterQuiet) {
  SyntheticEngine eng;
  obs::MetricsTimeline tl(tl_config(16));
  eng.attach(tl);
  obs::DriftMonitor mon(drift_config(), tl);

  auto run_window = [&](std::uint64_t commits, std::uint64_t conflicts,
                        int ticks) {
    for (int i = 0; i < ticks; ++i) {
      eng.commits.add(commits);
      eng.rv_aborts.add(conflicts / 2);
      eng.ww_aborts.add(conflicts - conflicts / 2);
      tl.sample_now();
      mon.evaluate();
    }
  };

  run_window(/*commits=*/400, /*conflicts=*/4, /*ticks=*/6);  // healthy
  EXPECT_EQ(mon.triggers(), 0u);

  // Conflict storm: 50% of attempts are chargeable conflicts, well past
  // the 0.25 default bar — and the trigger stays edge-counted while the
  // storm persists.
  run_window(/*commits=*/200, /*conflicts=*/200, /*ticks=*/6);
  const std::vector<obs::DriftVerdict> during = mon.evaluate();
  EXPECT_TRUE(verdict_of(during, obs::DriftKind::kConflictTrend).fired);
  EXPECT_EQ(mon.triggers(), 1u);
  EXPECT_EQ(mon.fired_names(), std::vector<std::string>{"conflict_trend"});

  run_window(/*commits=*/400, /*conflicts=*/4, /*ticks=*/6);  // recovers
  EXPECT_TRUE(mon.fired_names().empty());
  run_window(/*commits=*/200, /*conflicts=*/200, /*ticks=*/6);  // again
  EXPECT_EQ(mon.triggers(), 2u);
  EXPECT_EQ(mon.fired_ever_names(),
            std::vector<std::string>{"conflict_trend"});
}

TEST(Drift, EachDetectorFiresOnItsInjectedSignal) {
  SyntheticEngine eng;
  obs::MetricsTimeline tl(tl_config(32));
  eng.attach(tl);
  obs::DriftConfig cfg = drift_config();
  cfg.churn_per_s = 1.0;  // hand-driven sampling is fast; any churn trips it
  // hottest/mean tops out at the stripe count; with 2 synthetic stripes the
  // default bar of 4 (sized for 8 stripes) is unreachable.
  cfg.stripe_skew = 1.5;
  obs::DriftMonitor mon(cfg, tl);

  for (int i = 0; i < 8; ++i) {
    // site churn: the adaptive controller thrashing between lanes
    eng.promotions.add(50);
    eng.demotions.add(50);
    // EBR backlog: pending retirements growing monotonically
    eng.ebr_pending += 100000.0;
    // stripe skew: one stripe takes ~16x the traffic of the other
    eng.stripe0 += 640.0;
    eng.stripe1 += 40.0;
    // home-hit regression: hit rate decays as the window advances
    eng.home_hits.add(i < 4 ? 950 : 200);
    eng.list_walks.add(i < 4 ? 50 : 800);
    tl.sample_now();
    mon.evaluate();
  }
  const std::vector<obs::DriftVerdict> vs = mon.evaluate();
  EXPECT_TRUE(verdict_of(vs, obs::DriftKind::kSiteChurn).fired)
      << verdict_of(vs, obs::DriftKind::kSiteChurn).detail;
  EXPECT_TRUE(verdict_of(vs, obs::DriftKind::kEbrBacklog).fired)
      << verdict_of(vs, obs::DriftKind::kEbrBacklog).detail;
  EXPECT_TRUE(verdict_of(vs, obs::DriftKind::kStripeSkew).fired)
      << verdict_of(vs, obs::DriftKind::kStripeSkew).detail;
  EXPECT_GE(mon.triggers(), 4u);  // home_hit_rate fired somewhere mid-run

  const std::string json = mon.verdicts_json();
  EXPECT_NE(json.find("\"site_churn\""), std::string::npos);
  EXPECT_NE(json.find("\"fired_history\""), std::string::npos);
}

TEST(Drift, InsufficientWindowReportsNotEnoughData) {
  SyntheticEngine eng;
  obs::MetricsTimeline tl(tl_config(16));
  eng.attach(tl);
  obs::DriftMonitor mon(drift_config(), tl);
  tl.sample_now();  // one frame < window_frames=4
  const std::vector<obs::DriftVerdict> vs = mon.evaluate();
  for (const obs::DriftVerdict& v : vs) {
    EXPECT_FALSE(v.fired);
    EXPECT_FALSE(v.enough_data);
  }
}

// ---- flight recorder --------------------------------------------------

TEST(FlightRecorder, DisabledRecorderWritesNothing) {
  obs::FlightRecorder flight("");
  EXPECT_FALSE(flight.enabled());
  flight.note_status_line("ignored");
  EXPECT_EQ(flight.dump("reason", nullptr, nullptr, ""), "");
  EXPECT_EQ(flight.dumps(), 0u);
  EXPECT_TRUE(flight.bundle_paths().empty());
}

TEST(FlightRecorder, ExplicitDumpWritesSelfContainedBundle) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("txf_flight_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  SyntheticEngine eng;
  obs::MetricsTimeline tl(tl_config(16));
  eng.attach(tl);
  obs::DriftMonitor mon(drift_config(), tl);
  for (int i = 0; i < 5; ++i) {
    eng.commits.add(100);
    tl.sample_now();
    mon.evaluate();
  }

  obs::FlightRecorder flight(dir.string());
  for (int i = 0; i < 70; ++i)
    flight.note_status_line("status line " + std::to_string(i));

  const std::string bundle =
      flight.dump("Unit Test: explicit request!", &tl, &mon,
                  "{\"unit\": true}\n");
  ASSERT_FALSE(bundle.empty());
  EXPECT_EQ(flight.dumps(), 1u);
  EXPECT_EQ(flight.bundle_paths().size(), 1u);
  // Reason slug is sanitized into the directory name.
  EXPECT_NE(bundle.find("flight-0-unit-test-explicit-request"),
            std::string::npos);

  for (const char* name :
       {"manifest.json", "metrics.json", "trace.json", "timeline.json",
        "verdicts.json", "config.json", "status_tail.txt"}) {
    EXPECT_TRUE(fs::is_regular_file(fs::path(bundle) / name)) << name;
  }
  // The status tail is a ring: line 0..5 rolled off, the last line stayed.
  std::ifstream tail(fs::path(bundle) / "status_tail.txt");
  std::string body((std::istreambuf_iterator<char>(tail)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(body.find("status line 0\n"), std::string::npos);
  EXPECT_NE(body.find("status line 69"), std::string::npos);

  // Second dump gets the next sequence number.
  const std::string second = flight.dump("again", &tl, &mon, "");
  EXPECT_NE(second.find("flight-1-again"), std::string::npos);

  fs::remove_all(dir);
}
