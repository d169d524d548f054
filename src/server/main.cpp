// txf_server: the long-lived service harness driver.
//
// Examples:
//   txf_server --duration 10 --rate 3000                       # steady load
//   txf_server --duration 20 --rate 2000 --spike-factor 4
//              --spike-start 5 --spike-end 12                  # load spike
//   txf_server --duration 30 --chaos --status-interval 2       # chaos soak
//   txf_server --no-shed ...   # ablation: admission gate wide open
//
// Prints a one-line JSON report to stdout (always); --quiet-status turns
// off the periodic stderr status lines. Exit code 0 iff the run passed —
// no watchdog stall and all end-of-soak invariants held.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "server/server.hpp"

namespace {

double parse_double(const char* v, const char* flag) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "txf_server: bad value '%s' for %s\n", v, flag);
    std::exit(2);
  }
  return d;
}

std::uint64_t parse_u64(const char* v, const char* flag) {
  char* end = nullptr;
  const unsigned long long u = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "txf_server: bad value '%s' for %s\n", v, flag);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(u);
}

void usage() {
  std::fputs(
      "usage: txf_server [options]\n"
      "  --duration S         run length in seconds (default 5)\n"
      "  --rate HZ            base offered load (default 3000)\n"
      "  --spike-factor X     rate multiplier inside the spike window\n"
      "  --spike-start S      spike window start (seconds from run start)\n"
      "  --spike-end S        spike window end\n"
      "  --keyspace N         number of preloaded keys (default 16384)\n"
      "  --theta T            Zipf skew (default 0.9)\n"
      "  --mix R,W,M,X[,S]    class mix percent read,write,rmw,multi\n"
      "                       (optional 5th: range scans; sum 100)\n"
      "  --scan-span N        mean scan width in keys (default 256)\n"
      "  --op-span N          keys touched per point request (default 1)\n"
      "  --multi-span N       keys per multi-key transaction (default 4)\n"
      "  --workers N          executor threads (default 2)\n"
      "  --pool-threads N     runtime future pool threads (default 2)\n"
      "  --stripes N          commit-spine stripes, power of two (default 8)\n"
      "  --slo-ms MS          p99 SLO in milliseconds (default 100)\n"
      "  --no-shed            disable admission control (ablation)\n"
      "  --max-backlog N      dispatch-queue door cap (default 8192)\n"
      "  --chaos              arm the soak chaos plan\n"
      "  --chaos-seed N       chaos determinism seed (default 42)\n"
      "  --seed N             load-generator seed\n"
      "  --deadline-us N      per-transaction deadline (default 100000)\n"
      "  --watchdog-ms N      stall threshold (default 3000)\n"
      "  --status-interval S  status line period (0 = off, default 1)\n"
      "  --quiet-status       alias for --status-interval 0\n"
      "  --timeline           enable the periodic metrics timeline + drift\n"
      "                       detectors (see docs/OBSERVABILITY.md)\n"
      "  --timeline-interval-ms N  timeline sample period (default 250)\n"
      "  --timeline-capacity N     frames retained in the ring (default 480)\n"
      "  --drift-window N     frames per drift-detector window (default 16)\n"
      "  --drift-churn X      site-churn bar, transitions/s (default 50)\n"
      "  --drift-conflict-share X  conflict share bar in [0,1] (default 0.25)\n"
      "  --drift-ebr-slope X  EBR backlog growth bar, nodes/s (default 4000)\n"
      "  --drift-stripe-skew X     hottest/mean stripe bar (default 4)\n"
      "  --drift-home-drop X  home-slot hit-rate drop bar (default 0.2)\n"
      "  --flight-dir DIR     write flight-recorder bundles under DIR\n"
      "  --flight-dump        also dump one bundle at end of a passing run\n"
      "  --slo-breach-windows N    consecutive overloaded ticks before a\n"
      "                       flight dump (0 = off, default 20)\n"
      "  --fail-invariant     inject a deterministic end-of-soak invariant\n"
      "                       failure (tests the failure -> bundle path)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  txf::server::ServerConfig cfg;
  cfg.load.keyspace = 16384;
  cfg.tx_deadline_us = 100000;  // bounded retry by default: degrade, not hang

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "txf_server: %s needs a value\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--duration") == 0) {
      cfg.duration_s = parse_double(next(), a);
    } else if (std::strcmp(a, "--rate") == 0) {
      cfg.load.rate_hz = parse_double(next(), a);
    } else if (std::strcmp(a, "--spike-factor") == 0) {
      cfg.load.spike_factor = parse_double(next(), a);
    } else if (std::strcmp(a, "--spike-start") == 0) {
      cfg.load.spike_start_s = parse_double(next(), a);
    } else if (std::strcmp(a, "--spike-end") == 0) {
      cfg.load.spike_end_s = parse_double(next(), a);
    } else if (std::strcmp(a, "--keyspace") == 0) {
      cfg.load.keyspace = parse_u64(next(), a);
    } else if (std::strcmp(a, "--theta") == 0) {
      cfg.load.zipf_theta = parse_double(next(), a);
    } else if (std::strcmp(a, "--mix") == 0) {
      unsigned r, w, m, x, s = 0;
      const int got = std::sscanf(next(), "%u,%u,%u,%u,%u", &r, &w, &m, &x, &s);
      if ((got != 4 && got != 5) || r + w + m + x + s != 100) {
        std::fprintf(stderr,
                     "txf_server: --mix wants R,W,M,X[,S] summing 100\n");
        return 2;
      }
      cfg.load.mix_read = r;
      cfg.load.mix_write = w;
      cfg.load.mix_rmw = m;
      cfg.load.mix_multi = x;
      cfg.load.mix_scan = s;
    } else if (std::strcmp(a, "--scan-span") == 0) {
      cfg.load.scan_span = parse_u64(next(), a);
    } else if (std::strcmp(a, "--op-span") == 0) {
      cfg.op_span = static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--multi-span") == 0) {
      cfg.multi_span = static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--workers") == 0) {
      cfg.workers = static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--pool-threads") == 0) {
      cfg.pool_threads = static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--stripes") == 0) {
      cfg.commit_stripes = static_cast<unsigned>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--slo-ms") == 0) {
      cfg.admission.slo_p99_ns = parse_u64(next(), a) * 1'000'000ULL;
    } else if (std::strcmp(a, "--no-shed") == 0) {
      cfg.admission.enabled = false;
    } else if (std::strcmp(a, "--max-backlog") == 0) {
      cfg.max_backlog = parse_u64(next(), a);
    } else if (std::strcmp(a, "--chaos") == 0) {
      cfg.chaos = true;
    } else if (std::strcmp(a, "--chaos-seed") == 0) {
      cfg.chaos_seed = parse_u64(next(), a);
    } else if (std::strcmp(a, "--seed") == 0) {
      cfg.load.seed = parse_u64(next(), a);
    } else if (std::strcmp(a, "--deadline-us") == 0) {
      cfg.tx_deadline_us = parse_u64(next(), a);
    } else if (std::strcmp(a, "--watchdog-ms") == 0) {
      cfg.watchdog_stall_ms = parse_u64(next(), a);
    } else if (std::strcmp(a, "--status-interval") == 0) {
      cfg.status_interval_s = parse_double(next(), a);
    } else if (std::strcmp(a, "--quiet-status") == 0) {
      cfg.status_interval_s = 0.0;
    } else if (std::strcmp(a, "--timeline") == 0) {
      cfg.timeline.enabled = true;
    } else if (std::strcmp(a, "--timeline-interval-ms") == 0) {
      cfg.timeline.interval_ms =
          static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--timeline-capacity") == 0) {
      cfg.timeline.capacity = static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--drift-window") == 0) {
      cfg.drift.window_frames =
          static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--drift-churn") == 0) {
      cfg.drift.churn_per_s = parse_double(next(), a);
    } else if (std::strcmp(a, "--drift-conflict-share") == 0) {
      cfg.drift.conflict_share = parse_double(next(), a);
    } else if (std::strcmp(a, "--drift-ebr-slope") == 0) {
      cfg.drift.ebr_slope_per_s = parse_double(next(), a);
    } else if (std::strcmp(a, "--drift-stripe-skew") == 0) {
      cfg.drift.stripe_skew = parse_double(next(), a);
    } else if (std::strcmp(a, "--drift-home-drop") == 0) {
      cfg.drift.home_hit_drop = parse_double(next(), a);
    } else if (std::strcmp(a, "--flight-dir") == 0) {
      cfg.flight_dir = next();
    } else if (std::strcmp(a, "--flight-dump") == 0) {
      cfg.flight_dump_at_end = true;
    } else if (std::strcmp(a, "--slo-breach-windows") == 0) {
      cfg.slo_breach_windows =
          static_cast<std::uint32_t>(parse_u64(next(), a));
    } else if (std::strcmp(a, "--fail-invariant") == 0) {
      cfg.inject_invariant_failure = true;
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "txf_server: unknown option %s\n", a);
      usage();
      return 2;
    }
  }

  txf::server::Server server(cfg);
  txf::server::Report rep;
  try {
    rep = server.run();
  } catch (const std::invalid_argument& e) {
    // e.g. --stripes 3: Runtime validates Config::commit_stripes.
    std::fprintf(stderr, "txf_server: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", rep.to_json().c_str());
  if (!rep.ok) {
    std::fprintf(stderr, "txf_server: FAILED: %s\n", rep.failure.c_str());
    return 1;
  }
  return 0;
}
