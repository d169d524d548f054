// Range-scan bench for the transactional B+-tree (containers/tx_btree.hpp).
//
// Phase A — scan sweep: scans/s over a width x threads x scheduling-mode
// grid. Workers scan random windows of the keyspace; every Nth operation is
// a clustered batch of read-modify-write puts instead, so scans race real
// writers and the per-run abort-cause breakdown (env abort accounting) is
// populated. Each grid point runs on a fresh Runtime, so counters are
// per-run without global-registry deltas. The interesting comparisons:
//   * parallel vs inline at the same (width, threads): the cost/benefit of
//     future-per-root-child subtree scans;
//   * adaptive vs the best fixed mode: the per-site controller should land
//     within a few percent of whichever fixed policy wins at that point.
// With --rounds N each cell runs its modes N times, interleaved (inline,
// parallel, adaptive, inline, ...), so a comparison can pair windows that
// ran back to back instead of trusting one window per mode.
//
// Phase B — leaf-buffering footprint ablation: identical clustered
// batch-put traffic against the TxBTree (leaf-centric write buffering: a
// batch coalesces into a handful of leaf boxes) and a TxMap (one key/value
// box pair per key), comparing the commit-spine stripe footprint — the
// multi-stripe commit share and the mean footprint width in stripes. This
// is the measurable form of the §5g single-stripe-footprint argument.
//
// Flags: --widths a,b,c --threads a,b,c --ms N --rounds N --keys N
//        --put-every N --batch N --stripes N --json FILE
#include <atomic>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "containers/tx_btree.hpp"
#include "containers/tx_map.hpp"
#include "core/api.hpp"
#include "obs/metrics.hpp"
#include "util/timing.hpp"
#include "util/xoshiro.hpp"

using txf::containers::TxBTree;
using txf::containers::TxMap;
using txf::util::Xoshiro256;

namespace {

const char* mode_name(txf::core::SchedulingMode m) {
  switch (m) {
    case txf::core::SchedulingMode::kAlwaysParallel: return "parallel";
    case txf::core::SchedulingMode::kAlwaysInline: return "inline";
    case txf::core::SchedulingMode::kAlwaysOrdered: return "ordered";
    case txf::core::SchedulingMode::kAdaptive: return "adaptive";
  }
  return "?";
}

struct CauseCount {
  const char* name;
  std::uint64_t n;
};

struct ScanRow {
  std::uint64_t width;
  unsigned threads;
  const char* mode;
  unsigned round = 0;
  double scans_per_s = 0;
  double keys_per_s = 0;
  std::uint64_t commits = 0;
  std::uint64_t attempt_aborts = 0;
  std::vector<CauseCount> causes{};  // nonzero causes only
};

struct FootprintRow {
  const char* container;
  std::uint64_t commits = 0;
  std::uint64_t multi_commits = 0;
  double multi_share = 0;
  double mean_width = 0;  // stripes per commit, single-stripe commits = 1
};

/// (count, sum) of a registry histogram right now; rows take deltas.
std::pair<std::uint64_t, std::uint64_t> histogram_now(const char* name) {
  for (const auto& m : txf::obs::MetricsRegistry::instance().snapshot_values())
    if (m.name == name) return {static_cast<std::uint64_t>(m.value), m.sum};
  return {0, 0};
}

void preload(txf::core::Runtime& rt, TxBTree& tree, std::uint64_t keys) {
  for (std::uint64_t base = 0; base < keys; base += 1024) {
    txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
      const std::uint64_t end = std::min(base + 1024, keys);
      for (std::uint64_t k = base; k < end; ++k) tree.put(ctx, k, k + 1);
      return 0;
    });
  }
}

ScanRow run_scan(std::uint64_t width, unsigned threads,
                 txf::core::SchedulingMode mode, int ms, std::uint64_t keys,
                 unsigned put_every, unsigned batch, unsigned stripes) {
  txf::core::Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = mode;
  cfg.commit_stripes = stripes;
  txf::core::Runtime rt(cfg);
  TxBTree tree;
  preload(rt, tree, keys);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> scanned{0};
  std::vector<std::thread> workers;
  const auto t0 = txf::util::now_ns();
  for (unsigned w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Xoshiro256 rng(1234 + w);
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (put_every != 0 && ++ops % put_every == 0) {
          // Clustered writer batch: RMW `batch` consecutive keys so scans
          // crossing the cluster see a consistent increment or abort.
          const std::uint64_t base = rng.next_bounded(keys - batch);
          txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
            for (std::uint64_t k = base; k < base + batch; ++k) {
              std::uint64_t v = 0;
              tree.get(ctx, k, v);
              tree.put(ctx, k, v + 1);
            }
            return 0;
          });
          continue;
        }
        const std::uint64_t lo = rng.next_bounded(keys - width);
        const std::size_t n = txf::core::atomically(
            rt, [&](txf::core::TxCtx& ctx) {
              std::uint64_t sum = 0;
              return tree.scan(
                  ctx, lo, lo + width,
                  [&](std::uint64_t, std::uint64_t v) { sum += v; },
                  TXF_SUBMIT_SITE);
            });
        scans.fetch_add(1, std::memory_order_relaxed);
        scanned.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const double secs = static_cast<double>(txf::util::now_ns() - t0) * 1e-9;

  ScanRow row{width, threads, mode_name(mode)};
  row.scans_per_s = static_cast<double>(scans.load()) / secs;
  row.keys_per_s = static_cast<double>(scanned.load()) / secs;
  const auto& acc = rt.env().abort_accounting();
  row.commits = acc.tx_commits.value();
  row.attempt_aborts = acc.attempt_aborts.value();
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(txf::obs::AbortCause::kCount); ++i) {
    const auto c = static_cast<txf::obs::AbortCause>(i);
    if (const std::uint64_t n = acc.of(c).value(); n != 0)
      row.causes.push_back({txf::obs::abort_cause_name(c), n});
  }
  return row;
}

std::vector<std::uint64_t> parse_list(const char* flag, const char* v) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      std::size_t used = 0;
      const auto n = std::stoull(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      out.push_back(n);
    } catch (const std::exception&) {
      std::fprintf(stderr, "error: %s wants a comma-separated int list\n",
                   flag);
      std::exit(2);
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "error: %s is empty\n", flag);
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint64_t> widths{64, 1024, 8192};
  std::vector<std::uint64_t> threads{1, 2};
  int ms = 200;
  unsigned rounds = 1;
  std::uint64_t keys = 1u << 16;
  unsigned put_every = 8;
  unsigned batch = 64;
  unsigned stripes = 8;
  std::uint64_t footprint_txns = 2000;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(a, "--widths") == 0) {
      widths = parse_list(a, next());
    } else if (std::strcmp(a, "--threads") == 0) {
      threads = parse_list(a, next());
    } else if (std::strcmp(a, "--ms") == 0) {
      ms = std::atoi(next());
    } else if (std::strcmp(a, "--rounds") == 0) {
      rounds = static_cast<unsigned>(std::atoi(next()));
      if (rounds == 0) {
        std::fprintf(stderr, "error: --rounds wants a positive int\n");
        return 2;
      }
    } else if (std::strcmp(a, "--keys") == 0) {
      keys = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(a, "--put-every") == 0) {
      put_every = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(a, "--batch") == 0) {
      batch = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(a, "--stripes") == 0) {
      stripes = static_cast<unsigned>(std::atoi(next()));
    } else if (std::strcmp(a, "--footprint-txns") == 0) {
      footprint_txns = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(a, "--json") == 0) {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return 2;
    }
  }

  const txf::core::SchedulingMode modes[] = {
      txf::core::SchedulingMode::kAlwaysInline,
      txf::core::SchedulingMode::kAlwaysParallel,
      txf::core::SchedulingMode::kAdaptive,
  };

  std::vector<ScanRow> rows;
  for (std::uint64_t width : widths) {
    for (std::uint64_t t : threads) {
      for (unsigned round = 0; round < rounds; ++round) {
        for (auto mode : modes) {
          rows.push_back(run_scan(width, static_cast<unsigned>(t), mode, ms,
                                  keys, put_every, batch, stripes));
          ScanRow& r = rows.back();
          r.round = round;
          std::printf(
              "width=%llu threads=%u round=%u mode=%s scans/s=%.0f "
              "keys/s=%.0f commits=%llu attempt_aborts=%llu\n",
              static_cast<unsigned long long>(r.width), r.threads, r.round,
              r.mode, r.scans_per_s, r.keys_per_s,
              static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.attempt_aborts));
        }
      }
    }
  }

  // Phase B. Same clustered batches; only the container changes.
  FootprintRow tree_fp;
  {
    txf::core::Config cfg;
    cfg.pool_threads = 2;
    cfg.commit_stripes = stripes;
    txf::core::Runtime rt(cfg);
    TxBTree tree;
    preload(rt, tree, keys);
    const auto before = histogram_now("stm.shard.multi_footprint");
    const std::uint64_t base_commits =
        rt.env().abort_accounting().tx_commits.value();
    const std::uint64_t base_multi = rt.env().queue().multi_commits();
    Xoshiro256 rng(99);
    for (std::uint64_t i = 0; i < footprint_txns; ++i) {
      const std::uint64_t base = rng.next_bounded(keys - batch);
      txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
        for (std::uint64_t k = base; k < base + batch; ++k)
          tree.put(ctx, k, k ^ i);
        return 0;
      });
    }
    const auto after = histogram_now("stm.shard.multi_footprint");
    tree_fp = FootprintRow{"tx_btree"};
    tree_fp.commits =
        rt.env().abort_accounting().tx_commits.value() - base_commits;
    tree_fp.multi_commits = rt.env().queue().multi_commits() - base_multi;
    const std::uint64_t widths_sum = after.second - before.second;
    const std::uint64_t single = tree_fp.commits - tree_fp.multi_commits;
    tree_fp.multi_share =
        static_cast<double>(tree_fp.multi_commits) /
        static_cast<double>(tree_fp.commits ? tree_fp.commits : 1);
    tree_fp.mean_width =
        static_cast<double>(single + widths_sum) /
        static_cast<double>(tree_fp.commits ? tree_fp.commits : 1);
  }
  FootprintRow map_fp;
  {
    txf::core::Config cfg;
    cfg.pool_threads = 2;
    cfg.commit_stripes = stripes;
    txf::core::Runtime rt(cfg);
    TxMap map(keys * 2);
    for (std::uint64_t base = 0; base < keys; base += 1024) {
      txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
        const std::uint64_t end = std::min(base + 1024, keys);
        for (std::uint64_t k = base; k < end; ++k) map.put(ctx, k, k + 1);
        return 0;
      });
    }
    const auto before = histogram_now("stm.shard.multi_footprint");
    const std::uint64_t base_commits =
        rt.env().abort_accounting().tx_commits.value();
    const std::uint64_t base_multi = rt.env().queue().multi_commits();
    Xoshiro256 rng(99);
    for (std::uint64_t i = 0; i < footprint_txns; ++i) {
      const std::uint64_t base = rng.next_bounded(keys - batch);
      txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
        for (std::uint64_t k = base; k < base + batch; ++k)
          map.put(ctx, k, k ^ i);
        return 0;
      });
    }
    const auto after = histogram_now("stm.shard.multi_footprint");
    map_fp = FootprintRow{"tx_map"};
    map_fp.commits =
        rt.env().abort_accounting().tx_commits.value() - base_commits;
    map_fp.multi_commits = rt.env().queue().multi_commits() - base_multi;
    const std::uint64_t widths_sum = after.second - before.second;
    const std::uint64_t single = map_fp.commits - map_fp.multi_commits;
    map_fp.multi_share =
        static_cast<double>(map_fp.multi_commits) /
        static_cast<double>(map_fp.commits ? map_fp.commits : 1);
    map_fp.mean_width =
        static_cast<double>(single + widths_sum) /
        static_cast<double>(map_fp.commits ? map_fp.commits : 1);
  }

  std::printf(
      "footprint: tx_btree mean_width=%.2f multi_share=%.3f | "
      "tx_map mean_width=%.2f multi_share=%.3f\n",
      tree_fp.mean_width, tree_fp.multi_share, map_fp.mean_width,
      map_fp.multi_share);

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"bench\": \"range_scan\", \"ms\": " << ms
       << ", \"rounds\": " << rounds
       << ", \"keys\": " << keys << ", \"put_every\": " << put_every
       << ", \"batch\": " << batch << ", \"stripes\": " << stripes
       << ", \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScanRow& r = rows[i];
      if (i != 0) os << ", ";
      os << "{\"width\": " << r.width << ", \"threads\": " << r.threads
         << ", \"round\": " << r.round << ", \"mode\": \"" << r.mode
         << "\", \"scans_per_s\": "
         << r.scans_per_s << ", \"keys_per_s\": " << r.keys_per_s
         << ", \"commits\": " << r.commits
         << ", \"attempt_aborts\": " << r.attempt_aborts << ", \"causes\": {";
      for (std::size_t c = 0; c < r.causes.size(); ++c)
        os << (c != 0 ? ", " : "") << "\"" << r.causes[c].name
           << "\": " << r.causes[c].n;
      os << "}}";
    }
    os << "], \"footprint\": [";
    const FootprintRow* fps[] = {&tree_fp, &map_fp};
    for (std::size_t i = 0; i < 2; ++i) {
      const FootprintRow& f = *fps[i];
      if (i != 0) os << ", ";
      os << "{\"container\": \"" << f.container
         << "\", \"commits\": " << f.commits
         << ", \"multi_commits\": " << f.multi_commits
         << ", \"multi_share\": " << f.multi_share
         << ", \"mean_width\": " << f.mean_width << "}";
    }
    os << "]}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen");
      return 1;
    }
    std::fputs(os.str().c_str(), f);
    std::fclose(f);
  }
  return 0;
}
