// Commit-spine sharding sweep (stm/commit_spine.hpp): flat RMW throughput
// over a stripes x threads grid, plus the sharded-path counters.
//
// Each worker "homes" on one address-hash bucket (computed at the maximum
// stripe mask, so a bucket maps into exactly one stripe at every sweep
// point) and runs single-stripe RMW transactions inside it; a configurable
// share of transactions additionally writes the next bucket, exercising
// the synchronous multi-stripe two-phase path. stripes=1 routes everything
// through queue 0 and must reproduce the pre-sharding pipeline — the ±5%
// parity row in BENCH_commit_sharding.json is this configuration.
//
// Flags: --threads a,b,c --stripes a,b,c --ms N --vars N --multi-pct P
//        --json FILE
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stm/transaction.hpp"
#include "util/timing.hpp"
#include "util/xoshiro.hpp"

using txf::util::Xoshiro256;

namespace {

constexpr unsigned kBuckets = 8;  // max sweep point; bucket & mask = stripe
constexpr int kReadsPerTxn = 8;
constexpr int kWritesPerTxn = 2;

struct Row {
  unsigned stripes;
  std::size_t threads;
  int multi_pct;
  double tput = 0;
  double abort_rate = 0;
  std::uint64_t multi_commits = 0;
  std::uint64_t multi_aborts = 0;
  std::vector<std::uint64_t> stripe_committed{};
};

/// Boxes bucketed by their stripe at mask kBuckets-1. stripe_of() masks the
/// same shifted hash, so a bucket lands in stripe (bucket & (stripes-1)) at
/// every smaller power-of-two stripe count.
struct BucketedBoxes {
  std::deque<txf::stm::VBox<long>> pool;
  std::vector<std::vector<txf::stm::VBox<long>*>> bucket;

  explicit BucketedBoxes(std::size_t per_bucket) : bucket(kBuckets) {
    for (;;) {
      bool done = true;
      for (auto& b : bucket) done = done && b.size() >= per_bucket;
      if (done) break;
      pool.emplace_back(0L);
      bucket[txf::stm::stripe_of(&pool.back().impl(), kBuckets - 1)]
          .push_back(&pool.back());
    }
  }
};

Row run_one(unsigned stripes, std::size_t threads, int ms, std::size_t vars,
            int multi_pct) {
  txf::stm::StmEnv env(stripes);
  BucketedBoxes boxes(vars / kBuckets + 1);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};
  std::atomic<std::uint64_t> aborted{0};
  std::vector<std::thread> workers;
  const auto t0 = txf::util::now_ns();
  for (std::size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      Xoshiro256 rng(77 + w);
      const auto& home = boxes.bucket[w % kBuckets];
      const auto& next = boxes.bucket[(w + 1) % kBuckets];
      txf::stm::Transaction tx(env);
      while (!stop.load(std::memory_order_acquire)) {
        const bool multi =
            rng.next_bounded(100) < static_cast<std::uint64_t>(multi_pct);
        tx.reset();
        for (;;) {
          long sum = 0;
          for (int i = 0; i < kReadsPerTxn; ++i)
            sum += home[rng.next_bounded(home.size())]->get(tx);
          for (int i = 0; i < kWritesPerTxn; ++i)
            home[rng.next_bounded(home.size())]->put(tx, sum + i);
          if (multi) next[rng.next_bounded(next.size())]->put(tx, sum);
          if (tx.try_commit()) break;
          aborted.fetch_add(1, std::memory_order_relaxed);
          tx.park();
          tx.reset();
        }
        committed.fetch_add(1, std::memory_order_relaxed);
      }
      tx.park();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const double secs = static_cast<double>(txf::util::now_ns() - t0) * 1e-9;

  Row row{stripes, threads, multi_pct};
  const auto c = committed.load();
  const auto a = aborted.load();
  row.tput = static_cast<double>(c) / secs;
  row.abort_rate =
      c + a ? static_cast<double>(a) / static_cast<double>(c + a) : 0;
  row.multi_commits = env.queue().multi_commits();
  row.multi_aborts = env.queue().multi_aborts();
  for (unsigned s = 0; s < stripes; ++s) {
    row.stripe_committed.push_back(env.queue().stripe_committed(s));
    // The bench doubles as an invariant check: a gap here is a bug, not a
    // perf artifact.
    if (env.clock().current(s) != env.queue().stripe_committed(s)) {
      std::fprintf(stderr,
                   "FATAL: stripe %u clock=%llu committed=%llu (gap!)\n", s,
                   static_cast<unsigned long long>(env.clock().current(s)),
                   static_cast<unsigned long long>(
                       env.queue().stripe_committed(s)));
      std::exit(1);
    }
  }
  return row;
}

std::vector<unsigned> parse_list(const char* flag, const char* v) {
  std::vector<unsigned> out;
  std::stringstream ss(v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      std::size_t used = 0;
      const auto n = std::stoul(tok, &used);
      if (used != tok.size()) throw std::invalid_argument(tok);
      out.push_back(static_cast<unsigned>(n));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "error: %s expects a comma-separated list of "
                   "non-negative integers; got \"%s\"\n",
                   flag, tok.c_str());
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
  std::vector<unsigned> threads{1, 2, 4};
  std::vector<unsigned> stripes{1, 2, 4, 8};
  int ms = 150;
  std::size_t vars = 256;
  int multi_pct = 10;
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
    if (std::strcmp(a, "--threads") == 0) {
      threads = parse_list(a, next());
    } else if (std::strcmp(a, "--stripes") == 0) {
      stripes = parse_list(a, next());
    } else if (std::strcmp(a, "--ms") == 0) {
      ms = std::atoi(next());
    } else if (std::strcmp(a, "--vars") == 0) {
      vars = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(a, "--multi-pct") == 0) {
      multi_pct = std::atoi(next());
    } else if (std::strcmp(a, "--json") == 0) {
      json_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a);
      return 2;
    }
  }

  std::vector<Row> rows;
  for (unsigned n : stripes) {
    for (unsigned t : threads) {
      rows.push_back(run_one(n, t, ms, vars, multi_pct));
      const Row& r = rows.back();
      std::printf(
          "stripes=%u threads=%zu multi_pct=%d tput=%.0f abort_rate=%.4f "
          "multi_commits=%llu multi_aborts=%llu\n",
          r.stripes, r.threads, r.multi_pct, r.tput, r.abort_rate,
          static_cast<unsigned long long>(r.multi_commits),
          static_cast<unsigned long long>(r.multi_aborts));
    }
  }

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"bench\": \"commit_sharding\", \"ms\": " << ms
       << ", \"vars\": " << vars << ", \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      if (i != 0) os << ", ";
      os << "{\"stripes\": " << r.stripes << ", \"threads\": " << r.threads
         << ", \"multi_pct\": " << r.multi_pct << ", \"tput\": " << r.tput
         << ", \"abort_rate\": " << r.abort_rate
         << ", \"multi_commits\": " << r.multi_commits
         << ", \"multi_aborts\": " << r.multi_aborts
         << ", \"stripe_committed\": [";
      for (std::size_t s = 0; s < r.stripe_committed.size(); ++s)
        os << (s != 0 ? ", " : "") << r.stripe_committed[s];
      os << "]}";
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
