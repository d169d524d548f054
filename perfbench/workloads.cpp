// The workloads of the repository benchmark.
//
//   point_tx         closed loop, 3 clients + 1 pool thread, uniform keys over
//                    2^20 VBox<long> accounts (larger than a core's L2): 60%
//                    4-key read-only, 25% 1-key deposit, 15% 2-key transfer.
//                    Time goes to per-call fixed costs in core and to the stm
//                    commit spine; futures are bypassed.
//   kv_open_loop     open loop, Poisson arrivals from server::LoadGenerator at
//                    a fixed rate, admitted by AdmissionGate::admit on the
//                    arrival thread, executed by 1 worker + 1 pool thread on
//                    a 16K-key TxMap and a TxBTree index (fits in L2), Zipf
//                    0.9, classes read/write/rmw/multi/scan at 55/15/15/10/5.
//                    Time goes to queueing, containers scans and hot-key
//                    conflicts.
//
// Each workload builds its data, warms up (pages the data in, lets the pool
// and the adaptive submit sites settle), then runs timed windows. Every
// operation's output is checked against the benchmark's own tally of
// committed operations (checks.hpp).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "checks.hpp"
#include "containers/tx_btree.hpp"
#include "containers/tx_map.hpp"
#include "core/api.hpp"
#include "core/runtime.hpp"
#include "server/admission.hpp"
#include "server/load_gen.hpp"
#include "stm/vbox.hpp"
#include "trace.hpp"
#include "util/timing.hpp"
#include "util/xoshiro.hpp"

namespace pb {
namespace {

using txf::core::atomically;
using txf::core::Runtime;
using txf::core::TxCtx;
using txf::core::TxFuture;
using txf::util::now_ns;
using txf::util::Xoshiro256;
using trace::Kind;
using trace::Span;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 5;

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// What one timed window produced.
struct Window {
  double seconds = 0.0;         // length of the timed window
  std::uint64_t txs = 0;        // top-level transactions committed in the window
  std::uint64_t attempted = 0;  // primary operations attempted (offered)
  std::uint64_t failed = 0;     // threw, shed, or failed an output check
  std::uint64_t shed = 0;
  std::uint64_t slo_missed = 0;  // shed or slower than the latency limit
  std::uint64_t busy_ns = 0;     // summed time spent executing primary operations
  LatHist lat;                   // primary operation latency, whole window

  /// Committed transactions per second of the window.
  double tx_rate() const { return ratio(static_cast<double>(txs), seconds); }
  /// Primary operations completed per second spent executing them: the
  /// program's speed whether the load is closed or open loop.
  double service_rate() const {
    return ratio(static_cast<double>(lat.count()) * 1e9,
                 static_cast<double>(busy_ns));
  }

  void merge(const Window& o) {
    seconds += o.seconds;
    txs += o.txs;
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    slo_missed += o.slo_missed;
    busy_ns += o.busy_ns;
    lat.merge(o.lat);
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Engine state measured at the end of a run, with all clients stopped.
struct EndProbe {
  std::uint64_t stripe_gaps = 0;
  std::uint64_t version_chain_max = 0;
  std::uint64_t ebr_pending = 0;
};

/// `for_each_box(fn)` calls fn(VBoxImpl&) on every box of the workload.
template <typename ForEachBox>
EndProbe probe_engine(Runtime& rt, ForEachBox&& for_each_box) {
  EndProbe p;
  txf::stm::StmEnv& env = rt.env();
  for (unsigned s = 0; s < env.stripes(); ++s)
    if (env.clock().current(s) != env.queue().stripe_committed(s))
      ++p.stripe_gaps;
  {
    txf::util::EpochDomain::Guard guard(env.epochs());
    for_each_box([&](txf::stm::VBoxImpl& b) {
      p.version_chain_max = std::max<std::uint64_t>(p.version_chain_max,
                                                    b.permanent_length());
    });
  }
  p.ebr_pending = env.epochs().pending_count();
  return p;
}

std::mutex g_errors_mu;
std::vector<std::string> g_errors;  // first messages, guarded by g_errors_mu

/// Record the exception being handled: an operation threw and counts as
/// failed. The first few messages are printed with the result.
void note_error() {
  std::string what = "unknown exception";
  try {
    throw;
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  std::lock_guard<std::mutex> lk(g_errors_mu);
  if (g_errors.size() < 4) g_errors.push_back(what);
}

inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::uint64_t thread_seed(std::uint64_t seed, std::uint64_t salt,
                          unsigned tid) {
  return seed * 0x9e3779b97f4a7c15ULL ^ (salt << 32) ^
         (0xbf58476d1ce4e5b9ULL * (tid + 1));
}

/// Start `n` client threads together, let them run for `seconds` (or until
/// they stop on their own when seconds <= 0), and return the wall time.
template <typename Fn>
double run_clients(unsigned n, double seconds, Fn&& fn) {
  std::atomic<bool> stop{false};
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      fn(t, stop);
    });
  }
  while (ready.load() != n) std::this_thread::yield();
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_release);
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// --- accounts --------------------------------------------------------------

constexpr std::size_t kAccounts = std::size_t{1} << 20;
constexpr long kInitialBalance = 100;

struct Accounts {
  std::unique_ptr<txf::stm::VBox<long>[]> box;

  Accounts() : box(new txf::stm::VBox<long>[kAccounts]) {
    for (std::size_t i = 0; i < kAccounts; ++i)
      box[i].unsafe_init(kInitialBalance);
  }

  template <typename Fn>
  void for_each_box(Fn&& fn) {
    for (std::size_t i = 0; i < kAccounts; ++i) fn(box[i].impl());
  }

  /// Sum of every balance in one read-only transaction. Also pages the
  /// array in during set-up.
  long total(Runtime& rt) {
    return atomically(rt, [&](TxCtx& ctx) {
      long s = 0;
      for (std::size_t i = 0; i < kAccounts; ++i) s += box[i].get(ctx);
      return s;
    });
  }

  /// Move `amount` from a to b; returns after commit.
  void transfer(Runtime& rt, std::size_t a, std::size_t b, long amount) {
    Span tx(Kind::kTx);
    atomically(rt, [&](TxCtx& ctx) {
      Span attempt(Kind::kAttempt);
      long va = 0;
      long vb = 0;
      {
        Span reads(Kind::kReads, 2);
        va = box[a].get(ctx);
        vb = box[b].get(ctx);
      }
      Span writes(Kind::kWrites, 2);
      box[a].put(ctx, va - amount);
      box[b].put(ctx, vb + amount);
    });
  }
};

txf::core::Config engine_config(std::size_t pool_threads) {
  txf::core::Config cfg;
  cfg.pool_threads = pool_threads;
  return cfg;
}

// --- point_tx --------------------------------------------------------------

class PointTx {
 public:
  static constexpr unsigned kClients = 3;
  static constexpr std::size_t kPool = 1;
  static constexpr std::uint64_t kWarmupOpsPerClient = 20000;

  explicit PointTx(std::uint64_t seed) : seed_(seed), rt_(engine_config(kPool)) {
    if (acc_.total(rt_) != kInitialBalance * static_cast<long>(kAccounts))
      throw std::runtime_error("point_tx: initial total is wrong");
    warmup_failed_ = run(0.0, 1).failed;  // a fixed number of ops per client
  }

  static std::string threads() { return "3 clients + 1 pool thread"; }

  Window run(double seconds, std::uint64_t salt) {
    std::array<Window, kClients> w{};
    std::array<long, kClients> deposits{};
    const double wall = run_clients(kClients, seconds, [&](unsigned t,
                                                           std::atomic<bool>& stop) {
      Xoshiro256 rng(thread_seed(seed_, salt, t));
      Window& my = w[t];
      for (std::uint64_t i = 0;; ++i) {
        if (seconds > 0 ? stop.load(std::memory_order_relaxed)
                        : i >= kWarmupOpsPerClient)
          break;
        const std::uint64_t roll = rng.next_bounded(100);
        std::size_t k[4];
        for (auto& key : k) key = rng.next_bounded(kAccounts);
        const long amount = 1 + static_cast<long>(rng.next_bounded(7));
        ++my.attempted;
        const std::uint64_t t0 = now_ns();
        try {
          Span op(Kind::kOp);
          if (roll < 60) {
            Span tx(Kind::kTx);
            atomically(rt_, [&](TxCtx& ctx) {
              Span attempt(Kind::kAttempt);
              Span reads(Kind::kReads, 4);
              long s = 0;
              for (std::size_t key : k) s += acc_.box[key].get(ctx);
              return s;
            });
          } else if (roll < 85) {
            Span tx(Kind::kTx);
            atomically(rt_, [&](TxCtx& ctx) {
              Span attempt(Kind::kAttempt);
              long v = 0;
              {
                Span reads(Kind::kReads, 1);
                v = acc_.box[k[0]].get(ctx);
              }
              Span writes(Kind::kWrites, 1);
              acc_.box[k[0]].put(ctx, v + amount);
            });
            deposits[t] += amount;
          } else {
            if (k[1] == k[0]) k[1] = (k[0] + 1) % kAccounts;
            acc_.transfer(rt_, k[0], k[1], amount);
          }
        } catch (...) {
          note_error();
          ++my.failed;
          continue;
        }
        const std::uint64_t t1 = now_ns();
        my.lat.record(t1 - t0);
        my.busy_ns += t1 - t0;
        ++my.txs;
      }
    });
    Window total;
    for (unsigned t = 0; t < kClients; ++t) {
      total.merge(w[t]);
      deposits_ += deposits[t];
    }
    total.seconds = wall;
    return total;
  }

  void final_checks(Result& r) {
    if (warmup_failed_ != 0) r.fail_check("warm-up operations failed");
    const long observed = acc_.total(rt_);
    const long initial = kInitialBalance * static_cast<long>(kAccounts);
    r.info.push_back("check conservation: total=" + std::to_string(observed) +
                     " initial=" + std::to_string(initial) +
                     " committed_deposits=" + std::to_string(deposits_));
    if (!checks::conservation(observed, initial, deposits_))
      r.fail_check("conservation: sum of balances != initial + deposits");
    // The same check fed this run's tally off by one must reject it.
    if (checks::conservation(observed, initial, deposits_ + 1) ||
        checks::conservation(observed, initial, deposits_ - 1))
      r.fail_check("conservation accepts a tally off by one");
  }

  EndProbe probe() {
    return probe_engine(rt_, [&](const auto& fn) { acc_.for_each_box(fn); });
  }

 private:
  std::uint64_t seed_;
  Runtime rt_;
  Accounts acc_;  // declared after rt_: boxes go before their Runtime
  long deposits_ = 0;
  std::uint64_t warmup_failed_ = 0;  // failed operations during set-up
};

// --- kv_open_loop ----------------------------------------------------------

using txf::containers::TxBTree;
using txf::containers::TxMap;
using txf::server::Request;
using txf::server::RequestClass;

class KvOpenLoop {
 public:
  static constexpr std::uint64_t kKeys = 16384;
  static constexpr unsigned kWorkers = 1;
  static constexpr std::size_t kPool = 1;
  /// Offered load, fixed below half of the measured capacity of 1 worker
  /// + 1 pool thread (about 390k req/s on a 4-vCPU Xeon host, where 400k
  /// offered grows the backlog without bound).
  static constexpr double kRateHz = 150000.0;
  static constexpr std::uint64_t kSloNs = 1'000'000;  // 1 ms latency limit
  static constexpr std::uint64_t kWarmupPerWorker = 20000;
  static constexpr std::uint32_t kMultiSpan = 4;
  static constexpr std::uint64_t kScanSpan = 256;
  // Map value = (RMW counter << kStampBits) | multi-group stamp.
  static constexpr unsigned kStampBits = 24;
  static constexpr std::uint64_t kStampMask = (std::uint64_t{1} << kStampBits) - 1;

  explicit KvOpenLoop(std::uint64_t seed)
      : seed_(seed), rt_(engine_config(kPool)), rmw_tally_(kKeys, 0) {
    for (std::uint64_t base = 0; base < kKeys; base += 512) {
      atomically(rt_, [&](TxCtx& ctx) {
        for (std::uint64_t k = base; k < base + 512; ++k) {
          map_.put(ctx, k, 0);
          index_.put(ctx, k, k + 1);
        }
      });
    }
    // Warm-up: each worker executes generated requests back to back.
    std::array<std::vector<std::uint64_t>, kWorkers> tallies;
    std::array<std::uint64_t, kWorkers> warmup_failed{};
    run_clients(kWorkers, 0.0, [&](unsigned t, std::atomic<bool>&) {
      tallies[t].assign(kKeys, 0);
      txf::server::LoadGenerator gen(load_config(thread_seed(seed_, 7, t)));
      Window warm;
      for (std::uint64_t i = 0; i < kWarmupPerWorker; ++i)
        execute(gen.next(1), tallies[t], warm);
      warmup_failed[t] = warm.failed;
    });
    for (std::uint64_t f : warmup_failed) warmup_failed_ += f;
    // The gate lives as long as the service. Its first admit starts the
    // token bucket, which fills before any timed window, as a running
    // server's would; a bucket started at the window would shed arrivals
    // that come within a microsecond of the first one.
    gate_.admit(RequestClass::kRead, now_ns());
    for (const auto& t : tallies)
      for (std::uint64_t k = 0; k < kKeys; ++k) rmw_tally_[k] += t[k];
  }

  static std::string threads() {
    return "1 arrival thread + 1 worker + 1 pool thread";
  }

  Window run(double seconds, std::uint64_t salt) {
    struct Job {
      Request req;
      std::uint64_t admit_start = 0;
      std::uint64_t admit_end = 0;
    };
    std::mutex mu;
    std::deque<Job> queue;  // guarded by mu
    std::atomic<std::uint64_t> pending{0};  // queue length, polled unlocked
    std::atomic<bool> closing{false};

    std::array<Window, kWorkers> w{};
    std::array<std::vector<std::uint64_t>, kWorkers> tallies;
    // Window end: set before the first job is queued, read by workers after
    // dequeuing.
    std::uint64_t end = 0;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kWorkers; ++t) {
      tallies[t].assign(kKeys, 0);
      workers.emplace_back([&, t] {
        Window& my = w[t];
        for (;;) {
          // An idle worker polls rather than blocks: a blocked thread wakes
          // late by the host scheduler's latency, which would then dominate
          // the tail. The worker owns one CPU and one stays idle.
          while (pending.load(std::memory_order_acquire) == 0 &&
                 !closing.load(std::memory_order_acquire))
            spin_pause();
          Job job;
          {
            std::lock_guard<std::mutex> lk(mu);
            if (queue.empty()) return;  // closing, and every job is done
            job = queue.front();
            queue.pop_front();
            pending.fetch_sub(1, std::memory_order_relaxed);
          }
          const std::uint64_t dequeued = now_ns();
          bool ok = false;
          {
            Span op(Kind::kOp, job.req.scheduled_ns, 0);
            if (trace::enabled()) {
              trace::add_closed(Kind::kGenLag, job.req.scheduled_ns,
                                job.admit_start);
              trace::add_closed(Kind::kAdmit, job.admit_start, job.admit_end);
              trace::add_closed(Kind::kQueue, job.admit_end, dequeued);
            }
            ok = execute(job.req, tallies[t], my);
          }
          const std::uint64_t done = now_ns();
          const std::uint64_t lat =
              done > job.req.scheduled_ns ? done - job.req.scheduled_ns : 0;
          my.lat.record(lat);
          my.busy_ns += done - dequeued;
          // Throughput counts what completes inside the window, so a
          // program that falls behind the arrivals reads below their rate.
          if (ok && done < end) ++my.txs;
          if (lat > kSloNs) ++my.slo_missed;
        }
      });
    }

    // Arrival loop: open loop on this thread.
    txf::server::LoadGenerator gen(load_config(thread_seed(seed_, salt, 99)));
    Window arrivals;
    const std::uint64_t start = now_ns();
    end = start + static_cast<std::uint64_t>(seconds * 1e9);
    for (;;) {
      const Request req = gen.next(start);
      if (req.scheduled_ns >= end) break;
      // Spin rather than sleep: a sleeping arrival thread wakes late by
      // the scheduler's latency, which would charge the host's timer to
      // every request behind it. The arrival thread owns one CPU.
      while (now_ns() < req.scheduled_ns) spin_pause();
      ++arrivals.attempted;
      Job job;
      job.req = req;
      const bool traced = trace::enabled();
      if (traced) job.admit_start = now_ns();
      const bool admitted = gate_.admit(req.cls, req.scheduled_ns);
      if (traced) job.admit_end = now_ns();
      if (!admitted) {
        ++arrivals.shed;
        ++arrivals.failed;
        ++arrivals.slo_missed;
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back(job);
        pending.fetch_add(1, std::memory_order_release);
      }
    }
    closing.store(true, std::memory_order_release);
    for (auto& th : workers) th.join();

    Window total = arrivals;
    for (unsigned t = 0; t < kWorkers; ++t) {
      total.merge(w[t]);
      for (std::uint64_t k = 0; k < kKeys; ++k) rmw_tally_[k] += tallies[t][k];
    }
    total.seconds = static_cast<double>(end - start) / 1e9;
    return total;
  }

  void final_checks(Result& r) {
    if (warmup_failed_ != 0) r.fail_check("warm-up operations failed");
    std::vector<std::uint64_t> counters(kKeys, 0);
    std::uint64_t unequal_groups = 0;
    bool missing = false;
    atomically(rt_, [&](TxCtx& ctx) {
      unequal_groups = 0;
      missing = false;
      std::vector<std::uint64_t> stamps(kMultiSpan);
      for (std::uint64_t k = 0; k < kKeys; ++k) {
        const auto v = map_.get(ctx, k);
        if (!v) {
          missing = true;
          continue;
        }
        counters[k] = *v >> kStampBits;
        stamps[k % kMultiSpan] = *v & kStampMask;
        if (k % kMultiSpan == kMultiSpan - 1 && !checks::group_equal(stamps))
          ++unequal_groups;
      }
    });
    std::vector<std::uint64_t> keys;
    atomically(rt_, [&](TxCtx& ctx) {
      keys.clear();
      index_.scan(ctx, 0, kKeys,
                  [&](std::uint64_t key, std::uint64_t) { keys.push_back(key); });
    });
    std::uint64_t rmws = 0;
    for (std::uint64_t c : rmw_tally_) rmws += c;
    r.info.push_back("check rmw counters: " + std::to_string(rmws) +
                     " committed RMWs over " + std::to_string(kKeys) + " keys");
    r.info.push_back("check per-request: " + std::to_string(bad_multi_) +
                     " unequal multi groups, " + std::to_string(bad_scan_) +
                     " bad scans, " + std::to_string(bad_read_) +
                     " missing reads; end state: " +
                     std::to_string(unequal_groups) + " unequal groups");
    if (missing) r.fail_check("map lost a key");
    if (!checks::rmw_counters(counters, rmw_tally_))
      r.fail_check("rmw_counters: map counters != committed RMW tally");
    if (unequal_groups != 0 || bad_multi_ != 0)
      r.fail_check("group_equal: a multi group was read unequal");
    if (bad_scan_ != 0 || !checks::scan_keys(keys, 0, kKeys))
      r.fail_check("scan_keys: a scan returned wrong keys");
    if (bad_read_ != 0) r.fail_check("read: a point read found no value");
    // The same checks fed this run's tallies off by one must reject them.
    std::vector<std::uint64_t> off = rmw_tally_;
    ++off[0];  // the hottest key under Zipf
    if (checks::rmw_counters(counters, off))
      r.fail_check("rmw_counters accepts a tally off by one");
    if (checks::scan_keys(keys, 0, kKeys + 1) || checks::scan_keys(keys, 1, kKeys))
      r.fail_check("scan_keys accepts a range off by one");
  }

  EndProbe probe() {
    return probe_engine(rt_, [&](const auto& fn) {
      map_.for_each_box(fn);
      index_.for_each_box(fn);
    });
  }

 private:
  static txf::server::LoadGenConfig load_config(std::uint64_t seed) {
    txf::server::LoadGenConfig c;
    c.rate_hz = kRateHz;
    c.keyspace = kKeys;
    c.zipf_theta = 0.9;
    c.mix_read = 55;
    c.mix_write = 15;
    c.mix_rmw = 15;
    c.mix_multi = 10;
    c.mix_scan = 5;
    c.scan_span = kScanSpan;
    c.seed = seed;
    return c;
  }

  /// Execute one request and check its output; counts a failure into `my`.
  /// Returns whether the request committed with a correct output.
  bool execute(const Request& req, std::vector<std::uint64_t>& tally,
               Window& my) {
    try {
      switch (req.cls) {
        case RequestClass::kRead: {
          Span tx(Kind::kTx);
          const bool found = atomically(rt_, [&](TxCtx& ctx) {
            Span attempt(Kind::kAttempt);
            Span call(Kind::kMapOp);
            return map_.get(ctx, req.key).has_value();
          });
          if (!found) {
            bad_read_.fetch_add(1, std::memory_order_relaxed);
            ++my.failed;
            return false;
          }
          break;
        }
        case RequestClass::kWrite: {
          Span tx(Kind::kTx);
          atomically(rt_, [&](TxCtx& ctx) {
            Span attempt(Kind::kAttempt);
            Span call(Kind::kIndexPut);
            index_.put(ctx, req.key, (req.aux | 1) & 0x00ff'ffff'ffff'ffffULL);
          });
          break;
        }
        case RequestClass::kRmw: {
          Span tx(Kind::kTx);
          atomically(rt_, [&](TxCtx& ctx) {
            Span attempt(Kind::kAttempt);
            std::uint64_t v = 0;
            {
              Span call(Kind::kMapOp);
              v = map_.get(ctx, req.key).value();
            }
            Span call(Kind::kMapOp);
            map_.put(ctx, req.key, v + (std::uint64_t{1} << kStampBits));
          });
          ++tally[req.key];
          break;
        }
        case RequestClass::kMulti: {
          const std::uint64_t group = req.key - req.key % kMultiSpan;
          const std::uint64_t stamp = (req.aux & kStampMask) | 1;
          Span tx(Kind::kTx);
          const std::vector<std::uint64_t> seen =
              atomically(rt_, [&](TxCtx& ctx) {
                Span attempt(Kind::kAttempt);
                std::array<TxFuture<std::uint64_t>, kMultiSpan - 1> f;
                std::array<std::shared_ptr<trace::FutureTag>, kMultiSpan - 1>
                    tags;
                for (std::uint32_t j = 1; j < kMultiSpan; ++j) {
                  tags[j - 1] = trace::make_tag();
                  Span submit(Kind::kSubmit);
                  submit.link(tags[j - 1].get());
                  f[j - 1] = ctx.submit([map = &map_, key = group + j,
                                         tag = tags[j - 1]](TxCtx& c) {
                    Span body(tag);
                    Span call(Kind::kMapOp);
                    return map->get(c, key).value();
                  });
                }
                std::vector<std::uint64_t> values(kMultiSpan);
                {
                  Span call(Kind::kMapOp);
                  values[0] = map_.get(ctx, group).value();
                }
                for (std::uint32_t j = 1; j < kMultiSpan; ++j) {
                  Span get(Kind::kGet);
                  get.await(tags[j - 1]);
                  values[j] = f[j - 1].get(ctx);
                }
                for (std::uint32_t j = 0; j < kMultiSpan; ++j) {
                  Span call(Kind::kMapOp);
                  map_.put(ctx, group + j, (values[j] & ~kStampMask) | stamp);
                }
                for (auto& v : values) v &= kStampMask;
                return values;
              });
          if (!checks::group_equal(seen)) {
            bad_multi_.fetch_add(1, std::memory_order_relaxed);
            ++my.failed;
            return false;
          }
          break;
        }
        case RequestClass::kScan: {
          const std::uint64_t lo = req.key;
          const std::uint64_t hi =
              std::min<std::uint64_t>(lo + std::max<std::uint64_t>(req.aux, 1),
                                      kKeys);
          Span tx(Kind::kTx);
          const std::vector<std::uint64_t> keys = atomically(rt_, [&](TxCtx& ctx) {
            Span attempt(Kind::kAttempt);
            Span call(Kind::kScan);
            std::vector<std::uint64_t> out;
            out.reserve(hi - lo);
            index_.scan(
                ctx, lo, hi,
                [&](std::uint64_t key, std::uint64_t) { out.push_back(key); },
                TXF_SUBMIT_SITE);
            call.set_aux(static_cast<std::uint32_t>(out.size()));
            return out;
          });
          if (!checks::scan_keys(keys, lo, hi)) {
            bad_scan_.fetch_add(1, std::memory_order_relaxed);
            ++my.failed;
            return false;
          }
          break;
        }
        case RequestClass::kCount:
          break;
      }
    } catch (...) {
      note_error();
      ++my.failed;
      return false;
    }
    return true;
  }

  std::uint64_t seed_;
  Runtime rt_;
  TxMap map_{kKeys};  // declared after rt_: boxes go before their Runtime
  TxBTree index_;
  txf::server::AdmissionGate gate_{txf::server::AdmissionConfig{}};
  std::vector<std::uint64_t> rmw_tally_;
  std::atomic<std::uint64_t> bad_multi_{0};
  std::atomic<std::uint64_t> bad_scan_{0};
  std::atomic<std::uint64_t> bad_read_{0};
  std::uint64_t warmup_failed_ = 0;  // failed operations during set-up
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Per-layer metrics of a traced run, in a fixed order shared by every
/// workload. A layer the workload does not call reads 0 with n=0.
std::vector<Metric> layer_metrics(const trace::Aggregate& a,
                                  const RegistryDelta& d, const EndProbe& p,
                                  double span_overhead,
                                  const Window& traced, const Window& untraced) {
  using trace::Layer;
  auto ks = [&](Kind k) -> const trace::KindStats& {
    return a.kinds[static_cast<std::size_t>(k)];
  };
  auto mean_self = [&](Kind k, double scale) {
    return ratio(static_cast<double>(ks(k).self_ns), static_cast<double>(ks(k).count)) / scale;
  };
  auto mean_dur = [&](Kind k, double scale) {
    return ratio(static_cast<double>(ks(k).dur_ns), static_cast<double>(ks(k).count)) / scale;
  };
  auto n = [](double v) { return "n=" + num(v); };
  auto n_of = [&](Kind k) { return n(static_cast<double>(ks(k).count)); };
  auto layer_us = [&](Layer l) {
    return ratio(static_cast<double>(a.layer_ns[static_cast<std::size_t>(l)]),
                 static_cast<double>(a.ops)) / 1e3;
  };

  const double commits = d.value("tx.commits");
  const double aborts = d.value("tx.attempt_aborts");
  const double par = d.value("core.adaptive.parallel_decisions");
  const double decisions = par + d.value("core.adaptive.inline_decisions") +
                           d.value("core.adaptive.ordered_decisions");
  const double executed = d.value("sched.executed");
  const double steals = d.value("sched.steals");
  const double hits = d.value("stm.read.home_hits");
  const double walks = d.value("stm.read.list_walks");
  const double steps = d.value("stm.read.walk_steps");
  const double batches = d.value("stm.commit.batches");
  const double batched = d.value("stm.commit.batched_requests");
  const double dwell_n = d.value("stm.commit.dwell_samples");
  const double single = d.value("stm.commit.committed");
  const double multi = d.value("stm.shard.multi_commits");
  const double reads = static_cast<double>(ks(Kind::kReads).aux);
  const double queue_n = static_cast<double>(ks(Kind::kQueue).count);
  const double queue_ns = static_cast<double>(ks(Kind::kGenLag).dur_ns +
                                              ks(Kind::kAdmit).dur_ns +
                                              ks(Kind::kQueue).dur_ns);
  auto stage = [&](const char* name) {
    return Metric{std::string("stm.commit.stage.") + name + "_ns",
                  ratio(d.sum(std::string("stm.commit.stage.") + name + "_ns"),
                        d.value(std::string("stm.commit.stage.") + name + "_ns")),
                  "ns", n(d.value(std::string("stm.commit.stage.") + name + "_ns"))};
  };

  std::vector<Metric> m = {
      {"core.commit_us", ratio(static_cast<double>(a.commit_ns), static_cast<double>(a.commits)) / 1e3, "us", n(static_cast<double>(a.commits))},
      {"core.attempts_per_tx", ratio(commits + aborts, commits), "ratio", "base: " + num(commits + aborts) + " attempts / " + num(commits) + " commits"},
      {"core.abort_ratio", ratio(aborts, commits + aborts), "ratio", "base: " + num(aborts) + " aborted attempts / " + num(commits + aborts) + " attempts"},
      {"core.serial_fallbacks", d.value("core.serial_fallbacks"), "count", ""},
      {"core.submit_ns", mean_self(Kind::kSubmit, 1.0), "ns", n_of(Kind::kSubmit)},
      {"core.join_wait_us", mean_self(Kind::kGet, 1e3), "us", n_of(Kind::kGet)},
      {"core.future_body_us", mean_dur(Kind::kFuture, 1e3), "us", n_of(Kind::kFuture)},
      {"core.parallel_share", ratio(par, decisions), "ratio", "base: " + num(par) + " parallel / " + num(decisions) + " adaptive decisions"},
      {"sched.executed", executed, "count", ""},
      {"sched.steal_share", ratio(steals, executed), "ratio", "base: " + num(steals) + " steals / " + num(executed) + " executed"},
      {"stm.read_ns", ratio(static_cast<double>(ks(Kind::kReads).self_ns), reads), "ns", "base: " + num(reads) + " reads in " + num(static_cast<double>(ks(Kind::kReads).count)) + " read spans"},
      {"stm.read.home_hit_ratio", ratio(hits, hits + walks), "ratio", "base: " + num(hits) + " home hits / " + num(hits + walks) + " permanent reads"},
      {"stm.read.steps_per_walk", ratio(steps, walks), "steps", "base: " + num(steps) + " steps / " + num(walks) + " walks"},
      {"stm.commit.avg_batch", ratio(batched, batches), "requests", "base: " + num(batched) + " requests / " + num(batches) + " batches"},
      {"stm.commit.dwell_ns", ratio(d.value("stm.commit.dwell_ns"), dwell_n), "ns", n(dwell_n)},
      stage("prevalidate"),
      stage("assign"),
      stage("writeback"),
      {"stm.multi_stripe_share", ratio(multi, single + multi), "ratio", "base: " + num(multi) + " multi-stripe / " + num(single + multi) + " committed writers"},
      {"stm.stripe_gaps", static_cast<double>(p.stripe_gaps), "count", "stripes whose clock != committed writers, end of run"},
      {"stm.version_chain_max", static_cast<double>(p.version_chain_max), "versions", "longest permanent list, end of run"},
      {"ebr.pending_end", static_cast<double>(p.ebr_pending), "count", "end of run"},
      {"containers.map_op_us", mean_self(Kind::kMapOp, 1e3), "us", n_of(Kind::kMapOp)},
      {"containers.scan_us", mean_dur(Kind::kScan, 1e3), "us", n_of(Kind::kScan)},
      {"containers.scan_keys", ratio(static_cast<double>(ks(Kind::kScan).aux), static_cast<double>(ks(Kind::kScan).count)), "keys", n_of(Kind::kScan)},
      {"server.admit_ns", mean_dur(Kind::kAdmit, 1.0), "ns", n_of(Kind::kAdmit)},
      {"server.queue_wait_us", ratio(queue_ns, queue_n) / 1e3, "us", n(queue_n)},
      {"server.gen_lag_us", mean_dur(Kind::kGenLag, 1e3), "us", n_of(Kind::kGenLag)},
      {"obs.span_overhead", span_overhead, "ratio", "base: traced " + num(traced.service_rate()) + " / untraced " + num(untraced.service_rate()) + " ops per busy second"},
      {"attr.op_us", ratio(static_cast<double>(a.op_wall_ns), static_cast<double>(a.ops)) / 1e3, "us", n(static_cast<double>(a.ops))},
  };
  for (std::size_t l = 0; l < trace::kLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    m.push_back({std::string("attr.") + trace::layer_name(layer) + "_us",
                 layer_us(layer), "us",
                 "share " + num(ratio(static_cast<double>(a.layer_ns[l]),
                                      static_cast<double>(a.op_wall_ns)))});
  }
  return m;
}

/// Keep every CPU busy for a moment before anything is timed. On a
/// virtualised host, CPUs that sat idle are scheduled sluggishly for a
/// second or more afterwards, which shows up as millisecond stalls in the
/// first run after a pause. The program does no work here, so this is not
/// part of setup_s.
void ramp_cpus(double seconds) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < n; ++i)
    spinners.emplace_back([end] {
      while (now_ns() < end) spin_pause();
    });
  for (auto& t : spinners) t.join();
}

template <typename W>
Result drive(const Options& opt) {
  Result r;
  r.threads = W::threads();
  ramp_cpus(2.0);
  std::unique_ptr<W> w;
  std::vector<double> setups;
  const int repeats = opt.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    w.reset();  // tear the previous instance down before timing the next
    const std::uint64_t t0 = now_ns();
    w = std::make_unique<W>(opt.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Window total;
  Window untraced;
  Window traced;
  RegistryDelta delta;
  if (!opt.trace) {
    total = w->run(opt.seconds, 2);
    const std::string samples =
        "n=" + num(static_cast<double>(total.lat.count())) + ", whole window";
    r.e2e = {
        {"setup_s", median(setups), "s", "median of " + num(repeats) + " set-ups"},
        {"tx_per_s", total.tx_rate(), "1/s", "n=" + num(static_cast<double>(total.txs)) + " in " + num(total.seconds) + " s"},
        {"lat_p50_us", total.lat.quantile_us(0.50), "us", samples},
        {"lat_p99_us", total.lat.quantile_us(0.99), "us", samples},
    };
  } else {
    // Untraced and traced slices alternate so drift over the run (version
    // chains, adaptive sites) affects both sides of span_overhead alike.
    for (int slice = 0; slice < 4; ++slice) {
      const bool on = slice % 2 == 1;
      trace::set_enabled(on);
      if (on) delta.begin();
      const Window x = w->run(opt.seconds / 4, 2 + static_cast<std::uint64_t>(slice));
      if (on) delta.end();
      trace::set_enabled(false);
      (on ? traced : untraced).merge(x);
    }
    total = untraced;
    total.merge(traced);
  }
  const EndProbe p = w->probe();
  if (opt.trace) {
    const double overhead = ratio(traced.service_rate(), untraced.service_rate());
    r.layer = layer_metrics(trace::collect_and_reset(), delta, p, overhead,
                            traced, untraced);
  }
  r.info.push_back("stm.stripe_gaps = " + num(static_cast<double>(p.stripe_gaps)) +
                   " count (known defect, reported not gated)");
  r.info.push_back("stm.version_chain_max = " + num(static_cast<double>(p.version_chain_max)) +
                   " versions (reported not gated)");
  w->final_checks(r);
  {
    std::lock_guard<std::mutex> lk(g_errors_mu);
    for (const std::string& e : g_errors)
      r.info.push_back("operation threw: " + e);
  }
  r.attempted = total.attempted;
  r.failed = total.failed;
  if (!r.correct && r.failed == 0) r.failed = 1;  // a whole-run check failed
  r.info.push_back("fail_ratio = " + num(ratio(static_cast<double>(r.failed), static_cast<double>(std::max<std::uint64_t>(r.attempted, 1)))) +
                   " ratio (base: " + num(static_cast<double>(r.failed)) + " failed / " +
                   num(static_cast<double>(r.attempted)) + " attempted; shed " +
                   num(static_cast<double>(total.shed)) + ")");
  if (opt.workload == "kv_open_loop") {
    r.info.push_back("slo_miss_ratio = " + num(ratio(static_cast<double>(total.slo_missed), static_cast<double>(total.attempted))) +
                     " ratio (base: " + num(static_cast<double>(total.slo_missed)) +
                     " shed or over " + num(KvOpenLoop::kSloNs / 1e3) + " us / " +
                     num(static_cast<double>(total.attempted)) + " offered; rate " +
                     num(KvOpenLoop::kRateHz) + " req/s)");
  }
  w.reset();
  if (!opt.trace)
    r.e2e.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss"});
  return r;
}

}  // namespace

Result run_workload(const Options& opt) {
  if (opt.workload == "point_tx") return drive<PointTx>(opt);
  if (opt.workload == "kv_open_loop") return drive<KvOpenLoop>(opt);
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

}  // namespace pb
