// Ablation B — continuation recovery after an intra-tree conflict (the
// continuation missed its future's write). The only recovery is a tree
// restart (DESIGN.md substitution 2: re-execute the whole top-level
// transaction, with the serial convergence fallback after repeated
// misses); what varies is how the future is scheduled:
//
//   parallel  every future races its continuation, so the miss — and the
//             restart that re-runs the parent prefix — happens on purpose;
//   ordered   the ordered lane runs the future before its continuation in
//             pre-order on the submitting thread, so the miss cannot occur
//             (the role JTF's first-class continuations play in the paper);
//   adaptive  the default: the site starts parallel, its continuation
//             conflicts are charged to it, and it demotes to ordered.
//
// The workload makes the conflict likely on purpose: every transaction's
// future writes a scratch box that the continuation reads immediately,
// racing it. Each worker has a private scratch box, so ALL conflicts are
// intra-tree.
//
// Flags: --workers N --ms N --delay N (CPU iters inside the future)
//        --post N (CPU iters of prefix work before the submit)
#include <cstdio>
#include <deque>
#include <utility>

#include "workloads/common/driver.hpp"
#include "workloads/synthetic/synthetic.hpp"

using txf::core::Config;
using txf::core::Runtime;
using txf::core::SchedulingMode;
using txf::core::TxCtx;
using txf::util::Xoshiro256;
using namespace txf::workloads;
namespace synth = txf::workloads::synthetic;

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));
  const int ms = static_cast<int>(args.get_int("ms", 400));
  // Defaults at a scale where recovery strategy matters: both the parent
  // prefix (lost on a tree restart) and the future body are ~ms of CPU.
  const auto delay =
      static_cast<std::uint64_t>(args.get_int("delay", 2000000));
  const auto prefix =
      static_cast<std::uint64_t>(args.get_int("post", 2000000));

  std::printf(
      "# Ablation B: continuation recovery by tree restart, per scheduling\n"
      "# mode; every transaction's continuation races its future on a\n"
      "# scratch box (%zu workers, future delay=%llu iters, %dms)\n",
      workers, static_cast<unsigned long long>(delay), ms);

  print_header({"mode", "tx/s", "restarts", "serial"});
  const std::pair<SchedulingMode, const char*> modes[] = {
      {SchedulingMode::kAlwaysParallel, "parallel"},
      {SchedulingMode::kAlwaysOrdered, "ordered"},
      {SchedulingMode::kAdaptive, "adaptive"},
  };
  for (const auto& [mode, name] : modes) {
    Config cfg;
    cfg.pool_threads = workers;
    cfg.scheduling = mode;
    Runtime rt(cfg);
    std::deque<txf::stm::VBox<std::uint64_t>> scratch;
    for (std::size_t i = 0; i < workers; ++i) scratch.emplace_back(0ULL);

    const RunResult r = run_for(
        rt, workers, ms,
        [&](std::size_t w, const std::function<bool()>& keep,
            WorkerMetrics& m) {
          Xoshiro256 rng(100 + w);
          auto& box = scratch[w];
          while (keep()) {
            const std::uint64_t payload = rng.next() | 1;
            txf::core::atomically(rt, [&](TxCtx& ctx) {
              // Prefix work in the parent, before the split.
              std::uint64_t acc = synth::cpu_work(prefix, payload);
              auto f = ctx.submit([&box, payload, delay](TxCtx& c) {
                const std::uint64_t v =
                    synth::cpu_work(delay, payload) | 1;
                box.put(c, v);
                return v;
              });
              // The continuation races the future on the scratch box: when
              // the future runs in parallel this read usually misses the
              // write and the tree restarts.
              acc += box.get(ctx);
              acc += f.get(ctx);
              box.put(ctx, acc | 1);
            });
            ++m.transactions;
          }
        });
    print_row({name, fmt(r.throughput(), 1),
               std::to_string(r.stats_delta.tree_restarts),
               std::to_string(r.stats_delta.serial_fallbacks)});
  }
  std::printf(
      "# Expected shape: ordered and adaptive never lose the parent prefix\n"
      "# to a restart, so they sustain several times the parallel rate.\n");
  return 0;
}
