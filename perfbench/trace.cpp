#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "util/timing.hpp"

namespace pb::trace {
namespace {

// Every 64th finished tree is kept verbatim, up to this many spans a thread.
constexpr std::uint64_t kKeepEvery = 64;
constexpr std::size_t kKeepCap = std::size_t{1} << 17;

struct Rec {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // causal parent span id (0 = none)
  std::uint64_t op = 0;
  std::uint64_t sched_wait = 0;  // kGet: wait before the awaited body began
  std::int32_t up = -1;          // same-thread enclosing span (index in cur)
  std::uint32_t aux = 0;
  Kind kind = Kind::kOp;
};

std::atomic<bool> g_on{false};

}  // namespace

struct ThreadBuf {
  std::uint32_t thread_index = 0;
  std::uint64_t next_seq = 0;
  std::vector<Rec> cur;               // the open tree (owner thread only)
  std::vector<std::int32_t> open;     // stack of open spans (indices in cur)
  std::vector<std::uint64_t> scratch; // child-duration sums
  std::mutex mu;                      // guards agg, kept, trees
  Aggregate agg;
  std::vector<Rec> kept;
  std::uint64_t trees = 0;
};

namespace {

std::mutex g_bufs_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_bufs_mu
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& local() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lk(g_bufs_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->thread_index = static_cast<std::uint32_t>(g_bufs.size() - 1);
  }
  return *t_buf;
}

void finish_tree(ThreadBuf& b) {
  const std::size_t n = b.cur.size();
  b.scratch.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = b.cur[i];
    if (r.up >= 0) b.scratch[static_cast<std::size_t>(r.up)] += r.end - r.start;
  }
  const Rec& root = b.cur[0];
  std::lock_guard<std::mutex> lk(b.mu);
  Aggregate& a = b.agg;
  const bool attribute = root.kind == Kind::kOp;
  if (attribute) {
    ++a.ops;
    a.op_wall_ns += root.end - root.start;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = b.cur[i];
    const std::uint64_t dur = r.end - r.start;
    const std::uint64_t self = dur > b.scratch[i] ? dur - b.scratch[i] : 0;
    KindStats& ks = a.kinds[static_cast<std::size_t>(r.kind)];
    ++ks.count;
    ks.dur_ns += dur;
    ks.self_ns += self;
    ks.aux += r.aux;
    if (attribute) {
      if (r.kind == Kind::kGet) {
        const std::uint64_t sched = std::min(r.sched_wait, self);
        a.layer_ns[static_cast<std::size_t>(Layer::kSched)] += sched;
        a.layer_ns[static_cast<std::size_t>(Layer::kCore)] += self - sched;
        a.join_sched_ns += sched;
      } else {
        a.layer_ns[static_cast<std::size_t>(layer_of(r.kind))] += self;
      }
    }
    if (r.kind == Kind::kTx) {
      // Commit = from the last attempt's return to atomically's return.
      std::uint64_t last_end = 0;
      for (std::size_t j = i + 1; j < n; ++j) {
        const Rec& c = b.cur[j];
        if (c.kind == Kind::kAttempt && c.up == static_cast<std::int32_t>(i))
          last_end = std::max(last_end, c.end);
      }
      if (last_end != 0 && r.end >= last_end) {
        ++a.commits;
        a.commit_ns += r.end - last_end;
      }
    }
  }
  if (b.trees++ % kKeepEvery == 0 && b.kept.size() + n <= kKeepCap)
    b.kept.insert(b.kept.end(), b.cur.begin(), b.cur.end());
  b.cur.clear();
}

}  // namespace

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kOp: return "op";
    case Kind::kTx: return "tx";
    case Kind::kAttempt: return "attempt";
    case Kind::kSubmit: return "submit";
    case Kind::kFuture: return "future";
    case Kind::kGet: return "get";
    case Kind::kReads: return "reads";
    case Kind::kWrites: return "writes";
    case Kind::kMapOp: return "map_op";
    case Kind::kScan: return "scan";
    case Kind::kIndexPut: return "index_put";
    case Kind::kGenLag: return "gen_lag";
    case Kind::kAdmit: return "admit";
    case Kind::kQueue: return "queue";
    case Kind::kCount: break;
  }
  return "?";
}

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kCore: return "core";
    case Layer::kSched: return "sched";
    case Layer::kStm: return "stm";
    case Layer::kContainers: return "containers";
    case Layer::kServer: return "server";
    case Layer::kUnexplained: return "unexplained";
    case Layer::kCount: break;
  }
  return "?";
}

Layer layer_of(Kind k) noexcept {
  switch (k) {
    case Kind::kTx:
    case Kind::kSubmit:
    case Kind::kGet: return Layer::kCore;
    case Kind::kReads:
    case Kind::kWrites: return Layer::kStm;
    case Kind::kMapOp:
    case Kind::kScan:
    case Kind::kIndexPut: return Layer::kContainers;
    case Kind::kGenLag:
    case Kind::kAdmit:
    case Kind::kQueue: return Layer::kServer;
    case Kind::kOp:
    case Kind::kAttempt:
    case Kind::kFuture:
    case Kind::kCount: break;
  }
  return Layer::kUnexplained;
}

void set_enabled(bool on) noexcept { g_on.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_on.load(std::memory_order_relaxed); }

void Aggregate::merge(const Aggregate& o) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    kinds[k].count += o.kinds[k].count;
    kinds[k].dur_ns += o.kinds[k].dur_ns;
    kinds[k].self_ns += o.kinds[k].self_ns;
    kinds[k].aux += o.kinds[k].aux;
  }
  ops += o.ops;
  op_wall_ns += o.op_wall_ns;
  for (std::size_t l = 0; l < kLayers; ++l) layer_ns[l] += o.layer_ns[l];
  commits += o.commits;
  commit_ns += o.commit_ns;
  join_sched_ns += o.join_sched_ns;
}

std::shared_ptr<FutureTag> make_tag() {
  return enabled() ? std::make_shared<FutureTag>() : nullptr;
}

Span::Span(Kind kind, std::uint32_t aux) {
  if (enabled()) open(kind, txf::util::now_ns(), aux, nullptr);
}

Span::Span(Kind kind, std::uint64_t start_ns, std::uint32_t aux) {
  if (enabled()) open(kind, start_ns, aux, nullptr);
}

Span::Span(const std::shared_ptr<FutureTag>& tag) {
  if (tag == nullptr || !enabled()) return;
  const std::uint64_t now = txf::util::now_ns();
  std::uint64_t expected = 0;
  tag->first_start.compare_exchange_strong(expected, now,
                                           std::memory_order_release,
                                           std::memory_order_relaxed);
  open(Kind::kFuture, now, 0, tag.get());
}

void Span::open(Kind kind, std::uint64_t start_ns, std::uint32_t aux,
                const FutureTag* tag) {
  ThreadBuf& b = local();
  Rec r;
  r.start = start_ns;
  r.id = (static_cast<std::uint64_t>(b.thread_index) << 40) | ++b.next_seq;
  r.kind = kind;
  r.aux = aux;
  if (!b.open.empty()) {
    const Rec& p = b.cur[static_cast<std::size_t>(b.open.back())];
    r.up = b.open.back();
    r.parent = tag != nullptr ? tag->submit_id : p.id;
    r.op = tag != nullptr ? tag->op : p.op;
  } else {
    r.parent = tag != nullptr ? tag->submit_id : 0;
    r.op = tag != nullptr ? tag->op : r.id;
  }
  idx_ = static_cast<std::uint32_t>(b.cur.size());
  b.cur.push_back(r);
  b.open.push_back(static_cast<std::int32_t>(idx_));
  buf_ = &b;
}

Span::~Span() {
  if (buf_ == nullptr) return;
  ThreadBuf& b = *buf_;
  Rec& r = b.cur[idx_];
  r.end = txf::util::now_ns();
  if (awaited_ != nullptr) {
    const std::uint64_t fs =
        awaited_->first_start.load(std::memory_order_acquire);
    r.sched_wait = fs > r.start ? std::min(fs, r.end) - r.start : 0;
  }
  b.open.pop_back();
  if (b.open.empty()) finish_tree(b);
}

void Span::set_aux(std::uint32_t aux) noexcept {
  if (buf_ != nullptr) buf_->cur[idx_].aux = aux;
}

void Span::await(const std::shared_ptr<FutureTag>& tag) noexcept {
  if (buf_ != nullptr) awaited_ = tag;
}

void Span::link(FutureTag* tag) const noexcept {
  if (buf_ == nullptr || tag == nullptr) return;
  const Rec& r = buf_->cur[idx_];
  tag->op = r.op;
  tag->submit_id = r.id;
}

void add_closed(Kind kind, std::uint64_t start_ns, std::uint64_t end_ns,
                std::uint32_t aux) {
  if (t_buf == nullptr || t_buf->open.empty()) return;
  ThreadBuf& b = *t_buf;
  const Rec& p = b.cur[static_cast<std::size_t>(b.open.back())];
  Rec r;
  r.start = start_ns;
  r.end = end_ns < start_ns ? start_ns : end_ns;
  r.id = (static_cast<std::uint64_t>(b.thread_index) << 40) | ++b.next_seq;
  r.parent = p.id;
  r.op = p.op;
  r.up = b.open.back();
  r.aux = aux;
  r.kind = kind;
  b.cur.push_back(r);
}

Aggregate collect_and_reset() {
  Aggregate total;
  std::lock_guard<std::mutex> lk(g_bufs_mu);
  for (auto& b : g_bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    total.merge(b->agg);
    b->agg = Aggregate{};
  }
  return total;
}

bool write_tsv(const std::string& path, const std::string& header_comment) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\n", header_comment.c_str());
  std::fprintf(f, "thread\tid\tparent\top\tkind\tlayer\tstart_ns\tend_ns\taux\n");
  std::lock_guard<std::mutex> lk(g_bufs_mu);
  for (auto& b : g_bufs) {
    std::lock_guard<std::mutex> blk(b->mu);
    for (const Rec& r : b->kept) {
      std::fprintf(f, "%u\t%llu\t%llu\t%llu\t%s\t%s\t%llu\t%llu\t%u\n",
                   b->thread_index, static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.op), kind_name(r.kind),
                   layer_name(layer_of(r.kind)),
                   static_cast<unsigned long long>(r.start),
                   static_cast<unsigned long long>(r.end), r.aux);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace pb::trace
