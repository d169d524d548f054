// Benchmark-side spans: timed from outside the engine, around the public
// calls each workload makes (atomically, submit, get, container calls,
// admission, queue wait).
//
// A span has a kind, start, end, the span that caused it and the id of the
// primary operation it belongs to. Spans live in per-thread memory. When
// the outermost span on a thread closes, the finished tree is folded into
// that thread's aggregates: per-kind counts and durations, self time
// (duration minus same-thread child spans) and, for primary operations, the
// per-layer attribution of the operation's wall time. A sample of finished
// trees is kept verbatim and written out by write_tsv() at exit.
//
// Futures cross threads: a FutureTag created at submit carries the
// operation id and submit span id to whichever thread runs the body, and
// brings the body's first start time back to the get() that awaits it, so
// the part of a join spent waiting for the pool to start the body is
// charged to sched rather than core.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pb::trace {

enum class Kind : std::uint8_t {
  kOp,        // primary operation (root)
  kTx,        // core::atomically call
  kAttempt,   // one invocation of the transaction body
  kSubmit,    // TxCtx::submit
  kFuture,    // one run of a future body (any thread)
  kGet,       // TxFuture::get
  kReads,     // a group of VBox::get calls; aux = read count
  kWrites,    // a group of VBox::put calls; aux = write count
  kMapOp,     // TxMap get/put
  kScan,      // TxBTree::scan; aux = keys returned
  kIndexPut,  // TxBTree::put
  kGenLag,    // scheduled arrival -> generator reached it
  kAdmit,     // AdmissionGate::admit
  kQueue,     // admitted -> dequeued by a worker
  kCount
};

/// Layers a span's self time is charged to. kUnexplained collects time in
/// no layer call: the benchmark's own code between calls and the gaps
/// between phases of an operation.
enum class Layer : std::uint8_t {
  kCore,
  kSched,
  kStm,
  kContainers,
  kServer,
  kUnexplained,
  kCount
};

inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* kind_name(Kind k) noexcept;
const char* layer_name(Layer l) noexcept;
Layer layer_of(Kind k) noexcept;

/// Recording switch. Off, every span constructor is one relaxed load.
void set_enabled(bool on) noexcept;
bool enabled() noexcept;

struct KindStats {
  std::uint64_t count = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t aux = 0;
};

/// Everything folded from finished span trees (all threads, merged).
struct Aggregate {
  std::array<KindStats, kKinds> kinds{};
  std::uint64_t ops = 0;             // primary operations attributed
  std::uint64_t op_wall_ns = 0;      // their summed wall time
  std::array<std::uint64_t, kLayers> layer_ns{};  // summed self time
  std::uint64_t commits = 0;         // tx spans with an attempt child
  std::uint64_t commit_ns = 0;       // last attempt end -> tx end
  std::uint64_t join_sched_ns = 0;   // part of get self time charged to sched

  void merge(const Aggregate& o);
};

/// Carries a future's operation context across threads.
struct FutureTag {
  std::uint64_t op = 0;
  std::uint64_t submit_id = 0;
  std::atomic<std::uint64_t> first_start{0};
};

/// A tag for a future about to be submitted from this thread, or null when
/// recording is off.
std::shared_ptr<FutureTag> make_tag();

class Span {
 public:
  explicit Span(Kind kind, std::uint32_t aux = 0);
  /// Root or child span whose start lies in the past (open-loop requests
  /// start at their scheduled arrival).
  Span(Kind kind, std::uint64_t start_ns, std::uint32_t aux);
  /// Future body span: linked to the submitting operation through `tag`.
  explicit Span(const std::shared_ptr<FutureTag>& tag);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_aux(std::uint32_t aux) noexcept;
  /// For kGet: the future this join waits on.
  void await(const std::shared_ptr<FutureTag>& tag) noexcept;
  /// For kSubmit: fill `tag` with this span's op and id.
  void link(FutureTag* tag) const noexcept;

 private:
  void open(Kind kind, std::uint64_t start_ns, std::uint32_t aux,
            const FutureTag* tag);

  struct ThreadBuf* buf_ = nullptr;
  std::uint32_t idx_ = 0;
  std::shared_ptr<FutureTag> awaited_;
};

/// Add an already finished child span under the innermost open span.
void add_closed(Kind kind, std::uint64_t start_ns, std::uint64_t end_ns,
                std::uint32_t aux = 0);

/// Merge every thread's aggregates, then reset them. Call while no span is
/// being recorded.
Aggregate collect_and_reset();

/// Write the kept span sample as tab-separated rows; false on I/O error.
bool write_tsv(const std::string& path, const std::string& header_comment);

}  // namespace pb::trace
