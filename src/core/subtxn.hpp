// Sub-transaction nodes of a transaction tree (paper §II, Fig. 3a).
//
// Every submit point splits the current context into two children: the
// transactional future (left) and the continuation (right). The strong
// ordering semantics is the pre-order of this binary tree with the future
// subtree before the continuation subtree; `follows()` below decides that
// order for any two nodes from their root paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/future_state.hpp"
#include "core/orec.hpp"
#include "stm/read_stats.hpp"
#include "stm/versions.hpp"

namespace txf::stm {
class VBoxImpl;
}

namespace txf::core::adaptive {
struct SiteStats;  // defined in core/adaptive.hpp
}

namespace txf::core {

enum class SubTxnKind : std::uint8_t { kRoot, kFuture, kContinuation };

/// Re-executable body of a transactional future: invoked with the (fresh)
/// node index on first execution and on every re-execution after a
/// validation failure.
using NodeRunner = std::function<void(std::uint32_t node_idx)>;

/// Where a recorded read was served from; validation re-resolves the read
/// and compares provenance (DESIGN.md §2). Tentative and root-write-set
/// reads compare the provenance pointer; permanent reads compare the
/// committed VERSION NUMBER instead — versions are unique per box, and the
/// home-slot fast path serves permanent reads without ever materializing a
/// node pointer.
enum class ReadProvenance : std::uint8_t {
  kTentative,     // a TentativeVersion (in-box or tree-private chain)
  kRootWriteSet,  // the top-level transaction's private write set (Alg. 2)
  kPermanent,     // a committed version at the tree snapshot (home or list)
};

struct ReadEntry {
  stm::VBoxImpl* box;
  const void* provenance;        // kTentative only; null for home-slot reads
  stm::Version perm_version;     // kPermanent only
  ReadProvenance kind;
};

inline constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

struct SubTxn {
  std::uint32_t idx = kNoNode;
  std::uint32_t parent = kNoNode;
  std::uint32_t child_future = kNoNode;        // left child
  std::uint32_t child_continuation = kNoNode;  // right child
  SubTxnKind kind = SubTxnKind::kRoot;
  std::uint32_t depth = 0;

  /// Root path: path[0] = root index, path[depth] = own index.
  std::vector<std::uint32_t> path;
  /// Stable pointers to the path nodes (deque-backed arena), for lock-free
  /// reads of ancestor nClocks.
  std::vector<SubTxn*> path_nodes;
  /// Kind of each node on the path (parallel to `path`); lets follows()
  /// run without arena lookups.
  std::vector<SubTxnKind> path_kinds;
  /// ancVer (paper §III-A): anc_clocks[i] = nClock of path[i] observed when
  /// this sub-transaction started. anc_clocks[depth] is 0 (self).
  std::vector<std::uint32_t> anc_clocks;

  Orec orec;
  /// Count of committed child subtrees (0..2). Written under the tree
  /// mutex; read lock-free when a new child snapshots its ancVer.
  std::atomic<std::uint32_t> nclock{0};

  std::vector<ReadEntry> reads;
  std::vector<stm::VBoxImpl*> written_boxes;
  /// Home-hit / list-walk tallies for this node's data reads (each node's
  /// body is single-threaded); flushed into the env's ReadPathStats by the
  /// tree at commit/teardown.
  stm::ReadPathCounters read_path;
  /// Orecs this node currently controls: its own plus everything absorbed
  /// from committed children. Re-owned upward wholesale on commit.
  std::vector<Orec*> owned_orecs;

  /// For futures: the result slot shared with TxFuture handles, and the
  /// type-erased body used for (re-)execution.
  std::shared_ptr<TxFutureStateBase> future_state;
  std::shared_ptr<NodeRunner> runner;
  /// For futures: the adaptive scheduler's stats slot of the submit site
  /// that created this node (null in fixed scheduling modes). The commit
  /// cascade charges re-executions and continuation conflicts to it; copied
  /// to replacement incarnations. Slot storage outlives every tree (it is
  /// owned by the Runtime's AdaptiveScheduler).
  adaptive::SiteStats* site = nullptr;

  /// For futures: this incarnation was handed to the pool (its task is
  /// counted in the tree's outstanding tasks), so a waiter may claim and run
  /// it instead. Ordered-lane incarnations stay false: their submitter runs
  /// them at once. Guarded by the tree mutex. Who runs the body is decided
  /// by TxFutureStateBase::claim.
  bool pooled = false;

  /// True for replacement nodes created after a validation failure; used
  /// by failure injection to guarantee convergence.
  bool reincarnated = false;

  bool wrote_anything() const noexcept { return !written_boxes.empty(); }
};

/// True iff `a` is serialized after `b` under strong ordering semantics
/// (paper §IV-A, follows()). Both arguments are root paths with kinds.
/// Pre-order rule: at the divergence point, the branch through a
/// continuation child is the later one; if one node is an ancestor of the
/// other, the descendant is later (it runs within/after the ancestor's
/// prefix).
inline bool follows(const std::vector<std::uint32_t>& path_a,
                    const std::vector<SubTxnKind>& kinds_a,
                    const std::vector<std::uint32_t>& path_b) noexcept {
  const std::size_t common =
      path_a.size() < path_b.size() ? path_a.size() : path_b.size();
  std::size_t d = 0;
  while (d < common && path_a[d] == path_b[d]) ++d;
  if (d == common) {
    // One is an ancestor of (or equal to) the other.
    return path_a.size() >= path_b.size();
  }
  return kinds_a[d] == SubTxnKind::kContinuation;
}

}  // namespace txf::core
