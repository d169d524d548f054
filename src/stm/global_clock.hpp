// Version clocks and the active-transaction registry.
//
// The clock is the JVSTM-style "version number of the latest read-write
// transaction that successfully committed" (paper §III-A) — sharded. The
// commit spine partitions VBoxes into power-of-two *stripes* (hash of box
// address, see stripe_of()) and gives every stripe its own clock component
// (`GlobalClock`, unchanged from the single-spine design) driven by its own
// commit pipeline. A transaction's snapshot is the *vector* of components
// (`SnapshotVec`), and each box's versions are compared only against the
// component of the box's own stripe — versions are stripe-local sequence
// numbers, not globally ordered.
//
// Hybrid-epoch snapshot protocol (StripedClock::snapshot):
//  * Single-stripe commits advance only their own component, with zero
//    cross-stripe coordination. A snapshot that straddles such an advance is
//    still a valid serialization point: the two transactions are
//    independent, and each component read is individually monotone.
//  * Multi-stripe commits must appear in a snapshot all-or-nothing (a
//    snapshot must never observe stripe B's write without stripe A's write
//    from the same transaction). They publish all their component advances
//    inside one epoch-seqlock critical section: epoch goes odd, components
//    advance, epoch goes even. Snapshot readers retry while the epoch is odd
//    or changed across their component reads, so every snapshot is a
//    consistent cut with respect to multi-stripe publication instants.
//  * What is deliberately NOT guaranteed: real-time order between two
//    *independent* single-stripe commits in different stripes. A snapshot
//    may include the later one and miss the earlier one; since no
//    transaction (and no happens-before edge through the STM) connects
//    them, this is serializable — see DESIGN.md "Sharded commit spine".
//
// The registry tracks the snapshot vector of every live transaction so the
// version GC can compute, per stripe, the oldest component still in use and
// trim permanent version lists behind it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "util/cache_line.hpp"
#include "util/spin_lock.hpp"
#include "util/thread_index.hpp"

namespace txf::stm {

using Version = std::uint64_t;
inline constexpr Version kNoVersion = std::numeric_limits<Version>::max();

/// Hard cap on commit stripes (Config::commit_stripes); keeps SnapshotVec a
/// fixed-size value type and the registry slots statically sized.
inline constexpr unsigned kMaxStripes = 32;

/// Stripe of a VBox: a multiplicative hash of the box address (low 6 bits
/// dropped — boxes are at least a cache line apart in arrays) masked to the
/// power-of-two stripe count. `mask` is stripe_count - 1; callers with one
/// stripe pass 0 and pay nothing.
inline unsigned stripe_of(const void* box, unsigned mask) noexcept {
  if (mask == 0) return 0;
  const auto p = reinterpret_cast<std::uintptr_t>(box);
  const std::uint64_t h =
      static_cast<std::uint64_t>(p >> 6) * 0x9e3779b97f4a7c15ULL;
  return static_cast<unsigned>(h >> 58) & mask;
}

class GlobalClock {
 public:
  /// Snapshot component for a starting transaction.
  Version current() const noexcept {
    return clock_->load(std::memory_order_acquire);
  }

  /// Monotonically raise the clock to at least `v` (helpers may race; the
  /// max wins).
  ///
  /// Group-commit contract (see commit_queue.hpp): the clock advances once
  /// per *batch*, only after every box written by the batch carries its new
  /// version. Snapshots therefore observe a batch atomically — either all of
  /// its versions (snapshot >= batch tail) or none (snapshot <= batch base);
  /// no snapshot can ever fall between two versions assigned by the same
  /// batch, which is what licenses skipping the write-back of same-batch
  /// shadowed nodes.
  void advance_to(Version v) noexcept {
    Version cur = clock_->load(std::memory_order_relaxed);
    while (cur < v && !clock_->compare_exchange_weak(
                          cur, v, std::memory_order_release,
                          std::memory_order_relaxed)) {
    }
  }

 private:
  util::CacheAligned<std::atomic<Version>> clock_{0};
};

/// A transaction's snapshot: one component per stripe. Only the first
/// `stripes()` entries of the env's StripedClock are meaningful; helpers
/// take the count explicitly so the type stays a trivial value.
struct SnapshotVec {
  std::array<Version, kMaxStripes> seq;

  Version operator[](unsigned s) const noexcept { return seq[s]; }
  Version& operator[](unsigned s) noexcept { return seq[s]; }

  bool equals(const SnapshotVec& other, unsigned n) const noexcept {
    for (unsigned s = 0; s < n; ++s) {
      if (seq[s] != other.seq[s]) return false;
    }
    return true;
  }
  Version total(unsigned n) const noexcept {
    Version t = 0;
    for (unsigned s = 0; s < n; ++s) t += seq[s];
    return t;
  }
};

/// The sharded clock: N independent GlobalClock components plus the epoch
/// seqlock that makes multi-stripe publication atomic to snapshot readers.
class StripedClock {
 public:
  explicit StripedClock(unsigned stripes = 1) noexcept
      : n_(stripes == 0 ? 1 : (stripes > kMaxStripes ? kMaxStripes : stripes)) {}

  StripedClock(const StripedClock&) = delete;
  StripedClock& operator=(const StripedClock&) = delete;

  unsigned stripes() const noexcept { return n_; }
  unsigned stripe_mask() const noexcept { return n_ - 1; }

  GlobalClock& component(unsigned s) noexcept { return comps_[s]; }
  const GlobalClock& component(unsigned s) const noexcept { return comps_[s]; }

  /// Component value (the per-stripe sequence). Single-stripe callers use
  /// current(0), which is exactly the old scalar clock.
  Version current(unsigned s = 0) const noexcept {
    return comps_[s].current();
  }

  /// Sum of all components: a cheap monotone progress indicator ("has any
  /// commit happened anywhere since I looked?"), NOT a serialization point.
  Version total() const noexcept {
    Version t = 0;
    for (unsigned s = 0; s < n_; ++s) t += comps_[s].current();
    return t;
  }

  /// Acquire a consistent snapshot cut (see file header for what
  /// "consistent" means here). Retries while a multi-stripe publication is
  /// in flight or completed mid-read.
  void snapshot(SnapshotVec& out) const noexcept {
    if (n_ == 1) {
      out.seq[0] = comps_[0].current();
      return;
    }
    for (;;) {
      const std::uint64_t e0 = epoch_->load(std::memory_order_acquire);
      if (e0 & 1u) continue;  // multi-stripe publish in flight
      for (unsigned s = 0; s < n_; ++s) out.seq[s] = comps_[s].current();
      if (epoch_->load(std::memory_order_acquire) == e0) return;
    }
  }

  /// Publish a multi-stripe commit's component advances atomically with
  /// respect to snapshot(). `apply` runs with the epoch odd and the publish
  /// lock held; it must only call component(s).advance_to(...). The spin
  /// lock serializes concurrent multi-stripe publishers (two disjoint multi
  /// commits would otherwise interleave their epoch flips and break the
  /// odd/even parity the readers rely on).
  template <typename Fn>
  void publish_multi(Fn&& apply) noexcept {
    publish_lock_.lock();
    epoch_->fetch_add(1, std::memory_order_acq_rel);  // odd: publish begins
    apply();
    epoch_->fetch_add(1, std::memory_order_acq_rel);  // even: cut complete
    publish_lock_.unlock();
  }

 private:
  unsigned n_;
  std::array<GlobalClock, kMaxStripes> comps_;
  util::CacheAligned<std::atomic<std::uint64_t>> epoch_{0};
  util::SpinLock publish_lock_;
};

/// Lock-free registry of snapshot vectors held by live transactions. Each
/// claimer publishes its current snapshot into a slot, one component per
/// stripe; `min_active(stripe, upper)` is the conservative per-stripe lower
/// bound the version GC trims behind. The scalar publish/get/min_active
/// overloads operate on component 0 and keep the single-stripe call sites
/// (and tests) unchanged.
///
/// Slots are sticky per thread: claim() first tries the slot numbered by the
/// caller's dense thread index (util/thread_index.hpp), so a thread keeps
/// re-claiming one uncontended line, and the slots in use stay packed at the
/// low end. `min_active` scans only up to the high-water mark of slots ever
/// claimed — every commit trims, so the scan is on the commit path.
class ActiveTxnRegistry {
 public:
  static constexpr std::size_t kMaxSlots = 256;

  class Slot {
   public:
    Slot() noexcept {
      // All components start at kNoVersion ("not reading anything").
      for (auto& v : value_) v.store(kNoVersion, std::memory_order_relaxed);
    }

    void publish(unsigned stripe, Version snapshot) noexcept {
      value_[stripe].store(snapshot, std::memory_order_seq_cst);
    }
    void publish(Version snapshot) noexcept { publish(0, snapshot); }
    void clear(unsigned stripes) noexcept {
      for (unsigned s = 0; s < stripes; ++s) {
        value_[s].store(kNoVersion, std::memory_order_release);
      }
    }
    void clear() noexcept { clear(1); }
    Version get(unsigned stripe = 0) const noexcept {
      return value_[stripe].load(std::memory_order_seq_cst);
    }

   private:
    std::atomic<Version> value_[kMaxStripes];
  };

  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  ActiveTxnRegistry() {
    reg_.counter("stm.registry.overflows", overflows_);
  }

  /// Number of clock stripes whose components get published into slots.
  /// Set once by the owning StmEnv before any transaction runs; release()
  /// uses it to clear every published component.
  void set_stripes(unsigned stripes) noexcept {
    stripes_ = stripes == 0 ? 1 : stripes;
  }
  unsigned stripes() const noexcept { return stripes_; }

  /// Claim the calling thread's sticky slot, or the lowest free one when it
  /// is taken (a thread may hold several claims at once).
  std::size_t claim() noexcept { return claim(util::thread_index()); }

  /// Claim a slot, trying `preferred` first and then the lowest free index.
  /// Returns the slot index, or kNoSlot when all slots are taken (more than
  /// kMaxSlots concurrent transactions). An unclaimed transaction's snapshot
  /// would be invisible to min_active(), so an overflowing claimer is
  /// counted ("stm.registry.overflows") and min_active() degrades to "trim
  /// nothing" until it calls release_unregistered().
  std::size_t claim(std::size_t preferred) noexcept {
    if (preferred < kMaxSlots && try_claim(preferred)) return preferred;
    for (std::size_t i = 0; i < kMaxSlots; ++i) {
      if (try_claim(i)) return i;
    }
    overflows_.add();
    unregistered_->fetch_add(1, std::memory_order_seq_cst);
    return kNoSlot;
  }

  /// Release for a claim() that returned kNoSlot.
  void release_unregistered() noexcept {
    unregistered_->fetch_sub(1, std::memory_order_seq_cst);
  }

  Slot& slot(std::size_t index) noexcept { return *slots_[index]; }

  void release(std::size_t index) noexcept {
    if (index == kNoSlot) return;
    slots_[index]->clear(stripes_);
    claimed_[index]->store(false, std::memory_order_release);
  }

  /// Oldest component of `stripe` any live transaction may be using, bounded
  /// by `upper` (pass the stripe's current clock component). Conservative:
  /// empty registry returns `upper`; any slotless transaction in flight
  /// forces 0 (no trimming).
  ///
  /// Unclaimed slots hold kNoVersion in every component (release() clears
  /// before it frees the slot), so the scan reads slot values only. A
  /// claimer raises the high-water mark before it publishes, and publishes
  /// before it re-checks the clock (publish-then-verify, see
  /// Transaction::begin_snapshot), so a scan that stops short of its slot
  /// used an upper bound its snapshot already covers.
  Version min_active(unsigned stripe, Version upper) const noexcept {
    if (unregistered_->load(std::memory_order_seq_cst) != 0) return 0;
    Version min = upper;
    const std::size_t n = high_water_->load(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < n; ++i) {
      const Version v = slots_[i]->get(stripe);
      if (v < min) min = v;
    }
    return min;
  }
  Version min_active(Version upper) const noexcept {
    return min_active(0, upper);
  }

  /// Claimers that found no free slot (each one stalls trimming for the
  /// whole env until it releases).
  std::uint64_t overflows() const noexcept { return overflows_.load(); }

 private:
  bool try_claim(std::size_t i) noexcept {
    if (claimed_[i]->load(std::memory_order_relaxed)) return false;
    bool expected = false;
    if (!claimed_[i]->compare_exchange_strong(expected, true,
                                              std::memory_order_acq_rel)) {
      return false;
    }
    std::size_t hw = high_water_->load(std::memory_order_relaxed);
    while (hw <= i && !high_water_->compare_exchange_weak(
                          hw, i + 1, std::memory_order_seq_cst,
                          std::memory_order_relaxed)) {
    }
    return true;
  }

  util::CacheAligned<Slot> slots_[kMaxSlots];
  util::CacheAligned<std::atomic<bool>> claimed_[kMaxSlots];
  util::CacheAligned<std::atomic<std::size_t>> high_water_{0};
  util::CacheAligned<std::atomic<std::uint64_t>> unregistered_{0};
  unsigned stripes_ = 1;
  obs::Counter overflows_;
  obs::Registration reg_;
};

}  // namespace txf::stm
