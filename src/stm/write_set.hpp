// Private write set: open-addressing hash map from VBox to written word.
//
// Top-level (flat) transactions buffer writes here (paper §III-A); the same
// structure backs the tree-private rootWriteSet used by the inter-tree
// conflict fallback (§IV-A, ownedByAnotherTree) and read-set tracking. Hot
// path is lookup-on-every-read, so this is a flat, allocation-light table
// rather than std::unordered_map — with an inline fast path in front:
//
//   * The first kInline (8) distinct boxes live in a fixed in-object array
//     scanned linearly — no hashing, no heap. Short transactions (the
//     common case in Vacation and the synthetic read-only workload) never
//     touch the heap table at all; a fresh map performs ZERO allocations
//     until the 9th distinct box spills.
//   * The heap table is allocated lazily on first spill and backs entries
//     9..n with the original linear-probing scheme. Inline entries never
//     migrate: insertion order guarantees order_[0..inline_count_) are
//     exactly the inline residents, which clear() exploits.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "stm/versions.hpp"

namespace txf::stm {

class VBoxImpl;

class WriteSetMap {
 public:
  /// Inline capacity: one cache line of Entry{box, value} pairs.
  static constexpr std::size_t kInline = 8;

  struct Entry {
    VBoxImpl* box = nullptr;
    Word value = 0;
  };

  WriteSetMap() = default;

  /// O(size), not O(capacity): the table never shrinks after grow(), so a
  /// pooled/reused map must not pay a full-table fill to drop a tiny write
  /// set. Each spilled box is walked to its slot and cleared individually;
  /// the probe loop cannot use empty-slot termination (earlier clears punch
  /// holes into probe chains) but every box in order_ is guaranteed present,
  /// so scanning until found always terminates.
  void clear() {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < inline_count_; ++i) inline_[i] = Entry{};
    const std::size_t spilled = size_ - inline_count_;
    if (spilled > 0) {
      if (spilled * 4 >= table_.size()) {
        std::fill(table_.begin(), table_.end(), Entry{});
      } else {
        for (std::size_t k = inline_count_; k < order_.size(); ++k) {
          VBoxImpl* box = order_[k];
          std::size_t i = probe_start(box);
          while (table_[i].box != box) i = (i + 1) & mask_;
          table_[i] = Entry{};
        }
      }
    }
    order_.clear();
    inline_count_ = 0;
    size_ = 0;
  }

  /// clear(), then give the storage back when it outgrew `max_entries`
  /// (recycled owners keep a small map's capacity, not a huge one's).
  void clear_capped(std::size_t max_entries) {
    clear();
    if (order_.capacity() > max_entries) std::vector<VBoxImpl*>().swap(order_);
    if (table_.size() > 2 * max_entries) {
      std::vector<Entry>().swap(table_);
      mask_ = 0;
    }
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Insert or overwrite.
  void put(VBoxImpl* box, Word value) {
    for (std::size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i].box == box) {
        inline_[i].value = value;
        return;
      }
    }
    if (inline_count_ < kInline && size_ == inline_count_) {
      inline_[inline_count_].box = box;
      inline_[inline_count_].value = value;
      ++inline_count_;
      order_.push_back(box);
      ++size_;
      return;
    }
    put_spilled(box, value);
  }

  /// True iff `box` is already tracked — the read path's duplicate-read
  /// check; for short transactions it is a ≤8-entry linear scan that never
  /// touches the heap.
  bool contains(const VBoxImpl* box) const noexcept {
    return find(box) != nullptr;
  }

  /// Returns pointer to the stored value or nullptr.
  const Word* find(const VBoxImpl* box) const noexcept {
    for (std::size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i].box == box) return &inline_[i].value;
    }
    if (size_ == inline_count_) return nullptr;  // nothing spilled
    std::size_t i = probe_start(box);
    for (;;) {
      const Entry& e = table_[i];
      if (e.box == box) return &e.value;
      if (e.box == nullptr) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  /// Boxes in first-write order (stable iteration for write-back).
  const std::vector<VBoxImpl*>& boxes() const noexcept { return order_; }

  Word value_of(const VBoxImpl* box) const noexcept {
    const Word* w = find(box);
    return w != nullptr ? *w : 0;
  }

 private:
  void put_spilled(VBoxImpl* box, Word value) {
    const std::size_t spilled = size_ - inline_count_;
    if (table_.empty()) {
      reset_table(16);
    } else if ((spilled + 1) * 10 >= table_.size() * 7) {
      grow();
    }
    std::size_t i = probe_start(box);
    for (;;) {
      Entry& e = table_[i];
      if (e.box == box) {
        e.value = value;
        return;
      }
      if (e.box == nullptr) {
        e.box = box;
        e.value = value;
        order_.push_back(box);
        ++size_;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  std::size_t probe_start(const VBoxImpl* box) const noexcept {
    auto h = reinterpret_cast<std::uintptr_t>(box);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & mask_;
  }

  void reset_table(std::size_t cap) {
    table_.assign(cap, Entry{});
    mask_ = cap - 1;
  }

  void grow() {
    std::vector<Entry> old;
    old.swap(table_);
    reset_table(old.size() * 2);
    for (const Entry& e : old) {
      if (e.box == nullptr) continue;
      std::size_t i = probe_start(e.box);
      while (table_[i].box != nullptr) i = (i + 1) & mask_;
      table_[i] = e;
    }
  }

  std::array<Entry, kInline> inline_{};
  std::size_t inline_count_ = 0;
  std::vector<Entry> table_;
  std::vector<VBoxImpl*> order_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace txf::stm
