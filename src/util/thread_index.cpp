#include "util/thread_index.hpp"

#include <mutex>
#include <vector>

namespace txf::util {

namespace {

/// Free-set of indices. Leaked on purpose: threads (including the main
/// thread's thread_locals) may release after static destructors ran.
struct IndexSet {
  std::mutex mu;
  std::vector<bool> used;

  std::size_t acquire() {
    std::lock_guard<std::mutex> lk(mu);
    for (std::size_t i = 0; i < used.size(); ++i) {
      if (!used[i]) {
        used[i] = true;
        return i;
      }
    }
    used.push_back(true);
    return used.size() - 1;
  }

  void release(std::size_t i) {
    std::lock_guard<std::mutex> lk(mu);
    used[i] = false;
  }
};

IndexSet& index_set() {
  static IndexSet* set = new IndexSet();
  return *set;
}

constexpr std::size_t kUnset = ~std::size_t{0};
/// Returned after the thread's holder is gone (thread_local teardown); out
/// of range for every slot array, so callers fall back to a scan.
constexpr std::size_t kExited = kUnset - 1;

/// Trivially destructible fast path; the holder below fills it once.
thread_local std::size_t t_index = kUnset;

struct Holder {
  std::size_t index;
  Holder() : index(index_set().acquire()) { t_index = index; }
  ~Holder() {
    t_index = kExited;
    index_set().release(index);
  }
};

std::size_t slow_index() {
  thread_local Holder holder;
  return holder.index;
}

}  // namespace

std::size_t thread_index() noexcept {
  const std::size_t i = t_index;
  return i != kUnset ? i : slow_index();
}

}  // namespace txf::util
