// Output checks. Each compares what the engine returned against a tally the
// benchmark kept of its own committed operations; every comparison is exact.
// self_test() feeds each check a tally that is off by one and expects a
// rejection, so a check that cannot fail is caught before any run reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb::checks {

/// point_tx: the sum of all balances equals the initial total plus the
/// committed deposits (transfers move money, they never create it).
inline bool conservation(std::int64_t observed_total, std::int64_t initial,
                         std::int64_t committed_deposits) {
  return observed_total == initial + committed_deposits;
}

/// kv_open_loop: each key's RMW counter equals the number of committed RMW
/// requests on that key.
inline bool rmw_counters(const std::vector<std::uint64_t>& counters,
                         const std::vector<std::uint64_t>& tally) {
  return counters == tally;
}

/// kv_open_loop: a multi group's keys always carry one stamp, since a multi
/// request writes the whole group in one transaction.
inline bool group_equal(const std::vector<std::uint64_t>& stamps) {
  for (std::uint64_t s : stamps)
    if (s != stamps.front()) return false;
  return !stamps.empty();
}

/// kv_open_loop: a scan of [lo, hi) over a fully populated index returns
/// every key of the range once, in strictly increasing order.
inline bool scan_keys(const std::vector<std::uint64_t>& keys, std::uint64_t lo,
                      std::uint64_t hi) {
  if (hi < lo || keys.size() != hi - lo) return false;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] < lo || keys[i] >= hi) return false;
    if (i != 0 && keys[i] <= keys[i - 1]) return false;
  }
  return true;
}

/// Returns an empty string when every check accepts its exact tally and
/// rejects the tally off by one; otherwise names the first check at fault.
inline std::string self_test() {
  if (!conservation(1010, 1000, 10) || conservation(1010, 1000, 11) ||
      conservation(1010, 1000, 9))
    return "conservation";
  const std::vector<std::uint64_t> counters = {3, 0, 7};
  if (!rmw_counters(counters, {3, 0, 7}) || rmw_counters(counters, {3, 1, 7}) ||
      rmw_counters(counters, {2, 0, 7}))
    return "rmw_counters";
  if (!group_equal({5, 5, 5, 5}) || group_equal({5, 5, 6, 5}) ||
      group_equal({4, 5, 5, 5}))
    return "group_equal";
  if (!scan_keys({4, 5, 6}, 4, 7) || scan_keys({4, 5, 6}, 4, 8) ||
      scan_keys({4, 5, 6}, 5, 7) || scan_keys({4, 6, 5}, 4, 7) ||
      scan_keys({4, 5, 5}, 4, 7) || scan_keys({4, 5, 7}, 4, 7))
    return "scan_keys";
  return {};
}

}  // namespace pb::checks
