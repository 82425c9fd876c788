// Flattened structure-of-arrays view of an availability calendar
// (DESIGN.md §11).
//
// A CalendarSnapshot is the step function of an AvailabilityProfile frozen
// into two parallel arrays: segment start times (keys, leading with the
// -infinity sentinel) and raw availability values. Fit queries against the
// snapshot run the flat-fit kernels (src/kernels/), which are the legacy
// linear scan of resv::LinearProfile — the differential oracle — over
// contiguous memory instead of a map, so every answer is byte-identical to
// both the oracle and the treap (resv::StepIndex): same segments, same
// arithmetic, same one-ulp nudge in latest_fit.
//
// AvailabilityProfile never consults a snapshot itself; single fit queries
// always descend the treap. Snapshots are for callers that probe one
// frozen calendar many times and own the snapshot explicitly:
//
//   * finish-floor probes — the online engine, the shard router and
//     core::tightest_deadline probe admission lower bounds
//     (core::earliest_finish_floor) against a snapshot keyed by the
//     profile's mutation epoch. Consecutive jobs, and consecutive
//     spillover probes across shards, hit the same frozen arrays with zero
//     rebuilds until the calendar actually changes;
//
//   * batched admission — reschedd's ServerCore::apply_batch answers a
//     pipelined burst's floor queries through one snapshot and one
//     fit_many_into pass.
//
// refresh() is cheap when nothing changed (one epoch compare) and O(R)
// when it did; the arrays keep their capacity across rebuilds, so a warm
// snapshot allocates nothing in steady state. A snapshot is mutated only by
// refresh(); sharing one across threads needs the owner's synchronization.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/resv/fit_query.hpp"

namespace resched::resv {

class AvailabilityProfile;

class CalendarSnapshot {
 public:
  /// Empty snapshot; never fresh() until the first refresh().
  CalendarSnapshot() = default;

  /// Re-flattens from `profile` unless this snapshot already mirrors its
  /// current mutation epoch. Returns true when a rebuild happened.
  bool refresh(const AvailabilityProfile& profile);

  /// True when the snapshot mirrors `profile`'s current state. Epochs are
  /// globally unique per mutation event and copies inherit them, so an
  /// epoch match alone proves the step functions are identical — a
  /// snapshot taken from a profile stays fresh for that profile's copies
  /// too (RESSCHED clones its calendar per pass).
  bool fresh(const AvailabilityProfile& profile) const;

  int capacity() const { return capacity_; }
  /// Number of segments (>= 1 once built; the sentinel segment counts).
  std::size_t segments() const { return keys_.size(); }

  /// Same contract and byte-identical result as
  /// AvailabilityProfile::earliest_fit on the source profile.
  std::optional<double> earliest_fit(int procs, double duration,
                                     double not_before) const;

  /// Same contract and byte-identical result as
  /// AvailabilityProfile::latest_fit on the source profile.
  std::optional<double> latest_fit(int procs, double duration, double deadline,
                                   double not_before) const;

  /// Batch form writing into a caller-owned buffer (cleared first), so hot
  /// loops reuse capacity instead of allocating per batch.
  void fit_many_into(std::span<const FitQuery> queries,
                     std::vector<std::optional<double>>& out) const;

 private:
  std::vector<double> keys_;  ///< segment starts; keys_[0] is -infinity
  std::vector<int> values_;   ///< raw availability per segment (unclamped)
  int capacity_ = 0;
  std::uint64_t epoch_ = 0;  ///< 0 = never refreshed (profiles start at 1)
};

}  // namespace resched::resv
