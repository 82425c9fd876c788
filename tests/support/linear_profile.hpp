// Legacy linear-scan availability profile, kept as the differential-test
// oracle for the indexed resv::AvailabilityProfile.
//
// This is the original breakpoint-map implementation (std::map from segment
// start to availability, fit queries as exact linear scans over the O(R)
// breakpoints). It is deliberately boring: every operation is a direct walk
// over the sorted map, which makes it easy to audit and very hard to get
// wrong. The indexed profile must return byte-identical answers for every
// query — the property/differential suites (tests/resv_index_test.cpp,
// tests/fuzz_test.cpp) and bench_resv_index enforce and measure exactly
// that. It lives in the test-support library (resched_test_support), so no
// production library ships it; production call sites use
// AvailabilityProfile.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/resv/fit_query.hpp"
#include "src/resv/reservation.hpp"

namespace resched::resv {

class LinearProfile {
 public:
  /// Empty profile: all `capacity` processors free forever.
  explicit LinearProfile(int capacity);

  /// Profile with an initial set of competing reservations.
  LinearProfile(int capacity, std::span<const Reservation> reservations);

  int capacity() const { return capacity_; }
  int reservation_count() const { return reservation_count_; }

  void add(const Reservation& r);
  void release(const Reservation& r);
  void compact(double horizon);

  int available_at(double t) const;
  std::optional<double> earliest_fit(int procs, double duration,
                                     double not_before) const;
  std::optional<double> latest_fit(int procs, double duration, double deadline,
                                   double not_before) const;
  /// Answers each query with the matching earliest_fit / latest_fit scan.
  std::vector<std::optional<double>> fit_many(
      std::span<const FitQuery> queries) const;

  double average_available(double from, double to) const;
  int min_available(double from, double to) const;
  std::vector<double> sample_available(double from, double to,
                                       double step) const;
  std::vector<double> breakpoints() const;
  std::vector<std::pair<double, int>> canonical_steps() const;

 private:
  // steps_[t] = raw availability from time t until the next key. The map
  // always holds a -infinity sentinel, so lookups never fall off the front.
  std::map<double, int> steps_;
  int capacity_;
  int reservation_count_ = 0;
};

}  // namespace resched::resv
