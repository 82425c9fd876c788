#include "src/resv/snapshot.hpp"

#include "src/kernels/kernels.hpp"
#include "src/resv/profile.hpp"
#include "src/util/error.hpp"

namespace resched::resv {

bool CalendarSnapshot::refresh(const AvailabilityProfile& profile) {
  if (fresh(profile)) return false;
  profile.flatten_into(keys_, values_);
  capacity_ = profile.capacity();
  epoch_ = profile.epoch();
  return true;
}

bool CalendarSnapshot::fresh(const AvailabilityProfile& profile) const {
  return epoch_ != 0 && epoch_ == profile.epoch();
}

// The scans are the flat-fit kernels (src/kernels/): this class's
// pre-kernel per-segment scan — itself the LinearProfile oracle's scan
// verbatim, with map iterators replaced by array indices. So every answer
// is byte-identical to the oracle and the treap.

std::optional<double> CalendarSnapshot::earliest_fit(int procs,
                                                     double duration,
                                                     double not_before) const {
  RESCHED_CHECK(procs >= 1, "fit query needs at least one processor");
  RESCHED_CHECK(duration > 0.0, "fit query needs positive duration");
  RESCHED_CHECK(!keys_.empty(), "snapshot queried before refresh()");
  if (procs > capacity_) return std::nullopt;

  // The profile ends in an all-free segment, so the scan always terminates
  // with a fit for procs <= capacity.
  auto fit = kernels::earliest_fit_flat(keys_.data(), values_.data(),
                                        keys_.size(), procs, duration,
                                        not_before);
  RESCHED_ASSERT(fit.has_value(),
                 "profile tail must be feasible for procs <= capacity");
  return fit;
}

std::optional<double> CalendarSnapshot::latest_fit(int procs, double duration,
                                                   double deadline,
                                                   double not_before) const {
  RESCHED_CHECK(procs >= 1, "fit query needs at least one processor");
  RESCHED_CHECK(duration > 0.0, "fit query needs positive duration");
  RESCHED_CHECK(!keys_.empty(), "snapshot queried before refresh()");
  if (procs > capacity_) return std::nullopt;
  return kernels::latest_fit_flat(keys_.data(), values_.data(), keys_.size(),
                                  procs, duration, deadline, not_before);
}

void CalendarSnapshot::fit_many_into(
    std::span<const FitQuery> queries,
    std::vector<std::optional<double>>& out) const {
  out.clear();
  out.reserve(queries.size());
  for (const FitQuery& q : queries)
    out.push_back(q.kind == FitKind::kEarliest
                      ? earliest_fit(q.procs, q.duration, q.not_before)
                      : latest_fit(q.procs, q.duration, q.deadline,
                                   q.not_before));
}

}  // namespace resched::resv
