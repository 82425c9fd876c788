#include "tests/support/linear_profile.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.hpp"

namespace resched::resv {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

LinearProfile::LinearProfile(int capacity) : capacity_(capacity) {
  RESCHED_CHECK(capacity >= 1, "platform needs at least one processor");
  steps_[kNegInf] = capacity;
}

LinearProfile::LinearProfile(int capacity,
                             std::span<const Reservation> reservations)
    : LinearProfile(capacity) {
  for (const Reservation& r : reservations) add(r);
}

void LinearProfile::add(const Reservation& r) {
  RESCHED_CHECK(r.procs >= 0, "reservation processor count must be >= 0");
  RESCHED_CHECK(r.start < r.end, "reservation must have positive duration");
  if (r.procs == 0) return;
  // Materialize breakpoints at both ends, then subtract over [start, end).
  auto ensure_key = [this](double t) {
    auto it = steps_.upper_bound(t);
    --it;  // sentinel guarantees validity
    steps_.emplace(t, it->second);  // no-op when the key already exists
  };
  ensure_key(r.start);
  ensure_key(r.end);
  for (auto it = steps_.find(r.start); it->first < r.end; ++it)
    it->second -= r.procs;
  ++reservation_count_;
}

void LinearProfile::release(const Reservation& r) {
  RESCHED_CHECK(r.procs >= 0, "reservation processor count must be >= 0");
  RESCHED_CHECK(r.start < r.end, "reservation must have positive duration");
  if (r.procs == 0) return;
  // Mirror add(): materialize both boundary keys (earlier releases may have
  // coalesced them away), restore availability over [start, end), then drop
  // breakpoints made redundant so the structure converges to what a
  // from-scratch build without r produces.
  auto ensure_key = [this](double t) {
    auto it = steps_.upper_bound(t);
    --it;  // sentinel guarantees validity
    steps_.emplace(t, it->second);
  };
  ensure_key(r.start);
  ensure_key(r.end);
  for (auto it = steps_.find(r.start); it->first < r.end; ++it)
    it->second += r.procs;
  auto coalesce = [this](double t) {
    auto key = steps_.find(t);
    if (key == steps_.end() || key == steps_.begin()) return;
    if (std::prev(key)->second == key->second) steps_.erase(key);
  };
  coalesce(r.end);
  coalesce(r.start);
  --reservation_count_;
}

void LinearProfile::compact(double horizon) {
  auto it = steps_.upper_bound(horizon);
  --it;
  int value_at_horizon = it->second;
  steps_.erase(std::next(steps_.begin()), steps_.upper_bound(horizon));
  steps_.begin()->second = value_at_horizon;
  // The first surviving finite key may now repeat the sentinel's value.
  auto first = std::next(steps_.begin());
  if (first != steps_.end() && first->second == value_at_horizon)
    steps_.erase(first);
}

int LinearProfile::available_at(double t) const {
  auto it = steps_.upper_bound(t);
  --it;
  return std::clamp(it->second, 0, capacity_);
}

std::optional<double> LinearProfile::earliest_fit(int procs, double duration,
                                                  double not_before) const {
  RESCHED_CHECK(procs >= 1, "fit query needs at least one processor");
  RESCHED_CHECK(duration > 0.0, "fit query needs positive duration");
  if (procs > capacity_) return std::nullopt;

  // Scan segments from not_before, tracking the start of the current
  // contiguous feasible run. The profile ends in an all-free segment, so
  // the scan always terminates with a fit.
  auto it = steps_.upper_bound(not_before);
  --it;
  std::optional<double> run_start;
  for (; it != steps_.end(); ++it) {
    double seg_start = std::max(it->first, not_before);
    auto next = std::next(it);
    double seg_end =
        next == steps_.end() ? std::numeric_limits<double>::infinity()
                             : next->first;
    if (seg_end <= not_before) continue;
    if (it->second >= procs) {
      if (!run_start) run_start = seg_start;
      // Direct comparison (not seg_end - start >= duration): the returned
      // window [start, start + duration) must not overshoot the feasible
      // run by a rounding ulp, or back-to-back reservations would overlap.
      if (*run_start + duration <= seg_end) return run_start;
    } else {
      run_start.reset();
    }
  }
  RESCHED_ASSERT(false, "profile tail must be feasible for procs <= capacity");
}

std::optional<double> LinearProfile::latest_fit(int procs, double duration,
                                                double deadline,
                                                double not_before) const {
  RESCHED_CHECK(procs >= 1, "fit query needs at least one processor");
  RESCHED_CHECK(duration > 0.0, "fit query needs positive duration");
  if (procs > capacity_) return std::nullopt;
  if (deadline - duration < not_before) return std::nullopt;

  // Scan segments backwards from the deadline, tracking the end of the
  // current contiguous feasible run. The first run long enough wins — any
  // other candidate start would be strictly earlier.
  auto it = steps_.upper_bound(deadline);
  --it;
  std::optional<double> run_end;
  while (true) {
    auto next = std::next(it);
    double seg_end = std::min(
        next == steps_.end() ? std::numeric_limits<double>::infinity()
                             : next->first,
        deadline);
    double seg_start = it->first;
    if (seg_start < seg_end) {  // non-empty after clamping to the deadline
      if (it->second >= procs) {
        if (!run_end) run_end = seg_end;
        // Nudge down until start + duration fits inside the run exactly:
        // run_end - duration can round up by an ulp, which would overlap a
        // reservation beginning at run_end.
        double start = *run_end - duration;
        while (start + duration > *run_end)
          start = std::nextafter(start, -std::numeric_limits<double>::infinity());
        if (start >= seg_start) {
          // Feasible within this run; honour not_before: scanning earlier
          // segments can only move the start earlier, so fail hard here.
          return start >= not_before ? std::optional<double>(start)
                                     : std::nullopt;
        }
      } else {
        run_end.reset();
      }
    }
    if (it == steps_.begin()) break;
    --it;
    if (run_end && *run_end - duration < not_before) return std::nullopt;
  }
  return std::nullopt;
}

std::vector<std::optional<double>> LinearProfile::fit_many(
    std::span<const FitQuery> queries) const {
  std::vector<std::optional<double>> out;
  out.reserve(queries.size());
  for (const FitQuery& q : queries)
    out.push_back(q.kind == FitKind::kEarliest
                      ? earliest_fit(q.procs, q.duration, q.not_before)
                      : latest_fit(q.procs, q.duration, q.deadline,
                                   q.not_before));
  return out;
}

double LinearProfile::average_available(double from, double to) const {
  RESCHED_CHECK(from < to, "average_available requires from < to");
  double integral = 0.0;
  auto it = steps_.upper_bound(from);
  --it;
  for (; it != steps_.end(); ++it) {
    double seg_start = std::max(it->first, from);
    auto next = std::next(it);
    double seg_end = std::min(
        next == steps_.end() ? std::numeric_limits<double>::infinity()
                             : next->first,
        to);
    if (seg_start >= to) break;
    if (seg_end <= seg_start) continue;
    integral += static_cast<double>(std::clamp(it->second, 0, capacity_)) *
                (seg_end - seg_start);
  }
  return integral / (to - from);
}

int LinearProfile::min_available(double from, double to) const {
  RESCHED_CHECK(from < to, "min_available requires from < to");
  int lo = capacity_;
  auto it = steps_.upper_bound(from);
  --it;
  for (; it != steps_.end() && it->first < to; ++it) {
    auto next = std::next(it);
    double seg_end = next == steps_.end()
                         ? std::numeric_limits<double>::infinity()
                         : next->first;
    if (seg_end <= from) continue;
    lo = std::min(lo, std::clamp(it->second, 0, capacity_));
  }
  return lo;
}

std::vector<double> LinearProfile::sample_available(double from, double to,
                                                    double step) const {
  RESCHED_CHECK(step > 0.0, "sample step must be positive");
  std::vector<double> out;
  for (double t = from; t < to; t += step)
    out.push_back(static_cast<double>(available_at(t)));
  return out;
}

std::vector<double> LinearProfile::breakpoints() const {
  std::vector<double> out;
  for (const auto& [t, avail] : steps_) {
    (void)avail;
    if (t != kNegInf) out.push_back(t);
  }
  return out;
}

std::vector<std::pair<double, int>> LinearProfile::canonical_steps() const {
  std::vector<std::pair<double, int>> out;
  int prev = steps_.begin()->second;  // sentinel: capacity, unless compacted
  out.emplace_back(kNegInf, prev);
  for (const auto& [t, avail] : steps_) {
    if (t == kNegInf) continue;
    if (avail == prev) continue;
    out.emplace_back(t, avail);
    prev = avail;
  }
  return out;
}

}  // namespace resched::resv
