// Tightest achievable deadline per algorithm (paper §5.3).
//
// The paper's first deadline metric is the earliest deadline K for which an
// algorithm still produces a feasible schedule, found by binary search. The
// critical path length with every task on p processors lower-bounds any
// schedule; an exponential search upward from the BD_CPAR turn-around time
// brackets a feasible K, and bisection narrows the bracket to tolerance.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/core/resscheddl.hpp"
#include "src/core/ressched.hpp"
#include "src/resv/fit_query.hpp"
#include "src/resv/profile.hpp"

namespace resched::core {

struct TightestDeadlineOptions {
  double rel_tol = 2e-3;   ///< bracket width vs (deadline − now)
  double abs_tol = 60.0;   ///< bracket width floor [seconds]
  int max_probes = 64;     ///< hard cap on feasibility probes
};

struct TightestDeadlineResult {
  double deadline = 0.0;        ///< tightest K found feasible
  DeadlineResult at_deadline;   ///< the schedule achieving it
  int probes = 0;               ///< feasibility probes spent
};

/// Calendar-aware lower bound on any feasible schedule's finish time. Every
/// task, whatever its allocation, occupies at least one processor for at
/// least its fastest execution time, and earliest_fit is monotone in the
/// duration — so each task finishes at or after the earliest 1-processor
/// window of that fastest time, and no deadline below the latest such
/// finish can be met. One batched earliest-fit query per task.
///
/// This is the one way the floor is computed — tightest_deadline's probe
/// filter, the online engine's admission pre-filter and the shard router's
/// spillover probes all go finish_floor_queries → fit_many_into →
/// finish_floor_from_fits; the last two call the split steps below to
/// reuse their buffers.
double earliest_finish_floor(const dag::Dag& dag,
                             const resv::AvailabilityProfile& competing,
                             double now);

/// The per-task queries behind earliest_finish_floor, split out so callers
/// that evaluate the same job against many calendars (the shard router's
/// spillover probes) build them once. The buffer is cleared first and
/// keeps its capacity. Queries depend only on the DAG, the platform
/// capacity, and `now` — never on a calendar.
void finish_floor_queries(const dag::Dag& dag, int capacity, double now,
                          std::vector<resv::FitQuery>& queries);

/// Floor of prebuilt finish_floor_queries against one calendar: one
/// fit_many_into pass into the caller-owned `fits` buffer (cleared first,
/// capacity kept), then finish_floor_from_fits. Identical doubles to
/// earliest_finish_floor on the same DAG, calendar and time.
double evaluate_finish_floor(std::span<const resv::FitQuery> queries,
                             const resv::AvailabilityProfile& calendar,
                             double now,
                             std::vector<std::optional<double>>& fits);

/// Floor arithmetic over already-resolved fits: fits[i] must be the
/// earliest-fit answer for queries[i]. The floor is the latest
/// fit + duration, and never below `now`.
double finish_floor_from_fits(std::span<const resv::FitQuery> queries,
                              std::span<const std::optional<double>> fits,
                              double now);

/// Finds the tightest deadline `params.algo` can meet at time `now`.
TightestDeadlineResult tightest_deadline(
    const dag::Dag& dag, const resv::AvailabilityProfile& competing,
    double now, int q_hist, const DeadlineParams& params,
    const TightestDeadlineOptions& opts = {});

}  // namespace resched::core
