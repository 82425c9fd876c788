// Tests for the RESSCHED algorithms (paper §4): schedule validity for every
// BL x BD combination over randomized instances, allocation-bound
// enforcement, the CPA-equivalence property on empty calendars, and metric
// consistency.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/algorithms.hpp"
#include "src/core/ressched.hpp"
#include "src/core/schedule.hpp"
#include "src/cpa/cpa.hpp"
#include "src/dag/daggen.hpp"
#include "src/util/rng.hpp"

namespace resched::core {

// Prints an algorithm by its name in test IDs. gtest's default byte dump
// would include the std::string's data pointer, so the parameterized test
// names would change with the heap layout from one build or run to the next.
void PrintTo(const NamedRessched& algo, std::ostream* os) { *os << algo.name; }

}  // namespace resched::core

namespace {

using namespace resched;

resv::AvailabilityProfile random_profile(int p, int n_res, util::Rng& rng) {
  resv::ReservationList list;
  for (int i = 0; i < n_res; ++i) {
    double start = rng.uniform(-12.0, 96.0) * 3600.0;
    double dur = rng.uniform(0.5, 10.0) * 3600.0;
    list.push_back({start, start + dur,
                    static_cast<int>(rng.uniform_int(1, std::max(1, p / 3)))});
  }
  return resv::AvailabilityProfile(p, list);
}

class ResschedAllCombos
    : public ::testing::TestWithParam<core::NamedRessched> {};

TEST_P(ResschedAllCombos, ProducesValidSchedules) {
  const auto& algo = GetParam();
  util::Rng rng(17);
  for (int trial = 0; trial < 3; ++trial) {
    dag::DagSpec spec;
    spec.num_tasks = 25;
    dag::Dag d = dag::generate(spec, rng);
    const int p = 48;
    auto profile = random_profile(p, 15, rng);
    const double now = 0.0;
    int q = resv::historical_average_available(profile, now, 86400.0);

    auto result = core::schedule_ressched(d, profile, now, q, algo.params);
    auto violation = core::validate_schedule(d, result.schedule, profile, now);
    EXPECT_FALSE(violation.has_value()) << algo.name << ": " << *violation;
    EXPECT_GT(result.turnaround, 0.0);
    EXPECT_GT(result.cpu_hours, 0.0);
    EXPECT_NEAR(result.turnaround, result.schedule.turnaround(now), 1e-9);
    EXPECT_NEAR(result.cpu_hours, result.schedule.cpu_hours(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(TwelveAlgorithms, ResschedAllCombos,
                         ::testing::ValuesIn(core::all_ressched_algorithms()),
                         [](const auto& param_info) { return param_info.param.name; });

TEST(Ressched, RespectsAllocationBounds) {
  util::Rng rng(18);
  dag::DagSpec spec;
  spec.num_tasks = 20;
  dag::Dag d = dag::generate(spec, rng);
  const int p = 64;
  auto profile = random_profile(p, 10, rng);
  int q = resv::historical_average_available(profile, 0.0, 86400.0);

  for (auto bd : {core::BdMethod::kAll, core::BdMethod::kHalf,
                  core::BdMethod::kCpa, core::BdMethod::kCpar}) {
    core::ResschedParams params;
    params.bd = bd;
    auto bounds = core::bd_bounds(d, p, q, bd, params.cpa);
    auto result = core::schedule_ressched(d, profile, 0.0, q, params);
    for (int v = 0; v < d.size(); ++v)
      EXPECT_LE(result.schedule.tasks[static_cast<std::size_t>(v)].procs,
                bounds[static_cast<std::size_t>(v)])
          << core::to_string(bd) << " task " << v;
  }
}

TEST(Ressched, HalfBoundIsHalfThePlatform) {
  util::Rng rng(19);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto bounds = core::bd_bounds(d, 64, 32, core::BdMethod::kHalf, {});
  for (int b : bounds) EXPECT_EQ(b, 32);
  // Degenerate single-processor platform still leaves one processor.
  bounds = core::bd_bounds(d, 1, 1, core::BdMethod::kHalf, {});
  for (int b : bounds) EXPECT_EQ(b, 1);
}

TEST(Ressched, BlAllocationVariantsDiffer) {
  util::Rng rng(20);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto one = core::bl_allocations(d, 64, 32, core::BlMethod::kOne, {});
  auto all = core::bl_allocations(d, 64, 32, core::BlMethod::kAll, {});
  for (int a : one) EXPECT_EQ(a, 1);
  for (int a : all) EXPECT_EQ(a, 64);
  auto cpa64 = core::bl_allocations(d, 64, 32, core::BlMethod::kCpa, {});
  auto cpa32 = core::bl_allocations(d, 64, 32, core::BlMethod::kCpar, {});
  EXPECT_EQ(cpa64, cpa::allocations(d, 64));
  EXPECT_EQ(cpa32, cpa::allocations(d, 32));
}

TEST(Ressched, EmptyCalendarBlCpaBdCpaMatchesPlainCpa) {
  // Paper §4.2: "if the reservation schedule is empty, then the
  // BL_CPA_BD_CPA algorithm is simply the CPA algorithm."
  util::Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    dag::DagSpec spec;
    spec.num_tasks = 30;
    dag::Dag d = dag::generate(spec, rng);
    const int p = 32;
    resv::AvailabilityProfile empty(p);

    core::ResschedParams params;
    params.bl = core::BlMethod::kCpa;
    params.bd = core::BdMethod::kCpa;
    auto result = core::schedule_ressched(d, empty, 0.0, p, params);
    auto plain = cpa::schedule(d, p, 0.0);

    // Same allocations drive both, and the reservation-based placement can
    // only do at least as well as CPA's non-insertion list mapping.
    EXPECT_LE(result.turnaround, plain.makespan + 1e-6);
    EXPECT_GT(result.turnaround, 0.3 * plain.makespan);
  }
}

TEST(Ressched, EarliestCompletionBeatsNaiveSequential) {
  util::Rng rng(22);
  dag::DagSpec spec;
  spec.num_tasks = 30;
  dag::Dag d = dag::generate(spec, rng);
  resv::AvailabilityProfile empty(64);
  core::ResschedParams params;  // BL_CPAR / BD_CPAR defaults
  auto result = core::schedule_ressched(d, empty, 0.0, 64, params);
  double serial = 0.0;
  for (int v = 0; v < d.size(); ++v) serial += dag::exec_time(d.cost(v), 1);
  EXPECT_LT(result.turnaround, serial);
}

TEST(Ressched, CompetingReservationsDelayTheApplication) {
  util::Rng rng(23);
  dag::DagSpec spec;
  spec.num_tasks = 20;
  dag::Dag d = dag::generate(spec, rng);
  const int p = 16;
  resv::AvailabilityProfile empty(p);
  // A fully-reserved first 24 hours forces everything after it.
  resv::ReservationList block{{0.0, 24 * 3600.0, p}};
  resv::AvailabilityProfile blocked(p, block);

  core::ResschedParams params;
  auto free_result = core::schedule_ressched(d, empty, 0.0, p, params);
  auto blocked_result = core::schedule_ressched(d, blocked, 0.0, p, params);
  EXPECT_GE(blocked_result.turnaround, 24 * 3600.0);
  EXPECT_GT(blocked_result.turnaround, free_result.turnaround);

  // The blocked schedule is still valid against its calendar.
  auto violation =
      core::validate_schedule(d, blocked_result.schedule, blocked, 0.0);
  EXPECT_FALSE(violation.has_value()) << *violation;
}

TEST(Ressched, TasksNeverStartBeforeNow) {
  util::Rng rng(24);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  auto profile = random_profile(32, 10, rng);
  const double now = 12345.0;
  core::ResschedParams params;
  auto result = core::schedule_ressched(
      d, profile, now,
      resv::historical_average_available(profile, now, 86400.0), params);
  for (const auto& t : result.schedule.tasks) EXPECT_GE(t.start, now);
}

TEST(Ressched, RejectsBadQHist) {
  util::Rng rng(25);
  dag::Dag d = dag::generate(dag::DagSpec{}, rng);
  resv::AvailabilityProfile profile(16);
  core::ResschedParams params;
  EXPECT_THROW(core::schedule_ressched(d, profile, 0.0, 0, params),
               resched::Error);
  EXPECT_THROW(core::schedule_ressched(d, profile, 0.0, 17, params),
               resched::Error);
}

TEST(ValidateSchedule, DetectsViolations) {
  util::Rng rng(26);
  dag::DagSpec spec;
  spec.num_tasks = 10;
  dag::Dag d = dag::generate(spec, rng);
  resv::AvailabilityProfile profile(16);
  core::ResschedParams params;
  auto result = core::schedule_ressched(d, profile, 0.0, 16, params);
  ASSERT_FALSE(core::validate_schedule(d, result.schedule, profile, 0.0));

  // Tamper: start a task before its predecessor finishes.
  auto broken = result.schedule;
  int exit_task = d.size() - 1;
  auto& r = broken.tasks[static_cast<std::size_t>(exit_task)];
  double shift = r.start;  // move to time 0, certainly before predecessors
  r.start -= shift;
  r.finish -= shift;
  EXPECT_TRUE(core::validate_schedule(d, broken, profile, 0.0).has_value());

  // Tamper: wrong duration.
  broken = result.schedule;
  broken.tasks[0].finish += 1000.0;
  EXPECT_TRUE(core::validate_schedule(d, broken, profile, 0.0).has_value());

  // Tamper: over-subscription (procs beyond capacity).
  broken = result.schedule;
  broken.tasks[0].procs = 17;
  EXPECT_TRUE(core::validate_schedule(d, broken, profile, 0.0).has_value());

  // Tamper: start before now.
  broken = result.schedule;
  EXPECT_TRUE(
      core::validate_schedule(d, broken, profile, 1e9).has_value());
}

TEST(AlgorithmRegistry, NamesAndSizes) {
  auto all = core::all_ressched_algorithms();
  EXPECT_EQ(all.size(), 12u);
  EXPECT_EQ(all.front().name, "BL_1_BD_ALL");
  EXPECT_EQ(all.back().name, "BL_CPAR_BD_CPAR");
  auto t4 = core::table4_algorithms();
  EXPECT_EQ(t4.size(), 4u);
  for (const auto& a : t4) EXPECT_EQ(a.params.bl, core::BlMethod::kCpar);
}

}  // namespace
