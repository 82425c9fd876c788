// Randomized cross-cutting invariant suite: every scheduler in the library
// against adversarial calendars (tiny platforms, full-machine blocks,
// oversubscribed competing load, extreme DAG shapes). Each instance is
// validated with the independent checkers; this suite is what caught the
// one-ulp reservation-overlap bug during development.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/algorithms.hpp"
#include "src/core/blind_ressched.hpp"
#include "src/core/tightest_deadline.hpp"
#include "src/dag/daggen.hpp"
#include "src/icaslb/icaslb.hpp"
#include "src/multi/deadline_multi.hpp"
#include "src/util/rng.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;

struct FuzzInstance {
  dag::Dag dag;
  resv::AvailabilityProfile profile;
  int q_hist;
};

FuzzInstance make_instance(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(0xF0DD, {seed}));

  dag::DagSpec spec;
  spec.num_tasks = static_cast<int>(rng.uniform_int(3, 25));
  spec.alpha_max = rng.uniform(0.0, 0.3);
  spec.width = rng.uniform(0.1, 0.9);
  spec.density = rng.uniform(0.1, 0.9);
  spec.regularity = rng.uniform(0.1, 0.9);
  spec.jump = static_cast<int>(rng.uniform_int(1, 4));
  dag::Dag dag = dag::generate(spec, rng);

  int p = static_cast<int>(rng.uniform_int(1, 64));
  resv::AvailabilityProfile profile(p);
  int n_res = static_cast<int>(rng.uniform_int(0, 25));
  for (int i = 0; i < n_res; ++i) {
    double start = rng.uniform(-24.0, 120.0) * 3600.0;
    double dur = rng.uniform(0.1, 20.0) * 3600.0;
    // Deliberately include full-machine and oversubscribing reservations.
    int procs = static_cast<int>(rng.uniform_int(1, p + p / 2 + 1));
    profile.add({start, start + dur, procs});
  }
  int q = resv::historical_average_available(profile, 0.0, 7 * 86400.0);
  return FuzzInstance{std::move(dag), std::move(profile), q};
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, AllResschedAlgorithmsProduceValidSchedules) {
  auto inst = make_instance(static_cast<std::uint64_t>(GetParam()));
  for (const auto& algo : core::all_ressched_algorithms()) {
    auto result = core::schedule_ressched(inst.dag, inst.profile, 0.0,
                                          inst.q_hist, algo.params);
    auto violation =
        core::validate_schedule(inst.dag, result.schedule, inst.profile, 0.0);
    ASSERT_FALSE(violation.has_value())
        << algo.name << " seed " << GetParam() << ": " << *violation;
  }
}

TEST_P(FuzzSweep, DeadlineAlgorithmsHonorTheirAnswers) {
  auto inst = make_instance(static_cast<std::uint64_t>(GetParam()));
  core::ResschedParams fwd;
  double base =
      core::schedule_ressched(inst.dag, inst.profile, 0.0, inst.q_hist, fwd)
          .turnaround;

  for (const auto& named : core::table6_algorithms()) {
    for (double factor : {0.8, 1.5, 3.0}) {
      auto result = core::schedule_deadline(inst.dag, inst.profile, 0.0,
                                            inst.q_hist, factor * base,
                                            named.params);
      if (!result.feasible) continue;  // tight probes may legitimately fail
      EXPECT_LE(result.schedule.finish_time(), factor * base + 1e-6)
          << named.name << " seed " << GetParam();
      auto violation = core::validate_schedule(inst.dag, result.schedule,
                                               inst.profile, 0.0);
      ASSERT_FALSE(violation.has_value())
          << named.name << " seed " << GetParam() << ": " << *violation;
    }
  }
}

TEST_P(FuzzSweep, HybridAndOneStepSchedulersStayValid) {
  auto inst = make_instance(static_cast<std::uint64_t>(GetParam()));

  // λ-hybrid at its own tightest deadline.
  core::DeadlineParams hybrid;  // DL_RCBD_CPAR-λ
  auto tight = core::tightest_deadline(inst.dag, inst.profile, 0.0,
                                       inst.q_hist, hybrid);
  if (tight.at_deadline.feasible) {
    auto violation = core::validate_schedule(
        inst.dag, tight.at_deadline.schedule, inst.profile, 0.0);
    ASSERT_FALSE(violation.has_value()) << "hybrid: " << *violation;
  }

  // Reservation-aware iCASLB.
  auto one_step = icaslb::schedule_icaslb_resv(inst.dag, inst.profile, 0.0);
  auto violation =
      core::validate_schedule(inst.dag, one_step.schedule, inst.profile, 0.0);
  ASSERT_FALSE(violation.has_value()) << "icaslb: " << *violation;

  // Blind trial-and-error scheduling.
  resv::BatchScheduler batch(inst.profile);
  core::BlindParams blind;
  blind.probes_per_task = 3;
  auto blind_result =
      core::schedule_blind(inst.dag, batch, 0.0, inst.q_hist, blind);
  violation = core::validate_schedule(inst.dag, blind_result.schedule,
                                      inst.profile, 0.0);
  ASSERT_FALSE(violation.has_value()) << "blind: " << *violation;
}

TEST_P(FuzzSweep, MultiClusterSchedulersStayValid) {
  auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(util::derive_seed(0x3B5D, {seed}));
  auto inst = make_instance(seed);

  std::vector<multi::Cluster> clusters;
  int n_clusters = static_cast<int>(rng.uniform_int(1, 3));
  for (int c = 0; c < n_clusters; ++c) {
    clusters.emplace_back("c" + std::to_string(c),
                          static_cast<int>(rng.uniform_int(4, 48)),
                          rng.uniform(0.5, 2.0));
    int n_res = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < n_res; ++i) {
      double start = rng.uniform(-24.0, 96.0) * 3600.0;
      double dur = rng.uniform(0.5, 12.0) * 3600.0;
      clusters.back().calendar.add(
          {start, start + dur,
           static_cast<int>(
               rng.uniform_int(1, clusters.back().procs()))});
    }
  }
  multi::MultiPlatform platform(std::move(clusters));

  auto forward = multi::schedule_ressched_multi(inst.dag, platform, 0.0);
  auto violation =
      multi::validate_multi_schedule(inst.dag, platform, forward, 0.0);
  ASSERT_FALSE(violation.has_value()) << "multi fwd: " << *violation;

  multi::MultiDeadlineParams dl;
  auto backward = multi::schedule_deadline_multi(
      inst.dag, platform, 0.0, 2.0 * forward.turnaround, dl);
  if (backward.feasible) {
    multi::MultiResult as_multi;
    as_multi.schedule = backward.schedule;
    as_multi.cluster_of = backward.cluster_of;
    violation =
        multi::validate_multi_schedule(inst.dag, platform, as_multi, 0.0);
    ASSERT_FALSE(violation.has_value()) << "multi dl: " << *violation;
    EXPECT_LE(backward.schedule.finish_time(), 2.0 * forward.turnaround + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 15));

// Calendar fuzz: adversarial reservation calendars aimed at the indexed
// profile — zero-proc no-ops, exactly boundary-abutting blocks, heavy
// overlap stacks, sliver durations, and interleaved release/compact — each
// checked against the linear-scan oracle with a dense fit-probe battery.
// Runs under the RESCHED_SANITIZE=address CI job like the rest of the suite.
class CalendarFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CalendarFuzz, AdversarialCalendarsMatchTheLinearOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(util::derive_seed(0xCA1F, {seed}));

  const int p = static_cast<int>(rng.uniform_int(1, 48));
  resv::AvailabilityProfile indexed(p);
  resv::LinearProfile oracle(p);
  std::vector<resv::Reservation> live;

  auto apply = [&](const resv::Reservation& r) {
    indexed.add(r);
    oracle.add(r);
    live.push_back(r);
  };

  const int rounds = 120;
  for (int i = 0; i < rounds; ++i) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55 || live.empty()) {
      double start = rng.uniform(-10.0, 80.0) * 3600.0;
      double dur = rng.bernoulli(0.25) ? rng.uniform(1e-9, 1e-3)  // sliver
                                       : rng.uniform(0.2, 12.0) * 3600.0;
      // Zero-proc reservations must be exact no-ops in both implementations.
      int procs = static_cast<int>(rng.uniform_int(0, p + p / 2 + 1));
      apply({start, start + dur, procs});
      if (rng.bernoulli(0.4)) {
        // Abut exactly at the previous end — no gap, no overlap.
        double dur2 = rng.uniform(0.2, 6.0) * 3600.0;
        apply({start + dur, start + dur + dur2,
               static_cast<int>(rng.uniform_int(0, p))});
      }
      if (rng.bernoulli(0.3)) {
        // Stack an overlapping block straddling the same window.
        apply({start - 1800.0, start + dur / 2,
               static_cast<int>(rng.uniform_int(1, p))});
      }
    } else if (dice < 0.8) {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      indexed.release(live[pick]);
      oracle.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (dice < 0.9) {
      double horizon = rng.uniform(-12.0, 40.0) * 3600.0;
      indexed.compact(horizon);
      oracle.compact(horizon);
      live.erase(std::remove_if(live.begin(), live.end(),
                                [&](const resv::Reservation& r) {
                                  return r.start < horizon;
                                }),
                 live.end());
    } else {
      // Zero-length reservations are rejected identically by both.
      double t = rng.uniform(0.0, 40.0) * 3600.0;
      EXPECT_THROW(indexed.add({t, t, 2}), resched::Error);
      EXPECT_THROW(oracle.add({t, t, 2}), resched::Error);
    }

    ASSERT_EQ(oracle.canonical_steps(), indexed.canonical_steps())
        << "seed " << seed << " round " << i;
    for (int probe = 0; probe < 6; ++probe) {
      int procs = static_cast<int>(rng.uniform_int(1, p));
      double duration = rng.uniform(1.0, 20.0 * 3600.0);
      double not_before = rng.uniform(-20.0, 90.0) * 3600.0;
      double deadline = not_before + rng.uniform(0.0, 40.0) * 3600.0;
      ASSERT_EQ(oracle.earliest_fit(procs, duration, not_before),
                indexed.earliest_fit(procs, duration, not_before))
          << "seed " << seed << " round " << i << " procs " << procs
          << " duration " << duration << " not_before " << not_before;
      ASSERT_EQ(oracle.latest_fit(procs, duration, deadline, not_before),
                indexed.latest_fit(procs, duration, deadline, not_before))
          << "seed " << seed << " round " << i << " procs " << procs
          << " duration " << duration << " deadline " << deadline;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalendarFuzz, ::testing::Range(0, 12));

}  // namespace
