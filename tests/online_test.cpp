// Online engine tests: deterministic event ordering, incremental calendar
// mutation (commit / rollback vs from-scratch rebuild), deadline admission
// control (reject and counter-offer paths), and an end-to-end 500-job SWF
// replay whose utilization / acceptance metrics are cross-checked against
// an offline recomputation.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/online/event_queue.hpp"
#include "src/online/replay.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/workload/swf.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;
using online::AdmissionPolicy;
using online::Decision;
using online::Event;
using online::EventQueue;
using online::EventType;
using online::JobSubmission;
using online::SchedulerService;
using online::ServiceConfig;
using resv::AvailabilityProfile;
using resv::Reservation;

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  q.push({5.0, EventType::kTaskCompletion, 1, 0, 2, 0});
  q.push({1.0, EventType::kSubmission, 2, -1, 0, 0});
  q.push({3.0, EventType::kReservationStart, 3, -1, 4, 0});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 5.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, BreaksTiesFifoBySequence) {
  EventQueue q;
  // Three events at the same instant, interleaved with an earlier one.
  std::uint64_t a = q.push({7.0, EventType::kSubmission, 10, -1, 0, 0});
  std::uint64_t b = q.push({7.0, EventType::kSubmission, 11, -1, 0, 0});
  q.push({2.0, EventType::kSubmission, 9, -1, 0, 0});
  std::uint64_t c = q.push({7.0, EventType::kTaskCompletion, 12, 0, 1, 0});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(q.pop().job, 9);
  EXPECT_EQ(q.pop().job, 10);  // FIFO among the t=7 tie, not heap order
  EXPECT_EQ(q.pop().job, 11);
  EXPECT_EQ(q.pop().job, 12);
}

TEST(EventQueue, PeekAndValidation) {
  EventQueue q;
  EXPECT_THROW(q.peek(), resched::Error);
  EXPECT_THROW(q.pop(), resched::Error);
  Event nan_event;
  nan_event.time = std::nan("");
  EXPECT_THROW(q.push(nan_event), resched::Error);
  q.push({4.0, EventType::kSubmission, 1, -1, 0, 0});
  EXPECT_DOUBLE_EQ(q.peek().time, 4.0);
  EXPECT_EQ(q.size(), 1u);
}

// --- Incremental calendar mutation -----------------------------------------

resv::ReservationList random_reservations(int n, int capacity,
                                          util::Rng& rng) {
  resv::ReservationList rs;
  for (int i = 0; i < n; ++i) {
    double start = rng.uniform(0.0, 5000.0);
    double dur = rng.uniform(1.0, 800.0);
    int procs = static_cast<int>(rng.uniform_int(1, capacity / 2));
    rs.push_back({start, start + dur, procs});
  }
  return rs;
}

TEST(IncrementalProfile, CommitThenRollbackRestoresCanonicalSteps) {
  util::Rng rng(123);
  const int capacity = 32;
  for (int trial = 0; trial < 20; ++trial) {
    resv::ReservationList base = random_reservations(12, capacity, rng);
    AvailabilityProfile p(capacity, base);
    auto before = p.canonical_steps();

    resv::ReservationList group = random_reservations(6, capacity, rng);
    auto token = p.commit(group);
    EXPECT_EQ(token.size(), group.size());
    EXPECT_EQ(p.reservation_count(), 18);

    // While committed the profile matches a from-scratch rebuild of
    // base + group.
    resv::ReservationList all = base;
    all.insert(all.end(), group.begin(), group.end());
    EXPECT_EQ(p.canonical_steps(),
              AvailabilityProfile(capacity, all).canonical_steps());

    p.rollback(token);
    EXPECT_TRUE(token.empty());
    EXPECT_EQ(p.reservation_count(), 12);
    EXPECT_EQ(p.canonical_steps(), before);
    // And identical to a from-scratch rebuild of the base set alone.
    EXPECT_EQ(p.canonical_steps(),
              AvailabilityProfile(capacity, base).canonical_steps());
  }
}

TEST(IncrementalProfile, CommitOfMalformedGroupLeavesProfileUntouched) {
  // Regression: commit() used to add() group members one by one and threw
  // mid-loop on the first malformed reservation, leaking every member
  // already added (no token reached the caller to roll them back). The
  // whole group is now validated up front — strong guarantee.
  util::Rng rng(9);
  const int capacity = 16;
  AvailabilityProfile p(capacity, random_reservations(8, capacity, rng));
  const auto before = p.canonical_steps();
  const int count_before = p.reservation_count();

  resv::ReservationList bad_tail = random_reservations(4, capacity, rng);
  bad_tail.push_back({500.0, 500.0, 2});  // zero duration: malformed
  EXPECT_THROW(p.commit(bad_tail), resched::Error);
  EXPECT_EQ(p.reservation_count(), count_before);
  EXPECT_EQ(p.canonical_steps(), before);

  resv::ReservationList bad_procs = random_reservations(4, capacity, rng);
  bad_procs.push_back({100.0, 200.0, -3});  // negative procs: malformed
  EXPECT_THROW(p.commit(bad_procs), resched::Error);
  EXPECT_EQ(p.reservation_count(), count_before);
  EXPECT_EQ(p.canonical_steps(), before);
}

TEST(IncrementalProfile, ReleaseMatchesRebuildWithoutTheReservation) {
  util::Rng rng(77);
  const int capacity = 16;
  for (int trial = 0; trial < 20; ++trial) {
    resv::ReservationList rs = random_reservations(10, capacity, rng);
    AvailabilityProfile p(capacity, rs);
    // Release a random half, in random order.
    std::vector<int> order = rng.sample_without_replacement(10, 5);
    std::vector<bool> kept(rs.size(), true);
    for (int idx : order) {
      p.release(rs[static_cast<std::size_t>(idx)]);
      kept[static_cast<std::size_t>(idx)] = false;
    }
    resv::ReservationList remaining;
    for (std::size_t i = 0; i < rs.size(); ++i)
      if (kept[i]) remaining.push_back(rs[i]);
    EXPECT_EQ(p.canonical_steps(),
              AvailabilityProfile(capacity, remaining).canonical_steps());
    EXPECT_EQ(p.reservation_count(), 5);
  }
}

TEST(IncrementalProfile, InterleavedCommitReleaseCompactMatchesOracle) {
  // The repair engine's hot path: reservations enter the calendar as
  // admission-time commit groups, then get torn apart one reservation at a
  // time (evictions), re-added elsewhere (re-placements), and interleaved
  // with compaction. Differential check against the linear oracle after
  // every mutation, plus fit probes.
  util::Rng rng(0xF7);
  const int capacity = 24;
  resv::AvailabilityProfile p(capacity);
  resv::LinearProfile oracle(capacity);
  std::vector<resv::Reservation> live;
  int adds_minus_releases = 0;  // reservation_count() ignores compaction

  for (int round = 0; round < 400; ++round) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.35 || live.empty()) {
      // Commit a group; afterwards its members are ordinary individual
      // reservations (the service keeps the token only within one
      // admission).
      resv::ReservationList group =
          random_reservations(static_cast<int>(rng.uniform_int(1, 5)),
                              capacity, rng);
      p.commit(group);
      adds_minus_releases += static_cast<int>(group.size());
      for (const resv::Reservation& r : group) {
        oracle.add(r);
        live.push_back(r);
      }
    } else if (dice < 0.70) {
      // Evict: release one member of some long-gone group.
      std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      p.release(live[pick]);
      oracle.release(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      --adds_minus_releases;
    } else if (dice < 0.90) {
      // Re-place: add a single reservation.
      resv::Reservation r = random_reservations(1, capacity, rng)[0];
      p.add(r);
      oracle.add(r);
      live.push_back(r);
      ++adds_minus_releases;
    } else {
      const double horizon = rng.uniform(0.0, 3000.0);
      p.compact(horizon);
      oracle.compact(horizon);
      std::erase_if(live, [&](const resv::Reservation& r) {
        return r.start < horizon;
      });
    }
    ASSERT_EQ(p.canonical_steps(), oracle.canonical_steps())
        << "diverged at round " << round;
    ASSERT_EQ(p.reservation_count(), adds_minus_releases);
    const int procs = static_cast<int>(rng.uniform_int(1, capacity));
    const double dur = rng.uniform(1.0, 1000.0);
    const double from = rng.uniform(0.0, 6000.0);
    ASSERT_EQ(p.earliest_fit(procs, dur, from),
              oracle.earliest_fit(procs, dur, from))
        << "fit diverged at round " << round;
  }
}

TEST(IncrementalProfile, CompactPreservesFutureQueries) {
  AvailabilityProfile p(8);
  p.add({0.0, 10.0, 3});
  p.add({20.0, 30.0, 5});
  p.add({25.0, 40.0, 2});
  AvailabilityProfile reference = p;
  p.compact(22.0);
  for (double t : {22.0, 24.0, 25.0, 29.0, 30.0, 35.0, 40.0, 50.0})
    EXPECT_EQ(p.available_at(t), reference.available_at(t)) << "t=" << t;
  // Breakpoints before the horizon are gone; the value at the horizon
  // became the new "since forever" level.
  EXPECT_GE(p.breakpoints().front(), 22.0);
  EXPECT_EQ(p.available_at(-1e9), reference.available_at(22.0));
  auto fit = p.earliest_fit(8, 5.0, 22.0);
  ASSERT_TRUE(fit.has_value());
  EXPECT_DOUBLE_EQ(*fit, 40.0);
}

// --- Admission control ------------------------------------------------------

dag::Dag chain_dag(int tasks, double seq_time) {
  std::vector<dag::TaskCost> costs;
  for (int i = 0; i < tasks; ++i)
    costs.push_back({seq_time, 1.0});  // alpha = 1: exec time fixed at
                                       // seq_time regardless of processors
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < tasks; ++i) edges.emplace_back(i, i + 1);
  return dag::Dag(std::move(costs), edges);
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.capacity = 8;
  config.history_window = 3600.0;
  return config;
}

TEST(AdmissionControl, FeasibleDeadlineJobIsAccepted) {
  SchedulerService service(small_config());
  // 3-task chain of 100 s tasks; a deadline of 1000 s is comfortable.
  service.submit({1, 0.0, chain_dag(3, 100.0), 1000.0});
  service.run_all();
  ASSERT_EQ(service.outcomes().size(), 1u);
  const auto& out = service.outcomes()[0];
  EXPECT_EQ(out.decision, Decision::kAccepted);
  EXPECT_LE(out.finish, 1000.0);
  EXPECT_EQ(service.metrics().accepted(), 1);
  EXPECT_EQ(service.metrics().completed(), 1);
  EXPECT_DOUBLE_EQ(service.metrics().acceptance_rate(), 1.0);
}

TEST(AdmissionControl, InfeasibleDeadlineRejectedUnderRejectPolicy) {
  ServiceConfig config = small_config();
  config.admission = AdmissionPolicy::kRejectInfeasible;
  SchedulerService service(config);
  // The platform is fully reserved for 10000 s, so a 500 s deadline on a
  // 300 s chain cannot be met.
  service.submit_reservation(0.0, {0.0, 10000.0, 8});
  service.run_until(0.0);
  auto before = service.profile().canonical_steps();

  service.submit({7, 1.0, chain_dag(3, 100.0), 500.0});
  service.run_all();
  ASSERT_EQ(service.outcomes().size(), 1u);
  const auto& out = service.outcomes()[0];
  EXPECT_EQ(out.decision, Decision::kRejected);
  EXPECT_TRUE(std::isnan(out.finish));
  // A rejected admission leaves the calendar untouched.
  EXPECT_EQ(service.profile().canonical_steps(), before);
  EXPECT_EQ(service.metrics().rejected(), 1);
  EXPECT_DOUBLE_EQ(service.metrics().acceptance_rate(), 0.0);
}

TEST(AdmissionControl, CounterOfferSchedulesAtEarliestFeasibleDeadline) {
  ServiceConfig config = small_config();
  config.admission = AdmissionPolicy::kCounterOffer;
  SchedulerService service(config);
  service.submit_reservation(0.0, {0.0, 10000.0, 8});
  service.submit({7, 1.0, chain_dag(3, 100.0), 500.0});
  service.run_all();
  ASSERT_EQ(service.outcomes().size(), 1u);
  const auto& out = service.outcomes()[0];
  EXPECT_EQ(out.decision, Decision::kCounterOffered);
  // The offered deadline beats the request (it was infeasible) but the
  // committed schedule honours it, starting only after the platform frees.
  EXPECT_GT(out.counter_offer, 500.0);
  EXPECT_LE(out.finish, out.counter_offer);
  EXPECT_GE(out.start, 10000.0);
  EXPECT_EQ(service.metrics().counter_offered(), 1);
  EXPECT_DOUBLE_EQ(service.metrics().acceptance_rate(), 1.0);
}

TEST(AdmissionControl, CounterOfferBeyondLimitIsRolledBackAndRejected) {
  ServiceConfig config = small_config();
  config.admission = AdmissionPolicy::kCounterOffer;
  // Request allows 499 s of slack; the earliest feasible completion is past
  // 10000 s, far beyond 2x the requested budget -> the submitter declines.
  config.counter_offer_limit = 2.0;
  SchedulerService service(config);
  service.submit_reservation(0.0, {0.0, 10000.0, 8});
  service.run_until(0.0);
  auto before = service.profile().canonical_steps();

  service.submit({7, 1.0, chain_dag(3, 100.0), 500.0});
  service.run_all();
  ASSERT_EQ(service.outcomes().size(), 1u);
  const auto& out = service.outcomes()[0];
  EXPECT_EQ(out.decision, Decision::kRejected);
  EXPECT_GT(out.counter_offer, 10000.0);  // the offer was computed...
  // ...but its tentative commit was rolled back: calendar unchanged.
  EXPECT_EQ(service.profile().canonical_steps(), before);
  EXPECT_EQ(service.metrics().rejected(), 1);
}

TEST(AdmissionControl, AuditedRollbackReleasesEveryPartialAllocation) {
  // Regression for the rollback path of a rejected mid-DAG admission: every
  // one of the multi-task tentative commit's reservations must be released.
  // audit_rollback makes the service itself assert the calendar's canonical
  // steps are byte-identical before and after; the test additionally checks
  // the reservation count (a leak that happens to cancel out in the step
  // function would still trip this).
  ServiceConfig config = small_config();
  config.admission = AdmissionPolicy::kCounterOffer;
  config.counter_offer_limit = 2.0;
  config.audit_rollback = true;
  SchedulerService service(config);
  service.submit_reservation(0.0, {0.0, 10000.0, 8});
  service.run_until(0.0);
  const auto before = service.profile().canonical_steps();
  const int count_before = service.profile().reservation_count();

  // A wide 6-task DAG: the tentative commit holds 6 reservations, all of
  // which must come back out when the counter-offer is declined.
  service.submit({7, 1.0, chain_dag(6, 100.0), 500.0});
  service.run_all();
  ASSERT_EQ(service.outcomes().size(), 1u);
  EXPECT_EQ(service.outcomes()[0].decision, Decision::kRejected);
  EXPECT_EQ(service.profile().reservation_count(), count_before);
  EXPECT_EQ(service.profile().canonical_steps(), before);
  // The rejected job left no live state behind: a later submission with
  // the same id is legal (nothing was committed for it).
  service.submit({7, service.now() + 1.0, chain_dag(2, 50.0), std::nullopt});
  service.run_all();
  EXPECT_EQ(service.metrics().accepted(), 1);
  EXPECT_EQ(service.metrics().completed(), 1);
}

TEST(Service, BestEffortJobsAlwaysScheduled) {
  SchedulerService service(small_config());
  for (int i = 0; i < 5; ++i)
    service.submit({i, i * 10.0, chain_dag(2, 50.0), std::nullopt});
  service.run_all();
  EXPECT_EQ(service.metrics().accepted(), 5);
  EXPECT_EQ(service.metrics().completed(), 5);
  for (const auto& out : service.outcomes()) {
    EXPECT_EQ(out.decision, Decision::kAccepted);
    EXPECT_GE(out.start, out.submit);
  }
  // Wait/turn-around/stretch are consistent with the outcomes.
  EXPECT_GT(service.metrics().mean_turnaround(), 0.0);
  EXPECT_GE(service.metrics().mean_stretch(), 1.0);
}

TEST(Service, ValidatesStreamPreconditions) {
  SchedulerService service(small_config());
  service.submit({0, 100.0, chain_dag(2, 50.0), std::nullopt});
  service.run_all();
  EXPECT_GT(service.now(), 0.0);
  // Submissions and reservations cannot arrive in the engine's past.
  EXPECT_THROW(service.submit({1, 0.0, chain_dag(2, 50.0), std::nullopt}),
               resched::Error);
  EXPECT_THROW(service.submit_reservation(0.0, {1.0, 2.0, 1}),
               resched::Error);
  // Deadlines must lie after submission.
  EXPECT_THROW(
      service.submit({2, service.now() + 1.0, chain_dag(2, 50.0),
                      service.now()}),
      resched::Error);
}

// --- End-to-end replay ------------------------------------------------------

workload::Log small_log(int jobs, double spacing) {
  workload::Log log;
  log.name = "online-replay";
  log.cpus = 64;
  log.duration = jobs * spacing + 86400.0;
  for (int i = 0; i < jobs; ++i) {
    workload::Job j;
    j.submit = i * spacing;
    j.start = j.submit + 30.0;
    j.runtime = 600.0;
    j.procs = 4;
    log.jobs.push_back(j);
  }
  return log;
}

online::ReplaySpec small_replay_spec() {
  online::ReplaySpec spec;
  spec.app.num_tasks = 6;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 900.0;
  spec.deadline_fraction = 0.2;
  spec.deadline_slack = 3.0;
  spec.seed = 2026;
  return spec;
}

ServiceConfig replay_config() {
  ServiceConfig config;
  config.capacity = 64;
  // Keep every breakpoint so the final calendar can be cross-checked
  // against a from-scratch rebuild.
  config.compact_calendar = false;
  return config;
}

struct ReplayResult {
  std::string trace;
  std::vector<online::JobOutcome> outcomes;
  double acceptance = 0.0;
  double utilization = 0.0;
};

ReplayResult run_replay(const workload::Log& log,
                        const online::ReplaySpec& spec, double util_to) {
  SchedulerService service(replay_config());
  std::ostringstream trace_out;
  online::TraceWriter writer(trace_out);
  service.set_trace(&writer);
  for (auto& sub : online::submissions_from_log(log, spec))
    service.submit(std::move(sub));
  service.run_all();
  return {trace_out.str(), service.outcomes(),
          service.metrics().acceptance_rate(),
          service.metrics().utilization(0.0, util_to)};
}

TEST(Replay, SameStreamTwiceIsByteIdentical) {
  workload::Log log = small_log(60, 240.0);
  online::ReplaySpec spec = small_replay_spec();
  ReplayResult a = run_replay(log, spec, 86400.0);
  ReplayResult b = run_replay(log, spec, 86400.0);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);  // byte-identical event traces
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].decision, b.outcomes[i].decision);
    EXPECT_EQ(a.outcomes[i].finish, b.outcomes[i].finish);  // bitwise
  }
  EXPECT_EQ(a.acceptance, b.acceptance);
  EXPECT_EQ(a.utilization, b.utilization);
}

TEST(Replay, FiveHundredJobSwfReplayMatchesOfflineRecomputation) {
  // Round-trip the workload through SWF so the replay consumes exactly what
  // a Parallel Workloads Archive log would provide.
  workload::Log log = small_log(500, 240.0);
  std::stringstream swf;
  workload::write_swf(swf, log);
  workload::Log parsed = workload::read_swf(swf, "online-replay");
  ASSERT_EQ(parsed.jobs.size(), 500u);

  online::ReplaySpec spec = small_replay_spec();
  SchedulerService service(replay_config());
  for (auto& sub : online::submissions_from_log(parsed, spec))
    service.submit(std::move(sub));
  service.run_all();

  const auto& outcomes = service.outcomes();
  ASSERT_EQ(outcomes.size(), 500u);

  // Acceptance metrics match a recomputation from the outcome records.
  int accepted = 0, countered = 0, rejected = 0;
  for (const auto& out : outcomes) {
    switch (out.decision) {
      case Decision::kAccepted: ++accepted; break;
      case Decision::kCounterOffered: ++countered; break;
      case Decision::kRejected: ++rejected; break;
    }
  }
  EXPECT_EQ(accepted, service.metrics().accepted());
  EXPECT_EQ(countered, service.metrics().counter_offered());
  EXPECT_EQ(rejected, service.metrics().rejected());
  EXPECT_EQ(accepted + countered + rejected, 500);
  EXPECT_DOUBLE_EQ(service.metrics().acceptance_rate(),
                   static_cast<double>(accepted + countered) / 500.0);
  // Best-effort jobs are never rejected, so the stream stays mostly
  // accepted even under load.
  EXPECT_GT(service.metrics().acceptance_rate(), 0.75);
  EXPECT_EQ(service.metrics().completed(), accepted + countered);

  // The incrementally maintained calendar is identical to one rebuilt from
  // scratch out of every reservation the engine committed.
  AvailabilityProfile rebuilt(64, service.committed_reservations());
  EXPECT_EQ(service.profile().canonical_steps(), rebuilt.canonical_steps());

  // The online utilization timeline agrees with an offline recomputation
  // from the rebuilt calendar: busy == capacity - available at every step.
  double horizon = service.now();
  ASSERT_GT(horizon, 0.0);
  double offline_util =
      1.0 - rebuilt.average_available(0.0, horizon) / 64.0;
  EXPECT_NEAR(service.metrics().utilization(0.0, horizon), offline_util,
              1e-9);
  EXPECT_GT(offline_util, 0.05);
}

}  // namespace
