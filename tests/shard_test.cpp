// Sharded service tests (DESIGN.md §9): pool barrier semantics, one-shard
// pass-through byte-identity against a standalone SchedulerService,
// load-aware routing + cross-shard spillover calendar consistency under
// the LinearProfile oracle, thread-count-independent determinism of merged
// traces, and the ft regression that repairing shard A never mutates
// shard B. This binary is also the TSan leg's subject: it exercises the
// only genuinely concurrent scheduler path in the repo.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/ft/disruption.hpp"
#include "src/ft/repair.hpp"
#include "src/ft/service_access.hpp"
#include "src/online/replay.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/shard/shard_pool.hpp"
#include "src/shard/sharded_service.hpp"
#include "src/util/error.hpp"
#include "src/workload/log.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;
using online::Decision;
using online::JobSubmission;
using online::SchedulerService;
using online::ServiceConfig;
using online::TraceRecord;
using online::TraceWriter;
using shard::RoutingOutcome;
using shard::ShardedConfig;
using shard::ShardedService;
using shard::ShardPool;

dag::Dag one_task_dag(double seq_time, double alpha = 0.0) {
  return dag::Dag({{seq_time, alpha}}, {});
}

ServiceConfig shard_config(int capacity = 8) {
  ServiceConfig config;
  config.capacity = capacity;
  config.compact_calendar = false;  // strict rebuild-equality checks below
  return config;
}

/// Every shard calendar must stay an exact generator of that engine's
/// committed reservations — checked against both the treap profile and the
/// LinearProfile oracle.
void expect_shard_calendar_consistent(const ShardedService& svc, int s) {
  const auto& committed = svc.engine(s).committed_reservations();
  int capacity = svc.calendar(s).capacity();
  resv::AvailabilityProfile rebuilt(capacity, committed);
  EXPECT_EQ(svc.calendar(s).canonical_steps(), rebuilt.canonical_steps())
      << "shard " << s << " calendar diverged from its committed set";
  resv::LinearProfile oracle(capacity, committed);
  EXPECT_EQ(svc.calendar(s).canonical_steps(), oracle.canonical_steps())
      << "shard " << s << " calendar diverged from the linear oracle";
}

// --- ShardPool ---------------------------------------------------------------

TEST(ShardPool, RunsEveryIndexExactlyOnceAcrossEpochs) {
  ShardPool pool(4);
  for (int epoch = 0; epoch < 50; ++epoch) {
    std::vector<std::atomic<int>> hits(8);
    pool.run(8, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ShardPool, SingleThreadRunsInline) {
  ShardPool pool(1);
  std::vector<int> order;
  pool.run(5, [&](int i) { order.push_back(i); });  // no data race: inline
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardPool, BarrierCompletesAndLowestThrowingIndexWins) {
  for (int threads : {1, 4}) {
    ShardPool pool(threads);
    std::vector<std::atomic<int>> hits(6);
    try {
      pool.run(6, [&](int i) {
        hits[static_cast<std::size_t>(i)]++;
        if (i == 2 || i == 4) throw std::runtime_error("boom " +
                                                       std::to_string(i));
      });
      FAIL() << "expected the pooled exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 2");  // lowest throwing index
    }
    // The barrier always completes: every index ran despite the throws.
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // The pool stays usable after an exceptional epoch.
    pool.run(3, [](int) {});
  }
}

// --- reserved_area_after (routing load signal) ------------------------------

TEST(Profile, ReservedAreaAfterIntegratesCommittedWork) {
  resv::AvailabilityProfile p(8);
  EXPECT_DOUBLE_EQ(p.reserved_area_after(0.0), 0.0);  // empty calendar
  p.add({100.0, 200.0, 4});  // 400 proc-seconds
  p.add({150.0, 250.0, 2});  // 200 proc-seconds
  EXPECT_DOUBLE_EQ(p.reserved_area_after(0.0), 600.0);
  EXPECT_DOUBLE_EQ(p.reserved_area_after(-50.0), 600.0);
  // From inside the occupied region only the remainder counts:
  // [200,250): 2 procs * 50 s, plus [175,200): 6 procs * 25 s.
  EXPECT_DOUBLE_EQ(p.reserved_area_after(175.0), 250.0);
  // Past the last breakpoint the calendar is all-free forever.
  EXPECT_DOUBLE_EQ(p.reserved_area_after(250.0), 0.0);
  // Over-subscription clamps at zero availability, capping the integrand
  // at the platform capacity.
  p.add({100.0, 200.0, 16});
  EXPECT_DOUBLE_EQ(p.reserved_area_after(200.0), 100.0);
  EXPECT_DOUBLE_EQ(p.reserved_area_after(0.0), 800.0 + 100.0);
}

// --- One-shard pass-through --------------------------------------------------

workload::Log shard_log(int jobs, double spacing, int cpus) {
  workload::Log log;
  log.name = "shard-replay";
  log.cpus = cpus;
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

online::ReplaySpec shard_replay_spec() {
  online::ReplaySpec spec;
  spec.app.num_tasks = 5;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 700.0;
  spec.deadline_fraction = 0.3;
  spec.deadline_slack = 2.5;
  spec.seed = 7;
  return spec;
}

TEST(ShardedService, OneShardIsByteIdenticalToStandaloneEngine) {
  workload::Log log = shard_log(60, 180.0, 64);
  online::ReplaySpec spec = shard_replay_spec();
  auto stream = online::submissions_from_log(log, spec);

  std::ostringstream solo_trace;
  SchedulerService solo(shard_config(64));
  TraceWriter solo_writer(solo_trace);
  solo.set_trace(&solo_writer);
  for (const JobSubmission& sub : stream) solo.submit(sub);
  solo.submit_reservation(0.0, {3600.0, 7200.0, 16});
  solo.run_all();

  ShardedConfig config;
  config.shards = 1;
  config.service = shard_config(64);
  ShardedService sharded(config);
  std::ostringstream sharded_trace;
  TraceWriter sharded_writer(sharded_trace);
  sharded.engine(0).set_trace(&sharded_writer);
  for (const JobSubmission& sub : stream) sharded.submit(sub);
  sharded.submit_reservation(0.0, {3600.0, 7200.0, 16});
  sharded.run_all();

  EXPECT_FALSE(solo_trace.str().empty());
  EXPECT_EQ(solo_trace.str(), sharded_trace.str());  // byte-identical

  const SchedulerService& engine = sharded.engine(0);
  EXPECT_EQ(solo.metrics().submitted(), engine.metrics().submitted());
  EXPECT_EQ(solo.metrics().accepted(), engine.metrics().accepted());
  EXPECT_EQ(solo.metrics().counter_offered(),
            engine.metrics().counter_offered());
  EXPECT_EQ(solo.metrics().rejected(), engine.metrics().rejected());
  EXPECT_EQ(solo.metrics().mean_turnaround(),
            engine.metrics().mean_turnaround());  // bitwise
  EXPECT_EQ(solo.metrics().utilization(0.0, 86400.0),
            engine.metrics().utilization(0.0, 86400.0));
  EXPECT_EQ(solo.profile().canonical_steps(),
            sharded.calendar(0).canonical_steps());
  EXPECT_EQ(solo.events_processed(), sharded.events_processed());

  ShardedService::Aggregates agg = sharded.aggregates();
  EXPECT_EQ(agg.submitted, solo.metrics().submitted());
  EXPECT_EQ(agg.accepted, solo.metrics().accepted());
  EXPECT_EQ(agg.spillovers, 0);
  EXPECT_TRUE(sharded.routing().empty());  // the router never decided
}

// --- Routing + spillover -----------------------------------------------------

/// Two equal shards with load-blind scoring (all weights zero), so ties
/// send every job to shard 0 first — the spillover paths are then driven
/// purely by shard 0's feasibility.
ShardedConfig two_shard_tie_config(ServiceConfig service) {
  ShardedConfig config;
  config.shards = 2;
  config.service = service;
  config.routing.queue_depth_weight = 0.0;
  config.routing.committed_work_weight = 0.0;
  return config;
}

TEST(ShardedService, RoutesToLeastLoadedShard) {
  ShardedConfig config;
  config.shards = 2;
  config.service = shard_config(8);
  ShardedService svc(config);
  // Load shard 0 with committed work via a direct external reservation.
  svc.engine(0).submit_reservation(0.0, {0.0, 5000.0, 8});
  svc.run_until(0.0);
  svc.submit({0, 10.0, one_task_dag(300.0), std::nullopt});
  svc.run_until(10.0);
  ASSERT_EQ(svc.routing().size(), 1u);
  EXPECT_EQ(svc.routing()[0].first_choice, 1);  // less committed work
  EXPECT_EQ(svc.routing()[0].shard, 1);
  EXPECT_FALSE(svc.routing()[0].spilled);
  EXPECT_EQ(svc.routing()[0].decision, Decision::kAccepted);
}

TEST(ShardedService, FloorProbeSpillsDeadlineJobOffBlockedShard) {
  ShardedService svc(two_shard_tie_config(shard_config(8)));
  // Shard 0 fully blocked until t=10000; shard 1 idle.
  svc.engine(0).submit_reservation(0.0, {0.0, 10000.0, 8});
  svc.run_until(0.0);
  svc.submit({0, 10.0, one_task_dag(600.0), 5000.0});
  svc.run_until(10.0);

  ASSERT_EQ(svc.routing().size(), 1u);
  const RoutingOutcome& out = svc.routing()[0];
  EXPECT_EQ(out.first_choice, 0);
  EXPECT_EQ(out.shard, 1);
  EXPECT_TRUE(out.spilled);
  EXPECT_EQ(out.probes, 2);
  EXPECT_EQ(out.decision, Decision::kAccepted);
  // The read-only floor probe never touched shard 0's engine.
  EXPECT_EQ(svc.engine(0).metrics().submitted(), 0);
  EXPECT_EQ(svc.engine(1).metrics().submitted(), 1);
  EXPECT_EQ(svc.aggregates().accepted, 1);
  EXPECT_EQ(svc.aggregates().spillovers, 1);
  expect_shard_calendar_consistent(svc, 0);
  expect_shard_calendar_consistent(svc, 1);
}

TEST(ShardedService, EngineRejectionSpillsAndRollbackLeavesCalendarsClean) {
  // Disable the floor probe so spillover happens through a real engine
  // rejection, exercising the audited commit-or-rollback path.
  ServiceConfig service = shard_config(8);
  service.admission = online::AdmissionPolicy::kRejectInfeasible;
  service.audit_rollback = true;
  ShardedConfig config = two_shard_tie_config(service);
  config.routing.floor_probe = false;
  ShardedService svc(config);

  svc.engine(0).submit_reservation(0.0, {0.0, 10000.0, 8});
  svc.run_until(0.0);
  auto shard0_before = svc.calendar(0).canonical_steps();

  svc.submit({0, 10.0, one_task_dag(600.0), 5000.0});
  svc.run_until(10.0);

  ASSERT_EQ(svc.routing().size(), 1u);
  const RoutingOutcome& out = svc.routing()[0];
  EXPECT_EQ(out.first_choice, 0);
  EXPECT_EQ(out.shard, 1);
  EXPECT_TRUE(out.spilled);
  EXPECT_EQ(out.decision, Decision::kAccepted);
  // Shard 0 really attempted (and rejected) the admission...
  EXPECT_EQ(svc.engine(0).metrics().submitted(), 1);
  EXPECT_EQ(svc.engine(0).metrics().rejected(), 1);
  // ...but its audited rollback left the calendar bit-exact.
  EXPECT_EQ(svc.calendar(0).canonical_steps(), shard0_before);
  expect_shard_calendar_consistent(svc, 0);
  expect_shard_calendar_consistent(svc, 1);
  // Aggregates count the job once, under its final decision.
  EXPECT_EQ(svc.aggregates().submitted, 1);
  EXPECT_EQ(svc.aggregates().accepted, 1);
  EXPECT_EQ(svc.aggregates().rejected, 0);
}

TEST(ShardedService, RejectsWhenEveryShardBacklogIsFull) {
  ShardedConfig config = two_shard_tie_config(shard_config(8));
  config.routing.max_queue_depth = 1;  // any pending event fills a shard
  ShardedService svc(config);
  // Give both shards a future event so both backlogs read >= 1.
  svc.engine(0).submit_reservation(0.0, {100.0, 200.0, 2});
  svc.engine(1).submit_reservation(0.0, {100.0, 200.0, 2});
  svc.run_until(0.0);
  svc.submit({0, 1.0, one_task_dag(60.0), std::nullopt});
  svc.run_until(1.0);
  ASSERT_EQ(svc.routing().size(), 1u);
  EXPECT_EQ(svc.routing()[0].shard, -1);  // router-level rejection
  EXPECT_EQ(svc.routing()[0].decision, Decision::kRejected);
  EXPECT_EQ(svc.aggregates().rejected, 1);
  EXPECT_EQ(svc.engine(0).metrics().submitted(), 0);
  EXPECT_EQ(svc.engine(1).metrics().submitted(), 0);
}

// --- Determinism across thread counts ---------------------------------------

std::string merged_trace_of_run(int shards, int threads,
                                const std::vector<JobSubmission>& stream) {
  ShardedConfig config;
  config.shards = shards;
  config.threads = threads;
  config.service = shard_config(16);
  ShardedService svc(config);
  std::vector<std::ostringstream> outs(static_cast<std::size_t>(shards));
  std::vector<TraceWriter> writers;
  writers.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    writers.emplace_back(outs[static_cast<std::size_t>(s)], s);
    svc.engine(s).set_trace(&writers.back());
  }
  for (const JobSubmission& sub : stream) svc.submit(sub);
  svc.submit_reservation(0.0, {1800.0, 5400.0, 6});
  svc.submit_reservation(0.0, {3600.0, 9000.0, 4});
  svc.run_all();

  std::vector<std::vector<TraceRecord>> per_shard;
  for (int s = 0; s < shards; ++s) {
    std::istringstream in(outs[static_cast<std::size_t>(s)].str());
    per_shard.push_back(online::read_trace(in));
  }
  std::ostringstream merged;
  for (const TraceRecord& r : online::merge_traces(std::move(per_shard)))
    merged << online::to_json_line(r) << '\n';
  for (int s = 0; s < shards; ++s) expect_shard_calendar_consistent(svc, s);
  return merged.str();
}

TEST(ShardedService, MergedTracesAreIdenticalForAnyThreadCount) {
  workload::Log log = shard_log(80, 120.0, 64);
  online::ReplaySpec spec = shard_replay_spec();
  auto stream = online::submissions_from_log(log, spec);

  std::string one_thread = merged_trace_of_run(4, 1, stream);
  std::string four_threads_a = merged_trace_of_run(4, 4, stream);
  std::string four_threads_b = merged_trace_of_run(4, 4, stream);
  EXPECT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread, four_threads_a);   // thread-count independent
  EXPECT_EQ(four_threads_a, four_threads_b);  // run-to-run deterministic
}

TEST(MergeTraces, OrdersByTimeShardSeqAndTagsUntaggedInputs) {
  std::vector<TraceRecord> shard0 = {
      {0, 10.0, "submit", 1, -1, 0, 0.0, -1},  // untagged: inherits shard 0
      {1, 30.0, "start", 1, 0, 2, 0.0, -1},
  };
  std::vector<TraceRecord> shard1 = {
      {0, 10.0, "submit", 2, -1, 0, 0.0, 1},
      {5, 20.0, "start", 2, 0, 4, 0.0, 1},
  };
  auto merged = online::merge_traces({shard0, shard1});
  ASSERT_EQ(merged.size(), 4u);
  // t=10 tie resolves by shard id; every record carries its shard tag.
  EXPECT_EQ(merged[0].shard, 0);
  EXPECT_EQ(merged[0].job, 1);
  EXPECT_EQ(merged[1].shard, 1);
  EXPECT_EQ(merged[1].job, 2);
  EXPECT_DOUBLE_EQ(merged[2].time, 20.0);
  EXPECT_DOUBLE_EQ(merged[3].time, 30.0);
  // Round-trip: shard-tagged lines parse back to the same records.
  for (const TraceRecord& r : merged)
    EXPECT_EQ(online::parse_trace_line(online::to_json_line(r)), r);
}

// --- ft isolation ------------------------------------------------------------

TEST(ShardedService, RepairingShardANeverMutatesShardB) {
  ShardedService svc(two_shard_tie_config(shard_config(8)));
  // ServiceAccess must resolve each engine's own bound calendar.
  EXPECT_EQ(&ft::ServiceAccess::profile(svc.engine(0)), &svc.calendar(0));
  EXPECT_EQ(&ft::ServiceAccess::profile(svc.engine(1)), &svc.calendar(1));

  ft::RepairEngine repair0(svc.engine(0));

  // Shard 0: a pending placement parked behind a blocking reservation.
  svc.engine(0).submit_reservation(0.0, {0.0, 1000.0, 8});
  svc.engine(0).submit({0, 0.0, one_task_dag(800.0), std::nullopt});
  // Shard 1: its own committed work, which must stay untouched.
  svc.engine(1).submit_reservation(0.0, {0.0, 700.0, 4});
  svc.engine(1).submit({100, 0.0, one_task_dag(500.0), std::nullopt});
  svc.run_until(10.0);

  auto shard1_before = svc.calendar(1).canonical_steps();
  auto shard1_committed_before = svc.engine(1).committed_reservations();
  ASSERT_EQ(svc.engine(0).live_jobs().count(0), 1u);
  double start_before = svc.engine(0).live_jobs().at(0).tasks[0].r.start;

  // Full-width outage on shard 0: its placement must move, shard 1 not.
  ft::Disruption d;
  d.id = 0;
  d.type = ft::DisruptionType::kProcOutage;
  d.time = 999.0;
  d.procs = 8;
  d.duration = 5000.0;
  repair0.schedule(d);
  svc.run_until(999.0);

  EXPECT_EQ(repair0.counters().repairs_attempted, 1u);
  EXPECT_GT(svc.engine(0).live_jobs().at(0).tasks[0].r.start, start_before);
  // The regression this pins: shard B's calendar and committed set are
  // bit-exact across shard A's repair episode.
  EXPECT_EQ(svc.calendar(1).canonical_steps(), shard1_before);
  EXPECT_EQ(svc.engine(1).committed_reservations().size(),
            shard1_committed_before.size());
  expect_shard_calendar_consistent(svc, 0);
  expect_shard_calendar_consistent(svc, 1);

  svc.run_all();
  EXPECT_EQ(svc.engine(0).metrics().completed(), 1);
  EXPECT_EQ(svc.engine(1).metrics().completed(), 1);
  expect_shard_calendar_consistent(svc, 1);
}

// --- Summary table -----------------------------------------------------------

TEST(ShardedService, SummaryTableListsEveryShard) {
  ShardedConfig config;
  config.shards = 2;
  config.service = shard_config(8);
  ShardedService svc(config);
  svc.submit({0, 0.0, one_task_dag(100.0), std::nullopt});
  svc.submit({1, 5.0, one_task_dag(100.0), std::nullopt});
  svc.run_all();
  std::string table = svc.summary_table();
  EXPECT_NE(table.find("shard"), std::string::npos);
  EXPECT_NE(table.find("spill-in"), std::string::npos);
  // Header plus one row per shard.
  EXPECT_EQ(std::count(table.begin(), table.end(), '\n'), 3);
}

}  // namespace
