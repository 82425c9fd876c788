// Seeded chaos test: drive the online engine + repair engine with a random
// workload and a full-spectrum disruption campaign, then check global
// invariants that must hold no matter what the injector threw at the run:
//
//   * the run terminates and drains (no live jobs, no externals, usage 0);
//   * the calendar equals an offline rebuild from committed_reservations()
//     — on both the treap profile and the LinearProfile oracle;
//   * no over-subscription survives repair (every canonical step >= 0)
//     whenever the engine reported zero unresolvable conflicts;
//   * conservation of jobs: every admitted job either completes or is
//     abandoned with a recorded disposition;
//   * deadlines hold for every admitted deadline job that was not
//     explicitly degraded or abandoned by the repair engine;
//   * the whole run is deterministic: a second run from the same seeds
//     produces a byte-identical trace and equal counters.
//
// Seed count is env-tunable (RESCHED_CHAOS_SEEDS) so CI can run a smoke
// budget and the nightly job a deeper sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "src/ft/injector.hpp"
#include "src/ft/repair.hpp"
#include "src/dag/daggen.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/util/env.hpp"
#include "src/util/rng.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;

struct ChaosResult {
  std::string trace;
  ft::FtCounters counters;
  std::vector<ft::JobDisposition> dispositions;
  int completed = 0;
};

constexpr double kHorizon = 40000.0;

/// One full chaos run; all randomness derives from `seed`.
ChaosResult run_chaos(std::uint64_t seed, online::SchedulerService& service,
                      ft::RepairEngine& engine) {
  util::Rng rng(util::derive_seed(seed, {0xC4A05ULL}));

  std::ostringstream trace_out;
  online::TraceWriter trace(trace_out);
  service.set_trace(&trace);

  for (int i = 0; i < 3; ++i) {
    double start = rng.uniform(0.0, kHorizon / 2);
    resv::Reservation r{
        start, start + rng.uniform(500.0, 6000.0),
        static_cast<int>(
            rng.uniform_int(1, service.profile().capacity() / 2))};
    service.submit_reservation(rng.uniform(0.0, start), r);
  }

  const int jobs = static_cast<int>(rng.uniform_int(14, 20));
  for (int job = 0; job < jobs; ++job) {
    dag::DagSpec spec;
    spec.num_tasks = static_cast<int>(rng.uniform_int(3, 12));
    spec.alpha_max = 0.4;
    spec.width = 0.3 + rng.uniform(0.0, 0.4);
    spec.density = 0.3 + rng.uniform(0.0, 0.4);
    spec.regularity = 0.5;
    util::Rng job_rng(
        util::derive_seed(seed, {0xDA6ULL, static_cast<std::uint64_t>(job)}));
    dag::Dag d = dag::generate(spec, job_rng);
    double submit = rng.uniform(0.0, kHorizon / 3);
    std::optional<double> deadline;
    if (rng.bernoulli(0.4)) deadline = submit + rng.uniform(8000.0, 40000.0);
    service.submit({job, submit, std::move(d), deadline});
  }

  ft::FaultInjectorConfig fc;
  fc.seed = util::derive_seed(seed, {0xFA17ULL});
  fc.arrival = (seed % 2) ? ft::ArrivalModel::kWeibull
                          : ft::ArrivalModel::kExponential;
  fc.outage_mean = 5000.0;
  fc.outage_procs_max = std::max(1, service.profile().capacity() / 3);
  fc.outage_duration_mean = 2000.0;
  fc.permanent_prob = 0.05;
  fc.cancel_mean = 12000.0;
  fc.extend_mean = 10000.0;
  fc.shift_mean = 10000.0;
  fc.task_failure_mean = 4000.0;
  engine.schedule_all(ft::FaultInjector(fc).generate(10.0, kHorizon));

  service.run_all();
  service.set_trace(nullptr);
  return {trace_out.str(), engine.counters(), engine.dispositions(),
          service.metrics().completed()};
}

void check_invariants(std::uint64_t seed, online::SchedulerService& service,
                      const ft::RepairEngine& engine,
                      const ChaosResult& result) {
  SCOPED_TRACE("seed " + std::to_string(seed));

  // Drained.
  EXPECT_TRUE(service.live_jobs().empty());
  EXPECT_TRUE(service.external_reservations().empty());
  const auto& timeline = service.metrics().usage_timeline();
  ASSERT_FALSE(timeline.empty());
  EXPECT_EQ(timeline.back().used, 0);

  // The calendar is exactly what the committed list generates — checked
  // against both implementations.
  const auto steps = service.profile().canonical_steps();
  resv::AvailabilityProfile treap_rebuild(service.profile().capacity(),
                                          service.committed_reservations());
  EXPECT_EQ(steps, treap_rebuild.canonical_steps());
  resv::LinearProfile linear(service.profile().capacity());
  for (const resv::Reservation& r : service.committed_reservations())
    linear.add(r);
  EXPECT_EQ(steps, linear.canonical_steps());

  // No task on a dead processor / no overlapping allocations: repair must
  // leave zero over-subscription unless it reported an unresolvable window
  // (outage colliding with an immovable external reservation).
  if (engine.counters().unresolvable_conflicts == 0) {
    for (const auto& [time, avail] : steps)
      EXPECT_GE(avail, 0) << "over-subscribed at t=" << time;
  }

  // Conservation of jobs: admitted = completed + abandoned.
  const auto& metrics = service.metrics();
  const int admitted = metrics.accepted() + metrics.counter_offered();
  EXPECT_EQ(admitted, metrics.completed() +
                          static_cast<int>(engine.counters().jobs_abandoned));

  // Deadline audit from the trace. Effective deadline: the request for
  // accepted jobs, the engine's offer for counter-offered jobs; void for
  // jobs the repair engine degraded or abandoned.
  std::map<int, double> effective_deadline;
  for (const online::JobOutcome& outcome : service.outcomes()) {
    if (outcome.decision == online::Decision::kAccepted &&
        !std::isnan(outcome.requested_deadline))
      effective_deadline[outcome.job_id] = outcome.requested_deadline;
    else if (outcome.decision == online::Decision::kCounterOffered)
      effective_deadline[outcome.job_id] = outcome.counter_offer;
  }
  for (const ft::JobDisposition& d : engine.dispositions())
    effective_deadline.erase(d.job);

  std::istringstream trace_in(result.trace);
  std::map<int, double> last_done;
  for (const online::TraceRecord& rec : online::read_trace(trace_in))
    if (rec.type == "task_done")
      last_done[rec.job] = std::max(last_done[rec.job], rec.time);
  for (const auto& [job, deadline] : effective_deadline) {
    auto it = last_done.find(job);
    ASSERT_NE(it, last_done.end()) << "deadline job " << job << " never ran";
    EXPECT_LE(it->second, deadline) << "job " << job << " missed its deadline";
  }
}

TEST(FtChaos, SeededCampaignsPreserveInvariantsAndDeterminism) {
  const int seeds = util::env_int("RESCHED_CHAOS_SEEDS", 4);
  const int base = util::env_int("RESCHED_CHAOS_BASE_SEED", 1);
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(base + i);
    online::ServiceConfig config;
    config.capacity = 16 + 8 * static_cast<int>(seed % 3);
    config.compact_calendar = false;  // strict rebuild equality
    config.counter_offer_limit = 4.0;

    online::SchedulerService service(config);
    ft::RepairEngine engine(service);
    ChaosResult first = run_chaos(seed, service, engine);
    check_invariants(seed, service, engine, first);

    // Determinism: an identical second run replays byte-for-byte.
    online::SchedulerService replay_service(config);
    ft::RepairEngine replay_engine(replay_service);
    ChaosResult replay = run_chaos(seed, replay_service, replay_engine);
    EXPECT_EQ(first.trace, replay.trace) << "seed " << seed;
    EXPECT_EQ(first.counters, replay.counters) << "seed " << seed;
    EXPECT_EQ(first.dispositions, replay.dispositions) << "seed " << seed;
    EXPECT_EQ(first.completed, replay.completed) << "seed " << seed;
  }
}

}  // namespace
