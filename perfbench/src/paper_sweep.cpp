// paper-sweep: the Table-4 RESSCHED comparison (BL_CPAR x BD_ALL /
// BD_HALF / BD_CPA / BD_CPAR) over the whole synthetic scenario grid,
// offline on one thread.
//
// Why this workload: it runs dag / kernels / cpa / core / resv at the
// paper's DAG sizes (n = 10 ... 100) against calendars that are only read,
// and no online, srv or pdes code. Kernel and calendar-fit changes show
// here; daemon and replay changes should not.
//
// Every app spec (so n in {10, 25, 50, 75, 100}) and all four platform
// logs appear; the seed only re-draws each scenario's DAG and calendar, so
// runs on different seeds time the same scenario mix. The whole grid, not
// a stride of it, keeps the seed's draw from moving the figures: with
// every 7th scenario, p99 rested on the eight costliest schedules of the
// draw.
//
// The timed phase is split into kSlices slices, each in a fresh process
// that does its own cold set-up first. On a shared VM one process ran at
// a speed of its own for its whole life: back-to-back runs of one seed
// differed by up to a third, while the blocks inside a run moved
// together. Spreading a run over several processes averages that out.
#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "perfbench/src/ledger.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/core/algorithms.hpp"
#include "src/core/ressched.hpp"
#include "src/core/schedule.hpp"
#include "src/sim/scenario.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

namespace {

using namespace resched;

constexpr int kStride = 1;       ///< grid stride: all 1440 scenarios
constexpr int kTinyStride = 97;  ///< self-test size: 15 scenarios
/// The traced pass schedules every 7th instance once (206 schedules).
constexpr std::size_t kTracedStride = 7;
constexpr int kSlices = 5;  ///< timed slices, each in a fresh process
/// Set-up-only processes before the traced pass.
constexpr int kTracedColdSetups = 2;

struct Inputs {
  std::vector<sim::Instance> instances;
  double instances_s = 0.0;  ///< materialising every instance
};

/// The set-up a user waits for: sim::platform_log for every platform the
/// stride uses (built once per process), then sim::make_instance for every
/// scenario.
Inputs build_inputs(const std::vector<sim::ScenarioSpec>& scenarios,
                    std::uint64_t seed) {
  Inputs in;
  std::set<sim::Platform> platforms;
  for (const sim::ScenarioSpec& s : scenarios) platforms.insert(s.platform);
  for (sim::Platform p : platforms) sim::platform_log(p);
  const Clock::time_point t1 = Clock::now();
  in.instances.reserve(scenarios.size());
  for (const sim::ScenarioSpec& s : scenarios)
    in.instances.push_back(sim::make_instance(s, 0, 0, seed));
  in.instances_s = seconds_since(t1);
  return in;
}

struct Op {
  std::size_t instance = 0;
  std::size_t algo = 0;
};

/// The instances in a seeded order, so that the part of a pass a slice
/// covers is a uniform sample of the grid; each instance is scheduled by
/// the four algorithms in a row, as the Table-4 sweep does.
std::vector<Op> sweep_order(std::size_t instances, std::size_t algos,
                            std::uint64_t seed) {
  std::vector<std::size_t> order(instances);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(util::derive_seed(seed, {0x5EE9}));
  for (std::size_t k = order.size(); k > 1; --k)
    std::swap(order[k - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(k) - 1))]);
  std::vector<Op> ops;
  for (std::size_t i : order)
    for (std::size_t a = 0; a < algos; ++a) ops.push_back({i, a});
  return ops;
}

/// Schedules and checks ops against one set of inputs. Each schedule is
/// validated right after its call, outside the latency window, and then
/// dropped, so memory does not grow with throughput.
class Sweeper {
 public:
  Sweeper(const Inputs& in, const std::vector<core::NamedRessched>& algos, bool corrupt)
      : in_(in), algos_(algos), corrupt_next_(corrupt) {}

  /// One RESSCHED call and its check; returns the call's wall time in s.
  double schedule(const Op& op) {
    const sim::Instance& inst = in_.instances[op.instance];
    core::ResschedResult r;
    const Clock::time_point t0 = Clock::now();
    {
      BenchSpan span("bench.schedule");
      r = core::schedule_ressched(inst.dag, inst.profile, inst.now, inst.q_hist,
                                  algos_[op.algo].params);
    }
    const double s = seconds_since(t0);
    check(op, r.schedule);
    return s;
  }

  std::uint64_t checked = 0;
  std::uint64_t bad = 0;
  double checks_s = 0.0;  ///< time spent validating
  std::string first_error;

 private:
  void check(const Op& op, core::AppSchedule& sched) {
    const Clock::time_point t0 = Clock::now();
    const sim::Instance& inst = in_.instances[op.instance];
    if (corrupt_next_ && !sched.tasks.empty()) {
      // Shift one reservation before the scheduling instant.
      core::TaskReservation& t = sched.tasks.front();
      const double dur = t.finish - t.start;
      t.start = inst.now - 60.0;
      t.finish = t.start + dur;
      corrupt_next_ = false;
    }
    ++checked;
    if (auto err = core::validate_schedule(inst.dag, sched, inst.profile, inst.now)) {
      if (bad == 0) first_error = "invalid schedule (" + algos_[op.algo].name + "): " + *err;
      ++bad;
    }
    checks_s += seconds_since(t0);
  }

  const Inputs& in_;
  const std::vector<core::NamedRessched>& algos_;
  bool corrupt_next_;
};

/// What one process measures: its cold set-up and, when it was given
/// seconds, a timed slice of the sweep.
struct Slice {
  double setup_s = 0.0;
  double instances_s = 0.0;
  double wall = 0.0;  ///< timed slice, validation excluded
  double peak_rss_mb = 0.0;
  std::uint64_t checked = 0;
  std::uint64_t bad = 0;
  std::string first_error;
  std::vector<double> lat_ms;
};

/// A cold set-up and then, for `seconds` > 0, a timed slice from op
/// `first` on, in a fresh process. Call it before this process builds any
/// log, so that the child starts without the log cache, as a new process
/// does.
Slice run_slice(const std::vector<sim::ScenarioSpec>& scenarios,
                const std::vector<core::NamedRessched>& algos, std::uint64_t seed,
                double seconds, std::size_t first, std::uint64_t min_ops, bool corrupt) {
  const std::string bytes = run_in_child([&] {
    Slice s;
    const Clock::time_point t0 = Clock::now();
    const Inputs in = build_inputs(scenarios, seed);
    s.setup_s = seconds_since(t0);
    s.instances_s = in.instances_s;
    if (seconds > 0.0) {
      const std::vector<Op> ops = sweep_order(in.instances.size(), algos.size(), seed);
      Sweeper sweep(in, algos, corrupt);
      const Clock::time_point t1 = Clock::now();
      for (std::size_t k = first;; ++k) {
        s.lat_ms.push_back(sweep.schedule(ops[k % ops.size()]) * 1e3);
        if (s.lat_ms.size() >= min_ops && seconds_since(t1) - sweep.checks_s >= seconds) break;
      }
      s.wall = seconds_since(t1) - sweep.checks_s;
      s.peak_rss_mb = peak_rss_mb();
      s.checked = sweep.checked;
      s.bad = sweep.bad;
      s.first_error = sweep.first_error;
    }
    std::string out;
    for (double v : {s.setup_s, s.instances_s, s.wall, s.peak_rss_mb,
                     static_cast<double>(s.checked), static_cast<double>(s.bad),
                     static_cast<double>(s.lat_ms.size())})
      put_double(out, v);
    for (double v : s.lat_ms) put_double(out, v);
    return out + s.first_error;
  });
  Slice s;
  std::size_t pos = 0;
  s.setup_s = take_double(bytes, pos);
  s.instances_s = take_double(bytes, pos);
  s.wall = take_double(bytes, pos);
  s.peak_rss_mb = take_double(bytes, pos);
  s.checked = static_cast<std::uint64_t>(take_double(bytes, pos));
  s.bad = static_cast<std::uint64_t>(take_double(bytes, pos));
  const std::size_t n = static_cast<std::size_t>(take_double(bytes, pos));
  for (std::size_t i = 0; i < n; ++i) s.lat_ms.push_back(take_double(bytes, pos));
  s.first_error = bytes.substr(pos);
  return s;
}

}  // namespace

Report run_paper_sweep(const Args& args) {
  Report report;
  const std::vector<sim::ScenarioSpec> grid = sim::synthetic_grid();
  std::vector<sim::ScenarioSpec> scenarios;
  const int stride = args.tiny ? kTinyStride : kStride;
  for (std::size_t i = 0; i < grid.size(); i += static_cast<std::size_t>(stride))
    scenarios.push_back(grid[i]);
  const std::vector<core::NamedRessched> algos = core::table4_algorithms();
  const bool corrupt = args.corrupt == "schedule";
  report.notes.push_back("scenarios " + std::to_string(scenarios.size()) +
                         " x algorithms " + std::to_string(algos.size()));

  // Every set-up is a cold start in a fresh process: setup_s is the
  // median over the slices, so it spans the host's conditions over the run.
  std::vector<double> setups, instance_times;
  if (!args.trace) {
    const int slices = args.tiny ? 1 : kSlices;
    const std::uint64_t min_ops = args.tiny ? 1 : (kMinOps + slices - 1) / slices;
    const std::size_t pass = scenarios.size() * algos.size();
    std::vector<double> lat_ms;
    double wall = 0.0, peak_mb = 0.0;
    std::ostringstream rates;
    rates << "schedules/s per slice:";
    for (int k = 0; k < slices; ++k) {
      // Each slice starts its own part of the pass and corrupts (in the
      // self-test) its first schedule.
      const Slice s = run_slice(scenarios, algos, args.seed, args.seconds / slices,
                                pass * static_cast<std::size_t>(k) / static_cast<std::size_t>(slices),
                                min_ops, corrupt);
      setups.push_back(s.setup_s);
      instance_times.push_back(s.instances_s);
      lat_ms.insert(lat_ms.end(), s.lat_ms.begin(), s.lat_ms.end());
      wall += s.wall;
      peak_mb = std::max(peak_mb, s.peak_rss_mb);
      report.attempted += s.checked;
      if (s.bad > 0) report.fail("schedules failing validate_schedule: " + s.first_error, s.bad);
      rates << ' ' << static_cast<double>(s.lat_ms.size()) / s.wall;
    }
    report.notes.push_back(rates.str());
    report.set("ops_per_s", static_cast<double>(lat_ms.size()) / wall, "1/s");
    report.set("latency_p50_ms", quantile(lat_ms, 0.50), "ms");
    report.set("latency_p99_ms", quantile(lat_ms, 0.99), "ms");
    report.set("latency_samples", static_cast<double>(lat_ms.size()), "count");
    report.set("peak_rss_mb", peak_mb, "MB");
    report.set("setup_s", median(setups), "s");
    std::ostringstream line;
    line << "cold set-ups, s (of which instances):";
    for (std::size_t i = 0; i < setups.size(); ++i)
      line << ' ' << setups[i] << " (" << instance_times[i] << ')';
    report.notes.push_back(line.str());
    return report;
  }

  // --- traced pass: per-layer metrics ------------------------------------
  // Fixed work in this process so the counters repeat exactly: every
  // kTracedStride-th instance once, the algorithm rotating across
  // instances (about 2500 spans per schedule, so the whole op list would
  // overrun the tracer's ring), untraced and then traced.
  for (int rep = 0; rep < (args.tiny ? 1 : kTracedColdSetups); ++rep) {
    const Slice s = run_slice(scenarios, algos, args.seed, 0.0, 0, 0, false);
    instance_times.push_back(s.instances_s);
  }
  const Inputs in = build_inputs(scenarios, args.seed);
  instance_times.push_back(in.instances_s);
  const std::size_t step = args.tiny ? 1 : kTracedStride;
  std::vector<Op> ops;
  for (std::size_t i = 0; i < in.instances.size(); i += step)
    ops.push_back({i, (i / step) % algos.size()});
  Sweeper sweep(in, algos, corrupt);
  double untraced_s = 0.0, traced_s = 0.0;
  for (const Op& op : ops) untraced_s += sweep.schedule(op);
  Ledger ledger;
  ledger.start();
  for (const Op& op : ops) traced_s += sweep.schedule(op);
  ledger.stop();
  report.attempted = sweep.checked;
  if (sweep.bad > 0)
    report.fail("schedules failing validate_schedule: " + sweep.first_error, sweep.bad);

  report.set("sim.instance_s", median(instance_times), "s");
  // BL / BD helpers timed directly on the same pairs, untraced like the
  // pass they are subtracted from.
  double bl_s = 0.0, bd_s = 0.0;
  for (const Op& op : ops) {
    const sim::Instance& inst = in.instances[op.instance];
    const core::ResschedParams& p = algos[op.algo].params;
    const int cap = inst.profile.capacity();
    Clock::time_point t0 = Clock::now();
    const std::vector<int> bl =
        core::bl_allocations(inst.dag, cap, inst.q_hist, p.bl, p.cpa);
    bl_s += seconds_since(t0);
    t0 = Clock::now();
    const std::vector<int> bd =
        core::bd_bounds(inst.dag, cap, inst.q_hist, p.bd, p.cpa);
    bd_s += seconds_since(t0);
    if (bl.size() != bd.size()) report.fail("bl/bd size mismatch", 1);
  }
  report.set("core.bl_alloc_s", bl_s, "s");
  report.set("core.bd_bounds_s", bd_s, "s");
  report.set("core.placement_s", untraced_s - bl_s - bd_s, "s");
  report.set("obs.trace_overhead_pct",
             untraced_s > 0 ? 100.0 * (traced_s - untraced_s) / untraced_s : 0.0,
             "%");
  report.notes.push_back("traced pass " + std::to_string(ops.size()) +
                         " schedules: untraced " + std::to_string(untraced_s) +
                         " s, traced " + std::to_string(traced_s) + " s");
  std::ostringstream table;
  ledger.print_table(table);
  report.notes.push_back(table.str());
  ledger.write_jsonl(args.work_dir + "/trace-paper-sweep.jsonl");
  set_common_layer_metrics(report, ledger);
  return report;
}

}  // namespace perfbench
