// archive-replay: pdes::PdesReplayEngine over a 60-day synthetic SDSC Blue
// archive (256 processors in 4 shards, 2 worker threads, 10-task DAGs,
// 30% deadline jobs, chaos outages on).
//
// Why this workload: it is the only one that runs pdes, shard and ft. Its
// DAGs are small, so kernel changes should not move it; barrier wait
// dominates its wall time, so PDES scaling work shows here and nowhere
// else. Two workers leave half of a 4-core box to everything else.
//
// One operation is one archive job replayed; a run replays the whole
// archive back to back in a closed loop. The replay's own output, the
// (time, shard, seq)-merged trace plus the admission aggregates and the
// deterministic replay stats, must be byte-equal to pdes::serial_replay
// on the same source.
//
// The archive's arrivals (which jobs, when, how wide) are the same for
// every seed; the seed draws each job's DAG, its deadline and the chaos
// campaign. With the arrivals drawn per seed too, the archive's size and
// load moved between seeds, and with them the replay rate and the merged
// trace's size (peak_rss_mb spread 0.18 over five seeds).
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "perfbench/src/ledger.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/online/replay.hpp"
#include "src/online/trace.hpp"
#include "src/pdes/pdes.hpp"
#include "src/pdes/source.hpp"
#include "src/util/rng.hpp"
#include "src/workload/synth.hpp"

namespace perfbench {

namespace {

using namespace resched;

constexpr int kCpus = 256;
constexpr int kShards = 4;
constexpr int kThreads = 2;
constexpr double kDays = 60.0;
constexpr double kTinyDays = 2.0;
/// Set-up repetitions before and after the timed phase: one takes about
/// 2 ms, so its median needs many samples, and taking them at both ends of
/// the run spans the host's conditions over it.
constexpr int kSetupRepsBefore = 100;
constexpr int kSetupRepsAfter = 100;
constexpr int kProcesses = 3;  ///< fresh processes the timed phase is split over
constexpr double kOutageMean = 43200.0;  ///< per-shard outage inter-arrival [s]
constexpr std::uint64_t kArchiveSeed = 1;  ///< the archive's arrivals
/// The traced pass replays this prefix of the archive: about 580 spans per
/// job, so the whole archive would overrun the tracer's ring.
constexpr int kTracedJobs = 3000;

/// Times each pull from the wrapped source under a call-boundary span.
class TimedSource final : public pdes::SubmissionSource {
 public:
  explicit TimedSource(pdes::SubmissionSource& inner) : inner_(inner) {}
  std::optional<double> peek_time() override { return inner_.peek_time(); }
  online::JobSubmission next() override {
    BenchSpan span("workload.source_next");
    return inner_.next();
  }

 private:
  pdes::SubmissionSource& inner_;
};

workload::Log make_archive(double days) {
  workload::SyntheticLogSpec spec = workload::sdsc_blue_spec();
  spec.cpus = kCpus;
  spec.duration_days = days;
  util::Rng rng(util::derive_seed(kArchiveSeed, {0xA2C4}));
  return workload::generate_log(spec, rng);
}

online::ReplaySpec replay_spec(std::uint64_t seed) {
  online::ReplaySpec spec;
  spec.app.num_tasks = 10;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 3600.0;
  spec.deadline_fraction = 0.3;
  spec.deadline_slack = 3.0;
  spec.seed = seed;
  return spec;
}

pdes::PdesConfig replay_config(std::uint64_t seed) {
  pdes::PdesConfig config;
  config.shards = kShards;
  config.threads = kThreads;
  config.window = 3600.0;
  config.service.capacity = kCpus / kShards;
  pdes::PdesChaos chaos;
  chaos.injector.seed = seed;
  chaos.injector.outage_mean = kOutageMean;
  config.chaos = chaos;
  return config;
}

/// Digest of everything the replay promises to reproduce: the bytes of
/// the merged JSONL trace (64-bit FNV-1a), the aggregates, the
/// deterministic stats and the per-shard repair counters.
std::string fingerprint(const pdes::PdesResult& r) {
  std::ostringstream out;
  std::uint64_t h = 1469598103934665603ULL;
  for (const online::TraceRecord& rec : r.trace) {
    for (unsigned char c : online::to_json_line(rec) + '\n') {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  const auto& a = r.aggregates;
  const auto& s = r.stats;
  out << r.trace.size() << ':' << h << " agg " << a.submitted << ' '
      << a.accepted << ' ' << a.counter_offered << ' ' << a.rejected << ' '
      << a.spillovers << " stats " << s.windows << ' ' << s.fast_forwards
      << ' ' << s.arrivals << ' ' << s.disruptions << ' ' << s.blind_probes
      << ' ' << s.floor_skips << ' ' << s.events << ' '
      << online::format_double(s.horizon);
  for (const ft::FtCounters& c : r.chaos)
    out << " ft " << c.disruptions << ' ' << c.repairs_attempted << ' '
        << c.repairs_succeeded << ' ' << c.tasks_replaced << ' '
        << c.fallback_reschedules << ' ' << c.jobs_abandoned;
  return out.str();
}

}  // namespace

Report run_archive_replay(const Args& args) {
  Report report;
  const double days = args.tiny ? kTinyDays : kDays;
  online::ReplaySpec spec = replay_spec(args.seed);
  if (args.trace && !args.tiny) spec.max_jobs = kTracedJobs;
  const pdes::PdesConfig config = replay_config(args.seed);

  // Set-up a user waits for before the first replayed job: open the
  // archive (materialise the synthetic log) and build the replay engine
  // over a source positioned at its first job.
  std::vector<double> setups;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    workload::Log archive = make_archive(days);
    pdes::LogSource source(archive, spec);
    pdes::PdesReplayEngine engine(config);
    if (!source.peek_time()) throw std::runtime_error("archive-replay: empty archive");
    setups.push_back(seconds_since(t0));
    return archive;
  };
  workload::Log log;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) log = set_up();
  report.notes.push_back("archive " + std::to_string(log.jobs.size()) +
                         " jobs over " + std::to_string(static_cast<int>(days)) +
                         " days, " + std::to_string(kCpus) + " cpus in " +
                         std::to_string(kShards) + " shards, " +
                         std::to_string(kThreads) + " workers");

  // The oracle, computed once per run outside the timed phase.
  std::string expected;
  {
    pdes::LogSource source(log, spec);
    expected = fingerprint(pdes::serial_replay(config, source));
  }

  // A replay keeps its stats and fingerprint; the merged trace itself is
  // dropped as soon as it is digested, outside the replay's timing.
  struct Replay {
    pdes::PdesStats stats;
    std::vector<std::uint64_t> shard_events;
    double seconds = 0.0;
    std::string fingerprint;
  };
  auto replay = [&]() {
    Replay r;
    pdes::PdesResult result;
    const Clock::time_point t0 = Clock::now();
    {
      BenchSpan span("bench.replay");
      pdes::LogSource inner(log, spec);
      TimedSource source(inner);
      pdes::PdesReplayEngine engine(config);
      result = engine.run(source);
      for (int s = 0; s < kShards; ++s)
        r.shard_events.push_back(engine.service().engine(s).events_processed());
    }
    r.seconds = seconds_since(t0);
    r.stats = result.stats;
    if (args.corrupt == "trace" && result.trace.size() >= 2)
      std::swap(result.trace[0], result.trace[1]);  // reorder two lines
    r.fingerprint = fingerprint(result);
    return r;
  };

  // Every replay's output is checked against the oracle.
  std::uint64_t jobs = 0;
  std::vector<double> lat_ms, rates;
  std::ostringstream each;
  auto tally = [&](double seconds, std::uint64_t arrivals, bool matches) {
    jobs += arrivals;
    lat_ms.push_back(seconds * 1e3);
    rates.push_back(static_cast<double>(arrivals) / seconds);
    each << ' ' << seconds;
    if (!matches) report.fail("replay diverged from serial_replay", arrivals);
  };
  auto note_replays = [&] {
    report.attempted = jobs;
    report.notes.push_back("replays " + std::to_string(lat_ms.size()) + ", jobs " +
                           std::to_string(jobs) + "; seconds each:" + each.str());
  };

  if (!args.trace) {
    // The timed phase is split into kProcesses parts, each in a fresh
    // process with a warm-up replay of its own (first-touch page faults
    // and allocator growth): on a shared VM one process ran at a speed of
    // its own for its whole life, so a run in one process followed that
    // process's luck.
    const int processes = args.tiny ? 1 : kProcesses;
    double peak_mb = 0.0;
    for (int p = 0; p < processes; ++p) {
      const std::string bytes = run_in_child([&] {
        replay();
        std::string out;
        // Replays while the next one, taking as long as the last, would
        // end at most half a replay past this process's share of the phase.
        double last = 0.0;
        const Clock::time_point t0 = Clock::now();
        do {
          const Replay r = replay();
          last = r.seconds;
          put_double(out, r.seconds);
          put_double(out, static_cast<double>(r.stats.arrivals));
          put_double(out, r.fingerprint == expected ? 1.0 : 0.0);
        } while (seconds_since(t0) + 0.5 * last < args.seconds / processes);
        put_double(out, peak_rss_mb());
        return out;
      });
      std::size_t pos = 0;
      while (bytes.size() - pos > sizeof(double)) {
        const double seconds = take_double(bytes, pos);
        const double arrivals = take_double(bytes, pos);
        tally(seconds, static_cast<std::uint64_t>(arrivals), take_double(bytes, pos) != 0.0);
      }
      peak_mb = std::max(peak_mb, take_double(bytes, pos));
    }
    note_replays();
    // Median over the run's replays of each replay's jobs per second.
    report.set("ops_per_s", median(rates), "1/s");
    // One result per replay: the "latency" of this workload is the whole
    // replay's wall time.
    report.set("latency_p50_ms", quantile(lat_ms, 0.50), "ms");
    report.set("latency_p99_ms", quantile(lat_ms, 0.99), "ms");
    report.set("latency_samples", static_cast<double>(lat_ms.size()), "count");
    report.set("peak_rss_mb", peak_mb, "MB");
    for (int rep = 0; rep < kSetupRepsAfter; ++rep) set_up();
    report.set("setup_s", median(setups), "s");
    return report;
  }

  const double untraced_s = replay().seconds;
  Ledger ledger;
  ledger.start();
  const Replay r = replay();
  ledger.stop();
  tally(r.seconds, r.stats.arrivals, r.fingerprint == expected);
  note_replays();

  // --- traced pass: per-layer metrics ------------------------------------
  const pdes::PdesStats& s = r.stats;
  set_common_layer_metrics(report, ledger);
  report.set("workload.source_next_s", ledger.total_s("workload.source_next"), "s");
  report.set_count("pdes.events", s.events);
  report.set_count("pdes.blind_probes", s.blind_probes);
  report.set_count("pdes.floor_skips", s.floor_skips);
  report.set("pdes.probe_skip_ratio",
             s.blind_probes > 0 ? static_cast<double>(s.floor_skips) /
                                      static_cast<double>(s.blind_probes)
                                : 0.0,
             "ratio");
  const double stall_s = static_cast<double>(s.barrier_stall_ns) * 1e-9;
  report.set("pdes.barrier_stall_s", stall_s, "s");
  report.set("pdes.barrier_stall_share", stall_s / r.seconds, "ratio");
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (std::uint64_t e : r.shard_events) {
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  report.set("shard.events.max_over_min",
             lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0,
             "ratio");
  report.set("obs.trace_overhead_pct",
             100.0 * (r.seconds - untraced_s) / untraced_s, "%");
  report.notes.push_back("traced replay: untraced " + std::to_string(untraced_s) +
                         " s, traced " + std::to_string(r.seconds) + " s");
  std::ostringstream table;
  ledger.print_table(table);
  report.notes.push_back(table.str());
  ledger.write_jsonl(args.work_dir + "/trace-archive-replay.jsonl");
  return report;
}

}  // namespace perfbench
