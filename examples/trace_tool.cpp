// Workload trace utility: generate, inspect, and convert the batch logs
// behind the paper's evaluation (§3.2, Tables 2-3).
//
// Usage:
//   trace_tool stats [swf-file]     Table 3 metrics for a log (default:
//                                   every built-in synthetic platform)
//   trace_tool gen <platform> <out.swf>
//                                   write a synthetic log as SWF; platform
//                                   is one of ctc, osc, blue, ds, g5k
//   trace_tool resv <platform> <phi> <linear|expo|real>
//                                   sample a reservation schedule and print
//                                   its per-day reservation counts
//   trace_tool replay <platform|log.swf> [options]
//                                   replay a workload through the
//                                   conservative windowed driver
//                                   (src/pdes/, DESIGN.md §12) and print
//                                   its admission and utilization
//                                   summary. A platform name replays that
//                                   platform's synthetic log; any other
//                                   argument streams as an SWF archive in
//                                   bounded memory (per window: the
//                                   whole-stream window ingests it all).
//                                   With the defaults (one shard, no
//                                   chaos, whole-stream window) this is
//                                   the plain single-engine replay.
//     --jobs N            truncate the stream to N jobs (100; 0 = all)
//     --tasks N           tasks per submitted DAG (8)
//     --deadline-frac F   fraction of jobs with deadlines (0.3)
//     --slack S           deadline = submit + S * serial critical path (3)
//     --seed N            DAG / deadline / chaos seed (42)
//     --reject            reject infeasible deadlines (default:
//                         counter-offer)
//     --shards N          equal platform partitions (1; must divide the
//                         cpus); N > 1 prints the per-shard roll-up
//     --threads N         worker threads for the window barrier (= shards);
//                         any value yields byte-identical output
//     --window S          lookahead window seconds (inf = whole stream;
//                         default inf at one shard without chaos, else
//                         3600); chaos needs a finite window
//     --chaos MEAN        inject outages with this mean inter-arrival [s]
//     --verify            also run the single-threaded serial oracle and
//                         compare traces, tallies and stats; prints PASS
//     --trace PATH        JSONL event trace: the (time, shard, seq) merge,
//                         untagged when --shards is 1
//     --spans PATH        Chrome-trace JSON of the obs spans (Perfetto)
//     --metrics PATH      obs metrics JSONL; obs is on only when --spans
//                         or --metrics is given
//                         Options also accept the --flag=value form.
//   trace_tool merge_traces <out.jsonl> <in.jsonl>...
//                                   merge per-shard engine traces (JSONL,
//                                   src/online/trace.hpp schema) into one
//                                   stream under the deterministic
//                                   (time, shard, seq) total order; inputs
//                                   without shard tags inherit their
//                                   argument position as shard id. "-"
//                                   writes the merge to stdout.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/online/replay.hpp"
#include "src/online/trace.hpp"
#include "src/pdes/pdes.hpp"
#include "src/pdes/source.hpp"
#include "src/shard/sharded_service.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"
#include "src/workload/stats.hpp"
#include "src/workload/swf.hpp"
#include "src/workload/synth.hpp"
#include "src/workload/tagging.hpp"

namespace {

using namespace resched;
constexpr double kDay = 86400.0;

workload::SyntheticLogSpec spec_for(const std::string& name) {
  if (name == "ctc") return workload::ctc_sp2_spec();
  if (name == "osc") return workload::osc_cluster_spec();
  if (name == "blue") return workload::sdsc_blue_spec();
  if (name == "ds") return workload::sdsc_ds_spec();
  if (name == "g5k") return workload::grid5000_spec();
  throw resched::Error("unknown platform '" + name + "' (ctc|osc|blue|ds|g5k)");
}

void print_stats(const workload::Log& log) {
  auto s = workload::compute_log_stats(log);
  std::printf("%-12s %8zu jobs  util %5.1f%%  exec %6.2f h (cv %5.2f%%)  "
              "wait %6.2f h (cv %5.2f%%)\n",
              s.name.c_str(), s.job_count, 100.0 * log.utilization(),
              s.avg_exec_hours, s.cv_exec_pct, s.avg_wait_hours,
              s.cv_wait_pct);
}

int cmd_stats(int argc, char** argv) {
  if (argc >= 3) {
    print_stats(workload::read_swf_file(argv[2]));
    return 0;
  }
  for (const char* name : {"ctc", "osc", "blue", "ds", "g5k"}) {
    util::Rng rng(1);
    print_stats(workload::generate_log(spec_for(name), rng));
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) throw resched::Error("usage: trace_tool gen <platform> <out.swf>");
  util::Rng rng(1);
  workload::Log log = workload::generate_log(spec_for(argv[2]), rng);
  std::ofstream out(argv[3]);
  workload::write_swf(out, log);
  std::printf("wrote %zu jobs (%d cpus) to %s\n", log.jobs.size(), log.cpus,
              argv[3]);
  return 0;
}

int cmd_resv(int argc, char** argv) {
  if (argc < 5)
    throw resched::Error("usage: trace_tool resv <platform> <phi> <linear|expo|real>");
  util::Rng rng(1);
  workload::Log log = workload::generate_log(spec_for(argv[2]), rng);

  workload::TaggingSpec spec;
  spec.phi = std::stod(argv[3]);
  std::string method = argv[4];
  spec.method = method == "linear" ? workload::DecayMethod::kLinear
                : method == "expo" ? workload::DecayMethod::kExpo
                                   : workload::DecayMethod::kReal;
  double now = log.duration / 2.0;
  auto schedule = workload::make_reservation_schedule(log, now, spec, rng);

  std::printf("%zu reservations visible at t=%.1f days (phi=%.2f, %s)\n",
              schedule.size(), now / kDay, spec.phi,
              workload::to_string(spec.method));
  for (int day = 0; day < 7; ++day) {
    int count = 0;
    double procs = 0;
    for (const auto& r : schedule) {
      if (r.start >= now + day * kDay && r.start < now + (day + 1) * kDay) {
        ++count;
        procs += r.procs;
      }
    }
    std::printf("  day +%d: %5d reservations starting, %7.0f procs total\n",
                day, count, procs);
  }
  return 0;
}

bool is_platform(const std::string& name) {
  return name == "ctc" || name == "osc" || name == "blue" || name == "ds" ||
         name == "g5k";
}

int cmd_merge_traces(int argc, char** argv) {
  if (argc < 4)
    throw resched::Error(
        "usage: trace_tool merge_traces <out.jsonl|-> <in.jsonl>...");
  std::vector<std::vector<online::TraceRecord>> shards;
  std::size_t total = 0;
  for (int i = 3; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in) throw resched::Error(std::string("cannot open ") + argv[i]);
    shards.push_back(online::read_trace(in));
    total += shards.back().size();
  }
  std::vector<online::TraceRecord> merged =
      online::merge_traces(std::move(shards));
  std::ofstream file;
  bool to_stdout = !std::strcmp(argv[2], "-");
  if (!to_stdout) {
    file.open(argv[2]);
    if (!file) throw resched::Error(std::string("cannot open ") + argv[2]);
  }
  std::ostream& out = to_stdout ? std::cout : file;
  for (const online::TraceRecord& r : merged)
    out << online::to_json_line(r) << '\n';
  if (!to_stdout)
    std::printf("merged %zu records from %d traces into %s\n", total,
                argc - 3, argv[2]);
  return 0;
}

/// Expands "--flag=value" arguments into "--flag" "value" pairs so both
/// spellings parse identically.
std::vector<std::string> expand_args(int argc, char** argv, int first) {
  std::vector<std::string> args;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    std::size_t eq = arg.find('=');
    if (arg.size() > 2 && arg.compare(0, 2, "--") == 0 &&
        eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(std::move(arg));
    }
  }
  return args;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Time of the last processor-usage change on any shard, i.e. when the
/// replay went idle. PdesStats::horizon is the final barrier, which is
/// +inf under the default whole-stream window, so it cannot end a span.
double last_event_time(const shard::ShardedService& service) {
  double last = 0.0;
  for (int s = 0; s < service.shards(); ++s) {
    const auto& timeline = service.engine(s).metrics().usage_timeline();
    if (!timeline.empty()) last = std::max(last, timeline.back().time);
  }
  return last;
}

void print_result(const pdes::PdesResult& result, double last_event,
                  double elapsed) {
  const pdes::PdesStats& s = result.stats;
  std::printf("  windows=%llu (fast-forwards=%llu)  arrivals=%llu  "
              "events=%llu  last event=%.1f h\n",
              static_cast<unsigned long long>(s.windows),
              static_cast<unsigned long long>(s.fast_forwards),
              static_cast<unsigned long long>(s.arrivals),
              static_cast<unsigned long long>(s.events), last_event / 3600.0);
  std::printf("  blind probes=%llu  floor skips=%llu  disruptions=%llu  "
              "barrier stall=%.1f ms\n",
              static_cast<unsigned long long>(s.blind_probes),
              static_cast<unsigned long long>(s.floor_skips),
              static_cast<unsigned long long>(s.disruptions),
              static_cast<double>(s.barrier_stall_ns) / 1e6);
  std::printf("  admitted: %d submitted, %d accepted, %d counter-offered, "
              "%d rejected\n",
              result.aggregates.submitted, result.aggregates.accepted,
              result.aggregates.counter_offered, result.aggregates.rejected);
  std::printf("  elapsed: %.3f s (%.0f events/s)\n", elapsed,
              elapsed > 0.0 ? static_cast<double>(s.events) / elapsed : 0.0);
}

bool same_deterministic_results(const pdes::PdesResult& a,
                                const pdes::PdesResult& b) {
  if (a.trace.size() != b.trace.size()) return false;
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    if (online::to_json_line(a.trace[i]) != online::to_json_line(b.trace[i]))
      return false;
  const auto agg = [](const shard::ShardedService::Aggregates& x) {
    return std::tuple(x.submitted, x.accepted, x.counter_offered, x.rejected,
                      x.spillovers);
  };
  if (agg(a.aggregates) != agg(b.aggregates)) return false;
  const auto det = [](const pdes::PdesStats& x) {
    // barrier_stall_ns is measured wall-clock — deliberately excluded.
    return std::tuple(x.windows, x.fast_forwards, x.arrivals, x.disruptions,
                      x.blind_probes, x.floor_skips, x.events, x.horizon);
  };
  if (det(a.stats) != det(b.stats)) return false;
  if (a.chaos.size() != b.chaos.size()) return false;
  for (std::size_t i = 0; i < a.chaos.size(); ++i)
    if (!(a.chaos[i] == b.chaos[i])) return false;
  return true;
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3)
    throw resched::Error(
        "usage: trace_tool replay <platform|log.swf> [--jobs N] [--tasks N] "
        "[--deadline-frac F] [--slack S] [--seed N] [--reject] [--shards N] "
        "[--threads N] [--window S] [--chaos MEAN] [--verify] "
        "[--trace PATH] [--spans PATH] [--metrics PATH]");
  const std::string input = argv[2];
  online::ReplaySpec spec;
  spec.app.num_tasks = 8;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 3600.0;
  spec.deadline_fraction = 0.3;
  spec.deadline_slack = 3.0;
  spec.max_jobs = 100;
  spec.seed = 42;
  pdes::PdesConfig config;
  config.threads = 0;  // 0 = match --shards
  double window = 0.0;
  bool window_set = false;  // unset: derived from --shards and --chaos
  bool reject_infeasible = false;
  bool verify = false;
  double chaos_mean = 0.0;
  std::string trace_path, spans_path, metrics_path;

  const std::vector<std::string> args = expand_args(argc, argv, 3);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= args.size())
        throw resched::Error("missing value for " + arg);
      return args[++i].c_str();
    };
    if (arg == "--jobs") spec.max_jobs = std::atoi(value());
    else if (arg == "--tasks") spec.app.num_tasks = std::atoi(value());
    else if (arg == "--deadline-frac")
      spec.deadline_fraction = std::atof(value());
    else if (arg == "--slack") spec.deadline_slack = std::atof(value());
    else if (arg == "--seed")
      spec.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--reject") reject_infeasible = true;
    else if (arg == "--shards") config.shards = std::atoi(value());
    else if (arg == "--threads") config.threads = std::atoi(value());
    else if (arg == "--window") {
      window = std::atof(value());
      window_set = true;
    } else if (arg == "--chaos") chaos_mean = std::atof(value());
    else if (arg == "--verify") verify = true;
    else if (arg == "--trace") trace_path = value();
    else if (arg == "--spans") spans_path = value();
    else if (arg == "--metrics") metrics_path = value();
    else throw resched::Error("unknown option " + arg);
  }
  if (config.shards < 1 || config.threads < 0 ||
      (window_set && !(window > 0.0)))
    throw resched::Error("--shards must be >= 1, --threads >= 0 and "
                         "--window > 0");
  // One window spanning the whole stream is the plain single-engine
  // replay; sharded and chaos runs default to hour-long windows, so
  // routing happens at real barriers and chaos is generated per window.
  if (!window_set)
    window = config.shards == 1 && chaos_mean <= 0.0
                 ? std::numeric_limits<double>::infinity()
                 : 3600.0;
  // The chaos stream is generated up to each window's end.
  if (chaos_mean > 0.0 && std::isinf(window))
    throw resched::Error("--chaos needs a finite --window");
  config.window = window;
  if (config.threads == 0) config.threads = config.shards;
  config.service.admission = reject_infeasible
                                 ? online::AdmissionPolicy::kRejectInfeasible
                                 : online::AdmissionPolicy::kCounterOffer;
  if (chaos_mean > 0.0) {
    pdes::PdesChaos chaos;
    chaos.injector.seed = spec.seed;
    chaos.injector.outage_mean = chaos_mean;
    config.chaos = chaos;
  }
  config.capture_trace = !trace_path.empty() || verify;

  // Source factory: a platform name replays its synthetic log; anything
  // else streams as an SWF archive in bounded memory. Sources are
  // single-pass, so --verify's oracle leg gets a fresh one (and a
  // re-opened archive) of its own.
  const bool synthetic = is_platform(input);
  workload::Log log;
  if (synthetic) {
    util::Rng rng(1);
    log = workload::generate_log(spec_for(input), rng);
  }
  int cpus = log.cpus;
  std::ifstream swf_file;
  auto make_source = [&]() -> std::unique_ptr<pdes::SubmissionSource> {
    if (synthetic) return std::make_unique<pdes::LogSource>(log, spec);
    swf_file.close();
    swf_file.clear();
    swf_file.open(input);
    if (!swf_file) throw resched::Error("cannot open SWF file: " + input);
    auto source =
        std::make_unique<pdes::SwfStreamSource>(swf_file, input, spec);
    cpus = source->header_cpus();
    return source;
  };
  std::unique_ptr<pdes::SubmissionSource> source = make_source();
  if (cpus % config.shards != 0)
    throw resched::Error("--shards " + std::to_string(config.shards) +
                         " must divide the platform size " +
                         std::to_string(cpus));
  config.service.capacity = cpus / config.shards;

  std::printf("workload: %s — %d processors over %d shard(s) x %d procs\n",
              synthetic ? log.name.c_str() : input.c_str(), cpus,
              config.shards, config.service.capacity);
  std::printf("replaying DAG submissions (%d tasks each, %.0f%% with "
              "deadlines, %d threads, window %.0f s, policy: %s%s)...\n",
              spec.app.num_tasks,
              100.0 * spec.deadline_fraction, config.threads, config.window,
              reject_infeasible ? "reject" : "counter-offer",
              config.chaos ? ", chaos on" : "");

  const bool observe = !spans_path.empty() || !metrics_path.empty();
  if (observe) {
    obs::registry().reset();
    obs::set_metrics_enabled(true);
    obs::Tracer::global().start();
  }
  const auto t0 = std::chrono::steady_clock::now();
  pdes::PdesReplayEngine engine(config);
  pdes::PdesResult result = engine.run(*source);
  const double elapsed = seconds_since(t0);
  if (observe) {
    obs::Tracer::global().stop();
    obs::set_metrics_enabled(false);
  }
  const shard::ShardedService& service = engine.service();
  const double last_event = last_event_time(service);
  print_result(result, last_event, elapsed);

  if (config.shards == 1) {
    const online::OnlineMetrics& metrics = service.engine(0).metrics();
    std::ostringstream table;
    metrics.summary_table().print(table);
    std::printf("\n%s", table.str().c_str());
    if (last_event > 0.0)
      std::printf("\nutilization over [0, %.1f h]: %.1f%%\n",
                  last_event / 3600.0,
                  100.0 * metrics.utilization(0.0, last_event));
  } else {
    std::printf("\n%s", service.summary_table().c_str());
  }

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) throw resched::Error("cannot open trace file: " + trace_path);
    // One engine keeps the untagged single-engine schema.
    for (online::TraceRecord r : result.trace) {
      if (config.shards == 1) r.shard = -1;
      out << online::to_json_line(r) << '\n';
    }
    std::printf("event trace written to %s (%zu records)\n",
                trace_path.c_str(), result.trace.size());
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    if (!out) throw resched::Error("cannot open spans file: " + spans_path);
    obs::Tracer::global().write_chrome_trace(out);
    std::printf("wrote %zu spans to %s (open in https://ui.perfetto.dev)\n",
                obs::Tracer::global().snapshot().size(), spans_path.c_str());
    if (std::uint64_t dropped = obs::Tracer::global().dropped(); dropped > 0)
      std::printf("  (%llu spans dropped: ring saturated)\n",
                  static_cast<unsigned long long>(dropped));
  }
  if (!metrics_path.empty()) {
    const obs::MetricsSnapshot snap = obs::registry().snapshot();
    std::ofstream out(metrics_path);
    if (!out)
      throw resched::Error("cannot open metrics file: " + metrics_path);
    snap.write_jsonl(out);
    std::printf("wrote %zu counters / %zu histograms to %s\n\n",
                snap.counters.size(), snap.histograms.size(),
                metrics_path.c_str());
    std::ostringstream counters;
    snap.write_table(counters);
    std::printf("%s", counters.str().c_str());
  }

  if (verify) {
    std::printf("\nserial oracle (same windowed protocol, one thread)...\n");
    std::unique_ptr<pdes::SubmissionSource> oracle_source = make_source();
    const auto t1 = std::chrono::steady_clock::now();
    const pdes::PdesResult serial = pdes::serial_replay(config, *oracle_source);
    const double serial_s = seconds_since(t1);
    print_result(serial, last_event, serial_s);
    if (!same_deterministic_results(result, serial)) {
      std::fprintf(stderr, "FAIL: parallel and serial replays diverged\n");
      return 1;
    }
    std::printf("\nPASS: %zu trace records byte-identical; speedup %.2fx at "
                "%d threads\n",
                result.trace.size(), elapsed > 0.0 ? serial_s / elapsed : 0.0,
                config.threads);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || std::strcmp(argv[1], "stats") == 0)
      return cmd_stats(argc, argv);
    if (std::strcmp(argv[1], "gen") == 0) return cmd_gen(argc, argv);
    if (std::strcmp(argv[1], "resv") == 0) return cmd_resv(argc, argv);
    if (std::strcmp(argv[1], "replay") == 0) return cmd_replay(argc, argv);
    if (std::strcmp(argv[1], "merge_traces") == 0)
      return cmd_merge_traces(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
