// Shared plumbing of the perfbench driver: arguments, clocks, percentiles,
// the metric report every workload fills, and the machine record.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and a short timed phase: the self-test mode that checks
  /// every metric is emitted, not a measurement.
  bool tiny = false;
  /// Deliberate output corruption for the self-test ("" = none); each
  /// workload documents the value it understands.
  std::string corrupt;
  /// Scratch directory inside the checkout (WAL state, trace dumps).
  std::string work_dir = ".bench_build/work";
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of `v` (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// One named metric with its unit. `count` marks deterministic counters
/// that must repeat exactly across runs of one seed (the count gate).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool count = false;
};

/// Everything one run reports: the metrics, the operation tallies and the
/// correctness verdict, plus free-form lines for the human-readable log.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  void set_count(const std::string& name, std::uint64_t value);
  /// Records a correctness failure (and its reason) without aborting.
  void fail(const std::string& why, std::uint64_t failed_ops);
  const Metric* find(const std::string& name) const;
};

/// Counter value from an obs snapshot (0 when the counter never fired).
std::uint64_t counter_value(const resched::obs::MetricsSnapshot& snap,
                            const std::string& name);
/// Histogram sample from an obs snapshot (empty when it never fired).
resched::obs::HistogramSample histogram_sample(
    const resched::obs::MetricsSnapshot& snap, const std::string& name);
/// Quantile of an obs histogram, interpolated linearly inside the log2
/// bucket that holds the rank (the registry's own quantile() reports the
/// bucket's upper bound, which is up to 2x high).
double histogram_quantile(const resched::obs::HistogramSample& h, double q);

/// Host and build facts printed with every run and stored with its result.
struct MachineRecord {
  int nproc = 0;
  std::string cpu_model;
  std::string isa;
  std::string build_type;
  bool obs_compiled = false;
  std::string obs_runtime;
  bool aslr = true;  ///< address-space layout randomised for this process
  std::string state_path;
  std::string state_fs;
  std::string wal_sync;
};
MachineRecord machine_record(bool traced, const std::string& state_path,
                             const std::string& wal_sync);
std::string to_json(const MachineRecord& m);

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus();
/// Restricts this thread, and every thread it creates afterwards, to the
/// k-th of `cpus` (round robin). Returns false when pinning is refused.
bool pin_to(const std::vector<int>& cpus, std::size_t k);
/// Lifts the pinning: this thread may run on any of `cpus` again.
void pin_to_all(const std::vector<int>& cpus);

/// Runs `fn` in a fresh fork of this process and returns the bytes it
/// produced; throws when the child fails or dies. Call only while this
/// process has a single thread.
std::string run_in_child(const std::function<std::string()>& fn);

/// Flat little-endian encoding for what a child process reports back.
void put_double(std::string& out, double v);
double take_double(const std::string& in, std::size_t& pos);

/// Filesystem type of `path` ("tmpfs", "ext4", "overlay", ... or a hex
/// magic when unknown).
std::string filesystem_type(const std::string& path);

/// `mkdir -p`; throws on failure.
void make_dirs(const std::string& path);
/// Recursively deletes `path` if it exists.
void remove_tree(const std::string& path);

/// Deterministic JSON rendering of a double (shortest round-trip form).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
