// The traced run's per-layer ledger.
//
// A traced pass switches on the program's own obs metrics and span tracer,
// and the benchmark records its own spans into the same tracer: one root
// span per operation ("bench.<op>") around each public call it makes, plus
// call-boundary spans named after the callee layer (for example
// "workload.source_next" around SubmissionSource::next). Spans stay in the
// tracer's in-memory ring until the pass ends.
//
// analyse() then rebuilds the span tree. On one thread a span's parent is
// the innermost span that encloses it; a span that is top-level on another
// thread (a server connection thread, a replay worker) belongs to the root
// whose interval holds its start, which is sound because every workload
// keeps at most one operation in flight. All spans of one operation share
// the root's op id. A span's self time is its duration minus the union of
// its children's intervals; a layer's self time is the sum over its spans
// (layer = name up to the first '.'), and the roots' own self time is the
// residual no layer accounts for.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/src/common.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/obs.hpp"

namespace perfbench {

/// RAII span recorded from the benchmark's own code; a no-op unless a
/// traced pass is running.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name) {
    if (!resched::obs::tracing_enabled()) return;
    name_ = name;
    start_ = resched::obs::now_ns();
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;
  ~BenchSpan() {
    if (name_ != nullptr)
      resched::obs::Tracer::global().record(name_, start_,
                                            resched::obs::now_ns());
  }

 private:
  const char* name_ = nullptr;
  std::int64_t start_ = 0;
};

class Ledger {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t tid = 0;
    int parent = -1;        ///< index into spans(), -1 for roots / strays
    std::uint64_t op = 0;   ///< 1-based operation id, 0 outside any op
    std::int64_t self = 0;  ///< duration minus children's union [ns]
  };

  /// Zeroes the obs registry and turns metrics and tracing on.
  void start();
  /// Turns both off, then snapshots the spans and metrics and analyses
  /// the span tree.
  void stop();

  const resched::obs::MetricsSnapshot& metrics() const { return metrics_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t ops() const { return ops_; }

  /// Durations [ms] of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Summed duration [s] of every span with this name.
  double total_s(const std::string& name) const;
  /// Summed self time [s] of every span with this name.
  double self_s(const std::string& name) const;
  /// Summed self time [s] of every span whose name starts with `prefix`.
  double self_s_prefix(const std::string& prefix) const;

  /// Self time per layer [s]; the "bench" entry is the residual.
  const std::map<std::string, double>& layer_self_s() const {
    return layer_self_;
  }
  double residual_s() const;
  /// Summed root (operation) wall time [s].
  double root_s() const { return root_s_; }

  /// Per-layer self-time table with the residual and its share.
  void print_table(std::ostream& out) const;
  /// One JSON object per span: name, tid, start/end [ns from the first
  /// span], op id, parent index and self time.
  void write_jsonl(const std::string& path) const;

 private:
  void analyse();

  resched::obs::MetricsSnapshot metrics_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t ops_ = 0;
  double root_s_ = 0.0;
  std::map<std::string, double> layer_self_;
};

/// Fills the per-layer metrics every workload derives the same way from a
/// traced pass: the program's own counters and histograms, span
/// percentiles, and the residual. Layers a workload never enters read 0.
void set_common_layer_metrics(Report& report, const Ledger& ledger);

}  // namespace perfbench
