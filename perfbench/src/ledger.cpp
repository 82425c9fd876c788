#include "perfbench/src/ledger.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <string_view>
#include <utility>

#include "perfbench/src/common.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

bool is_root_name(const char* name) {
  return std::string_view(name).rfind("bench.", 0) == 0;
}

std::string layer_of(const char* name) {
  const std::string_view s(name);
  return std::string(s.substr(0, s.find('.')));
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

void Ledger::start() {
  resched::obs::registry().reset();
  resched::obs::set_metrics_enabled(true);
  resched::obs::Tracer::global().start(kTraceCapacity);
}

void Ledger::stop() {
  resched::obs::Tracer& tracer = resched::obs::Tracer::global();
  tracer.stop();
  resched::obs::set_metrics_enabled(false);
  metrics_ = resched::obs::registry().snapshot();
  dropped_ = tracer.dropped();
  spans_.clear();
  for (const resched::obs::SpanEvent& ev : tracer.snapshot())
    spans_.push_back(Span{ev.name, ev.start_ns, ev.end_ns, ev.tid});
  analyse();
}

void Ledger::analyse() {
  // Same-thread nesting: sort by (tid, start, longest first) and keep a
  // stack of open spans.
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start != y.start) return x.start < y.start;
    return x.end > y.end;
  });
  std::vector<std::size_t> stack;
  std::uint32_t tid = 0;
  for (std::size_t i : order) {
    Span& s = spans_[i];
    if (stack.empty() || s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && spans_[stack.back()].end < s.end) stack.pop_back();
    s.parent = stack.empty() ? -1 : static_cast<int>(stack.back());
    stack.push_back(i);
  }

  // Roots: top-level bench spans, in time order; op ids follow that order.
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent < 0 && is_root_name(spans_[i].name)) roots.push_back(i);
  std::sort(roots.begin(), roots.end(), [&](std::size_t a, std::size_t b) {
    return spans_[a].start < spans_[b].start;
  });
  ops_ = roots.size();
  root_s_ = 0.0;
  for (std::size_t k = 0; k < roots.size(); ++k) {
    spans_[roots[k]].op = k + 1;
    root_s_ += static_cast<double>(spans_[roots[k]].end - spans_[roots[k]].start) * 1e-9;
  }
  // Top-level spans of other threads hang under the root holding their
  // start (at most one operation is ever in flight).
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (s.parent >= 0 || is_root_name(s.name)) continue;
    auto it = std::upper_bound(
        roots.begin(), roots.end(), s.start,
        [&](std::int64_t t, std::size_t r) { return t < spans_[r].start; });
    if (it == roots.begin()) continue;
    const std::size_t r = *std::prev(it);
    if (s.start <= spans_[r].end) s.parent = static_cast<int>(r);
  }
  // Op ids propagate down: resolve each span's root by walking parents.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::size_t j = i;
    while (spans_[j].parent >= 0 && spans_[j].op == 0)
      j = static_cast<std::size_t>(spans_[j].parent);
    spans_[i].op = spans_[j].op;
  }

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  layer_self_.clear();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    s.self = (s.end - s.start) - covered(children[i], s.start, s.end);
    layer_self_[layer_of(s.name)] += static_cast<double>(s.self) * 1e-9;
  }
}

std::vector<double> Ledger::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name) out.push_back(static_cast<double>(s.end - s.start) * 1e-6);
  return out;
}

double Ledger::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) total += static_cast<double>(s.end - s.start) * 1e-9;
  return total;
}

double Ledger::self_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) total += static_cast<double>(s.self) * 1e-9;
  return total;
}

double Ledger::self_s_prefix(const std::string& prefix) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (std::string_view(s.name).rfind(prefix, 0) == 0)
      total += static_cast<double>(s.self) * 1e-9;
  return total;
}

double Ledger::residual_s() const {
  const auto it = layer_self_.find("bench");
  return it == layer_self_.end() ? 0.0 : it->second;
}

void Ledger::print_table(std::ostream& out) const {
  double sum = 0.0;
  for (const auto& [layer, s] : layer_self_) sum += s;
  out << "per-layer self time (" << ops_ << " ops, " << spans_.size()
      << " spans, " << dropped_ << " dropped; op wall " << std::fixed
      << std::setprecision(4) << root_s_ << " s)\n";
  for (const auto& [layer, s] : layer_self_) {
    if (layer == "bench") continue;
    out << "  " << std::left << std::setw(10) << layer << std::right
        << std::setw(12) << s << " s  " << std::setw(6) << std::setprecision(1)
        << (sum > 0 ? 100.0 * s / sum : 0.0) << " %\n"
        << std::setprecision(4);
  }
  out << "  " << std::left << std::setw(10) << "residual" << std::right
      << std::setw(12) << residual_s() << " s  " << std::setw(6)
      << std::setprecision(1) << (sum > 0 ? 100.0 * residual_s() / sum : 0.0)
      << " %\n"
      << std::setprecision(4) << "  self-time sum " << sum
      << " s (exceeds op wall when worker threads overlap)\n";
  out.unsetf(std::ios::floatfield);
}

void Ledger::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  std::int64_t t0 = 0;
  for (const Span& s : spans_)
    t0 = t0 == 0 ? s.start : std::min(t0, s.start);
  for (const Span& s : spans_)
    out << "{\"name\":" << json_string(s.name) << ",\"tid\":" << s.tid
        << ",\"start_ns\":" << (s.start - t0) << ",\"end_ns\":" << (s.end - t0)
        << ",\"op\":" << s.op << ",\"parent\":" << s.parent
        << ",\"self_ns\":" << s.self << "}\n";
}

void set_common_layer_metrics(Report& report, const Ledger& ledger) {
  const resched::obs::MetricsSnapshot& snap = ledger.metrics();
  auto count = [&](const char* name) {
    report.set_count(name, counter_value(snap, name));
    return static_cast<double>(counter_value(snap, name));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto span_q = [&](const char* span, double q, double scale) {
    return quantile(ledger.durations_ms(span), q) * scale;
  };

  // core
  const auto ressched = histogram_sample(snap, "core.ressched");
  report.set_count("core.ressched.calls", ressched.count);
  // The core layer's own time inside RESSCHED: every core.ressched* span's
  // self time (kernels and other layers below it excluded).
  report.set("core.ressched.self_s",
             ledger.self_s("core.ressched") + ledger.self_s_prefix("core.ressched."),
             "s");
  report.set("core.ressched_s", ledger.total_s("core.ressched"), "s");
  const double queries = count("core.ressched.sweep_queries");
  const double placed = count("core.ressched.tasks_placed");
  report.set("core.ressched.queries_per_task", ratio(queries, placed), "ratio");
  report.set("core.resscheddl_s", ledger.total_s("core.resscheddl"), "s");
  report.set("core.tightest_deadline_s", ledger.total_s("core.tightest_deadline"), "s");
  const double probes = count("core.tightest.probes");
  const double filtered = count("core.tightest.floor_filtered");
  report.set("core.tightest.filter_ratio", ratio(filtered, probes), "ratio");
  count("core.resscheddl.backward_passes");

  // kernels
  report.set("kernels.bl_sweep_s",
             static_cast<double>(histogram_sample(snap, "kernels.bl_sweep_ns").sum) * 1e-9,
             "s");
  count("kernels.dispatch.scalar");
  count("kernels.dispatch.sse2");
  count("kernels.dispatch.avx2");

  // resv
  count("resv.fit.earliest");
  count("resv.fit.latest");
  count("resv.fit.batches");
  const double runs = count("resv.index.subtree_runs");
  const double prunes = count("resv.index.subtree_prunes");
  report.set("resv.index.prune_ratio", ratio(prunes, runs + prunes), "ratio");

  // online
  report.set("online.schedule_job.p50_ms", span_q("online.schedule_job", 0.50, 1.0), "ms");
  report.set("online.schedule_job.p99_ms", span_q("online.schedule_job", 0.99, 1.0), "ms");
  report.set("online.event.p50_us", span_q("online.event", 0.50, 1e3), "us");
  report.set("online.event.p99_us", span_q("online.event", 0.99, 1e3), "us");
  count("online.accepted");
  count("online.counter_offered");
  count("online.rejected");
  count("online.compactions");
  report.set("online.queue_depth.max",
             static_cast<double>(histogram_sample(snap, "online.queue_depth").max),
             "count");

  // srv (server side; the client side is the daemon workload's own)
  const auto lock_wait = histogram_sample(snap, "srv.core.lock_wait.ns");
  report.set("srv.core.lock_wait_us",
             lock_wait.count > 0 ? static_cast<double>(lock_wait.sum) /
                                       static_cast<double>(lock_wait.count) * 1e-3
                                 : 0.0,
             "us");
  for (const char* verb : {"submit", "status", "accept", "cancel"}) {
    const auto h = histogram_sample(snap, std::string("srv.rpc.") + verb + ".ns");
    report.set(std::string("srv.server.") + verb + ".p50_ms",
               histogram_quantile(h, 0.50) * 1e-6, "ms");
  }
  const double records = count("srv.wal.records");
  const double bytes = count("srv.wal.bytes");
  count("srv.wal.fsyncs");
  report.set("srv.wal.bytes_per_record", ratio(bytes, records), "B");

  // pdes (the replay workload adds the engine's own PdesStats)
  count("pdes.windows");
  count("pdes.arrivals");
  count("pdes.fast_forwards");
  report.set("pdes.window.p50_ms", span_q("pdes.window", 0.50, 1.0), "ms");
  report.set("pdes.window.p99_ms", span_q("pdes.window", 0.99, 1.0), "ms");

  // ft
  count("ft.disruptions");
  const double repaired = count("ft.repairs_succeeded");
  count("ft.fallback_reschedules");
  report.set("ft.repair.p50_ms", span_q("ft.repair", 0.50, 1.0), "ms");
  report.set("ft.repair.p99_ms", span_q("ft.repair", 0.99, 1.0), "ms");
  report.set("ft.repair_success_ratio",
             ratio(repaired, static_cast<double>(histogram_sample(snap, "ft.repair").count)),
             "ratio");

  // the ledger itself
  double self_sum = 0.0;
  for (const auto& [layer, s] : ledger.layer_self_s()) self_sum += s;
  report.set("ledger.residual_s", ledger.residual_s(), "s");
  report.set("ledger.residual_share", ratio(ledger.residual_s(), self_sum), "ratio");
  report.set_count("ledger.ops", ledger.ops());
  if (ledger.dropped() > 0)
    report.notes.push_back("WARNING: " + std::to_string(ledger.dropped()) +
                           " spans dropped (trace ring saturated)");
}

}  // namespace perfbench
