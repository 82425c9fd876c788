// The kernel loops: the pre-kernel hot-path code moved verbatim (dag.cpp's
// sweeps, snapshot.cpp's fit scans with array indices for map iterators).
// The fit scans are checked against the LinearProfile oracle through
// CalendarSnapshot in tests/kernels_test.cpp and tests/resv_arena_test.cpp.
#include "src/kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/obs/obs.hpp"

namespace resched::kernels {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

std::size_t segment_index(const double* keys, std::size_t n, double t) {
  const double* it = std::upper_bound(keys, keys + n, t);
  return static_cast<std::size_t>(it - keys) - 1;
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
  }
  return "?";
}

Isa active_isa() { return Isa::kScalar; }

void exec_times(const double* seq, const double* alpha, const int* alloc,
                std::size_t n, double* exec) {
  for (std::size_t v = 0; v < n; ++v)
    exec[v] =
        seq[v] * (alpha[v] + (1.0 - alpha[v]) / static_cast<double>(alloc[v]));
}

void bl_sweep(const DagView& dag, const double* exec, double* bl) {
  OBS_PHASE("kernels.bl_sweep_ns");
  for (std::size_t r = dag.n; r-- > 0;) {
    const int v = dag.topo[r];
    double best = 0.0;
    for (int e = dag.succ_off[v]; e < dag.succ_off[v + 1]; ++e)
      best = std::max(best, bl[dag.succ_flat[e]]);
    bl[v] = exec[v] + best;
  }
}

void tl_sweep(const DagView& dag, const double* exec, double* tl) {
  for (std::size_t v = 0; v < dag.n; ++v) tl[v] = 0.0;
  for (std::size_t r = 0; r < dag.n; ++r) {
    const int v = dag.topo[r];
    for (int e = dag.succ_off[v]; e < dag.succ_off[v + 1]; ++e) {
      const int s = dag.succ_flat[e];
      tl[s] = std::max(tl[s], tl[v] + exec[v]);
    }
  }
}

std::optional<double> earliest_fit_flat(const double* keys, const int* values,
                                        std::size_t n, int procs,
                                        double duration, double not_before) {
  // Scan segments from not_before, tracking the start of the current
  // contiguous feasible run.
  bool have_run = false;
  double run_start = 0.0;
  for (std::size_t i = segment_index(keys, n, not_before); i < n; ++i) {
    double seg_start = std::max(keys[i], not_before);
    double seg_end = i + 1 < n ? keys[i + 1] : kPosInf;
    if (seg_end <= not_before) continue;
    if (values[i] >= procs) {
      if (!have_run) {
        have_run = true;
        run_start = seg_start;
      }
      // Direct comparison (not seg_end - start >= duration): the returned
      // window [start, start + duration) must not overshoot the feasible
      // run by a rounding ulp, or back-to-back reservations would overlap.
      if (run_start + duration <= seg_end) return run_start;
    } else {
      have_run = false;
    }
  }
  return std::nullopt;
}

std::optional<double> latest_fit_flat(const double* keys, const int* values,
                                      std::size_t n, int procs,
                                      double duration, double deadline,
                                      double not_before) {
  if (deadline - duration < not_before) return std::nullopt;

  // Scan segments backwards from the deadline, tracking the end of the
  // current contiguous feasible run. The first run long enough wins — any
  // other candidate start would be strictly earlier.
  std::size_t i = segment_index(keys, n, deadline);
  bool have_run = false;
  double run_end = 0.0;
  while (true) {
    double seg_end = std::min(i + 1 < n ? keys[i + 1] : kPosInf, deadline);
    double seg_start = keys[i];
    if (seg_start < seg_end) {  // non-empty after clamping to the deadline
      if (values[i] >= procs) {
        if (!have_run) {
          have_run = true;
          run_end = seg_end;
        }
        // Nudge down until start + duration fits inside the run exactly:
        // run_end - duration can round up by an ulp, which would overlap a
        // reservation beginning at run_end.
        double start = run_end - duration;
        while (start + duration > run_end)
          start = std::nextafter(start, kNegInf);
        if (start >= seg_start) {
          // Feasible within this run; honour not_before: scanning earlier
          // segments can only move the start earlier, so fail hard here.
          return start >= not_before ? std::optional<double>(start)
                                     : std::nullopt;
        }
      } else {
        have_run = false;
      }
    }
    if (i == 0) break;
    --i;
    if (have_run && run_end - duration < not_before) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace resched::kernels
