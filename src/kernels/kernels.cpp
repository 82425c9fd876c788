// The kernel loops: dag.cpp's pre-kernel sweeps moved verbatim, checked
// bit-for-bit against their definitions in tests/kernels_test.cpp.
#include "src/kernels/kernels.hpp"

#include <algorithm>

#include "src/obs/obs.hpp"

namespace resched::kernels {

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

}  // namespace resched::kernels
