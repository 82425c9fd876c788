// The scheduler's innermost loops over flat arrays (DESIGN.md §13).
//
// Two kernel families cover the measured DAG hot spots of the RESSCHED /
// RESSCHEDDL paths and everything stacked on them (online engine, shards,
// reschedd, PDES replay):
//
//   * exec_times       — elementwise exec-time evaluation streamed off the
//                        Dag's seq_times()/alphas() SoA arrays;
//   * bl_sweep/tl_sweep — bottom-level / top-level sweeps in (reverse)
//                        topological order off the CSR adjacency.
//
// Each is one scalar loop: the pre-kernel hot-path code moved verbatim, so
// golden pins and merged traces are unchanged. DESIGN.md §13 records the
// measurements that rule out vector variants. Calendar fit queries are not
// kernels: they all descend the treap behind resv::AvailabilityProfile
// (DESIGN.md §11).
#pragma once

#include <cstddef>

namespace resched::kernels {

/// Kernel implementations. Only the scalar loops exist; the enum and
/// active_isa() remain so benchmark machine records name what ran.
enum class Isa { kScalar = 0 };

const char* to_string(Isa isa);

/// The implementation kernel calls run: always Isa::kScalar.
Isa active_isa();

/// Raw-pointer view of the Dag arrays the sweeps consume. All arrays
/// outlive the call.
struct DagView {
  std::size_t n = 0;               ///< task count
  const int* topo = nullptr;       ///< topological order, n entries
  const int* succ_off = nullptr;   ///< CSR successor offsets, n + 1
  const int* succ_flat = nullptr;  ///< CSR successor endpoints
};

/// exec[v] = seq[v] * (alpha[v] + (1 - alpha[v]) / alloc[v]) for v in
/// [0, n). Caller guarantees alloc[v] >= 1.
void exec_times(const double* seq, const double* alpha, const int* alloc,
                std::size_t n, double* exec);

/// bl[v] = exec[v] + max over successors s of bl[s] (0 with no
/// successors). `bl` may alias `exec`: each task's exec entry is consumed
/// exactly when its bottom level is produced, and every neighbour read is
/// of an already-converted entry.
void bl_sweep(const DagView& dag, const double* exec, double* bl);

/// tl[v] = max over predecessors q of (tl[q] + exec[q]) (0 with no
/// predecessors). `tl` must not alias `exec`.
void tl_sweep(const DagView& dag, const double* exec, double* tl);

}  // namespace resched::kernels
