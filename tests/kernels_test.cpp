// Tests for the kernel loops (src/kernels/). Byte-identity with the code
// they replaced is the contract (DESIGN.md §13), so every comparison here
// is bit-for-bit — EXPECT_EQ on the raw payload bits, never EXPECT_NEAR.
//
// Coverage: the exec-time and bottom/top-level sweeps against their
// definitions (dag::exec_time and the per-task recurrences over the
// adjacency lists) on random daggen instances plus chains, stars and dense
// bipartite layers, including the fused in-place bottom-level overload.
// Calendar fit queries are not kernels; their oracle differential lives in
// tests/resv_index_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/dag/daggen.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace resched;

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void expect_same_doubles(const std::vector<double>& want,
                         const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(bits(want[i]), bits(got[i]))
        << what << " diverges from its definition at index " << i << ": "
        << std::hexfloat << want[i] << " vs " << got[i];
}

/// DAG families for the sweeps: random daggen instances plus chains (every
/// level has one task), stars (one huge level) and dense layers (many
/// predecessors per task).
std::vector<dag::Dag> sweep_dags() {
  std::vector<dag::Dag> dags;
  util::Rng rng(0xD4);
  for (double width : {0.2, 0.5, 0.9}) {
    dag::DagSpec spec;
    spec.num_tasks = 60;
    spec.width = width;
    spec.density = width;
    dags.push_back(dag::generate(spec, rng));
  }
  auto cost = [&] {
    return dag::TaskCost{rng.uniform(60.0, 36000.0), rng.uniform(0.0, 0.3)};
  };
  {  // chain of 23
    std::vector<dag::TaskCost> costs;
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < 23; ++v) costs.push_back(cost());
    for (int v = 0; v + 1 < 23; ++v) edges.emplace_back(v, v + 1);
    dags.emplace_back(std::move(costs), edges);
  }
  {  // star: entry -> 30 middles -> exit
    std::vector<dag::TaskCost> costs;
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < 32; ++v) costs.push_back(cost());
    for (int m = 1; m <= 30; ++m) {
      edges.emplace_back(0, m);
      edges.emplace_back(m, 31);
    }
    dags.emplace_back(std::move(costs), edges);
  }
  {  // dense: 6 layers x 13 wide, full bipartite between adjacent layers
    constexpr int kLayers = 6, kWide = 13;
    std::vector<dag::TaskCost> costs;
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < kLayers * kWide; ++v) costs.push_back(cost());
    for (int l = 0; l + 1 < kLayers; ++l)
      for (int a = 0; a < kWide; ++a)
        for (int b = 0; b < kWide; ++b)
          edges.emplace_back(l * kWide + a, (l + 1) * kWide + b);
    dags.emplace_back(std::move(costs), edges);
  }
  return dags;
}

TEST(KernelSweeps, MatchScalarBytewiseOnDagFamilies) {
  util::Rng rng(0x5E);
  for (const dag::Dag& d : sweep_dags()) {
    const auto n = static_cast<std::size_t>(d.size());
    std::vector<int> alloc(n);
    for (int& a : alloc) a = static_cast<int>(rng.uniform_int(1, 64));

    // Definitions: per-task exec_time, then the bottom-level recurrence
    // over successors (reverse topological order) and the top-level
    // recurrence over predecessors (topological order). Max over non-NaN
    // doubles is exact, so the pull and push forms agree bit for bit.
    std::vector<double> want_exec(n), want_bl(n), want_tl(n);
    for (int v = 0; v < d.size(); ++v)
      want_exec[static_cast<std::size_t>(v)] =
          dag::exec_time(d.cost(v), alloc[static_cast<std::size_t>(v)]);
    const std::vector<int>& topo = d.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      double best = 0.0;
      for (int s : d.successors(*it))
        best = std::max(best, want_bl[static_cast<std::size_t>(s)]);
      want_bl[static_cast<std::size_t>(*it)] =
          want_exec[static_cast<std::size_t>(*it)] + best;
    }
    for (int v : topo) {
      double best = 0.0;
      for (int q : d.predecessors(v))
        best = std::max(best, want_tl[static_cast<std::size_t>(q)] +
                                  want_exec[static_cast<std::size_t>(q)]);
      want_tl[static_cast<std::size_t>(v)] = best;
    }

    std::vector<double> exec, got;
    dag::exec_times_into(d, alloc, exec);
    expect_same_doubles(want_exec, exec, "exec_times_into");
    dag::bottom_levels_into(d, exec, got);
    expect_same_doubles(want_bl, got, "bottom_levels_into");
    // The fused one-buffer overload runs the sweep in place over the exec
    // buffer (the aliasing contract in kernels.hpp).
    dag::bottom_levels_into(d, alloc, got);
    expect_same_doubles(want_bl, got, "fused bottom_levels_into");
    dag::top_levels_into(d, exec, got);
    expect_same_doubles(want_tl, got, "top_levels_into");
  }
}

}  // namespace
