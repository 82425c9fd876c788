// Tests for the kernel loops (src/kernels/). Byte-identity with the code
// they replaced is the contract (DESIGN.md §13), so every comparison here
// is bit-for-bit — EXPECT_EQ on the raw payload bits, never EXPECT_NEAR.
//
// Coverage: the exec-time and bottom/top-level sweeps against their
// definitions (dag::exec_time and the per-task recurrences over the
// adjacency lists) on random daggen instances plus chains, stars and dense
// bipartite layers, including the fused in-place bottom-level overload;
// and the flat-profile fit scans, through CalendarSnapshot, against the
// LinearProfile oracle — sentinel-only profiles, exact-key queries and
// deadline-slack underflow included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/dag/daggen.hpp"
#include "src/resv/profile.hpp"
#include "src/resv/snapshot.hpp"
#include "src/util/rng.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Bitwise equality of optional fit results (nullopt != any value).
::testing::AssertionResult same_fit(const std::optional<double>& a,
                                    const std::optional<double>& b) {
  if (a.has_value() != b.has_value())
    return ::testing::AssertionFailure()
           << (a ? "value" : "nullopt") << " vs " << (b ? "value" : "nullopt");
  if (a && bits(*a) != bits(*b))
    return ::testing::AssertionFailure()
           << std::hexfloat << *a << " vs " << *b;
  return ::testing::AssertionSuccess();
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

TEST(KernelFitScans, SnapshotMatchesLinearOracleAtEveryIsa) {
  util::Rng rng(0xCA);
  for (int trial = 0; trial < 8; ++trial) {
    const int p = static_cast<int>(rng.uniform_int(4, 48));
    resv::AvailabilityProfile profile(p);
    resv::LinearProfile oracle(p);
    // Trial 0 is the empty profile: the snapshot holds only the -infinity
    // sentinel segment.
    const int n_res = trial == 0 ? 0 : static_cast<int>(rng.uniform_int(1, 60));
    for (int i = 0; i < n_res; ++i) {
      double start = rng.uniform(-12.0, 96.0) * 3600.0;
      double dur = rng.bernoulli(0.2) ? rng.uniform(1e-9, 1e-3)
                                      : rng.uniform(0.5, 10.0) * 3600.0;
      resv::Reservation r{start, start + dur,
                          static_cast<int>(rng.uniform_int(1, p))};
      profile.add(r);
      oracle.add(r);
    }
    resv::CalendarSnapshot snap;
    snap.refresh(profile);
    const std::vector<double> keys = oracle.breakpoints();
    auto any_key = [&] {
      return keys[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(keys.size()) - 1))];
    };
    for (int q = 0; q < 60; ++q) {
      int procs = static_cast<int>(rng.uniform_int(1, p));
      double duration = rng.bernoulli(0.2) ? rng.uniform(1e-12, 1e-6)
                                           : rng.uniform(1.0, 20.0 * 3600.0);
      // Exact-key anchors hit the run-boundary cases of both scans.
      double not_before = !keys.empty() && rng.bernoulli(0.3)
                              ? any_key()
                              : rng.uniform(-20.0, 90.0) * 3600.0;
      // Sometimes underflow the slack (deadline - duration < not_before),
      // sometimes end exactly on a breakpoint.
      double deadline =
          rng.bernoulli(0.2)
              ? not_before + rng.uniform(0.0, duration)
              : (!keys.empty() && rng.bernoulli(0.2)
                     ? any_key()
                     : not_before + duration +
                           rng.uniform(0.0, 40.0) * 3600.0);
      EXPECT_TRUE(same_fit(oracle.earliest_fit(procs, duration, not_before),
                           snap.earliest_fit(procs, duration, not_before)))
          << "earliest_fit vs oracle, trial " << trial << " query " << q;
      EXPECT_TRUE(
          same_fit(oracle.latest_fit(procs, duration, deadline, not_before),
                   snap.latest_fit(procs, duration, deadline, not_before)))
          << "latest_fit vs oracle, trial " << trial << " query " << q;
    }
  }
}

}  // namespace
