// Microbenchmarks for the indexed reservation calendar vs the linear-scan
// oracle (google-benchmark). The acceptance bar for the index: >= 5x on
// earliest-fit over a 10k-reservation calendar. Queries rotate through
// processor counts up to the full machine and through starting offsets, so
// the linear scan has to walk deep into the calendar while the index prunes
// infeasible stretches wholesale.
//
// The checked-in baseline bench/BENCH_resv_index.json is produced with:
//   ./build/bench/bench_resv_index --benchmark_format=json
//       --benchmark_min_time=0.2 > bench/BENCH_resv_index.json  (one line)
// and the CI bench-smoke job fails on a >2x per-benchmark regression
// (scripts/check_bench_regression.py). It also asserts the index's
// acceptance bar: >= 5x over the oracle on earliest_fit at 10k.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/resv/profile.hpp"
#include "src/util/rng.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;

constexpr int kProcs = 128;
constexpr std::uint64_t kSeed = 0xCA11;

resv::ReservationList make_calendar(int reservations) {
  util::Rng rng(util::derive_seed(kSeed, {static_cast<std::uint64_t>(
                                       reservations)}));
  // Dense load: the calendar is heavily booked over its whole span, so
  // large fits only open up deep into it.
  const double horizon = reservations * 0.12 * 3600.0;
  resv::ReservationList list;
  for (int i = 0; i < reservations; ++i) {
    double start = rng.uniform(0.0, horizon);
    double dur = rng.uniform(0.5, 12.0) * 3600.0;
    int procs = static_cast<int>(rng.uniform_int(1, kProcs / 2));
    list.push_back({start, start + dur, procs});
  }
  return list;
}

template <class Profile>
void earliest_fit_loop(benchmark::State& state) {
  auto list = make_calendar(static_cast<int>(state.range(0)));
  Profile profile(kProcs, list);
  const int procs_cycle[] = {kProcs / 4, kProcs / 2, kProcs};
  int q = 0;
  for (auto _ : state) {
    int procs = procs_cycle[q % 3];
    double not_before = (q % 7) * 9000.0;
    benchmark::DoNotOptimize(profile.earliest_fit(procs, 7200.0, not_before));
    ++q;
  }
}

template <class Profile>
void latest_fit_loop(benchmark::State& state) {
  auto list = make_calendar(static_cast<int>(state.range(0)));
  Profile profile(kProcs, list);
  const double span = state.range(0) * 0.12 * 3600.0;
  const int procs_cycle[] = {kProcs / 4, kProcs / 2, kProcs};
  int q = 0;
  for (auto _ : state) {
    int procs = procs_cycle[q % 3];
    double deadline = span * (0.5 + 0.1 * (q % 6));
    benchmark::DoNotOptimize(profile.latest_fit(procs, 7200.0, deadline, 0.0));
    ++q;
  }
}

template <class Profile>
void add_release_loop(benchmark::State& state) {
  auto list = make_calendar(static_cast<int>(state.range(0)));
  Profile profile(kProcs, list);
  util::Rng rng(util::derive_seed(kSeed, {7}));
  const double span = state.range(0) * 0.12 * 3600.0;
  for (auto _ : state) {
    double start = rng.uniform(0.0, span);
    resv::Reservation r{start, start + 5400.0, 16};
    profile.add(r);
    profile.release(r);
  }
}

void indexed_earliest_fit(benchmark::State& state) {
  earliest_fit_loop<resv::AvailabilityProfile>(state);
}
void linear_earliest_fit(benchmark::State& state) {
  earliest_fit_loop<resv::LinearProfile>(state);
}
void indexed_latest_fit(benchmark::State& state) {
  latest_fit_loop<resv::AvailabilityProfile>(state);
}
void linear_latest_fit(benchmark::State& state) {
  latest_fit_loop<resv::LinearProfile>(state);
}
void indexed_add_release(benchmark::State& state) {
  add_release_loop<resv::AvailabilityProfile>(state);
}
void linear_add_release(benchmark::State& state) {
  add_release_loop<resv::LinearProfile>(state);
}

void indexed_fit_many(benchmark::State& state) {
  auto list = make_calendar(static_cast<int>(state.range(0)));
  resv::AvailabilityProfile profile(kProcs, list);
  std::vector<resv::FitQuery> batch;
  for (int i = 0; i < 64; ++i) {
    int procs = 1 + (i * 11) % kProcs;
    batch.push_back(i % 2 == 0
                        ? resv::FitQuery::earliest(procs, 7200.0, i * 4000.0)
                        : resv::FitQuery::latest(procs, 7200.0,
                                                 1e6 + i * 4000.0, 0.0));
  }
  for (auto _ : state) benchmark::DoNotOptimize(profile.fit_many(batch));
}

BENCHMARK(indexed_earliest_fit)->RangeMultiplier(10)->Range(100, 10000);
BENCHMARK(linear_earliest_fit)->RangeMultiplier(10)->Range(100, 10000);
BENCHMARK(indexed_latest_fit)->Arg(10000);
BENCHMARK(linear_latest_fit)->Arg(10000);
BENCHMARK(indexed_add_release)->Arg(10000);
BENCHMARK(linear_add_release)->Arg(10000);
BENCHMARK(indexed_fit_many)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
