// Differential and property suite for the indexed availability profile.
//
// The indexed AvailabilityProfile (treap-backed StepIndex) must be
// observationally *byte-identical* to the legacy linear-scan implementation
// (resv::LinearProfile, the oracle) — same fit starts to the last ulp, same
// breakpoints, same canonical steps — across arbitrary interleavings of
// add / release / commit / rollback / compact. The randomized sequences are
// seeded (every failure is replayable from its seed) and shrinkable: on a
// mismatch the harness greedily deletes op-groups (an add with its paired
// release, a commit with its rollback) while the failure reproduces, then
// reports the minimal sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/resv/profile.hpp"
#include "src/util/rng.hpp"
#include "tests/support/linear_profile.hpp"

namespace {

using namespace resched;
using resv::AvailabilityProfile;
using resv::FitKind;
using resv::FitQuery;
using resv::LinearProfile;
using resv::Reservation;

struct Op {
  enum Kind { kAdd, kRelease, kCommit, kRollback, kCompact } kind;
  int id = 0;  // pairs an add/commit with its release/rollback for shrinking
  Reservation r;                    // kAdd / kRelease
  std::vector<Reservation> group;   // kCommit
  double horizon = 0.0;             // kCompact
};

const char* to_string(Op::Kind kind) {
  switch (kind) {
    case Op::kAdd: return "add";
    case Op::kRelease: return "release";
    case Op::kCommit: return "commit";
    case Op::kRollback: return "rollback";
    case Op::kCompact: return "compact";
  }
  return "?";
}

std::string describe(const Op& op) {
  std::ostringstream out;
  out.precision(17);
  out << to_string(op.kind) << "#" << op.id;
  if (op.kind == Op::kAdd || op.kind == Op::kRelease)
    out << " {" << op.r.start << ", " << op.r.end << ", " << op.r.procs << "}";
  if (op.kind == Op::kCommit) out << " (" << op.group.size() << " resv)";
  if (op.kind == Op::kCompact) out << " horizon=" << op.horizon;
  return out.str();
}

Reservation random_reservation(util::Rng& rng, int capacity) {
  double start = rng.uniform(-20.0, 200.0) * 3600.0;
  double shape = rng.uniform(0.0, 1.0);
  double dur;
  if (shape < 0.15) {
    dur = rng.uniform(1e-6, 1.0);  // sliver
  } else if (shape < 0.3) {
    dur = rng.uniform(20.0, 30.0) * 3600.0;  // long block
  } else {
    dur = rng.uniform(0.1, 8.0) * 3600.0;
  }
  // Zero-proc (no-op), full-machine, and oversubscribing reservations all
  // must behave identically in both implementations.
  int procs = static_cast<int>(rng.uniform_int(0, capacity + capacity / 2));
  // Snap some boundaries to round hours so reservations abut exactly.
  if (rng.uniform(0.0, 1.0) < 0.3) start = std::round(start / 3600.0) * 3600.0;
  if (rng.uniform(0.0, 1.0) < 0.3) dur = std::max(1.0, std::round(dur));
  return {start, start + dur, procs};
}

/// Generates a seeded op sequence. Releases and rollbacks target live
/// reservations/tokens; compact invalidates anything starting before its
/// horizon (mirroring how the online engine ages out old calendar state).
std::vector<Op> generate_ops(std::uint64_t seed, int length, int capacity) {
  util::Rng rng(util::derive_seed(0x1D10, {seed}));
  std::vector<Op> ops;
  std::vector<Op> live_adds;      // adds not yet released
  std::vector<Op> live_commits;   // commits not yet rolled back
  int next_id = 0;
  for (int i = 0; i < length; ++i) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.45 || (live_adds.empty() && live_commits.empty())) {
      Op op{Op::kAdd, next_id++, random_reservation(rng, capacity), {}, 0.0};
      ops.push_back(op);
      live_adds.push_back(op);
    } else if (dice < 0.6 && !live_adds.empty()) {
      std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_adds.size()) - 1));
      Op op = live_adds[pick];
      live_adds.erase(live_adds.begin() + static_cast<std::ptrdiff_t>(pick));
      op.kind = Op::kRelease;
      ops.push_back(op);
    } else if (dice < 0.75) {
      Op op{Op::kCommit, next_id++, {}, {}, 0.0};
      int n = static_cast<int>(rng.uniform_int(1, 5));
      for (int k = 0; k < n; ++k)
        op.group.push_back(random_reservation(rng, capacity));
      ops.push_back(op);
      live_commits.push_back(op);
    } else if (dice < 0.9 && !live_commits.empty()) {
      std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_commits.size()) - 1));
      Op op = live_commits[pick];
      live_commits.erase(live_commits.begin() +
                         static_cast<std::ptrdiff_t>(pick));
      op.kind = Op::kRollback;
      ops.push_back(op);
    } else {
      double horizon = rng.uniform(-30.0, 100.0) * 3600.0;
      ops.push_back({Op::kCompact, next_id++, {}, {}, horizon});
      // Anything straddling or preceding the horizon can no longer be
      // released safely; age it out like the online engine does.
      auto stale = [horizon](const Op& op) { return op.r.start < horizon; };
      live_adds.erase(
          std::remove_if(live_adds.begin(), live_adds.end(), stale),
          live_adds.end());
      auto stale_commit = [horizon](const Op& op) {
        for (const Reservation& r : op.group)
          if (r.start < horizon) return true;
        return false;
      };
      live_commits.erase(std::remove_if(live_commits.begin(),
                                        live_commits.end(), stale_commit),
                         live_commits.end());
    }
  }
  return ops;
}

/// Compares the full observable surface of both profiles; returns a
/// diagnostic on the first divergence.
std::optional<std::string> compare_profiles(const AvailabilityProfile& indexed,
                                            const LinearProfile& oracle,
                                            util::Rng& rng) {
  if (indexed.canonical_steps() != oracle.canonical_steps())
    return "canonical_steps diverged";
  if (indexed.breakpoints() != oracle.breakpoints())
    return "breakpoints diverged";

  const int cap = indexed.capacity();
  std::vector<FitQuery> queries;
  const int procs_choices[] = {1, cap / 4 + 1, cap / 2 + 1, std::max(1, cap - 1),
                               cap};
  for (int procs : procs_choices) {
    double duration = rng.uniform(0.1, 30.0 * 3600.0);
    double not_before = rng.uniform(-40.0, 220.0) * 3600.0;
    double deadline = not_before + rng.uniform(-1.0, 60.0) * 3600.0;
    queries.push_back(FitQuery::earliest(procs, duration, not_before));
    queries.push_back(FitQuery::latest(procs, duration, deadline, not_before));
  }
  auto got = indexed.fit_many(queries);
  auto want = oracle.fit_many(queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (got[i] != want[i]) {
      const FitQuery& q = queries[i];
      std::ostringstream out;
      out.precision(17);
      out << (q.kind == FitKind::kEarliest ? "earliest_fit" : "latest_fit")
          << "(procs=" << q.procs << ", duration=" << q.duration
          << ", not_before=" << q.not_before << ", deadline=" << q.deadline
          << "): indexed="
          << (got[i] ? std::to_string(*got[i]) : std::string("nullopt"))
          << " oracle="
          << (want[i] ? std::to_string(*want[i]) : std::string("nullopt"));
      return out.str();
    }
  }

  for (int probe = 0; probe < 4; ++probe) {
    double t = rng.uniform(-40.0, 220.0) * 3600.0;
    if (indexed.available_at(t) != oracle.available_at(t))
      return "available_at diverged";
    double to = t + rng.uniform(0.1, 40.0 * 3600.0);
    if (indexed.min_available(t, to) != oracle.min_available(t, to))
      return "min_available diverged";
    if (indexed.average_available(t, to) != oracle.average_available(t, to))
      return "average_available diverged";
  }
  return std::nullopt;
}

/// Replays `ops` against both implementations, differentially checking
/// after every mutation. Returns a diagnostic on failure.
std::optional<std::string> run_sequence(std::uint64_t seed,
                                        const std::vector<Op>& ops,
                                        int capacity) {
  AvailabilityProfile indexed(capacity);
  LinearProfile oracle(capacity);
  std::vector<std::pair<int, AvailabilityProfile::CommitToken>> tokens;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case Op::kAdd:
        indexed.add(op.r);
        oracle.add(op.r);
        break;
      case Op::kRelease:
        indexed.release(op.r);
        oracle.release(op.r);
        break;
      case Op::kCommit:
        tokens.emplace_back(op.id, indexed.commit(op.group));
        for (const Reservation& r : op.group) oracle.add(r);
        break;
      case Op::kRollback: {
        auto it = std::find_if(tokens.begin(), tokens.end(),
                               [&](const auto& t) { return t.first == op.id; });
        if (it == tokens.end()) break;  // shrinking removed the commit
        indexed.rollback(it->second);
        for (auto r = op.group.rbegin(); r != op.group.rend(); ++r)
          oracle.release(*r);
        tokens.erase(it);
        break;
      }
      case Op::kCompact:
        indexed.compact(op.horizon);
        oracle.compact(op.horizon);
        // Tokens referencing pre-horizon state were invalidated by the
        // generator; forget them so rollback never touches them.
        tokens.erase(
            std::remove_if(tokens.begin(), tokens.end(),
                           [&](const auto& t) {
                             auto commit = std::find_if(
                                 ops.begin(), ops.end(), [&](const Op& o) {
                                   return o.kind == Op::kCommit &&
                                          o.id == t.first;
                                 });
                             for (const Reservation& r : commit->group)
                               if (r.start < op.horizon) return true;
                             return false;
                           }),
            tokens.end());
        break;
    }
    util::Rng query_rng(util::derive_seed(0x9E11, {seed, i}));
    if (auto failure = compare_profiles(indexed, oracle, query_rng)) {
      std::ostringstream out;
      out << "after op " << i << " [" << describe(op) << "]: " << *failure;
      return out.str();
    }
  }
  return std::nullopt;
}

/// Greedy group-wise shrinker: removes every op sharing an id at once (so
/// adds keep their releases, commits their rollbacks) while the failure
/// still reproduces.
std::vector<Op> shrink(std::uint64_t seed, std::vector<Op> ops, int capacity) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<int> ids;
    for (const Op& op : ops)
      if (std::find(ids.begin(), ids.end(), op.id) == ids.end())
        ids.push_back(op.id);
    for (int id : ids) {
      std::vector<Op> candidate;
      for (const Op& op : ops)
        if (op.id != id) candidate.push_back(op);
      if (candidate.size() == ops.size()) continue;
      if (run_sequence(seed, candidate, capacity)) {
        ops = std::move(candidate);
        changed = true;
      }
    }
  }
  return ops;
}

class IndexDifferential : public ::testing::TestWithParam<int> {};

TEST_P(IndexDifferential, RandomMutationAndQuerySequencesMatchOracle) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int capacity = 1 + static_cast<int>(seed % 96);
  auto ops = generate_ops(seed, 60, capacity);
  auto failure = run_sequence(seed, ops, capacity);
  if (failure) {
    auto minimal = shrink(seed, ops, capacity);
    std::ostringstream out;
    out << *failure << "\nminimal failing sequence (seed " << seed
        << ", capacity " << capacity << ", " << minimal.size() << " ops):\n";
    for (const Op& op : minimal) out << "  " << describe(op) << "\n";
    FAIL() << out.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential, ::testing::Range(0, 25));

// --- Directed edge cases ---------------------------------------------------

TEST(ResvIndex, AddThenReleaseRestoresCanonicalSteps) {
  AvailabilityProfile profile(16);
  profile.add({0.0, 100.0, 4});
  auto before = profile.canonical_steps();
  Reservation r{10.0, 50.0, 7};
  profile.add(r);
  profile.release(r);
  EXPECT_EQ(before, profile.canonical_steps());
}

TEST(ResvIndex, CopyIsIndependentOfTheOriginal) {
  AvailabilityProfile profile(8);
  profile.add({0.0, 10.0, 3});
  AvailabilityProfile copy = profile;
  copy.add({0.0, 10.0, 5});
  EXPECT_EQ(5, profile.available_at(5.0));
  EXPECT_EQ(0, copy.available_at(5.0));
  profile = copy;
  EXPECT_EQ(0, profile.available_at(5.0));
}

TEST(ResvIndex, AbuttingReservationsLeaveNoGap) {
  AvailabilityProfile indexed(4);
  LinearProfile oracle(4);
  for (int i = 0; i < 10; ++i) {
    Reservation r{i * 10.0, (i + 1) * 10.0, 4};
    indexed.add(r);
    oracle.add(r);
  }
  EXPECT_EQ(oracle.earliest_fit(1, 5.0, 0.0),
            indexed.earliest_fit(1, 5.0, 0.0));
  EXPECT_EQ(std::optional<double>(100.0), indexed.earliest_fit(1, 5.0, 0.0));
  EXPECT_EQ(oracle.latest_fit(4, 10.0, 100.0, -50.0),
            indexed.latest_fit(4, 10.0, 100.0, -50.0));
}

TEST(ResvIndex, CompactMatchesOracleThroughFurtherMutations) {
  AvailabilityProfile indexed(12);
  LinearProfile oracle(12);
  for (int i = 0; i < 8; ++i) {
    Reservation r{i * 100.0, i * 100.0 + 150.0, 1 + i % 5};
    indexed.add(r);
    oracle.add(r);
  }
  indexed.compact(340.0);
  oracle.compact(340.0);
  EXPECT_EQ(oracle.canonical_steps(), indexed.canonical_steps());
  Reservation late{900.0, 1200.0, 12};
  indexed.add(late);
  oracle.add(late);
  EXPECT_EQ(oracle.canonical_steps(), indexed.canonical_steps());
  EXPECT_EQ(oracle.earliest_fit(12, 200.0, 0.0),
            indexed.earliest_fit(12, 200.0, 0.0));
}

TEST(ResvIndex, FitManyMatchesScalarQueries) {
  AvailabilityProfile profile(10);
  profile.add({0.0, 3600.0, 6});
  profile.add({1800.0, 7200.0, 4});
  std::vector<FitQuery> queries = {
      FitQuery::earliest(5, 600.0, 0.0),
      FitQuery::earliest(10, 600.0, -100.0),
      FitQuery::latest(4, 900.0, 7200.0, 0.0),
      FitQuery::latest(10, 900.0, 3600.0, 0.0),
  };
  auto batch = profile.fit_many(queries);
  ASSERT_EQ(4u, batch.size());
  EXPECT_EQ(profile.earliest_fit(5, 600.0, 0.0), batch[0]);
  EXPECT_EQ(profile.earliest_fit(10, 600.0, -100.0), batch[1]);
  EXPECT_EQ(profile.latest_fit(4, 900.0, 7200.0, 0.0), batch[2]);
  EXPECT_EQ(profile.latest_fit(10, 900.0, 3600.0, 0.0), batch[3]);
}

// Const fit queries write nothing, so several threads may query one
// unmutated profile at once. The calendar stays under 128 breakpoints (the
// size below which fit queries once rebuilt a cached snapshot from inside
// the const call) and is never queried before the readers start, so the
// first queries of every thread overlap.
TEST(ResvIndex, ConcurrentReadersOfOneProfileAgreeWithTheOracle) {
  constexpr int kCapacity = 32;
  util::Rng rng(0x7EAD);
  AvailabilityProfile profile(kCapacity);
  LinearProfile oracle(kCapacity);
  for (int i = 0; i < 40; ++i) {
    double start = rng.uniform(0.0, 48.0) * 3600.0;
    Reservation r{start, start + rng.uniform(0.5, 6.0) * 3600.0,
                  static_cast<int>(rng.uniform_int(1, kCapacity))};
    profile.add(r);
    oracle.add(r);
  }
  ASSERT_LT(oracle.breakpoints().size(), 128u);

  std::vector<FitQuery> queries;
  std::vector<std::optional<double>> want;
  for (int q = 0; q < 64; ++q) {
    int procs = static_cast<int>(rng.uniform_int(1, kCapacity));
    double duration = rng.uniform(0.1, 8.0) * 3600.0;
    double not_before = rng.uniform(0.0, 40.0) * 3600.0;
    if (q % 2 == 0) {
      queries.push_back(FitQuery::earliest(procs, duration, not_before));
      want.push_back(oracle.earliest_fit(procs, duration, not_before));
    } else {
      double deadline = not_before + rng.uniform(1.0, 30.0) * 3600.0;
      queries.push_back(
          FitQuery::latest(procs, duration, deadline, not_before));
      want.push_back(oracle.latest_fit(procs, duration, deadline, not_before));
    }
  }

  constexpr int kReaders = 4;
  std::vector<int> mismatches(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t)
    readers.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round)
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const FitQuery& q = queries[i];
          std::optional<double> got =
              q.kind == FitKind::kEarliest
                  ? profile.earliest_fit(q.procs, q.duration, q.not_before)
                  : profile.latest_fit(q.procs, q.duration, q.deadline,
                                       q.not_before);
          if (got != want[i]) ++mismatches[static_cast<std::size_t>(t)];
        }
    });
  for (std::thread& r : readers) r.join();
  for (int t = 0; t < kReaders; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "reader " << t;
}

}  // namespace
