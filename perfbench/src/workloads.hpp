// The three perfbench workloads. Each runs set-up, an untimed warm state,
// a closed-loop timed phase (or, with --trace 1, a fixed-size untraced
// pass followed by the same pass traced), and its correctness checks
// outside the timed phase; it fills one Report.
#pragma once

#include "perfbench/src/common.hpp"

namespace perfbench {

/// Offline Table-4 sweep: core::schedule_ressched on single thread.
Report run_paper_sweep(const Args& args);
/// reschedd over its unix socket, one closed-loop client.
Report run_daemon_mix(const Args& args);
/// pdes::PdesReplayEngine over a 60-day synthetic SDSC Blue archive.
Report run_archive_replay(const Args& args);

/// Minimum operations per timed phase, so at least ten samples lie beyond
/// the reported p99.
inline constexpr std::uint64_t kMinOps = 1000;

}  // namespace perfbench
