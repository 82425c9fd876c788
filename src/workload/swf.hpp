// Standard Workload Format (SWF) reader / writer.
//
// The paper consumes four logs from the Parallel Workloads Archive, which
// are distributed in SWF: one job per line with 18 whitespace-separated
// fields, `;`-prefixed header comments, and -1 marking unknown values.
// This module parses the subset of fields the simulator needs (submit time,
// wait time, run time, allocated processors) into workload::Log and can
// write a Log back out as valid SWF, so real archive logs drop in wherever
// the synthetic generators are used.
#pragma once

#include <iosfwd>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "src/workload/log.hpp"

namespace resched::workload {

/// Per-parse account of lines the reader could not (or chose not to) turn
/// into jobs. Archive logs in the wild carry truncated lines, non-numeric
/// tokens, and bogus negative values; the reader skips those instead of
/// aborting a multi-hundred-thousand-line parse halfway through.
struct SwfDiagnostics {
  /// Structurally bad lines skipped: truncated (< 5 fields), non-numeric
  /// tokens, non-finite values, negative values that are not the -1
  /// "unknown" sentinel, or processor counts outside int range.
  int malformed_lines = 0;
  /// Well-formed lines whose job is unusable (unknown or zero runtime /
  /// processors) and was dropped by SwfReadOptions::skip_invalid.
  int invalid_jobs = 0;
  /// One human-readable message per malformed line, capped at
  /// kMaxMessages (the counter keeps counting past the cap).
  std::vector<std::string> messages;
  static constexpr int kMaxMessages = 32;
};

/// Options controlling SWF parsing.
struct SwfReadOptions {
  /// Jobs with unknown (-1) or zero runtime / processor counts are skipped
  /// when true (they cannot become reservations).
  bool skip_invalid = true;
  /// Platform size override; 0 means "use MaxProcs/MaxNodes from the header,
  /// or the max observed allocation if the header lacks it".
  int cpus_override = 0;
  /// Throw resched::Error on the first malformed line instead of skipping
  /// it with a diagnostic.
  bool strict = false;
  /// Optional sink for skip accounting (borrowed; may be null).
  SwfDiagnostics* diagnostics = nullptr;
};

/// Parses an SWF stream into jobs sorted by submit time, equal submit
/// times in file order. Malformed lines are skipped with a diagnostic
/// (throws resched::Error instead when opts.strict).
Log read_swf(std::istream& in, const std::string& name,
             const SwfReadOptions& opts = {});

/// Convenience overload reading from a file path.
Log read_swf_file(const std::string& path, const SwfReadOptions& opts = {});

/// Streaming SWF reader: one job per next() call, bounded memory.
///
/// read_swf materializes the whole archive as a vector and sorts it; at
/// multi-month PWA scale (millions of lines) that is hundreds of MB held
/// just to feed a replay that consumes jobs in submit order anyway. This
/// reader keeps only a bounded reorder buffer (a min-heap on submit time)
/// and emits jobs in nondecreasing submit order as long as the archive's
/// disorder distance stays within `reorder_window` lines — real SWF logs
/// are submit-sorted or very nearly so. A job displaced further than the
/// window is handled like a malformed line: skipped with a diagnostic, or
/// resched::Error when opts.strict.
///
/// Line-level semantics (header parsing, field validation, -1 sentinels,
/// skip_invalid, diagnostics) are shared with read_swf.
class SwfStreamReader {
 public:
  static constexpr int kDefaultReorderWindow = 4096;

  /// Borrows `in`; the stream must outlive the reader.
  SwfStreamReader(std::istream& in, std::string name,
                  const SwfReadOptions& opts = {},
                  int reorder_window = kDefaultReorderWindow);

  /// Next job in nondecreasing submit order; nullopt once the stream and
  /// the reorder buffer are both exhausted.
  std::optional<Job> next();

  /// Platform size: cpus_override if set, else the MaxProcs/MaxNodes
  /// header (headers precede jobs, so this is stable after construction
  /// primes the buffer), else the max allocation observed so far, min 1.
  int header_cpus() const;

  /// Jobs emitted by next() so far.
  long long emitted() const { return emitted_; }

 private:
  struct Pending {
    Job job;
    long long seq;  ///< input order, breaks submit ties deterministically
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.job.submit != b.job.submit) return a.job.submit > b.job.submit;
      return a.seq > b.seq;
    }
  };

  /// Parses lines until the reorder buffer holds > reorder_window_ jobs
  /// or the stream is exhausted.
  void refill();

  std::istream& in_;
  std::string name_;
  SwfReadOptions opts_;
  int reorder_window_;
  std::priority_queue<Pending, std::vector<Pending>, Later> buffer_;
  int header_cpus_ = 0;
  int max_alloc_ = 0;
  int lineno_ = 0;
  long long next_seq_ = 0;
  long long emitted_ = 0;
  double last_submit_ = 0.0;
  bool exhausted_ = false;
};

/// Writes the log as SWF (fields the simulator does not track are -1).
void write_swf(std::ostream& out, const Log& log);

}  // namespace resched::workload
