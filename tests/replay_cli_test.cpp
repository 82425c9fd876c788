// End-to-end smokes for the replay CLI (`trace_tool replay`, DESIGN.md
// §12): the binary is run as a child process, the way a user runs it.
//
//   * A sharded, windowed, chaos-on run with --verify must exit 0 and
//     report PASS (parallel driver byte-identical to the serial oracle).
//   * The default single-engine run (one shard, whole-stream window) must
//     write the same JSONL trace a plain online::SchedulerService writes
//     when fed the same stream up front.
//   * --chaos without --window must finish (chaos runs default to a finite
//     window), and --chaos with an explicit infinite window must fail
//     with an error instead of generating outages forever.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/online/replay.hpp"
#include "src/online/service.hpp"
#include "src/online/trace.hpp"
#include "src/util/rng.hpp"
#include "src/workload/synth.hpp"

namespace {

using namespace resched;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `trace_tool <args>` and captures its stdout and stderr. The child
/// gets a CPU-time limit so a runaway replay ends instead of outliving
/// the test.
RunResult run_trace_tool(const std::string& args) {
  const std::string command = "ulimit -t 120; exec " +
                              std::string(RESCHED_TRACE_TOOL) + " " + args +
                              " 2>&1";
  RunResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, pipe)) > 0)
    result.output.append(chunk, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReplayCli, ShardedChaosRunVerifiesAgainstSerialOracle) {
  const RunResult run = run_trace_tool(
      "replay blue --jobs 80 --shards 4 --threads 2 --window 3600 "
      "--chaos 43200 --verify");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("PASS"), std::string::npos) << run.output;
}

TEST(ReplayCli, ChaosAndShardedRunsDefaultToHourWindows) {
  const RunResult run = run_trace_tool("replay blue --jobs 40 --chaos 43200");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("window 3600 s"), std::string::npos)
      << run.output;

  const RunResult sharded = run_trace_tool("replay blue --jobs 40 --shards 4");
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;
  EXPECT_NE(sharded.output.find("window 3600 s"), std::string::npos)
      << sharded.output;
}

TEST(ReplayCli, ChaosRejectsInfiniteWindow) {
  const RunResult run =
      run_trace_tool("replay blue --jobs 40 --chaos 43200 --window inf");
  EXPECT_NE(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("error: --chaos needs a finite --window"),
            std::string::npos)
      << run.output;
}

TEST(ReplayCli, OneShardTraceMatchesPlainEngine) {
  char tmpl[] = "/tmp/resched_replay_cli_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string trace_path = std::string(tmpl) + "/trace.jsonl";
  const RunResult run = run_trace_tool(
      "replay blue --jobs 60 --tasks 8 --deadline-frac 0.3 --slack 3 "
      "--seed 42 --trace=" + trace_path);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string got = read_file(trace_path);
  std::remove(trace_path.c_str());
  ::rmdir(tmpl);

  // The same stream the CLI builds for `blue`: the platform's synthetic
  // log (generator seed 1) under the CLI's DAG shape.
  util::Rng rng(1);
  const workload::Log log =
      workload::generate_log(workload::sdsc_blue_spec(), rng);
  online::ReplaySpec spec;
  spec.app.num_tasks = 8;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 3600.0;
  spec.deadline_fraction = 0.3;
  spec.deadline_slack = 3.0;
  spec.max_jobs = 60;
  spec.seed = 42;
  online::ServiceConfig config;
  config.capacity = log.cpus;
  online::SchedulerService plain(config);
  std::ostringstream want;
  online::TraceWriter writer(want);
  plain.set_trace(&writer);
  for (online::JobSubmission& job : online::submissions_from_log(log, spec))
    plain.submit(std::move(job));
  plain.run_all();

  ASSERT_FALSE(want.str().empty());
  EXPECT_EQ(got, want.str());
}

}  // namespace
