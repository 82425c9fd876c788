// perfbench driver binary. run.py builds it and calls
//
//   perfbench --workload <paper-sweep|daemon-mix|archive-replay>
//             --seed N --seconds S --trace 0|1 [--tiny] [--corrupt KIND]
//             [--work-dir DIR]
//
// It prints a human-readable log (machine record, metric table, notes) and,
// as its last line, "PERFBENCH_RESULT <json>" with every metric, the
// operation tallies and the machine record; run.py turns that into the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/src/common.hpp"
#include "perfbench/src/workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
               "[--tiny] [--corrupt KIND] [--work-dir DIR]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(value().c_str());
    else if (arg == "--trace") a.trace = value() != "0";
    else if (arg == "--tiny") a.tiny = true;
    else if (arg == "--corrupt") a.corrupt = value();
    else if (arg == "--work-dir") a.work_dir = value();
    else usage();
  }
  if (a.workload.empty() || a.seconds <= 0.0) usage();
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    make_dirs(args.work_dir);
    Report report;
    if (args.workload == "paper-sweep") report = run_paper_sweep(args);
    else if (args.workload == "daemon-mix") report = run_daemon_mix(args);
    else if (args.workload == "archive-replay") report = run_archive_replay(args);
    else usage();

    const MachineRecord machine = machine_record(
        args.trace, args.workload == "daemon-mix" ? args.work_dir + "/state" : "",
        args.workload == "daemon-mix" ? "batch" : "");
    std::cout << "machine " << to_json(machine) << "\n";
    for (const std::string& note : report.notes) std::cout << note << "\n";
    std::cout << "workload " << args.workload << " seed " << args.seed
              << " trace " << (args.trace ? 1 : 0) << ": attempted "
              << report.attempted << ", failed " << report.failed
              << (report.correct ? ", outputs correct" : ", OUTPUTS WRONG")
              << "\n";

    std::ostringstream json;
    json << "{\"correct\":" << (report.correct ? "true" : "false")
         << ",\"attempted\":" << report.attempted
         << ",\"failed\":" << report.failed << ",\"metrics\":{";
    bool first = true;
    for (const Metric& m : report.metrics) {
      json << (first ? "" : ",") << json_string(m.name)
           << ":{\"value\":" << json_number(m.value)
           << ",\"unit\":" << json_string(m.unit)
           << (m.count ? ",\"count\":true" : "") << "}";
      first = false;
    }
    json << "},\"machine\":" << to_json(machine) << "}";
    std::cout << "PERFBENCH_RESULT " << json.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
