// daemon-mix: reschedd driven over its real unix socket by one closed-loop
// client, the way rsub / rstat talk to it (send, wait for the reply).
//
// Why this workload: it is the only one that runs srv (proto, WAL, server
// core), online admission and core::tightest_deadline, and it writes the
// calendar (commits, rollbacks, compaction) where paper-sweep only reads
// it. The mix is built so the two percentiles sit in different modes:
// status polls make p50 a front-end number, while the p99 lands inside the
// counter-offer quotes (a tightest-deadline search each). A front-end
// change and an admission change therefore move different metrics.
//
// Request stream, per submitted job of a synthetic 64-processor log (its
// arrival times are fixed; the seed draws every job's DAG), in kSegments
// streams, each served on a fresh restart:
//   submit (every other one with a deadline at slack 0.2, so about a third
//   of all submits are counter-offered);
//   counter-offer-accept when the offer stretches the turnaround by at
//   most kStretchLimit;  kPollsPerSubmit status polls;  and a cancel of
//   every kCancelEvery-th accepted job.
//
// Each stream runs on one CPU: one closed-loop client keeps at most one
// thread runnable at a time, and the cost of waking a thread on another
// vCPU swings with the host's load, which made the front-end p50 move by
// half between runs of one seed. The streams take the CPUs in turn, so a
// run spans every CPU it may use: pinned all to the CPU it started on, a
// run's figures followed that one vCPU's load (one run of five answered
// 20% faster on every metric).
//
// Set-up is a daemon restart: recover() a WAL of the log's first
// kImageJobs submit cycles, written before the timed phase, then bind the
// socket and connect. The WAL is the same restart image for every seed
// (drawn with kWalSeed and lenient deadlines, so its recovery re-admits
// jobs without counter-offer searches, whose number swung the restart cost
// twofold between seeds); the timed phase continues the log from there
// with the run's seed. The restart is repeated on a daemon of its own,
// before and after the timed phase, and set-up is the median. The state
// directory lives inside the checkout (a benchmark may not write
// elsewhere); its filesystem type is part of the machine record.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench/src/ledger.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/online/replay.hpp"
#include "src/srv/client.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"
#include "src/srv/wal.hpp"
#include "src/util/rng.hpp"
#include "src/workload/synth.hpp"

namespace perfbench {

namespace {

using namespace resched;
namespace fs = std::filesystem;

constexpr int kCpus = 64;
constexpr double kSlack = 0.2;  ///< deadline slack of the timed stream
constexpr std::uint64_t kLogSeed = 1;  ///< the arrival log
constexpr std::uint64_t kWalSeed = 1;  ///< the restart image's DAGs
constexpr double kImageSlack = 3.0;  ///< deadline slack of the restart image
constexpr int kImageJobs = 250;
constexpr int kTinyImageJobs = 10;
constexpr int kSegments = 8;  ///< independent streams in the timed phase
constexpr int kTracedJobs = 250;  ///< fixed traced pass (count gate)
constexpr int kTinyTracedJobs = 20;
constexpr int kPollsPerSubmit = 4;
constexpr int kCancelEvery = 25;
constexpr double kStretchLimit = 4.0;
/// Set-up samples, taken before and after the timed phase so that their
/// median spans the host's conditions over the run. (Restarts during the
/// phase fragment the heap and raised peak_rss_mb by 4%.)
constexpr int kRestartsBefore = 12;
constexpr int kRestartsAfter = 12;
/// Submit cycles per --seconds of the timed phase (about 5.3 RPCs each;
/// one vCPU of a 4-core Xeon VM answers 110 to 190 cycles per second).
/// Kept low because the durability check afterwards replays them all.
constexpr double kCyclesPerSecond = 120.0;
/// Round trips above this are the slow mode (admission searches).
constexpr double kSlowMs = 5.0;

enum VerbIdx { kSubmit, kStatus, kAccept, kCancel, kVerbs };
const char* const kVerbNames[kVerbs] = {"submit", "status", "accept", "cancel"};

/// The arrival log, the same for every seed: with the arrivals drawn per
/// seed, the share of counter-offered submits (and with it ops_per_s)
/// moved between seeds.
workload::Log make_log() {
  workload::SyntheticLogSpec log_spec = workload::sdsc_blue_spec();
  log_spec.cpus = kCpus;
  log_spec.duration_days = 120.0;
  // Stationary arrivals: the diurnal swing would put the run's share of
  // counter-offers at the mercy of where in the day the timed phase falls.
  log_spec.diurnal_amplitude = 0.0;
  util::Rng rng(util::derive_seed(kLogSeed, {0xDAE}));
  return workload::generate_log(log_spec, rng);
}

/// The log's jobs as submissions, each with a DAG drawn from `seed`; every
/// other job has a deadline. (Drawn per job, the number of deadline jobs
/// moved the counter-offer share, and with it ops_per_s, between seeds.)
std::vector<online::JobSubmission> make_stream(const workload::Log& log,
                                               std::uint64_t seed, double slack,
                                               int max_jobs) {
  online::ReplaySpec spec;
  spec.app.num_tasks = 10;
  spec.app.min_seq_time = 60.0;
  spec.app.max_seq_time = 3600.0;
  spec.deadline_fraction = 1.0;
  spec.deadline_slack = slack;
  spec.seed = seed;
  spec.max_jobs = max_jobs;
  std::vector<online::JobSubmission> jobs = online::submissions_from_log(log, spec);
  for (std::size_t i = 1; i < jobs.size(); i += 2) jobs[i].deadline.reset();
  return jobs;
}

srv::ServerCoreConfig core_config(const std::string& state_dir) {
  srv::ServerCoreConfig config;
  config.service.capacity = kCpus;
  config.state_dir = state_dir;
  config.wal_sync = srv::WalSync::kBatch;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void copy_dir(const std::string& from, const std::string& to) {
  remove_tree(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

/// One in-process reschedd: ServerCore + socket front-end + accept thread.
struct Daemon {
  std::string state_dir;
  std::string sock;
  std::unique_ptr<srv::ServerCore> core;
  std::unique_ptr<srv::Server> server;
  std::thread acceptor;
  double recover_s = 0.0;

  Daemon(const std::string& dir, const std::string& socket_path)
      : state_dir(dir), sock(socket_path) {
    core = std::make_unique<srv::ServerCore>(core_config(dir));
    const Clock::time_point t0 = Clock::now();
    core->recover();
    recover_s = seconds_since(t0);
    srv::ServerOptions options;
    options.unix_path = sock;
    server = std::make_unique<srv::Server>(*core, options);
    server->start();
    acceptor = std::thread([this] { server->serve(); });
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Stops the daemon through the protocol and writes its artifacts.
  void shutdown(srv::Client& client) {
    client.shutdown_server();
    acceptor.join();
    core->finalize();
  }
  ~Daemon() {
    if (acceptor.joinable()) {
      server->stop();
      acceptor.join();
    }
  }
};

struct Sample {
  int verb = kStatus;
  double ms = 0.0;
};

/// What the checks need from one answered deadline admission.
struct Admission {
  int job = 0;
  double finish = 0.0;
  double deadline = 0.0;
};

/// The closed-loop client: one submit cycle at a time.
class Mix {
 public:
  Mix(const std::vector<online::JobSubmission>& jobs, std::size_t first)
      : jobs_(jobs), next_(first) {}

  bool exhausted() const { return next_ >= jobs_.size(); }

  /// Issues one job's submit cycle over `client`.
  void cycle(srv::Client& client) {
    const online::JobSubmission& job = jobs_[next_++];
    const int id = job.job_id;
    const double t = job.submit;
    const std::optional<double> deadline = job.deadline;
    srv::proto::Request submit = simple(srv::proto::Verb::kSubmit, id, t);
    submit.deadline = deadline;
    submit.dag = job.dag;
    srv::proto::Response r = call(client, kSubmit, submit);
    if (r.state == "offered" && deadline &&
        r.offer - t <= kStretchLimit * (*deadline - t)) {
      const double offer = r.offer;
      r = call(client, kAccept, simple(srv::proto::Verb::kCounterOfferAccept, id, t));
      if (r.state == "accepted") admissions_.push_back({id, r.finish, offer});
      else bad("accept of job " + std::to_string(id) + " answered " + r.state);
    } else if (r.state == "accepted") {
      if (deadline) admissions_.push_back({id, r.finish, *deadline});
      if (++accepted_ % kCancelEvery == 0) {
        for (int p = 0; p < kPollsPerSubmit; ++p)
          call(client, kStatus, simple(srv::proto::Verb::kStatus, id, t));
        const srv::proto::Response c =
            call(client, kCancel, simple(srv::proto::Verb::kCancel, id, t));
        if (c.state != "cancelled")
          bad("cancel of job " + std::to_string(id) + " answered " + c.state);
        return;
      }
    } else if (r.state != "offered" && r.state != "rejected") {
      bad("submit of job " + std::to_string(id) + " answered " + r.state);
    }
    for (int p = 0; p < kPollsPerSubmit; ++p)
      call(client, kStatus, simple(srv::proto::Verb::kStatus, id, t));
  }

  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Admission>& admissions() const { return admissions_; }
  const std::vector<srv::proto::Request>& sent() const { return sent_; }
  std::uint64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }
  void keep_requests(bool on) { keep_requests_ = on; }

 private:
  static srv::proto::Request simple(srv::proto::Verb verb, int id, double t) {
    srv::proto::Request r;
    r.verb = verb;
    r.job_id = id;
    r.time = t;
    return r;
  }

  srv::proto::Response call(srv::Client& client, int verb,
                            const srv::proto::Request& request) {
    static const char* const kSpans[kVerbs] = {"bench.rpc.submit", "bench.rpc.status",
                                               "bench.rpc.accept", "bench.rpc.cancel"};
    srv::proto::Response response;
    const Clock::time_point t0 = Clock::now();
    {
      BenchSpan span(kSpans[verb]);
      response = client.call(request);
    }
    samples_.push_back({verb, seconds_since(t0) * 1e3});
    if (keep_requests_) sent_.push_back(request);
    if (!response.ok) bad(std::string(kVerbNames[verb]) + " failed: " + response.error);
    return response;
  }

  void bad(const std::string& why) {
    if (failed_++ == 0) first_error_ = why;
  }

  const std::vector<online::JobSubmission>& jobs_;
  std::size_t next_;
  std::vector<Sample> samples_;
  std::vector<Admission> admissions_;
  std::vector<srv::proto::Request> sent_;
  bool keep_requests_ = false;
  int accepted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_error_;
};

std::vector<double> latencies(const std::vector<Sample>& samples, int verb) {
  std::vector<double> out;
  for (const Sample& s : samples)
    if (verb < 0 || s.verb == verb) out.push_back(s.ms);
  return out;
}

/// Writes the pre-existing WAL: `n` submit cycles through a daemon of its
/// own, then a clean shutdown.
void prewrite(const std::vector<online::JobSubmission>& jobs, int n,
              const std::string& dir) {
  remove_tree(dir);
  std::string sock = dir + ".sock";
  Daemon d(dir, sock);
  srv::Client client = srv::Client::connect_unix(sock);
  Mix mix(jobs, 0);
  for (int i = 0; i < n; ++i) mix.cycle(client);
  if (mix.failed() > 0)
    throw std::runtime_error("daemon-mix: prewrite failed: " + mix.first_error());
  d.shutdown(client);
  // The template keeps only the log: a restart recovers from it.
  fs::remove(dir + "/trace.jsonl");
  fs::remove(dir + "/calendar.tsv");
}

/// acked => durable: recover the daemon's WAL into a fresh ServerCore and
/// demand byte-identical finalize() artifacts. Returns the number of WAL
/// records the recovery lost (at least 1 on any mismatch).
std::uint64_t check_durability(const std::string& live_dir,
                               const std::string& check_dir,
                               std::uint64_t live_records, bool corrupt,
                               std::string& why) {
  remove_tree(check_dir);
  make_dirs(check_dir);
  fs::copy_file(live_dir + "/wal", check_dir + "/wal");
  if (corrupt) {
    // Flip one byte in the middle of the log.
    std::fstream f(check_dir + "/wal", std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const std::streamoff mid = f.tellg() / 2;
    f.seekg(mid);
    char c = 0;
    f.get(c);
    f.seekp(mid);
    f.put(static_cast<char>(c ^ 0x5A));
  }
  srv::ServerCore fresh(core_config(check_dir));
  fresh.recover();
  fresh.finalize();
  std::uint64_t lost = live_records - std::min(live_records, fresh.wal_records());
  for (const char* artifact : {"/trace.jsonl", "/calendar.tsv"})
    if (read_file(live_dir + artifact) != read_file(check_dir + artifact)) {
      why = std::string("recovered ") + (artifact + 1) + " differs from the live daemon's";
      lost = std::max<std::uint64_t>(lost, 1);
    }
  return lost;
}

/// What the metrics and the checks need from one served stream.
struct Stream {
  double wall = 0.0;
  std::uint64_t records = 0;
  bool exhausted = false;
  std::uint64_t failed = 0;
  std::string first_error;
  double peak_rss_mb = 0.0;
  std::vector<Sample> samples;
  std::vector<Admission> admissions;
};

Stream to_stream(const Mix& mix, double wall, std::uint64_t records, double peak_mb) {
  return Stream{wall,    records,       mix.exhausted(), mix.failed(), mix.first_error(),
                peak_mb, mix.samples(), mix.admissions()};
}

/// A stream's report from the process that served it.
std::string encode(const Stream& s) {
  std::string out;
  for (double v : {s.wall, static_cast<double>(s.records), s.exhausted ? 1.0 : 0.0,
                   static_cast<double>(s.failed), s.peak_rss_mb,
                   static_cast<double>(s.samples.size()),
                   static_cast<double>(s.admissions.size())})
    put_double(out, v);
  for (const Sample& x : s.samples) {
    put_double(out, x.verb);
    put_double(out, x.ms);
  }
  for (const Admission& a : s.admissions) {
    put_double(out, a.job);
    put_double(out, a.finish);
    put_double(out, a.deadline);
  }
  return out + s.first_error;
}

/// Reads back what encode() wrote.
Stream decode(const std::string& bytes) {
  Stream s;
  std::size_t pos = 0;
  s.wall = take_double(bytes, pos);
  s.records = static_cast<std::uint64_t>(take_double(bytes, pos));
  s.exhausted = take_double(bytes, pos) != 0.0;
  s.failed = static_cast<std::uint64_t>(take_double(bytes, pos));
  s.peak_rss_mb = take_double(bytes, pos);
  const std::size_t n = static_cast<std::size_t>(take_double(bytes, pos));
  const std::size_t m = static_cast<std::size_t>(take_double(bytes, pos));
  for (std::size_t i = 0; i < n; ++i) {
    Sample x;
    x.verb = static_cast<int>(take_double(bytes, pos));
    x.ms = take_double(bytes, pos);
    s.samples.push_back(x);
  }
  for (std::size_t i = 0; i < m; ++i) {
    Admission a;
    a.job = static_cast<int>(take_double(bytes, pos));
    a.finish = take_double(bytes, pos);
    a.deadline = take_double(bytes, pos);
    s.admissions.push_back(a);
  }
  s.first_error = bytes.substr(pos);
  return s;
}

}  // namespace

Report run_daemon_mix(const Args& args) {
  Report report;
  // Relative paths: run.py starts the binary from the repository root, and
  // a unix socket path must stay under 108 bytes wherever the tree lives.
  const std::string& work = args.work_dir;
  const std::string tmpl = work + "/wal-template";
  const std::string state = work + "/state";
  const std::string sock = work + "/reschedd.sock";
  const std::vector<int> cpus = allowed_cpus();
  std::size_t turn = 0;  // round robin over `cpus`, one turn per daemon
  report.notes.push_back(pin_to(cpus, turn)
                             ? "daemons pinned in turn to " + std::to_string(cpus.size()) +
                                   " cpu(s)"
                             : "not pinned (sched_setaffinity refused)");
  const workload::Log log = make_log();
  const int image_jobs = args.tiny ? kTinyImageJobs : kImageJobs;
  const std::vector<online::JobSubmission> image = make_stream(log, kWalSeed, kImageSlack, image_jobs);
  prewrite(image, image_jobs, tmpl);

  // A daemon restart on a fresh copy of the image: recover, bind, connect.
  // Returns its wall time.
  std::vector<double> setups, recovers;
  std::uint64_t recovered_records = 0;
  auto restart = [&](const std::string& dir, std::unique_ptr<Daemon>& d,
                     std::unique_ptr<srv::Client>& c) {
    copy_dir(tmpl, dir);
    const Clock::time_point t0 = Clock::now();
    d = std::make_unique<Daemon>(dir, sock);
    c = std::make_unique<srv::Client>(srv::Client::connect_unix(sock));
    const double s = seconds_since(t0);
    recovers.push_back(d->recover_s);
    recovered_records = d->core->wal_records();
    return s;
  };
  // One set-up sample: a restart of a daemon of its own, stopped again at
  // once.
  auto sample_restart = [&] {
    pin_to(cpus, turn++);
    std::unique_ptr<Daemon> d;
    std::unique_ptr<srv::Client> c;
    setups.push_back(restart(work + "/restart", d, c));
    d->shutdown(*c);
  };
  for (int i = 0; i < (args.tiny ? 1 : kRestartsBefore); ++i) sample_restart();

  // Plays submit cycles of `jobs` past the image on a fresh restart in
  // `dir` until `n` cycles and `min_ops` RPCs are done (traced when
  // `ledger` is given), then stops the daemon.
  struct Served {
    Mix mix;
    double wall = 0.0;
    std::uint64_t records = 0;
  };
  auto serve = [&](const std::vector<online::JobSubmission>& jobs, const std::string& dir,
                   int n, std::uint64_t min_ops, Ledger* ledger) {
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<srv::Client> client;
    restart(dir, daemon, client);
    Served s{Mix(jobs, static_cast<std::size_t>(image_jobs))};
    s.mix.keep_requests(ledger != nullptr);
    if (ledger) ledger->start();
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; !s.mix.exhausted() && (i < n || s.mix.samples().size() < min_ops); ++i)
      s.mix.cycle(*client);
    s.wall = seconds_since(t0);
    if (ledger) ledger->stop();
    s.records = daemon->core->wal_records();
    daemon->shutdown(*client);
    return s;
  };

  // What the checks and metrics need from the served streams.
  struct Segment {
    std::string dir;
    std::uint64_t records = 0;
  };
  std::vector<Segment> segments;
  std::vector<Sample> samples;
  std::uint64_t admissions = 0, late = 0;
  double peak_mb = 0.0;
  auto tally = [&](const Stream& s, const std::string& dir) {
    if (s.exhausted) report.fail("daemon-mix: request stream exhausted", 1);
    if (s.failed > 0) report.fail(s.first_error, s.failed);
    for (const Admission& a : s.admissions) late += a.finish <= a.deadline ? 0 : 1;
    admissions += s.admissions.size();
    samples.insert(samples.end(), s.samples.begin(), s.samples.end());
    segments.push_back({dir, s.records});
    peak_mb = std::max(peak_mb, s.peak_rss_mb);
  };

  Ledger ledger;
  double wall = 0.0, untraced_s = 0.0;
  std::vector<srv::proto::Request> sent;
  if (!args.trace) {
    // Fixed work sized by --seconds (kCyclesPerSecond submit cycles per
    // second of a reference run): the daemon keeps per-job history in
    // memory, so a time-bounded phase would tie peak_rss_mb to throughput.
    // It is split into kSegments streams of their own seeds, each on a
    // fresh restart: one calendar evolving over the whole phase let a
    // congested stretch early on set the share of counter-offers for the
    // rest of the run. Each stream runs in a fresh process: on a shared VM
    // one process ran at a speed of its own for its whole life, so a run
    // in one process followed that process's luck.
    const int cycles = static_cast<int>(args.seconds * kCyclesPerSecond) / kSegments;
    make_dirs(state);
    for (int seg = 0; seg < kSegments; ++seg) {
      const std::uint64_t want = args.tiny ? 1 : kMinOps;
      const std::uint64_t min_ops =
          seg + 1 < kSegments || samples.size() >= want ? 0 : want - samples.size();
      const std::vector<online::JobSubmission> jobs = make_stream(
          log, util::derive_seed(args.seed, {static_cast<std::uint64_t>(seg)}), kSlack,
          image_jobs + cycles + static_cast<int>(min_ops) + 1);
      const std::string dir = state + "/" + std::to_string(seg);
      pin_to(cpus, turn++);
      const Stream s = decode(run_in_child([&] {
        const Served served = serve(jobs, dir, cycles, min_ops, nullptr);
        return encode(to_stream(served.mix, served.wall, served.records, peak_rss_mb()));
      }));
      wall += s.wall;
      tally(s, dir);
    }
  } else {
    // Fixed work, untraced then traced, each on a fresh restart.
    const int n = args.tiny ? kTinyTracedJobs : kTracedJobs;
    const std::vector<online::JobSubmission> jobs =
        make_stream(log, args.seed, kSlack, image_jobs + n + 1);
    pin_to(cpus, turn++);
    untraced_s = serve(jobs, state, n, 0, nullptr).wall;
    const Served s = serve(jobs, state, n, 0, &ledger);
    wall = s.wall;
    sent = s.mix.sent();
    tally(to_stream(s.mix, s.wall, s.records, 0.0), state);
  }

  // --- correctness, outside the timed phase -------------------------------
  report.attempted = samples.size();
  if (late > 0) report.fail("accepted jobs finishing after their deadline", late);
  // peak_mb is the served phase's peak (the largest of the streams'
  // processes), taken before the restarts below and the durability checks
  // add daemons of their own.
  if (!args.trace)
    for (int i = 0; i < (args.tiny ? 1 : kRestartsAfter); ++i) sample_restart();
  report.set("setup_s", median(setups), "s");
  {
    std::ostringstream line;
    line << "restarts of " << recovered_records << " WAL records (s):";
    for (double s : setups) line << ' ' << s;
    report.notes.push_back(line.str());
  }

  // The streams' checks are independent, so they run side by side, one
  // per CPU: one after another they took as long as the timed phase.
  const Clock::time_point checks_t0 = Clock::now();
  std::vector<std::uint64_t> lost(segments.size(), 0);
  std::vector<std::string> why(segments.size());
  std::atomic<std::size_t> next_check{0};
  auto checker = [&] {
    for (std::size_t i; (i = next_check++) < segments.size();) {
      try {
        lost[i] = check_durability(segments[i].dir, work + "/state-check-" + std::to_string(i),
                                   segments[i].records, args.corrupt == "wal", why[i]);
      } catch (const std::exception& e) {
        lost[i] = std::max<std::uint64_t>(segments[i].records, 1);
        why[i] = e.what();
      }
    }
  };
  pin_to_all(cpus);
  std::vector<std::thread> checkers;
  for (std::size_t t = 0; t < std::min(segments.size(), std::max<std::size_t>(cpus.size(), 1)); ++t)
    checkers.emplace_back(checker);
  for (std::thread& t : checkers) t.join();
  std::uint64_t live_records = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (lost[i] > 0) report.fail("acked => durable violated: " + why[i], lost[i]);
    live_records += segments[i].records;
  }
  report.notes.push_back("admissions checked " + std::to_string(admissions) +
                         ", WAL records " + std::to_string(live_records) + " in " +
                         std::to_string(segments.size()) + " stream(s), checked in " +
                         std::to_string(seconds_since(checks_t0)) + " s");

  std::uint64_t slow = 0;
  for (const Sample& s : samples) slow += s.ms > kSlowMs ? 1 : 0;
  const double slow_share = static_cast<double>(slow) / static_cast<double>(samples.size());
  report.notes.push_back("slow RPCs (> " + std::to_string(kSlowMs) + " ms): " +
                         std::to_string(slow) + " of " + std::to_string(samples.size()));

  if (!args.trace) {
    const std::vector<double> all = latencies(samples, -1);
    report.set("ops_per_s", static_cast<double>(samples.size()) / wall, "1/s");
    report.set("latency_p50_ms", quantile(all, 0.50), "ms");
    report.set("latency_p99_ms", quantile(all, 0.99), "ms");
    report.set("latency_samples", static_cast<double>(samples.size()), "count");
    report.set("srv.slow_rpc_share", slow_share, "ratio");
    report.set("peak_rss_mb", peak_mb, "MB");
    return report;
  }

  // --- traced pass: per-layer metrics ------------------------------------
  set_common_layer_metrics(report, ledger);
  report.set("srv.slow_rpc_share", slow_share, "ratio");
  report.set("srv.recover_s", median(recovers), "s");
  report.set_count("srv.recover.records", recovered_records);
  for (int v = 0; v < kVerbs; ++v) {
    const std::vector<double> lat = latencies(samples, v);
    const std::string base = std::string("srv.rtt.") + kVerbNames[v];
    report.set(base + ".p50_ms", quantile(lat, 0.50), "ms");
    report.set(base + ".p99_ms", quantile(lat, 0.99), "ms");
  }
  report.set("srv.transport.p50_ms",
             report.find("srv.rtt.status.p50_ms")->value -
                 report.find("srv.server.status.p50_ms")->value,
             "ms");

  // Codec cost on the recorded request stream.
  std::vector<std::string> frames;
  frames.reserve(sent.size());
  Clock::time_point t0 = Clock::now();
  for (const srv::proto::Request& r : sent) frames.push_back(srv::proto::frame(srv::proto::encode(r)));
  const double encode_s = seconds_since(t0);
  std::size_t decoded = 0;
  t0 = Clock::now();
  for (const std::string& f : frames) {
    std::size_t consumed = 0;
    std::string payload;
    if (srv::proto::try_parse_frame(f, consumed, payload) == srv::proto::FrameStatus::kOk) {
      srv::proto::decode_request(payload);
      ++decoded;
    }
  }
  const double decode_s = seconds_since(t0);
  if (decoded != sent.size()) report.fail("recorded requests failed to decode", sent.size() - decoded);
  const double n_sent = static_cast<double>(std::max<std::size_t>(sent.size(), 1));
  report.set("srv.proto.encode_us", encode_s / n_sent * 1e6, "us");
  report.set("srv.proto.decode_us", decode_s / n_sent * 1e6, "us");

  // WAL cost: the log's records (prewritten and traced) appended and
  // synced one by one, one fsync each as a lone client sees them, in the
  // daemon's own state directory.
  const srv::WalScan scan = srv::read_wal(state + "/wal");
  const std::string wal_path = work + "/wal-replay";
  fs::remove(wal_path);
  double append_s = 0.0, fsync_s = 0.0;
  {
    srv::WalWriter writer;
    writer.open(wal_path, scan.header, srv::WalSync::kBatch);
    for (const srv::WalRecord& rec : scan.records) {
      t0 = Clock::now();
      const std::uint64_t lsn = writer.append(rec.rid, rec.payload);
      append_s += seconds_since(t0);
      t0 = Clock::now();
      writer.sync_to(lsn);
      fsync_s += seconds_since(t0);
    }
  }
  fs::remove(wal_path);
  const double n_rec = static_cast<double>(std::max<std::size_t>(scan.records.size(), 1));
  report.set("srv.wal.append_us", append_s / n_rec * 1e6, "us");
  report.set("srv.wal.fsync_us", fsync_s / n_rec * 1e6, "us");

  report.set("obs.trace_overhead_pct", 100.0 * (wall - untraced_s) / untraced_s, "%");
  report.notes.push_back("traced pass " + std::to_string(samples.size()) +
                         " RPCs: untraced " + std::to_string(untraced_s) + " s, traced " +
                         std::to_string(wall) + " s");
  std::ostringstream table;
  ledger.print_table(table);
  report.notes.push_back(table.str());
  ledger.write_jsonl(work + "/trace-daemon-mix.jsonl");
  return report;
}

}  // namespace perfbench
