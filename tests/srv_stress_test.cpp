// Concurrent-client stress test (DESIGN.md §10). Runs under the TSan CI
// leg as well as the default matrix.
//
// A second case checks that the daemon does not keep a thread (and its
// stack) per past connection: many short sequential clients must leave
// the process's virtual size bounded. A third pins the pipelined flush
// path: a burst drained from one connection is applied request by request
// under one core-lock acquisition and covered by one fsync, and must
// leave the same responses, WAL bytes and shutdown artifacts as one
// round-trip per request.
//
// Eight threads hammer one in-process daemon over a real unix socket with
// interleaved submit / status / cancel traffic. The interleaving is
// nondeterministic — but the server's core mutex defines a canonical
// serialization, and the WAL captures it. Afterwards a fresh ServerCore
// replays that WAL single-threaded ("golden replay") and must reproduce
//
//   * the live run's trace.jsonl and calendar.tsv byte-for-byte, and
//   * every admission outcome each client thread observed — a job the
//     live daemon answered "accepted" / "offered" / "cancelled" must be
//     in that state after replay too.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/obs/obs.hpp"
#include "src/srv/client.hpp"
#include "src/srv/proto.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"

namespace proto = resched::srv::proto;
using resched::dag::Dag;
using resched::dag::TaskCost;
using resched::srv::Client;
using resched::srv::Server;
using resched::srv::ServerCore;
using resched::srv::ServerCoreConfig;
using resched::srv::ServerOptions;
using resched::srv::WalSync;

namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 40;

struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed | 1) {}
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  std::size_t below(std::size_t n) { return next() % n; }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/resched_srv_stress_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

Dag chain_dag(Rng& rng) {
  const int tasks = 1 + static_cast<int>(rng.below(3));
  std::vector<TaskCost> costs;
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < tasks; ++i) {
    costs.push_back({900.0 + static_cast<double>(rng.below(3600)),
                     0.5 * static_cast<double>(rng.below(3))});
    if (i > 0) edges.emplace_back(i - 1, i);
  }
  return Dag(std::move(costs), edges);
}

/// What one client thread observed for one of its jobs.
struct Observed {
  std::string submit_state;  ///< accepted / offered / rejected
  bool cancelled_ok = false;
};

void client_thread(const std::string& sock, int thread_index,
                   std::map<int, Observed>& observed) {
  Rng rng(0x57AE55 + static_cast<std::uint64_t>(thread_index) * 7919);
  Client client = Client::connect_unix(sock);
  std::vector<int> my_jobs;
  int next_job = thread_index * 100000 + 1;
  for (int op = 0; op < kOpsPerThread; ++op) {
    const std::size_t roll = rng.below(10);
    // Times ride the server clock: status answers carry now(), and the
    // server clamps any stale request time up to now, so 0 is always safe.
    if (roll < 6 || my_jobs.empty()) {
      const int job = next_job++;
      std::optional<double> deadline;
      const std::size_t kind = rng.below(3);
      const double t = static_cast<double>(rng.below(1000));
      // The server clamps submit times up to now(), and now() never
      // exceeds the largest request time any thread sends (< 1000) — so a
      // deadline above 1000 stays valid under every interleaving. 1001..
      // 3000 is often too tight for a multi-hour chain (counter-offered),
      // sometimes loose enough to admit; both outcomes are fair game.
      if (kind == 1) deadline = 1001.0 + static_cast<double>(rng.below(2000));
      if (kind == 2) deadline = t + 1e7;  // generous
      const proto::Response r = client.submit(job, t, chain_dag(rng), deadline);
      ASSERT_TRUE(r.ok) << r.error;
      observed[job].submit_state = r.state;
      my_jobs.push_back(job);
    } else if (roll < 8) {
      const proto::Response r =
          client.status(my_jobs[rng.below(my_jobs.size())]);
      ASSERT_TRUE(r.ok) << r.error;
    } else {
      // Cancel one of our own jobs; "already cancelled" / "already
      // finished" / not-cancellable answers are legitimate outcomes.
      const int job = my_jobs[rng.below(my_jobs.size())];
      const proto::Response r = client.cancel(job, 0.0);
      if (r.ok) observed[job].cancelled_ok = true;
    }
  }
}

/// VmSize of this process in KiB, from /proc/self/status. An exited but
/// unjoined thread keeps its stack mapped, so leaked connection threads
/// show up here (they no longer appear under /proc/self/task).
long vm_size_kib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0;
}

/// A pipelined client's script: bursts of same-timestamp deadline submits
/// mixed with undated submits, status reads, cancels, and counter-offer
/// accepts.
std::vector<proto::Request> batch_script(int jobs) {
  std::vector<proto::Request> script;
  for (int j = 1; j <= jobs; ++j) {
    const double t = 40.0 * static_cast<double>((j - 1) / 4);  // 4-job bursts
    proto::Request submit;
    submit.verb = proto::Verb::kSubmit;
    submit.job_id = j;
    submit.time = t;
    std::vector<TaskCost> costs;
    for (int v = 0; v <= j % 3; ++v)
      costs.push_back({600.0 + 100.0 * static_cast<double>(j % 7), 0.0});
    submit.dag = Dag(std::move(costs), {});
    if (j % 4 == 0)
      submit.deadline = t + 1.0;  // infeasibly tight -> counter-offered
    else if (j % 2 == 0)
      submit.deadline = t + 1e6;  // generous -> accepted
    script.push_back(submit);

    if (j % 4 == 0) {
      proto::Request accept;
      accept.verb = proto::Verb::kCounterOfferAccept;
      accept.job_id = j;
      accept.time = t + 5.0;
      script.push_back(accept);
    }
    if (j % 5 == 0) {
      proto::Request status;
      status.verb = proto::Verb::kStatus;
      status.job_id = j - 1;
      status.time = t + 6.0;
      script.push_back(status);
    }
    if (j % 6 == 0) {
      proto::Request cancel;
      cancel.verb = proto::Verb::kCancel;
      cancel.job_id = j - 2;
      cancel.time = t + 7.0;
      script.push_back(cancel);
    }
  }
  return script;
}

/// Serves `script` from a fresh in-process daemon in `dir` and returns the
/// encoded responses. flush == 0 sends one call() per request; otherwise
/// the script goes out through Client::pipeline in bursts of `flush`
/// requests, each written in one send. Leaves the WAL and the shutdown
/// artifacts (trace.jsonl, calendar.tsv) in `dir`.
std::vector<std::string> serve_script(const std::string& dir,
                                      const std::vector<proto::Request>& script,
                                      std::size_t flush) {
  const std::string sock = dir + "/d.sock";
  ServerCoreConfig config;
  config.service.capacity = 16;
  config.state_dir = dir;
  ServerCore core(config);
  core.recover();
  Server server(core, [&] {
    ServerOptions options;
    options.unix_path = sock;
    return options;
  }());
  server.start();
  std::thread acceptor([&server] { server.serve(); });

  std::vector<std::string> encoded;
  {
    Client client = Client::connect_unix(sock);
    if (flush == 0) {
      for (const proto::Request& request : script)
        encoded.push_back(proto::encode(client.call(request)));
    } else {
      for (std::size_t i = 0; i < script.size(); i += flush) {
        const std::vector<proto::Request> burst(
            script.begin() + static_cast<std::ptrdiff_t>(i),
            script.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(i + flush, script.size())));
        for (const proto::Response& r : client.pipeline(burst))
          encoded.push_back(proto::encode(r));
      }
    }
  }
  Client::connect_unix(sock).shutdown_server();
  acceptor.join();
  core.finalize();
  return encoded;
}

bool outcome_matches(const Observed& seen, const std::string& golden_state) {
  if (seen.cancelled_ok) return golden_state == "cancelled";
  if (seen.submit_state == "accepted")
    return golden_state == "accepted" || golden_state == "done";
  return golden_state == seen.submit_state;
}

}  // namespace

TEST(SrvStress, ConcurrentClientsMatchGoldenWalReplay) {
  const std::string dir = make_temp_dir();
  const std::string sock = dir + "/d.sock";

  ServerCoreConfig config;
  config.service.capacity = 16;
  config.state_dir = dir;
  config.wal_sync = WalSync::kBatch;

  // --- live phase: 8 real clients against one in-process server ----------
  {
    ServerCore core(config);
    core.recover();
    Server server(core, [&] {
      ServerOptions options;
      options.unix_path = sock;
      return options;
    }());
    server.start();
    std::thread acceptor([&server] { server.serve(); });

    std::vector<std::map<int, Observed>> observed(kThreads);
    {
      std::vector<std::thread> clients;
      clients.reserve(kThreads);
      for (int i = 0; i < kThreads; ++i)
        clients.emplace_back(client_thread, sock, i, std::ref(observed[i]));
      for (std::thread& t : clients) t.join();
    }
    Client::connect_unix(sock).shutdown_server();
    acceptor.join();
    core.finalize();

    const std::string live_trace = read_file(dir + "/trace.jsonl");
    const std::string live_calendar = read_file(dir + "/calendar.tsv");
    ASSERT_FALSE(live_trace.empty());

    // --- golden phase: single-threaded WAL replay -------------------------
    ServerCore golden(config);
    golden.recover();

    int checked = 0;
    for (const auto& per_thread : observed)
      for (const auto& [job, seen] : per_thread) {
        proto::Request status;
        status.verb = proto::Verb::kStatus;
        status.job_id = job;
        const proto::Response r = golden.apply(status);
        EXPECT_TRUE(outcome_matches(seen, r.state))
            << "job " << job << ": live saw submit=" << seen.submit_state
            << " cancelled_ok=" << seen.cancelled_ok << ", golden replay says "
            << r.state;
        ++checked;
      }
    EXPECT_GE(checked, kThreads * kOpsPerThread / 2);

    golden.finalize();
    EXPECT_EQ(read_file(dir + "/trace.jsonl"), live_trace);
    EXPECT_EQ(read_file(dir + "/calendar.tsv"), live_calendar);
  }
}

TEST(SrvStress, SequentialConnectionsReapTheirThreads) {
  const std::string dir = make_temp_dir();
  const std::string sock = dir + "/d.sock";
  ServerCoreConfig config;
  config.service.capacity = 16;
  config.state_dir = dir;
  config.wal_sync = WalSync::kNone;

  ServerCore core(config);
  core.recover();
  Server server(core, [&] {
    ServerOptions options;
    options.unix_path = sock;
    return options;
  }());
  server.start();
  std::thread acceptor([&server] { server.serve(); });

  const auto one_client = [&sock] {
    Client client = Client::connect_unix(sock);
    EXPECT_TRUE(client.status().ok);
  };
  // Warm-up: allocator arenas and the first stacks are mapped once.
  for (int i = 0; i < 8; ++i) one_client();
  const long before = vm_size_kib();
  constexpr int kClients = 128;
  for (int i = 0; i < kClients; ++i) one_client();
  const long grown = vm_size_kib() - before;

  Client::connect_unix(sock).shutdown_server();
  acceptor.join();
  core.finalize();

  // A leaked thread keeps its whole stack (8 MiB by default) mapped, so
  // 128 of them would grow the process by about 1 GiB. Reaped threads
  // leave a few stacks in flight, plus at most a few 64 MiB malloc
  // arenas for threads that briefly overlapped.
  EXPECT_LT(grown, 256L * 1024) << "VmSize grew by " << grown << " KiB over "
                               << kClients << " sequential connections";
}

// Pipelining only changes how requests are grouped into flushes; the
// serialized request order, and so every byte the daemon produces, must
// be what one round-trip per request produces.
TEST(SrvBatch, PipelinedFlushesMatchSerialCallsByteForByte) {
  const std::vector<proto::Request> script = batch_script(24);
  const std::string serial_dir = make_temp_dir();
  const std::vector<std::string> want = serve_script(serial_dir, script, 0);
  ASSERT_EQ(want.size(), script.size());

  for (const std::size_t flush : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}}) {
    const std::string dir = make_temp_dir();
#ifndef RESCHED_OBS_DISABLED
    resched::obs::Histogram& frames =
        resched::obs::registry().histogram("srv.core.batch.frames");
    frames.reset();
    resched::obs::set_metrics_enabled(true);
#endif
    const std::vector<std::string> got = serve_script(dir, script, flush);
#ifndef RESCHED_OBS_DISABLED
    resched::obs::set_metrics_enabled(false);
    // Each burst leaves the client in one write, so the server drains
    // several frames per flush: the multi-request path is what ran.
    if (flush > 1) {
      EXPECT_GE(frames.max(), 2u) << "flush " << flush;
    }
#endif
    ASSERT_EQ(got.size(), want.size()) << "flush " << flush;
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i])
          << "flush " << flush << ": response " << i << " diverges";
    EXPECT_EQ(read_file(dir + "/wal"), read_file(serial_dir + "/wal"))
        << "flush " << flush;
    EXPECT_EQ(read_file(dir + "/trace.jsonl"),
              read_file(serial_dir + "/trace.jsonl"))
        << "flush " << flush;
    EXPECT_EQ(read_file(dir + "/calendar.tsv"),
              read_file(serial_dir + "/calendar.tsv"))
        << "flush " << flush;
  }
}
