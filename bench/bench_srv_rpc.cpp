// reschedd RPC throughput + latency (google-benchmark, DESIGN.md §10).
//
// Spins up one in-process daemon on a unix-domain socket with a real
// fsync'd WAL (WalSync::kBatch — the deployment configuration), then
// measures the full client round-trip:
//
//   * BM_SubmitRpc/1        — one client, serial submits: every RPC pays
//     its own fsync, so this is the durable-latency floor;
//   * BM_SubmitRpc/8        — eight concurrent clients: group commit
//     shares each disk flush across the requests that piled up behind it;
//   * BM_SubmitPipelined/N  — each client ships 64 submits per write and
//     the server drains the burst under ONE WAL flush (batch commit);
//     this is the throughput path that carries the >= 10k submit
//     RPCs/sec acceptance bar (a THROUGHPUT_BARS entry in
//     scripts/check_bench_regression.py);
//   * BM_SubmitPipelinedDeadline/N — the same pipelined burst but every
//     submit carries a deadline, so each admission also computes its
//     finish floor on the live calendar (one treap fit per task) and runs
//     the deadline feasibility pass: plain pipelined deadline admission;
//   * BM_StatusRpc/1        — read-only round-trip (no WAL record, no
//     engine mutation): the protocol + socket overhead baseline.
//
// The serial legs report rpc_per_sec plus client-observed p50_ns / p99_ns.
// The checked-in baseline bench/BENCH_srv_rpc.json is produced with:
//   ./build/bench/bench_srv_rpc --benchmark_format=json
//       --benchmark_min_time=0.5 > bench/BENCH_srv_rpc.json
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dag/dag.hpp"
#include "src/srv/client.hpp"
#include "src/srv/server.hpp"
#include "src/srv/server_core.hpp"

namespace {

using namespace resched;

/// A fresh daemon per benchmark leg: unix socket + WAL in a fresh temp
/// dir, group-commit sync policy. Leg isolation matters — a shared daemon
/// would let the earlier legs' accumulated outcomes/trace state bleed into
/// the later legs' timings.
struct Daemon {
  std::string dir;
  std::string sock;
  std::unique_ptr<srv::ServerCore> core;
  std::unique_ptr<srv::Server> server;
  std::thread acceptor;

  Daemon() {
    char tmpl[] = "/tmp/resched_bench_srv_XXXXXX";
    dir = mkdtemp(tmpl);
    sock = dir + "/d.sock";
    srv::ServerCoreConfig config;
    config.service.capacity = 64;
    // Short availability-history window so calendar compaction keeps the
    // breakpoint count flat as hundreds of thousands of tiny jobs stream
    // through — this bench measures RPC + durability overhead; calendar
    // asymptotics live in bench_scaling / bench_resv_index.
    config.service.history_window = 600.0;
    config.state_dir = dir;
    config.wal_sync = srv::WalSync::kBatch;
    core = std::make_unique<srv::ServerCore>(config);
    core->recover();
    srv::ServerOptions options;
    options.unix_path = sock;
    server = std::make_unique<srv::Server>(*core, options);
    server->start();
    acceptor = std::thread([this] { server->serve(); });
  }
  ~Daemon() {
    try {
      srv::Client::connect_unix(sock).shutdown_server();
    } catch (...) {
    }
    acceptor.join();
  }
};

/// Tiny best-effort job: one 1-second sequential task. Submissions march
/// the stream clock forward 10 s per job, so each job has long finished
/// (and been retired) by the time the next lands — the engine stays O(1)
/// and the bench measures RPC cost, not calendar growth.
const dag::Dag& tiny_dag() {
  static const dag::Dag d(std::vector<dag::TaskCost>{{1.0, 0.0}}, {});
  return d;
}

std::atomic<std::int64_t> g_next_job{1};

double percentile(std::vector<double> sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ns.size() - 1) + 0.5);
  return sorted_ns[std::min(idx, sorted_ns.size() - 1)];
}

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr int kBatchPerClient = 64;  ///< RPCs per client per iteration

void BM_SubmitRpc(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Daemon d;

  std::vector<srv::Client> conns;
  conns.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    conns.push_back(srv::Client::connect_unix(d.sock));

  std::vector<double> latencies_ns;
  std::mutex latencies_mu;
  std::uint64_t rpcs = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      workers.emplace_back([&, c] {
        std::vector<double> local_ns;
        local_ns.reserve(kBatchPerClient);
        for (int i = 0; i < kBatchPerClient; ++i) {
          const std::int64_t job = g_next_job.fetch_add(1);
          const double t0 = now_ns();
          const auto response = conns[static_cast<std::size_t>(c)].submit(
              static_cast<int>(job), static_cast<double>(job) * 10.0,
              tiny_dag());
          local_ns.push_back(now_ns() - t0);
          if (!response.ok) std::abort();  // bench invariant, never fires
        }
        const std::lock_guard<std::mutex> lock(latencies_mu);
        latencies_ns.insert(latencies_ns.end(), local_ns.begin(),
                            local_ns.end());
      });
    for (std::thread& w : workers) w.join();
    rpcs += static_cast<std::uint64_t>(clients) * kBatchPerClient;
  }

  state.counters["rpc_per_sec"] = benchmark::Counter(
      static_cast<double>(rpcs), benchmark::Counter::kIsRate);
  state.counters["p50_ns"] = percentile(latencies_ns, 0.50);
  state.counters["p99_ns"] = percentile(latencies_ns, 0.99);
}

// Pipelined submission: each client ships kBatchPerClient submits in one
// write and reads the burst of responses back. The server drains the whole
// burst under one WAL flush (batch commit), so the fsync and the syscalls
// amortize — this is the leg that carries the >= 10k RPCs/sec bar.
void BM_SubmitPipelined(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Daemon d;

  std::vector<srv::Client> conns;
  conns.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    conns.push_back(srv::Client::connect_unix(d.sock));

  std::uint64_t rpcs = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      workers.emplace_back([&, c] {
        std::vector<srv::proto::Request> burst;
        burst.reserve(kBatchPerClient);
        for (int i = 0; i < kBatchPerClient; ++i) {
          const std::int64_t job = g_next_job.fetch_add(1);
          srv::proto::Request request;
          request.verb = srv::proto::Verb::kSubmit;
          request.job_id = static_cast<int>(job);
          request.time = static_cast<double>(job) * 10.0;
          request.dag = tiny_dag();
          burst.push_back(std::move(request));
        }
        const auto responses =
            conns[static_cast<std::size_t>(c)].pipeline(burst);
        for (const auto& response : responses)
          if (!response.ok) std::abort();  // bench invariant, never fires
      });
    for (std::thread& w : workers) w.join();
    rpcs += static_cast<std::uint64_t>(clients) * kBatchPerClient;
  }
  state.counters["rpc_per_sec"] = benchmark::Counter(
      static_cast<double>(rpcs), benchmark::Counter::kIsRate);
}

// Deadline-burst pipelining: every submit in the burst carries a (loose,
// always feasible) deadline, forcing the admission floor + backward-pass
// machinery on each job.
void BM_SubmitPipelinedDeadline(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Daemon d;

  std::vector<srv::Client> conns;
  conns.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    conns.push_back(srv::Client::connect_unix(d.sock));

  std::uint64_t rpcs = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c)
      workers.emplace_back([&, c] {
        std::vector<srv::proto::Request> burst;
        burst.reserve(kBatchPerClient);
        for (int i = 0; i < kBatchPerClient; ++i) {
          const std::int64_t job = g_next_job.fetch_add(1);
          srv::proto::Request request;
          request.verb = srv::proto::Verb::kSubmit;
          request.job_id = static_cast<int>(job);
          request.time = static_cast<double>(job) * 10.0;
          // Loose enough to stay feasible even when concurrent flushes
          // interleave and t_eff = max(t, now) outruns the requested time
          // (worst-case in-flight skew: clients * batch * 10 s spacing).
          request.deadline = request.time + 10000.0;
          request.dag = tiny_dag();
          burst.push_back(std::move(request));
        }
        const auto responses =
            conns[static_cast<std::size_t>(c)].pipeline(burst);
        for (const auto& response : responses)
          if (!response.ok) std::abort();  // bench invariant, never fires
      });
    for (std::thread& w : workers) w.join();
    rpcs += static_cast<std::uint64_t>(clients) * kBatchPerClient;
  }
  state.counters["rpc_per_sec"] = benchmark::Counter(
      static_cast<double>(rpcs), benchmark::Counter::kIsRate);
}

void BM_StatusRpc(benchmark::State& state) {
  Daemon d;
  srv::Client client = srv::Client::connect_unix(d.sock);
  std::vector<double> latencies_ns;
  std::uint64_t rpcs = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatchPerClient; ++i) {
      const double t0 = now_ns();
      const auto response = client.status();
      latencies_ns.push_back(now_ns() - t0);
      if (!response.ok) std::abort();
    }
    rpcs += kBatchPerClient;
  }
  state.counters["rpc_per_sec"] = benchmark::Counter(
      static_cast<double>(rpcs), benchmark::Counter::kIsRate);
  state.counters["p50_ns"] = percentile(latencies_ns, 0.50);
  state.counters["p99_ns"] = percentile(latencies_ns, 0.99);
}

BENCHMARK(BM_SubmitRpc)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SubmitPipelined)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_SubmitPipelinedDeadline)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_StatusRpc)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
