#include "perfbench/src/common.hpp"

#include <sched.h>
#include <sys/personality.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/kernels/kernels.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  return 0.0;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  metrics.push_back(Metric{name, value, unit, false});
}

void Report::set_count(const std::string& name, std::uint64_t value) {
  set(name, static_cast<double>(value), "count");
  for (Metric& m : metrics)
    if (m.name == name) m.count = true;
}

void Report::fail(const std::string& why, std::uint64_t failed_ops) {
  correct = false;
  failed += failed_ops;
  notes.push_back("FAIL: " + why);
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::uint64_t counter_value(const resched::obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

resched::obs::HistogramSample histogram_sample(
    const resched::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return h;
  return {};
}

double histogram_quantile(const resched::obs::HistogramSample& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(h.count)));
  double seen = 0.0;
  for (const auto& [lower, n] : h.buckets) {
    const double cnt = static_cast<double>(n);
    if (seen + cnt >= rank) {
      // Bucket [lower, 2 * lower) (or {0}); spread its samples evenly.
      const double lo = static_cast<double>(lower);
      const double width = lower == 0 ? 0.0 : lo;
      const double frac = (rank - seen) / cnt;
      return std::clamp(lo + frac * width, static_cast<double>(h.min),
                        static_cast<double>(h.max));
    }
    seen += cnt;
  }
  return static_cast<double>(h.max);
}

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Restricts this thread, and every thread it creates afterwards, to the
/// k-th of `cpus` (round robin). Returns false when pinning is refused.
bool pin_to(const std::vector<int>& cpus, std::size_t k) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[k % cpus.size()], &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

/// Lifts the pinning: this thread may run on any of `cpus` again.
void pin_to_all(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

std::string run_in_child(const std::function<std::string()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const std::string out = fn();
      for (std::size_t done = 0; done < out.size();) {
        const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: child process: %s\n", e.what());
      code = 1;
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("child process failed");
  return out;
}

void put_double(std::string& out, double v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

double take_double(const std::string& in, std::size_t& pos) {
  double v = 0.0;
  if (pos + sizeof v > in.size()) throw std::runtime_error("short report from child process");
  std::memcpy(&v, in.data() + pos, sizeof v);
  pos += sizeof v;
  return v;
}

std::string filesystem_type(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
  return buf;
}

MachineRecord machine_record(bool traced, const std::string& state_path,
                             const std::string& wal_sync) {
  MachineRecord m;
  m.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        m.cpu_model = line.substr(colon + 1);
        m.cpu_model.erase(0, m.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  m.isa = resched::kernels::to_string(resched::kernels::active_isa());
  m.build_type = PERFBENCH_BUILD_TYPE;
  m.obs_compiled = PERFBENCH_OBS != 0;
  m.obs_runtime = traced ? "metrics+tracing in the traced pass" : "off";
  const int persona = ::personality(0xffffffff);
  m.aslr = persona == -1 || (persona & ADDR_NO_RANDOMIZE) == 0;
  m.state_path = state_path;
  m.state_fs = state_path.empty() ? "" : filesystem_type(state_path);
  m.wal_sync = wal_sync;
  return m;
}

std::string to_json(const MachineRecord& m) {
  std::ostringstream out;
  out << "{\"nproc\":" << m.nproc
      << ",\"cpu_model\":" << json_string(m.cpu_model)
      << ",\"isa\":" << json_string(m.isa)
      << ",\"build_type\":" << json_string(m.build_type)
      << ",\"resched_obs\":" << (m.obs_compiled ? "true" : "false")
      << ",\"obs_runtime\":" << json_string(m.obs_runtime)
      << ",\"aslr\":" << (m.aslr ? "true" : "false")
      << ",\"state_path\":" << json_string(m.state_path)
      << ",\"state_fs\":" << json_string(m.state_fs)
      << ",\"wal_sync\":" << json_string(m.wal_sync) << "}";
  return out.str();
}

void make_dirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shortest form that round-trips.
  for (int prec = 6; prec < 17; ++prec) {
    char tmp[40];
    std::snprintf(tmp, sizeof tmp, "%.*g", prec, v);
    if (std::strtod(tmp, nullptr) == v) return tmp;
  }
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
