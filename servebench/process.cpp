// Spawning qre_serve and reading its resource use from /proc.
//
// Server resource readings come only from /proc/<pid> of the spawned
// process, never from inside the program, so the benchmark measures the
// binary exactly as a user runs it.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "server/client.hpp"
#include "servebench.hpp"

extern char** environ;

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The one server alive at a time, for the signal handler.
std::atomic<pid_t> g_live_server{-1};

extern "C" void stop_server_and_die(int sig) {
  const pid_t pid = g_live_server.load();
  if (pid > 0) {
    ::kill(pid, SIGTERM);
    ::waitpid(pid, nullptr, 0);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void stop_server_on_signal() {
  ::signal(SIGINT, stop_server_and_die);
  ::signal(SIGTERM, stop_server_and_die);
}

ServerProcess::ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                             const std::string& log_path) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<std::string> argv_storage = {binary, "--port", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  stdout_fd_ = fds[0];

  if (rc != 0) {
    pid_ = -1;
    ::close(stdout_fd_);
    throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
  }
  g_live_server.store(pid_);

  // qre_serve prints "... listening on http://ADDR:PORT" once it is bound.
  std::string line;
  const auto deadline = t0 + std::chrono::seconds(60);
  while (line.find('\n') == std::string::npos) {
    pollfd p{stdout_fd_, POLLIN, 0};
    const int ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count());
    if (ms <= 0 || ::poll(&p, 1, ms) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) break;
    line.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t colon = line.rfind(':');
  const long port =
      colon == std::string::npos ? 0 : std::strtol(line.c_str() + colon + 1, nullptr, 10);
  if (line.find("listening on") == std::string::npos || port <= 0 || port > 65535) {
    stop();
    throw std::runtime_error("qre_serve did not start (see " + log_path + ")");
  }
  port_ = static_cast<std::uint16_t>(port);

  qre::server::Client client("127.0.0.1", port_);
  const qre::server::Client::Result health = client.get("/healthz");
  if (!health.ok || health.status != 200) {
    stop();
    throw std::runtime_error("qre_serve /healthz did not answer 200");
  }
  setup_s_ = seconds_since(t0);
}

ServerProcess::~ServerProcess() { stop(); }

int ServerProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point t0 = Clock::now();
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && seconds_since(t0) < 30) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  g_live_server.store(-1);
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name start at field 3; utime
  // and stime are fields 14 and 15.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("cannot read /proc stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("cannot read VmHWM");
}

double self_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

std::pair<double, double> machine_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the aggregate "cpu" line: user nice system idle iowait irq softirq steal ...
  double total = 0, steal = 0, value = 0;
  for (int i = 0; i < 8 && in >> value; ++i) {
    total += value;
    if (i == 7) steal = value;
  }
  return {steal, total};
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace servebench
